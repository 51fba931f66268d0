"""The column CSV writer against the row-template writer it replaced."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ndspin.tables import write_csv


def _row_template_csv(path, header, columns):
    """Oracle: one row template, ``%d`` for an integer column and ``%.17g``
    for any other, applied to every row; one format call per cell."""
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if np.issubdtype(c.dtype, np.integer) else "%.17g"
                   for c in columns) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % r for r in zip(*(c.tolist() for c in columns),
                                            strict=True))


def _bits(u):
    return struct.unpack("<d", struct.pack("<Q", u))[0]


#: Values whose text or bit pattern a per-value cache could confuse: signed
#: zeros, NaNs with other signs and payloads, infinities, subnormals and the
#: ends of the exponent range.
_SPECIAL = [0.0, -0.0, math.nan, -math.nan, _bits(0x7FF8000000000001),
            _bits(0xFFF0000000000ABC), math.inf, -math.inf, 5e-324, -5e-324,
            2.2250738585072014e-308 / 3.0, 1e300, -1e300, 1e-300, -1e-300,
            0.1, 1.0 / 3.0]
_floats = st.one_of(st.sampled_from(_SPECIAL), st.floats())
_int64 = st.integers(-2**63, 2**63 - 1)


@st.composite
def _column(draw, n):
    """One column of n cells; values repeat when drawn from a small pool."""
    kind = draw(st.sampled_from(["float64", "float32", "int64", "int32", "bool",
                                 "float list", "int list", "bool list"]))
    if kind.startswith("bool"):
        values = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        elements = {"int64": _int64, "int list": _int64,
                    "int32": st.integers(-2**31, 2**31 - 1)}.get(kind, _floats)
        if draw(st.booleans()):
            elements = st.sampled_from(draw(st.lists(elements, min_size=1,
                                                     max_size=3)))
        values = draw(st.lists(elements, min_size=n, max_size=n))
    if kind.endswith("list"):
        return values
    with np.errstate(over="ignore"):  # float32 rounds 1e300 to inf
        return np.array(values, dtype=kind.removesuffix(" list"))


@st.composite
def _table(draw):
    n = draw(st.integers(0, 12))
    return draw(st.lists(_column(n), min_size=1, max_size=5))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_table())
@example([np.array([0.0, -0.0, 0.0, -0.0]), [4, -4, 4, -4]])
@example([np.array([math.nan, _bits(0x7FF8000000000001), -math.nan])])
@example([np.zeros(0), np.zeros(0, dtype=np.int64), []])
def test_column_writer_matches_row_template(tmp_path_factory, columns):
    tmp = tmp_path_factory.mktemp("csv")
    header = [f"c{k}" for k in range(len(columns))]
    write_csv(str(tmp / "new.csv"), header, columns)
    _row_template_csv(str(tmp / "old.csv"), header, columns)
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


@pytest.mark.parametrize("columns", [
    ([1.0, 2.0], [1]),
    (np.zeros(3), np.zeros(3, dtype=np.int64), np.zeros(2)),
    ([], [0.0]),
], ids=["lists", "arrays", "empty_and_one"])
def test_unequal_columns_raise(tmp_path, columns):
    header = [f"c{k}" for k in range(len(columns))]
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "new.csv"), header, columns)
    with pytest.raises(ValueError):
        _row_template_csv(str(tmp_path / "old.csv"), header, columns)
