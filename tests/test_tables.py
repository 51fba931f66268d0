"""The column CSV writer against the row-template writer it replaced and
against Python's ``'%.17g' %`` cell by cell; both writers rewriting an
existing file in place."""

import hashlib
import json
import math
import os
import stat
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ndspin import tables
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


def _exactness_values(rng):
    """At least 10^5 doubles: random bit patterns; every power of ten and
    its neighbours one ulp away; decimal ties at the 17th digit; subnormals;
    the specials."""
    bits = rng.integers(0, 2**64, 80_000, dtype=np.uint64)
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    decades = np.concatenate([powers, np.nextafter(powers, 0.0),
                              np.nextafter(powers, np.inf)])
    # N + r / 2^j with 18 - j integer digits: exactly 18 significant
    # digits ending in 5, so rounding to 17 is a tie (1234567890123456.25).
    ties = [1234567890123456.25, 1234567890123456.75, 0.5, 2.5, 1e16 + 2.0]
    for j in range(2, 9):
        whole = rng.integers(10**(17 - j), 10**(18 - j), 300)
        odd = 2 * rng.integers(0, 2**(j - 1), 300) + 1
        ties += (whole + odd / 2.0**j).tolist()
    subnormals = rng.integers(1, 2**52, 2_000, dtype=np.uint64).view(np.float64)
    specials = [0.0, math.inf, math.nan, _bits(0x7FF8000000000001),
                _bits(0x7FF0000000000ABC), _bits(0x7FFFFFFFFFFFFFFF),
                5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                1e-280, 1e280, 0.1, 1.0 / 3.0, 1e-5, 0.0001, 1e16, 1e17]
    x = np.concatenate([bits.view(np.float64), decades, ties, subnormals,
                        specials, np.linspace(-2.0, 2.0, 20_001)])
    return np.concatenate([x, -x])


def test_every_float_matches_python_formatter(tmp_path):
    rng = np.random.default_rng(20)
    x = _exactness_values(rng)
    assert len(x) >= 10**5
    single = rng.integers(0, 2**32, len(x), dtype=np.uint32).view(np.float32)
    flags = rng.random(len(x)) < 0.5
    path = tmp_path / "exact.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_csv(str(path), ("x", "single", "flag"), (x, single, flags))
    with np.errstate(invalid="ignore"):  # float32 signalling NaNs
        widened = single.astype(float)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,single,flag"
    expected = ["%.17g,%.17g,%.17g" % row for row in
                zip(x.tolist(), widened.tolist(), flags.tolist())]
    wrong = [(v, got, want) for v, got, want in zip(x.tolist(), lines[1:], expected)
             if got != want]
    assert len(lines) == len(x) + 1
    assert not wrong, wrong[:5]


def test_table_longer_than_one_block_matches_row_template(tmp_path):
    rng = np.random.default_rng(21)
    n = tables._BLOCK_ROWS + 4_321
    pool = rng.standard_normal(50_000) * 10.0 ** rng.integers(-30, 30, 50_000)
    columns = [np.linspace(0.0, 1.0, n), rng.choice(pool, n),
               rng.integers(-5, 5, n), rng.standard_normal(n).astype(np.float32)]
    header = [f"c{k}" for k in range(len(columns))]
    write_csv(str(tmp_path / "new.csv"), header, columns)
    _row_template_csv(str(tmp_path / "old.csv"), header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


#: Peak resident memory that writing a 10^6-row table of seven distinct
#: float columns and one integer column may add: 4 bytes per cell.  The
#: writer converts and assembles one block of rows at a time; it adds about
#: 5 MB.  With 32 bytes of text per distinct value of the whole table and
#: an index per cell it added about 390 MB, and with one Python string per
#: distinct value 97 MB at 10^5 rows.
_RSS_BOUND_MB = 32

_RSS_SCRIPT = """
import resource, sys
import numpy as np
from ndspin.tables import write_csv
n = 10**6
rng = np.random.default_rng(22)
columns = [np.linspace(0.0, 1.0, n), *(rng.standard_normal(n) for _ in range(6)),
           rng.integers(-1, 2, n)]
write_csv(sys.argv[1], ["c"] * 8, [c[:10] for c in columns])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
write_csv(sys.argv[1], [f"c{k}" for k in range(8)], columns)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) / 1024)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in kilobytes on Linux")
def test_million_row_table_memory_is_bounded(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(tables.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _RSS_SCRIPT, str(tmp_path / "big.csv")],
                         env=env, capture_output=True, text=True, timeout=300,
                         check=True)
    rise_mb = float(out.stdout)
    assert rise_mb < _RSS_BOUND_MB
    with open(tmp_path / "big.csv", "rb") as fh:
        assert sum(1 for _ in fh) == 10**6 + 1


#: A CSV of a few kB and a short JSON document, each written by its writer.
_ARTIFACTS = {
    "csv": lambda path: write_csv(str(path), ["x", "n"],
                                  [np.linspace(0.0, 1.0, 300), np.arange(300)]),
    "json": lambda path: tables.write_json(
        str(path), json.dumps({"a": [1.5, -0.25], "b": "text"}, indent=2)),
}


def _digest(path):
    data = path.read_bytes()
    return hashlib.sha256(data).hexdigest(), len(data)


@pytest.fixture
def fresh(tmp_path):
    """sha256 and size of each artifact written into a fresh file."""
    digests = {}
    for kind, write in _ARTIFACTS.items():
        write(tmp_path / f"fresh.{kind}")
        digests[kind] = _digest(tmp_path / f"fresh.{kind}")
    return digests


@pytest.mark.parametrize("kind", sorted(_ARTIFACTS))
@pytest.mark.parametrize("scale", [3.0, 0.5], ids=["over_longer", "over_shorter"])
def test_rewrite_over_existing_file_matches_fresh_write(tmp_path, fresh, kind,
                                                        scale):
    path = tmp_path / f"old.{kind}"
    path.write_bytes(b"#" * int(scale * fresh[kind][1]))
    _ARTIFACTS[kind](path)
    assert _digest(path) == fresh[kind]


@pytest.mark.parametrize("kind", sorted(_ARTIFACTS))
def test_rewrite_keeps_hard_link_and_inode(tmp_path, fresh, kind):
    path, other = tmp_path / f"art.{kind}", tmp_path / f"other.{kind}"
    path.write_bytes(b"#" * (3 * fresh[kind][1]))
    os.link(path, other)
    inode = path.stat().st_ino
    _ARTIFACTS[kind](path)
    assert path.stat().st_ino == other.stat().st_ino == inode
    assert _digest(other) == fresh[kind]


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
@pytest.mark.parametrize("kind", sorted(_ARTIFACTS))
def test_rewrite_through_symlink_to_device(tmp_path, kind):
    # a character device is written, never cut
    path = tmp_path / f"null.{kind}"
    path.symlink_to("/dev/null")
    _ARTIFACTS[kind](path)
    assert path.is_symlink() and os.readlink(path) == "/dev/null"


@pytest.mark.parametrize("kind", sorted(_ARTIFACTS))
def test_new_file_mode_follows_umask(tmp_path, fresh, kind):
    path = tmp_path / "sub" / f"new.{kind}"
    old = os.umask(0o027)
    try:
        _ARTIFACTS[kind](path)
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~0o027
    assert _digest(path) == fresh[kind]


def test_error_in_second_block_leaves_header_and_first_block(tmp_path,
                                                             monkeypatch):
    n = tables._BLOCK_ROWS + 10
    columns = [np.linspace(0.0, 1.0, n), np.arange(n)]
    head = tmp_path / "head.csv"
    write_csv(str(head), ["x", "n"], [c[:tables._BLOCK_ROWS] for c in columns])
    path = tmp_path / "table.csv"
    path.write_bytes(b"#" * (3 * _digest(head)[1]))
    cell_text, calls = tables._cell_text, []

    def fails_on_second_block(arrays, is_int):
        calls.append(len(arrays[0]))
        if len(calls) == 2:
            raise RuntimeError("second block")
        return cell_text(arrays, is_int)

    monkeypatch.setattr(tables, "_cell_text", fails_on_second_block)
    with pytest.raises(RuntimeError, match="second block"):
        write_csv(str(path), ["x", "n"], columns)
    assert calls == [tables._BLOCK_ROWS, 10]
    assert _digest(path) == _digest(head)
