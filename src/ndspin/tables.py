"""Deterministic CSV/JSON writers shared by the command-line front end.

A CSV table is written from equal-length columns.  Integer columns print
with ``%d`` and every other column, converted to float64, with ``%.17g``,
so identical inputs produce byte-identical files.  Each column is formatted
once per distinct value: floats are told apart by their bit pattern, so
``-0.0`` and ``0.0`` (and NaN payloads) keep their own text, and the rows
gather the text by index.  Axis columns such as time, bias or the grid
coordinates repeat a few values many times, so most cells cost no
conversion.
"""

from __future__ import annotations

import json
import os
from typing import Sequence

import numpy as np


def _column_text(column) -> list[str]:
    """The text of every cell of one column, one conversion per distinct
    value."""
    c = np.asarray(column)
    if np.issubdtype(c.dtype, np.integer):
        fmt, key = "%d", c
    else:
        c = np.asarray(c, dtype=float)
        fmt, key = "%.17g", c.view(np.int64)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    text = np.array([fmt % v for v in c[first].tolist()], dtype=object)
    return text[inverse].tolist()


def write_csv(path: str, header: Sequence[str], columns: Sequence) -> None:
    """Write ``header`` and one row per index of the equal-length ``columns``
    (arrays or lists); each column's format is fixed once by its dtype."""
    cells = [_column_text(c) for c in columns]
    if len({len(c) for c in cells}) > 1:
        raise ValueError("CSV columns differ in length: "
                         + ", ".join(str(len(c)) for c in cells))
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([",".join(header), *map(",".join, zip(*cells))]))
        fh.write("\n")


def write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
