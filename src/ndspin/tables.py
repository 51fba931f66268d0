"""Deterministic CSV/JSON writers shared by the command-line front end.

A CSV table is written from equal-length columns.  Integer columns print as
integers and every other column with 17 significant digits, so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
from typing import Sequence

import numpy as np


def write_csv(path: str, header: Sequence[str], columns: Sequence) -> None:
    """Write ``header`` and one row per index of the equal-length ``columns``
    (arrays or lists); each column's format is fixed once by its dtype."""
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if np.issubdtype(c.dtype, np.integer) else "%.17g"
                   for c in columns) + "\n"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % r for r in zip(*(c.tolist() for c in columns),
                                            strict=True))


def write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
