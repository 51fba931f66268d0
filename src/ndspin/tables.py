"""Deterministic CSV/JSON writers shared by the command-line front end.

A CSV table is written from equal-length columns.  Integer columns print
with ``%d`` and every other column, converted to float64, with ``%.17g``,
so identical inputs produce byte-identical files.  Rows are written in
blocks of 4096, and each distinct value is converted to text once per
block: an integer per column, a float across all float columns of the
block (a grid's x and y axes share theirs), told apart by its bit pattern,
so ``-0.0`` and ``0.0`` (and NaN payloads) keep their own text.  The cells
gather the text by index.

The floats of a block are converted in one numpy pass.  With k =
floor(log10|x|), |x|·10^(16-k) is formed as a double-double, from Dekker's
error-free product of |x| and a (hi, lo) table of powers of ten built once
with exact integer arithmetic, and rounded to the 17-digit integer N; the
error is under 1e-14 of one unit in the 17th digit.  Python's
``'%.17g' %`` formats only the values the pass cannot decide: a fraction within
1e-13 of one half (exact decimal ties among them), a scaled value below
10^16 or an N of 10^17 (a misjudged decade, or rounding carried into the
next), a magnitude outside [1e-280, 1e280], and values that are not
finite.  Zero and -0 are decided in the pass.  The digits take ``%g``'s
layout: fixed notation for -4 <= k < 17, otherwise ``d.ddde±XX``, trailing
zeros stripped and a bare point dropped.  Each text is a 32-byte record of
little-endian words: a head word (sign, "0.000" prefix for k < 0, leading
digit) and three body words (the other digits, the point, the exponent),
with NUL bytes where a layout has nothing.  Each block's rows are
assembled as one byte matrix, NULs dropped, and written, so a table of any
length keeps a working set of one block beside its input columns.

Both writers rewrite a file in place: an existing artifact is opened
without ``O_TRUNC``, written from its start and cut at the bytes written,
so it holds exactly the new bytes and keeps its inode and hard links.  On
an ext4 root mounted with ``discard`` (2-CPU Xeon), rewriting a 450 kB file
took a median of 0.42-0.58 ms with ``O_TRUNC`` and 0.021-0.025 ms in
place, a 3 kB file 0.075-0.091 and 0.004 ms (300 rewrites each).  An error
mid-write leaves the bytes written before it, as ``O_TRUNC`` did; a process
killed mid-write may leave the old file's tail after them, so re-run the
verb.  A path that is not a regular file (``/dev/null``, a FIFO) is
written and never cut.
"""

from __future__ import annotations

import contextlib
import functools
import os
import stat
from typing import Sequence

import numpy as np

#: Rows assembled and written per block.
_BLOCK_ROWS = 1 << 12
#: Values the array pass converts at a time, so its temporaries stay small.
_CHUNK = 1 << 11
#: Magnitudes the array pass decides; Python formats those outside.
_LOW, _HIGH = 1e-280, 1e280
#: A fraction this close to one half is a tie the pass leaves to Python.
_TIE = 1e-13
#: Exponents k = floor(log10|x|) the tables cover: those of [_LOW, _HIGH]
#: and more, for a misjudged decade.
_K_MIN, _K_MAX = -284, 284
#: Veltkamp's splitter for binary64: 2^27 + 1.
_SPLIT = 134217729.0
#: Layouts of the text: k for fixed notation with k = 0 ... 16 (the body
#: digits before the point), _EXP for exponential notation and 17 - k for
#: fixed notation with k = -1 ... -4.
_EXP, _LAYOUTS = 17, 22


def _words(texts, width: int = 1) -> np.ndarray:
    """Byte strings as ``width`` arrays of little-endian uint64 words, one
    entry per string, padded with NULs."""
    words = np.array(texts, dtype=f"S{8 * width}").view(np.uint64)
    return words.reshape(-1, width).T.copy()


@functools.cache
def _tables() -> dict:
    """Lookup tables of the array pass, built at its first use.  By exponent
    k: 10^(16-k) as a Veltkamp-split double-double (hi_h + hi_l, lo) from
    exact integer arithmetic, the layout and the exponent's text.  By sign,
    layout and leading digit: the head.  By layout and the number of
    significant digits after the leading one: the masks of the body digits
    before and after the point, the point, and the body's length.  By
    four-digit group: its ASCII and the zeros it ends in."""
    ks = range(_K_MIN, _K_MAX + 1)
    hi, lo = [], []
    for k in ks:
        if k <= 16:
            v = 10**(16 - k)
            hi.append(float(v))
            lo.append(float(v - int(hi[-1])))
        else:
            d = 10**(k - 16)
            hi.append(1 / d)                # int / int is correctly rounded
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * d) / (d * den))
    hi = np.array(hi)
    c = _SPLIT * hi
    hi_h = c - (c - hi)
    tails = [b"" if -4 <= k < 17 else b"\0e%+03d" % k for k in ks]

    heads = [("-" * neg + ("0." + "0" * (layout - 18) if layout > _EXP else "")
              + digit).encode().rjust(8, b"\0")
             for neg in (0, 1) for layout in range(_LAYOUTS) for digit in "0123456789"]

    keep_before, keep_after, point, body_size = [], [], [], []
    for layout in range(_LAYOUTS):
        for used in range(17):
            before = layout if layout < _EXP else 0 if layout == _EXP else used
            upto = max(used, before)
            dot = used > before
            keep_before.append(b"\xff" * before)
            keep_after.append(b"\0" * before + b"\xff" * (upto - before))
            point.append(b"\0" * before + b"." * dot)
            body_size.append(upto + dot)

    group = np.arange(10000, dtype=np.int32)[:, None]
    powers = np.array([1, 10, 100, 1000], np.int32)
    quad = (group // powers[::-1] % 10 + ord("0")).astype(np.uint8)
    quad = quad.view(np.uint32)[:, 0].astype(np.uint64)
    tables = {
        "hi_h": hi_h, "hi_l": hi - hi_h, "lo": np.array(lo),
        "layout": np.array([k if 0 <= k < 17 else 17 - k if -4 <= k < 0 else _EXP
                            for k in ks]),
        "tail": _words(tails)[0],
        "tail_end": np.array([16 + len(t) if t else 0 for t in tails], np.uint8),
        "head": _words(heads)[0],
        "head_size": np.array([len(h.lstrip(b"\0")) for h in heads], np.uint8),
        "keep_before": _words(keep_before, 2),
        "keep_after": _words(keep_after, 2),
        "point": _words(point, 2),
        "body_size": np.array(body_size, np.uint8),
        "quad": quad, "quad_high": quad << np.uint64(32),
        "trailing": (group % (10 * powers) == 0).sum(axis=1),
    }
    for table in tables.values():
        table.flags.writeable = False    # shared by every caller
    return tables


def _float_text(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``'%.17g' % v`` of every value of ``x`` as a (len(x), 32) uint8
    matrix whose rows hold the texts as their non-NUL bytes, in order; and
    per row the bytes its text uses: the head's, which end at byte 8, and
    the body's, which start there."""
    out = np.empty((len(x), 4), np.uint64)
    head, body = np.empty((2, len(x)), np.uint8)
    for start in range(0, len(x), _CHUNK):
        chunk = slice(start, start + _CHUNK)
        _float_words(x[chunk], out[chunk], head[chunk], body[chunk])
    return out.view(np.uint8), head, body


def _float_words(x: np.ndarray, out: np.ndarray, head: np.ndarray,
                 body: np.ndarray) -> None:
    """One chunk of :func:`_float_text`, with the text as four words per
    value."""
    tab = _tables()
    neg = np.signbit(x)
    a = np.abs(x)
    ok = (a >= _LOW) & (a <= _HIGH)
    a = np.where(ok, a, 1.0)
    kk = np.floor(np.log10(a)).astype(np.intp) - _K_MIN
    hi_h, hi_l = tab["hi_h"][kk], tab["hi_l"][kk]
    # |x|·10^(16-k) = s + t: s = fl(a·hi), t its exact error (Dekker's
    # two-product) plus a·lo.
    s = a * (hi_h + hi_l)
    c = _SPLIT * a
    a_h = c - (c - a)
    a_l = a - a_h
    t = (((a_h * hi_h - s) + a_h * hi_l + a_l * hi_h) + a_l * hi_l
         + a * tab["lo"][kk])
    s_int = np.floor(s)
    t += s - s_int
    t_int = np.floor(t)
    frac = t - t_int
    whole = s_int.astype(np.int64) + t_int.astype(np.int64)
    n = whole + (frac > 0.5)
    ok &= (np.abs(frac - 0.5) > _TIE) & (whole >= 10**16) & (n < 10**17)
    bad = ~ok
    n[bad] = 0                      # zero's digits; Python formats the rest
    kk[bad] = -_K_MIN

    # The 17 digits of n: the leading one, then four groups of four, whose
    # ASCII fills two words, and how many of those 16 are significant.
    lead = n // 10**16
    rest = n - lead * 10**16
    upper = rest // 10**8
    lower = rest - upper * 10**8
    g0 = upper // 10**4
    g1 = upper - g0 * 10**4
    g2 = lower // 10**4
    g3 = lower - g2 * 10**4
    quad, quad_high, trailing = tab["quad"], tab["quad_high"], tab["trailing"]
    d0 = quad[g0] | quad_high[g1]
    d1 = quad[g2] | quad_high[g3]
    zeros = trailing[g3] + (g3 == 0) * trailing[g2]
    zeros += (lower == 0) * (trailing[g1] + (g1 == 0) * trailing[g0])

    layout = tab["layout"][kk]
    h = (neg * _LAYOUTS + layout) * 10 + lead
    out[:, 0] = tab["head"][h]
    head[:] = tab["head_size"][h]
    # The body: the digits before the point in place, then the point, then
    # the digits after it one byte on, then the exponent.
    j = layout * 17 + 16 - zeros
    before0, before1 = (w[j] for w in tab["keep_before"])
    after0, after1 = (w[j] for w in tab["keep_after"])
    point0, point1 = (w[j] for w in tab["point"])
    after0 &= d0
    after1 &= d1
    out[:, 1] = (d0 & before0) | (after0 << np.uint64(8)) | point0
    out[:, 2] = ((d1 & before1) | (after1 << np.uint64(8))
                 | (after0 >> np.uint64(56)) | point1)
    out[:, 3] = (after1 >> np.uint64(56)) | tab["tail"][kk]
    np.maximum(tab["body_size"][j], tab["tail_end"][kk], out=body)

    slow = np.flatnonzero(bad & (x != 0.0))
    if slow.size:
        texts = ["%.17g" % v for v in x[slow].tolist()]
        out[slow, 0] = head[slow] = 0
        out[slow, 1:] = _words(texts, 3).T
        body[slow] = [len(text) for text in texts]


def _cell_text(arrays: list, is_int: list) -> list:
    """Per column of one block of n rows: the text of its distinct values as
    fixed-width records (NUL-padded, void dtype; for floats a strided view
    of the bytes the column's cells use) and the record of each of its n
    cells."""
    n = len(arrays[0])
    if not all(is_int):
        distinct, inverse = np.unique(np.concatenate(
            [c.view(np.int64) for c, i in zip(arrays, is_int) if not i]),
            return_inverse=True)
        float_text, head, body = _float_text(distinct.view(np.float64))
    cells = []
    for c, i in zip(arrays, is_int):
        if i:
            distinct, inv = np.unique(c, return_inverse=True)
            text = np.array(["%d" % v for v in distinct.tolist()], dtype=bytes)
            text = text.view(np.uint8).reshape(len(text), text.itemsize)
        else:
            inv, inverse = inverse[:n], inverse[n:]
            text = float_text[:, 8 - head[inv].max():8 + body[inv].max()]
        cells.append((text.view(f"V{text.shape[1]}")[:, 0], inv))
    return cells


def write_csv(path: str, header: Sequence[str], columns: Sequence) -> None:
    """Write ``header`` and one row per index of the equal-length ``columns``
    (arrays or lists); each column's format is fixed once by its dtype."""
    arrays = [np.asarray(c) for c in columns]
    is_int = [np.issubdtype(c.dtype, np.integer) for c in arrays]
    # Widening to float64 is exact; numpy flags it invalid only where it
    # quiets a signalling NaN, which prints as nan either way.
    with np.errstate(invalid="ignore"):
        arrays = [c if i else np.asarray(c, dtype=float)
                  for c, i in zip(arrays, is_int)]
    if len({len(c) for c in arrays}) > 1:
        raise ValueError("CSV columns differ in length: "
                         + ", ".join(str(len(c)) for c in arrays))
    n = len(arrays[0]) if arrays else 0
    with _rewrite(path) as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, n, _BLOCK_ROWS):
            cells = _cell_text([c[start:start + _BLOCK_ROWS] for c in arrays],
                               is_int)
            block = np.empty((len(cells[0][1]),
                              sum(text.itemsize + 1 for text, _ in cells)),
                             np.uint8)
            col = 0
            for text, inv in cells:
                width = text.itemsize
                block[:, col:col + width].view(text.dtype)[:, 0] = text[inv]
                block[:, col + width] = ord(",")
                col += width + 1
            block[:, -1] = ord("\n")
            flat = block.ravel()
            fh.write(flat[flat != 0])


def write_json(path: str, text: str) -> None:
    """Write one JSON document, ``text``, and a newline, UTF-8 encoded."""
    with _rewrite(path) as fh:
        fh.write((text + "\n").encode())


@contextlib.contextmanager
def _rewrite(path: str):
    """A binary file object that writes ``path`` from its start, creating
    the file (mode 0o666 less the umask) and its directory if need be.  An
    existing file is not truncated on opening; on the way out, whether the
    body returned or raised, a regular file is cut at the bytes written, so
    it holds exactly those, as after an ``O_TRUNC`` open.  Another kind of
    file (``/dev/null``, a FIFO) is written and never cut."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        try:
            yield fh
        finally:
            try:
                fh.flush()
            finally:
                # Cut at what reached the file, even if the flush failed.
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
