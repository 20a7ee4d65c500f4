"""Canonical JSON text, bulk float text and atomic writes, shared by every
artifact writer.

Bulk writers format whole arrays of numbers as cells: (n, k) uint8 arrays
whose non-NUL bytes, read in order, are one number's text per row.
``float_cells`` gives ``'%.17g' % v`` of every element of a float64 array,
exactly; ``int_cells`` the decimal digits of non-negative integers;
``cell_text`` assembles rows from cells and literal columns, dropping the
NUL padding once per call; and ``block_text`` copies a text's blocks of
rows into one buffer, which ``atomic_write_text`` writes as it is.
"""

from __future__ import annotations

import functools
import json
import math
import os
from typing import Mapping

import numpy as np

from .errors import ConfigError


def json_text(value) -> str:
    """One line of canonical JSON for a value or a flat or nested mapping.

    Members are separated by ", " and keys by ": " in the mapping's order;
    floats are written with 17 significant digits, so reading them back
    reproduces them bit for bit, and NaN is written as null.  Any other
    non-finite float, which JSON cannot hold, raises ValueError.
    """
    if isinstance(value, Mapping):
        return "{" + ", ".join(
            f"{json_text(str(k))}: {json_text(v)}" for k, v in value.items()) + "}"
    if value is None or isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    if isinstance(value, float):
        if math.isnan(value):
            return "null"
        if math.isinf(value):
            raise ValueError(f"JSON cannot hold the non-finite value {value!r}")
        return "%.17g" % value
    raise TypeError(f"no JSON form for {type(value).__name__} {value!r}")


def check_destination(path: str) -> str:
    """The directory of path; ConfigError if it does not exist or path is a
    directory, so a command can refuse a destination before its work."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ConfigError(f"cannot write {path}: directory {directory} does not exist")
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: it is a directory")
    return directory


def atomic_write_text(path: str, data) -> None:
    """Write the bytes of data to path via a temp file and rename, so
    readers never see a half-written file.  A destination that
    check_destination refuses is a ConfigError; a failed write leaves no
    temp file behind."""
    directory = check_destination(path)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


# ---------------------------------------------------------------------------
# '%.17g' for float64 arrays
#
# A finite x != 0 with |x| in [_FAST_MIN, _FAST_MAX] has the 17 significant
# digits N = round(|x| * 10**k), k = 16 - E, for its decimal exponent E.  The
# product is formed in double-double arithmetic: 10**k as hi + lo from exact
# fractions, and |x| * hi split exactly into p + err by Dekker's (1971)
# product, since numpy has no fused multiply-add.  In the table's range
# every intermediate is a normal double, so with u = 2**-53 and
# T = |x| * 10**k in [1e16, 1e17), below 2**56.5, the computed fraction of T
# is off by at most
#   u * u * T < 2**-49.5  for the table: |10**k - hi - lo| <= u * u * 10**k,
#   u * u * T < 2**-49.5  for rounding |x| * lo, which is below u * T,
#   2**-49 each           for the sums err + |x| * lo and
#                         (p - floor(p)) + (err + |x| * lo), both below 32,
# in all below 2**-47.2.  A fraction within _TIE of 1/2 could round either
# way; such lanes hold every exact decimal tie (3520688718.83984375 is one)
# and, like zero, non-finite values and magnitudes outside the table, take
# Python's own '%.17g': a fast path with a scalar fallback, as in Grisu3
# (Loitsch 2010).  A fraction near 0 or 1 is harmless: N and N + 1 with a
# fraction near 1 both round to N + 1.

_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_TIE = 2.0 ** -44
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
_E16, _E17 = 10 ** 16, 10 ** 17

# Columns of a float cell: sign, a "0.000" lead for -4 <= E < 0, the 17
# digits with at most one point among them, then "e", the exponent's sign
# and three exponent digits.
_FLOAT_CELL = 29


@functools.cache
def _layout_tables() -> dict:
    """Lookup tables of the %g layout, built on first use.

    ``digits``: the four ASCII digits of each of 0..9999 as one uint32 word;
    ``exponent``: the lead and exponent columns of decimal exponent E at row
    E + 300; ``keep``, by row q, 1 for each of the first q digits; ``left``,
    ``dot`` and ``right``, by row q, 1 for the body columns that hold their
    own digit, 46 (the point) and 1 for those that hold the digit before
    them, when the point follows digit q (row 17: no point).
    """
    d = np.arange(10_000)
    ascii4 = np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], axis=1) + 48
    exponent = np.zeros((601, 10), dtype=np.uint8)
    for e in range(-300, 301):
        if -4 <= e < 0:
            exponent[e + 300, :1 - e] = np.frombuffer(b"0.000"[:1 - e], np.uint8)
        elif not 0 <= e < 17:
            text = b"e%+03d" % e
            exponent[e + 300, 10 - len(text):] = np.frombuffer(text, np.uint8)
    col, q = np.arange(18), np.arange(18)[:, None]
    return {"digits": ascii4.astype(np.uint8).view(np.uint32).ravel(), "exponent": exponent,
            "keep": (col[:17] < q).astype(np.uint8), "left": (col <= q).astype(np.uint8),
            "dot": np.uint8(46) * (col == q + 1), "right": (col > q + 1).astype(np.uint8)}


@functools.cache
def _pow10_parts(k: int) -> tuple[float, float, float, float]:
    """hi, lo and hi's Dekker halves of 10**k: hi is 10**k rounded and lo
    the rounded rest, built on first use for the exponents a call needs.
    10**k is the integer ratio a / b, and int / int rounds correctly."""
    a, b = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    hi = a / b
    p, q = hi.as_integer_ratio()
    c = _SPLIT * hi
    hi_h = c - (c - hi)
    return hi, (a * q - p * b) / (b * q), hi_h, hi - hi_h


def _pow10(k: np.ndarray) -> list[np.ndarray]:
    """_pow10_parts of each element of k, as four arrays."""
    k0 = int(k.min())
    table = np.array([_pow10_parts(j) for j in range(k0, int(k.max()) + 1)]).T.copy()
    return [column[k - k0] for column in table]


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer part and fraction of a * 10**(16 - e), for a in the table's
    range (see the error bound above)."""
    hi, lo, hi_h, hi_l = _pow10(16 - e)
    p = a * hi
    c = _SPLIT * a
    a_h = c - (c - a)
    a_l = a - a_h
    err = ((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l
    whole = np.floor(p)
    r = (p - whole) + (err + a * lo)
    carry = np.floor(r)
    return whole.astype(np.int64) + carry.astype(np.int64), r - carry


def _scalar_g17(x: np.ndarray) -> np.ndarray:
    """Python's '%.17g' of each element, as (n, 24) uint8 (the longest
    text, -2.2250738585072014e-308, has 24 bytes)."""
    text = np.array(["%.17g" % v for v in x.tolist()], dtype="S24")
    return text.view(np.uint8).reshape(len(x), 24)


def _significand(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fast lanes of x, and by lane the decimal exponent E and the 17
    significant digits as one integer N; N is 10**16 in the other lanes."""
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)  # false for 0, inf and nan
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    big, frac = _scaled(a, e)
    # log10 can miss the exponent by one next to a power of ten
    off = (big >= _E17).astype(np.int64) - (big < _E16)
    redo = np.flatnonzero(off)
    if redo.size:
        e[redo] += off[redo]
        big[redo], frac[redo] = _scaled(a[redo], e[redo])
        fast[redo] &= (big[redo] >= _E16) & (big[redo] < _E17)
    fast &= np.abs(frac - 0.5) > _TIE
    big = np.where(fast, big + (frac > 0.5), _E16)
    carry = big == _E17
    big[carry] = _E16
    e += carry
    return fast, e, big


def float_cells(x) -> np.ndarray:
    """'%.17g' % v for each element v of a float64 array, exactly, as the
    rows of an (n, _FLOAT_CELL) uint8 array: the non-NUL bytes of row i, in
    order, are the text of element i.  The steps are functions of their
    own, so each one's temporaries are gone before the next."""
    x = np.asarray(x, dtype=np.float64).ravel()
    n = len(x)
    if not n:
        return np.zeros((0, _FLOAT_CELL), dtype=np.uint8)
    fast, e, big = _significand(x)
    body = np.zeros((n, 19), dtype=np.uint8)  # a NUL, the 17 digits of N, a NUL
    body[:, 1:18] = _word_cells(big)[:, -17:]
    nd = 17 - np.argmax(body[:, 17:0:-1] != 48, axis=1)  # the digits but trailing zeros

    # the %g layout: fixed notation for -4 <= E < 17, else d.ddde+XX
    fixed = (e >= -4) & (e < 17)
    small = fixed & (e < 0)
    kept = np.where(fixed & ~small, np.maximum(nd, e + 1), nd)
    point = np.where(fixed, e, 0)  # the point follows this digit ...
    point = np.where((nd > point + 1) & ~small, point, 17)  # ... if any
    t = _layout_tables()
    body[:, 1:18] *= t["keep"].take(kept, axis=0)
    body[:, 1:] = (body[:, 1:] * t["left"].take(point, axis=0) + t["dot"].take(point, axis=0)
                   + body[:, :-1] * t["right"].take(point, axis=0))
    cells = np.empty((n, _FLOAT_CELL), dtype=np.uint8)
    cells[:, 0] = np.signbit(x) * np.uint8(45)
    expo = t["exponent"].take(e + 300, axis=0)
    cells[:, 1:6] = expo[:, :5]
    cells[:, 6:24] = body[:, 1:]
    cells[:, 24:] = expo[:, 5:]

    slow = np.flatnonzero(~fast)
    if slow.size:
        cells[slow] = 0
        cells[slow, :24] = _scalar_g17(x[slow])
    return cells


def _word_cells(v: np.ndarray) -> np.ndarray:
    """The decimal digits of each non-negative int64 of v, zero-padded to
    whole 4-digit words, as the rows of an (n, k) uint8 array."""
    width = 4 * -(-len(str(int(v.max()) if v.size else 0)) // 4)
    words, q = np.empty((len(v), width // 4), dtype=np.int64), v
    for i in range(width // 4 - 1, -1, -1):  # by a scalar divisor, the fast division
        q, words[:, i] = np.divmod(q, 10_000)
    return _layout_tables()["digits"].take(words).view(np.uint8).reshape(len(v), width)


def int_cells(v) -> np.ndarray:
    """The decimal digits of each non-negative integer of an array, as the
    rows of an (n, k) uint8 array, right-aligned after NUL padding."""
    v = np.asarray(v, dtype=np.int64).ravel()
    cells = _word_cells(v)
    width = cells.shape[1]
    # blank the leading zeros, by a row of 0/1 per count of digits
    digits = np.searchsorted(10 ** np.arange(1, min(width, 19)), v, side="right") + 1
    keep = (np.arange(width) >= width - np.arange(width + 1)[:, None]).astype(np.uint8)
    return cells * keep.take(digits, axis=0)


# Rows per block of every bulk writer and of the snapshot reader, whose
# temporaries are O(block).
TEXT_BLOCK = 1 << 14


def _put(buffer: bytearray, at: int, data: bytes | bytearray) -> int:
    """Copy data into buffer from byte at, growing it past its end, and
    return the end.  A bytearray is copied straight in, where any other
    value would be copied to one first."""
    buffer[at:at + len(data)] = data
    return at + len(data)


def block_text(head: bytes, n: int, rows, row_min: int, tail: bytes = b"") -> bytearray:
    """head, rows 0..n-1 and tail as one buffer of ASCII bytes, where
    ``rows(lo, hi)`` gives rows lo..hi-1 as a bytearray, copied in one
    TEXT_BLOCK at a time.

    The buffer starts at the size of n rows of row_min bytes, a lower
    bound such as a row's literal columns.  So a large text is mapped
    memory from the start and grows without moving; begun small in the
    heap, a 22 MB snapshot was copied whole as it grew, 11 MB more peak."""
    text = bytearray(len(head) + n * row_min)
    at = _put(text, 0, head)
    for lo in range(0, n, TEXT_BLOCK):
        at = _put(text, at, rows(lo, min(lo + TEXT_BLOCK, n)))
    text[at:] = tail
    return text


def cell_text(columns: list) -> bytearray:
    """Rows assembled from columns in order, literal bytes repeated on every
    row and (n, k) uint8 cells, with every NUL byte dropped."""
    n = next(len(c) for c in columns if not isinstance(c, bytes))
    columns = [np.frombuffer(c, np.uint8) if isinstance(c, bytes) else c for c in columns]
    out = np.empty((n, sum(c.shape[-1] for c in columns)), dtype=np.uint8)
    at = 0
    for c in columns:
        out[:, at:at + c.shape[-1]] = c
        at += c.shape[-1]
    text = bytearray(out)
    del out  # so the padded rows are not held while the NULs are dropped
    return text.translate(None, b"\0")
