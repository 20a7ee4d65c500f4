"""Canonical JSON text, bulk float text and atomic writes, shared by every
artifact writer.

Bulk writers format whole arrays of numbers as cells: (n, k) uint8 arrays
whose non-NUL bytes, read in order, are one number's text per row.
``float_cells`` gives ``'%.17g' % v`` of every element of a float64 array,
exactly; ``int_cells`` the decimal digits of non-negative integers;
``cell_text`` assembles rows in one frame per call, a template row of the
literal columns repeated and the cells copied in, and drops the NUL padding
from that frame; and ``block_text`` copies a text's blocks of rows into one
buffer, which ``atomic_write_text`` writes as it is.
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
#
# The text is byte arithmetic on tables.  N is split once at 10**8 into
# int32 halves, which give its five words of four digits by floor division
# by a scalar (numpy's fast division; np.divmod has none).  By word, a
# 10,000-row table gives the count of trailing zeros, so the digits to
# keep, and two more the ASCII digits as the low or the high half of a
# uint64, so each cell is built as four uint64: one contiguous (n, 32)
# byte frame.  Rows of 0/1 tables, by the digits kept and the place of the
# point, blank what %g drops; where the point falls inside the digits,
# those before it move one byte left by a one-byte shift of the flat
# frame.  The sign, a "0.000" lead and the exponent come from one table by
# (E + 300) * 2 + sign.

_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_TIE = 2.0 ** -44
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
_E8, _E16, _E17 = 10 ** 8, 10 ** 16, 10 ** 17

# A float cell, as four uint64 columns of eight bytes: the sign and a
# "0.000" lead for -4 <= E < 0 in bytes 0..5, the frame of the five words of
# N in bytes 4..23 (three zeros, then the 17 digits from byte 7), and "e",
# the exponent's sign and its digits in bytes 24..31.
_FLOAT_CELL = 32


@functools.cache
def _layout_tables() -> dict:
    """Lookup tables of the %g layout, built on first use.

    ``digits``: the four ASCII digits of each of 0..9999 as one uint32 word,
    ``zeros`` its count of trailing zeros (4 for 0), and ``halves`` the
    same digits in bytes 0..3 and in bytes 4..7 of a uint64; ``ends``, at
    row (E + 300) * 2 + s, bytes 0..7 (the sign if s, then the lead) and
    24..31 (the exponent) of a cell for decimal exponent E.  By row
    18 * k + q, for the first k of the 17 digits kept and the point after
    q + 1 of them (q = 17: no point), over the cell's bytes: ``left``, 1 for
    the bytes that take the kept digit after them, ``dot``, 46 at the point,
    and ``right``, 1 for the kept digits that stay.
    """
    d = np.arange(10_000, dtype=np.uint16)
    ascii4 = np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], axis=1).astype(np.uint8)
    ascii4 += 48
    halves = np.zeros((2, 10_000, 8), dtype=np.uint8)
    halves[0, :, :4] = halves[1, :, 4:] = ascii4
    ends = np.zeros((601, 2, 16), dtype=np.uint8)
    ends[:, 1, 0] = 45
    for e in range(-300, 301):
        if -4 <= e < 0:
            ends[e + 300, :, 1:2 - e] = np.frombuffer(b"0.000"[:1 - e], np.uint8)
        elif not 0 <= e < 17:
            text = b"e%+03d" % e
            ends[e + 300, :, 16 - len(text):] = np.frombuffer(text, np.uint8)
    col, q = np.arange(_FLOAT_CELL), np.arange(18)[:, None]
    keep = ((col >= 7) & (col < q + 7))[:, None]  # by k, then q
    left = np.roll(keep, -1, axis=2) & (col <= q + 6) & (q < 17)
    right = keep & ((col > q + 7) | (q == 17))
    return {"digits": ascii4.view(np.uint32).ravel(),
            "zeros": (ascii4[:, ::-1] == 48).cumprod(1, dtype=np.uint8).sum(1, dtype=np.uint8),
            "halves": halves.view(np.uint64)[..., 0], "ends": ends.view(np.uint64).reshape(-1, 2),
            "left": left.astype(np.uint8).reshape(-1, _FLOAT_CELL),
            "dot": np.tile(np.uint8(46) * ((col == q + 7) & (q < 17)), (18, 1)),
            "right": right.astype(np.uint8).reshape(-1, _FLOAT_CELL)}


@functools.cache
def _pow10_table() -> np.ndarray:
    """hi, lo and hi's Dekker halves of 10**k for k = -300..300, as the four
    rows of a (4, 601) array at column k + 300: hi is 10**k rounded and lo
    the rounded rest.  10**k is the integer ratio a / b, and int / int
    rounds correctly."""
    parts = []
    for k in range(-300, 301):
        a, b = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = a / b
        p, q = hi.as_integer_ratio()
        c = _SPLIT * hi
        hi_h = c - (c - hi)
        parts.append((hi, (a * q - p * b) / (b * q), hi_h, hi - hi_h))
    return np.array(parts).T.copy()


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer part and fraction of a * 10**(16 - e), for a in the table's
    range (see the error bound above), in place where the terms allow."""
    p, lo, hi_h, hi_l = _pow10_table().take(316 - e, axis=1)
    p *= a  # a * hi
    a_h = _SPLIT * a
    a_l = a_h - a
    a_h -= a_l
    np.subtract(a, a_h, out=a_l)
    err = a_h * hi_h  # then + a_h * hi_l + a_l * hi_h + a_l * hi_l, in order
    err -= p
    a_h *= hi_l
    err += a_h
    hi_h *= a_l
    err += hi_h
    a_l *= hi_l
    err += a_l
    big = p.astype(np.int64)  # floor(p), as p > 0
    p -= big
    lo *= a
    err += lo
    p += err  # the fraction, before its carry of -1, 0 or 1
    carry = np.floor(p, out=err)
    p -= carry
    big += carry.astype(np.int8)
    return big, p


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
    np.copyto(a, 1.0, where=~fast)
    e = np.log10(a)
    e = np.floor(e, out=e).astype(np.int64)
    big, frac = _scaled(a, e)
    # log10 can miss the exponent by one next to a power of ten
    off = (big >= _E17).astype(np.int8) - (big < _E16)
    redo = np.flatnonzero(off)
    if redo.size:
        e[redo] += off[redo]
        big[redo], frac[redo] = _scaled(a[redo], e[redo])
        fast[redo] &= (big[redo] >= _E16) & (big[redo] < _E17)
    frac -= 0.5
    fast &= np.abs(frac) > _TIE
    big += frac > 0
    np.copyto(big, _E16, where=~fast)
    carry = big == _E17
    big[carry] = _E16
    e += carry
    return fast, e, big


def _digit_frame(e: np.ndarray, big: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The digits of N by lane, as (n, 4) uint64 cells that hold its five
    words in bytes 4..23, and the row 18 * k + q of the layout tables that
    keeps the first k digits and puts a point after q + 1 (q = 17: none)."""
    t = _layout_tables()
    words = _digit_words(big, 17)  # one digit, then four words
    low, high = t["halves"]
    cells = np.empty((len(big), 4), dtype=np.uint64)
    cells[:, 0] = high.take(words[0])
    cells[:, 1] = low.take(words[1]) | high.take(words[2])
    cells[:, 2] = low.take(words[3]) | high.take(words[4])
    cells[:, 3] = 0
    z = t["zeros"].take(words[1:])  # the first word, a digit 1..9, has none
    tz = z[0]
    for zw in z[1:]:
        tz = zw + (zw == 4) * tz
    nd = 17 - tz.astype(np.int64)  # the digits but trailing zeros

    # the %g layout: fixed notation for -4 <= E < 17, else d.ddde+XX
    fixed = (e >= -4) & (e < 17)
    small = fixed & (e < 0)
    kept = np.where(fixed & ~small, np.maximum(nd, e + 1), nd)
    point = np.where(fixed, e, 0)  # the point follows digit point + 1 ...
    point = np.where((nd > point + 1) & ~small, point, 17)  # ... if any
    return cells, 18 * kept + point


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
    cells, row = _digit_frame(e, big)
    del big
    t = _layout_tables()
    flat = cells.view(np.uint8).reshape(-1)
    moved = t["left"].take(row, axis=0).reshape(-1)[:-1]
    moved *= flat[1:]  # the kept digits before a point, one byte to the left
    flat *= t["right"].take(row, axis=0).reshape(-1)
    flat += t["dot"].take(row, axis=0).reshape(-1)
    flat[:-1] += moved
    del moved
    ends = t["ends"].take(2 * e + 600 + np.signbit(x), axis=0)
    cells[:, 0] |= ends[:, 0]
    cells[:, 3] = ends[:, 1]
    cells = cells.view(np.uint8)

    slow = np.flatnonzero(~fast)
    if slow.size:
        cells[slow] = 0
        cells[slow, :24] = _scalar_g17(x[slow])
    return cells


def _digit_words(v: np.ndarray, digits: int) -> np.ndarray:
    """The decimal digits of each non-negative int64 of v, none of which
    has more than ``digits``, as rows of int32 words of four digits, the
    most significant first.  For more than 8 digits, v is split once at
    10**8, into int32 halves up to 17 digits; then each word comes by
    floor division by a scalar, numpy's fast division (np.divmod has
    none)."""
    count = -(-digits // 4)
    words = np.empty((count, len(v)), dtype=np.int32)
    if count > 2:
        hi = v // _E8
        parts = [(hi if digits > 17 else hi.astype(np.int32), count - 2),
                 ((v - hi * _E8).astype(np.int32), 2)]
    else:
        parts = [(v.astype(np.int32), count)]
    at = 0
    for part, k in parts:
        for i in range(at + k - 1, at, -1):
            q = part // 10_000
            words[i] = part - q * 10_000
            part = q
        words[at] = part
        at += k
    return words


def int_cells(v) -> np.ndarray:
    """The decimal digits of each non-negative integer of an array, as the
    rows of an (n, k) uint8 array, right-aligned after NUL padding."""
    v = np.asarray(v, dtype=np.int64).ravel()
    words = _digit_words(v, len(str(int(v.max()) if v.size else 0)))
    width = 4 * len(words)
    cells = _layout_tables()["digits"].take(words.T).view(np.uint8).reshape(len(v), width)
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
    value would be copied to one first.  block_text hands each block from
    rows straight in, so it is released before rows builds the next one."""
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
    row and (n, k) uint8 cells, with every NUL byte dropped.

    One frame of n rows holds them: a template row, the literals with NULs
    where the cells go, repeated n times, then each cell column copied in
    as one k-byte field per row.  The NULs are dropped from that frame, so
    no other padded copy is made."""
    n = next(len(c) for c in columns if not isinstance(c, bytes))
    template = b"".join(c if isinstance(c, bytes) else bytes(c.shape[1]) for c in columns)
    frame = bytearray(template) * n
    rows = np.frombuffer(frame, np.uint8).reshape(n, len(template))
    at = 0
    for c in columns:
        if isinstance(c, bytes):
            at += len(c)
        else:
            field = f"V{c.shape[1]}"
            rows[:, at:at + c.shape[1]].view(field)[...] = c.view(field)
            at += c.shape[1]
    return frame.translate(None, b"\0")
