"""First-passage percolation on the window: weights and geodesic forests.

Each directed edge carries an independent exponential waiting time whose
rate depends only on the edge's level.  The defining profile halves the
rate with every level (rate ``2**-h`` at level h), which doubles the mean
waiting time and stretches geodesics vertically; the uniform profile is
the classical Eden-type growth, and the decreasing profile inverts the
stretch so that high edges are fast.

Weights are recomputed on demand from the counter hash rather than stored:
a field object is just (seed, profile, window), which also sets its level
rates and the hash address of every edge.  The passage time from the
boundary to every vertex then satisfies a one-level dynamic program,
because every path from the boundary climbs exactly one level per edge.
Running the program level by level yields, for each vertex, its passage
time, the direction of the minimizing incoming edge, and the boundary root
it descends from.  The minimizing edges form a spanning forest rooted on
the boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError
from .fileio import TEXT_BLOCK, block_text, cell_text, float_cells, int_cells, json_text
from .hashing import (HASH_BLOCK, WEIGHT_STREAM, check_seeds, exp_from_uniform,
                      hash_u64_vec, hash_uniform_vec)
from .lattice import Dir, Window, incoming_tail_index, tail_column


class WeightProfile(Enum):
    """Level dependence of edge waiting-time rates."""

    STRETCH = "stretch"
    EDEN = "eden"
    DECREASING = "decreasing"


# Dir codes of the (right-step, left-step) edge pair into a head, as a
# column to broadcast against head columns.
_IN_DIRS = np.array([[Dir.RIGHT], [Dir.LEFT]], dtype=np.int64)


@dataclass(frozen=True)
class WeightField:
    """Deterministic exponential weight field keyed on edge addresses: the
    one record of the random environment, its level rates and the hash
    address of every edge."""

    seed: int
    profile: WeightProfile
    window: Window

    def __post_init__(self) -> None:
        check_seeds(self.seed)
        # the rate is monotone in the level, so level M holds its extreme
        if not 0.0 < self.rates[-1] < math.inf:
            raise ConfigError(
                f"the {self.profile.value} rate at level M={self.window.M} is not a "
                f"positive finite double; use a smaller height cap"
            )

    @cached_property
    def rates(self) -> np.ndarray:
        """The exact edge rate of each level h = 0..M: ``2**-h`` (stretch), 1
        (eden) or ``2**h`` (decreasing), and 0.0 at level 0, which has no edges."""
        sign = {"stretch": -1, "eden": 0, "decreasing": 1}[self.profile.value]
        h = np.arange(self.window.M + 1)
        with np.errstate(over="ignore"):  # past the double range: 0 or inf
            return np.ldexp((h > 0) * 1.0, sign * h)

    def edge_address(self, stream: int, tails: np.ndarray, dirs) -> list:
        """Hash address ``[stream, tail x, tail y, dir]`` of the edges that
        leave flat tail indices ``level * W + column`` by Dir codes dirs."""
        y, col = np.divmod(tails, self.window.W)
        return [stream, (y & 1) + 2 * col, y, dirs]

    def incoming_weights(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Weights of all edges into levels lo..hi, as (right-step, left-step)
        arrays of shape (hi - lo + 1, W): row i holds level lo + i, indexed
        by head column.  One vector hash covers the whole block."""
        if not 1 <= lo <= hi <= self.window.M:
            raise ValueError(f"levels {lo}..{hi} outside 1..{self.window.M}")
        W = self.window.W
        level = np.arange(lo, hi + 1, dtype=np.int64)[:, None, None]
        # each tail vertex's address prefix, levels lo-1..hi-1, is hashed
        # once; then the direction of each edge (the prefix identity)
        *vertex, _ = self.edge_address(WEIGHT_STREAM, np.arange((lo - 1) * W, hi * W), None)
        prefix = hash_u64_vec(self.seed, vertex)
        tails = (level - lo) * W + tail_column(W, level, np.arange(W), _IN_DIRS)
        u = hash_uniform_vec(prefix.take(tails), [_IN_DIRS])
        w = exp_from_uniform(u, self.rates[lo:hi + 1, None, None])
        return w[:, 0], w[:, 1]


# The value key of a forest's times, by label: passage times for a weight
# profile, occupancy times for a particle run.
VALUE_KEYS = {**{p.value: "dist" for p in WeightProfile}, "sidla": "occupancy_time"}


@dataclass
class Forest:
    """A spanning forest of the window rooted on the boundary, with a time
    per vertex: the one record both pictures produce.

    Arrays have shape (M + 1, W), indexed by (level, column).  Row 0 is the
    boundary: time 0, no parent (-1), each vertex its own root.  ``values``
    are passage times (``value_key`` "dist", from the weight field) or the
    clock values at which particles claimed each vertex ("occupancy_time");
    in a particle run still in progress, unclaimed vertices hold root -1,
    parent -1 and NaN.  ``label`` names the source, a weight profile or
    "sidla", and so sets ``value_key``.
    """

    window: Window
    label: str
    seed: int
    values: np.ndarray
    parent_dir: np.ndarray
    root_x: np.ndarray

    @property
    def value_key(self) -> str:
        return VALUE_KEYS[self.label]

    @classmethod
    def unclaimed(cls, window: Window, label: str, seed: int) -> Forest:
        """The boundary alone: row 0 as above, the rest unclaimed (NaN, parent -1, root -1)."""
        shape = (window.M + 1, window.W)
        values, root_x = np.full(shape, np.nan), np.full(shape, -1, dtype=np.int64)
        values[0], root_x[0] = 0.0, 2 * np.arange(window.W)
        return cls(window, label, seed, values, np.full(shape, -1, dtype=np.int8), root_x)


def slice_sizes(forest: Forest) -> np.ndarray:
    """The slice-size table: ``sizes[j, m] = |T^m(root 2j)|``, the number
    of level-m vertices labelled with root 2j, for m = 0..M; shape (W, M+1).

    One count over (root column, level); unclaimed vertices count for no
    root.  Heights and censoring are read from this table.
    """
    W, M = forest.window.W, forest.window.M
    labels = forest.root_x
    owned = labels >= 0
    levels = np.broadcast_to(np.arange(M + 1)[:, None], labels.shape)
    keys = (labels[owned] >> 1) * (M + 1) + levels[owned]
    return np.bincount(keys, minlength=W * (M + 1)).reshape(W, M + 1)


def tree_heights(sizes: np.ndarray) -> np.ndarray:
    """Each root's height, its last non-empty level, from a slice_sizes
    table.  The root itself fills level 0, so a height is at least 0; a
    tree is censored exactly when its height is the cap M."""
    return sizes.shape[1] - 1 - np.argmax(sizes[:, ::-1] > 0, axis=1)


def build_forest(field: WeightField) -> Forest:
    """Run the level dynamic program over the whole window.

    At each level the candidate passage time through either incoming edge
    is the tail's passage time plus the edge weight; the minimum wins and
    ties go to the LEFT-step edge.  Weights are hashed for blocks of whole
    levels of about HASH_BLOCK edges each.  A passage time past the largest
    double, whose ties would be decided by rule, raises ConfigError naming
    the first level that holds one.
    """
    W, M = field.window.W, field.window.M
    forest = Forest.unclaimed(field.window, field.profile.value, field.seed)
    dist, parent_dir, root_x = forest.values, forest.parent_dir, forest.root_x
    cols = np.arange(W, dtype=np.int64)
    # tail columns of the (right-step, left-step) edges into even, odd levels
    tail_cols = [tail_column(W, parity, cols, _IN_DIRS) for parity in (0, 1)]
    step = max(1, HASH_BLOCK // (2 * W))
    # an overflow to inf is refused below, once, for the whole window
    with np.errstate(over="ignore"):
        for lo in range(1, M + 1, step):
            hi = min(lo + step - 1, M)
            block_r, block_l = field.incoming_weights(lo, hi)
            for y, w_r, w_l in zip(range(lo, hi + 1), block_r, block_l):
                cols_r, cols_l = tail_cols[y & 1]
                cand_r = dist[y - 1][cols_r] + w_r
                cand_l = dist[y - 1][cols_l] + w_l
                np.minimum(cand_l, cand_r, out=dist[y])
                take_right = cand_l > cand_r  # LEFT is code 0, so ties go LEFT
                parent_dir[y] = take_right
                root_x[y] = root_x[y - 1][np.where(take_right, cols_r, cols_l)]
    check_finite(forest, 0, (M + 1) * W, "use a smaller height cap")
    return forest


def check_finite(forest: Forest, lo: int, hi: int, why: str) -> None:
    """Raise ConfigError, naming its level and why it is refused, at the
    first value of flat indices lo..hi-1 (level * W + column) that is not
    finite.  An unclaimed vertex (root label -1) holds no value and passes."""
    W, M = forest.window.W, forest.window.M
    finite = np.isfinite(forest.values.ravel()[lo:hi]) | (forest.root_x.ravel()[lo:hi] < 0)
    if not finite.all():
        y = (lo + int(np.argmin(finite))) // W
        raise ConfigError(f"{forest.value_key} is not finite at level {y} ({forest.label}, "
                          f"{W}x{M}); {why}")


# The snapshot layout: a header, one row per vertex, a trailer.  Rows are
# built from these literal columns and cells; parent directions are cells
# indexed by code + 1 (null: no parent).
_ROW_X, _ROW_Y, _ROW_DIR, _ROW_ROOT, _ROW_END = (
    b'    {"x": ', b', "y": ', b', "parentDir": ', b', "rootX": ', b"},\n")
_DIR_CELLS = np.frombuffer(b'null"L"\0"R"\0', np.uint8).reshape(3, 4)
_TRAILER = b"  ]\n}\n"


def _snapshot_header(W: int, M: int, label: str, seed: int) -> bytes:
    header = {"window": {"W": W, "M": M}, "profile": label, "seed": seed}
    return ("{\n" + "".join(f"  {json_text(k)}: {json_text(v)},\n" for k, v in header.items())
            + '  "vertices": [\n').encode()


def _value_column(forest: Forest) -> bytes:
    return b", " + json_text(forest.value_key).encode() + b": "


def _vertex_rows(forest: Forest, lo: int, hi: int) -> bytearray:
    """The writer's text of vertex rows lo..hi-1 (flat index level * W +
    column), each ending in ",\n" but the window's last in "\n".  A
    non-finite value, which JSON cannot hold, raises ConfigError naming its
    level."""
    W, M = forest.window.W, forest.window.M
    check_finite(forest, lo, hi, "a JSON snapshot cannot hold it")
    values = forest.values.ravel()[lo:hi]
    y, j = np.divmod(np.arange(lo, hi), W)
    # as unsigned, a code outside -1..1 indexes past the table, not round it
    dirs = np.where(y > 0, forest.parent_dir.ravel()[lo:hi] + 1, 0).astype(np.uint8)
    text = cell_text([
        _ROW_X, int_cells((y & 1) + 2 * j), _ROW_Y, int_cells(y),
        _value_column(forest), float_cells(values),
        _ROW_DIR, _DIR_CELLS.take(dirs, axis=0),
        _ROW_ROOT, int_cells(forest.root_x.ravel()[lo:hi]), _ROW_END,
    ])
    return text if hi < (M + 1) * W else text[:-2] + b"\n"


def snapshot_text(forest: Forest) -> bytearray:
    """Serialize a covered forest to canonical JSON, as ASCII bytes.

    The header goes through ``fileio.json_text``.  Vertices appear sorted
    by (y, x), one row each; float values are ``'%.17g'`` (the
    ``fileio.float_cells`` kernel), so reloading reproduces them bit for
    bit.  Rows are assembled from cells and copied into one buffer a
    block at a time; non-finite values, which JSON cannot hold, raise
    ConfigError naming the first such level.
    """
    win = forest.window
    if np.any(forest.root_x < 0):
        raise ValueError("snapshot requires a fully covered window")
    literals = _ROW_X + _ROW_Y + _value_column(forest) + _ROW_DIR + _ROW_ROOT + _ROW_END
    return block_text(_snapshot_header(win.W, win.M, forest.label, forest.seed),
                      (win.M + 1) * win.W, lambda lo, hi: _vertex_rows(forest, lo, hi),
                      len(literals), _TRAILER)


def _expect(path: str, data: bytes, at: int, expected: bytes, to_end: bool = False) -> int:
    """The position after expected, if data holds it at ``at`` (and ends
    there, if to_end); else ConfigError naming the first line that differs,
    the file's text of it and the writer's."""
    got = data[at:] if to_end else data[at:at + len(expected)]
    if got == expected:
        return at + len(expected)
    m = min(len(got), len(expected))
    differ = np.flatnonzero(np.frombuffer(got, np.uint8, m)
                            != np.frombuffer(expected, np.uint8, m))
    start = expected.rfind(b"\n", 0, int(differ[0]) if differ.size else m) + 1

    def line(buf: bytes, i: int) -> str:
        end = buf.find(b"\n", i)
        text = buf[i:end + 1 if end >= 0 else len(buf)].decode("utf-8", "replace")
        return repr(text[:160]) + ("..." if len(text) > 160 else "")

    number = data.count(b"\n", 0, at + start) + 1
    writes = f"writes {line(expected, start)}" if start < len(expected) else "ends the file"
    raise ConfigError(f"snapshot {path} line {number} reads {line(data, at + start)} "
                      f"where the writer {writes}")


# The widest value token with the comma after it, and by length, 1 for
# each byte of a value token.
_VALUE_TOKEN = 25
_PREFIXES = (np.arange(_VALUE_TOKEN - 1) < np.arange(_VALUE_TOKEN)[:, None]).astype(np.uint8)


def _float_or_zero(token: bytes) -> float:
    try:
        return float(token)
    except ValueError:
        return 0.0


def _read_rows(forest: Forest, data: np.ndarray, at: int, lo: int, hi: int) -> None:
    """Parse vertex rows lo..hi-1 of the writer's layout from data, the
    file's bytes, starting at byte ``at``: the value and parentDir tokens
    of each line, found by position, into the forest's arrays.  Each root
    label above the boundary is its parent's, set one level segment at a
    time, so rows before lo must already hold theirs.  Bytes that are not
    the writer's parse to something that re-encodes differently."""
    W, M = forest.window.W, forest.window.M
    y, j = np.divmod(np.arange(lo, hi), W)
    x = (y & 1) + 2 * j
    rows = hi - lo
    powers = 10 ** np.arange(1, 19)
    prefix = len(_ROW_X) + len(_ROW_Y) + len(_value_column(forest))
    longest = (prefix + len(str(2 * W - 1)) + len(str(M)) + _VALUE_TOKEN + len(_ROW_DIR) + 4
               + len(_ROW_ROOT) + len(str(2 * W)) + len(_ROW_END))
    # each line's newline; past a missing one the line, longer than any the
    # writer writes, mismatches whatever is parsed there
    newline = np.full(rows, min(at + rows * longest, len(data) - 1))
    found = np.flatnonzero(data[at:at + rows * longest] == ord("\n"))[:rows] + at
    newline[:len(found)] = found
    start = np.concatenate(([at], newline[:-1] + 1)) + prefix + 2
    start += np.searchsorted(powers, x, side="right") + np.searchsorted(powers, y, side="right")
    # the value ends at the next comma
    token = sliding_window_view(data, _VALUE_TOKEN)[np.minimum(start, len(data) - _VALUE_TOKEN)]
    length = np.argmax(token == ord(","), axis=1)  # 0 without a comma: refused
    text = token[:, :-1] * _PREFIXES.take(length, axis=0)
    text = text.view(f"S{_VALUE_TOKEN - 1}").ravel()
    try:
        values = text.astype(np.float64)
    except ValueError:
        values = np.array([_float_or_zero(t) for t in text.tolist()])
    start += length + len(_ROW_DIR)
    letter = data[np.minimum(start + 1, len(data) - 1)]
    code = np.where(letter == ord("L"), Dir.LEFT, np.where(letter == ord("R"), Dir.RIGHT, -1))
    forest.values.ravel()[lo:hi] = values
    forest.parent_dir.ravel()[lo:hi] = code
    roots = forest.root_x.ravel()
    for level in range(max(lo // W, 1), (hi - 1) // W + 1):
        a, b = max(level * W, lo), min(level * W + W, hi)
        roots[a:b] = roots[incoming_tail_index(W, np.arange(a, b), code[a - lo:b - lo])]


def _check_parsed(path: str, forest: Forest, lo: int, hi: int) -> None:
    """Refuse the first of parsed rows lo..hi-1 above the boundary with a parent
    direction other than L or R, else the first with a value below its parent's."""
    W = forest.window.W
    lo = max(lo, W)
    heads = np.arange(lo, hi)
    dirs = forest.parent_dir.ravel()[lo:hi]
    values = forest.values.ravel()
    bad = np.flatnonzero((dirs != Dir.LEFT) & (dirs != Dir.RIGHT))
    if bad.size:
        fault = f"parent direction code {int(dirs[bad[0]])}; above the boundary it must be L or R"
    else:
        bad = np.flatnonzero(values[heads] < values[incoming_tail_index(W, heads, dirs)])
        fault = "a value below its parent's"
    if bad.size:
        y, j = divmod(lo + int(bad[0]), W)
        raise ConfigError(f"inconsistent snapshot {path}: vertex {((y & 1) + 2 * j, y)} "
                          f"has {fault}")


def load_snapshot(path: str) -> Forest:
    """Reload a snapshot written by snapshot_text, and only its bytes.

    The header is parsed as JSON (W, M and seed must be integers, the seed
    in 0..2**64-1, and the profile a label), and the vertex lines are
    counted against the window before anything of its size is allocated.
    A weight profile's forest is rebuilt from the header, and the writer's
    rows for it are compared with the file one block of lines at a time:
    equal bytes hold exactly the rebuilt arrays, as the writer is injective
    ('%.17g' round-trips every double; the other columns are fixed by
    position and labels).  From the first block that differs (throughout
    for "sidla" or a header the weight field refuses) the values and parent
    directions are parsed from the file instead, each root label is derived
    as its parent's, and the block is re-encoded and compared: the first
    line that differs is refused with ConfigError naming it, the file's
    text and the writer's, and so is a non-finite value, by the writer's
    guard.  A parsed block must also be a forest: above the boundary each
    vertex has parent direction L or R and no value below its parent's
    (root labels, being derived, need no check).  A block taken from the
    rebuild is what the parse would read and passes that check by
    construction, so the two paths agree on every file.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read snapshot {path}: {exc}") from exc
    vertices = data.find(b'"vertices": [')
    try:
        # the header, closed after an empty vertex list
        doc = json.loads(data[:vertices] + b'"vertices": []}' if vertices >= 0 else data)
        W, M, seed, label = doc["window"]["W"], doc["window"]["M"], doc["seed"], doc["profile"]
    except ValueError as exc:
        raise ConfigError(f"cannot read snapshot {path}: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed snapshot {path}: {exc}") from exc
    if any(type(v) is not int for v in (W, M, seed)):
        raise ConfigError(f"malformed snapshot {path}: W, M and seed must be integers, "
                          f"got {W!r}, {M!r} and {seed!r}")
    if type(label) is not str or label not in VALUE_KEYS:
        raise ConfigError(f"malformed snapshot {path}: profile {label!r} is not one of "
                          f"{', '.join(VALUE_KEYS)}")
    try:
        check_seeds(seed)
    except ConfigError as exc:
        raise ConfigError(f"malformed snapshot {path}: {exc}") from None
    win = Window(W, M)
    at = _expect(path, data, 0, _snapshot_header(W, M, label, seed))
    n = (M + 1) * W
    listed = data.count(b"\n" + _ROW_X, at - 1)
    if listed != n:
        raise ConfigError(f"snapshot {path} lists {listed} vertices; its {W}x{M} window "
                          f"holds {n}")
    forest = None
    if label != "sidla":  # every other label is a weight profile
        try:
            forest = build_forest(WeightField(seed, WeightProfile(label), win))
        except ConfigError:  # a cap the field or its passage times cannot hold
            pass
    rebuilt = forest is not None
    if not rebuilt:
        forest = Forest.unclaimed(win, label, seed)
    array = np.frombuffer(data, np.uint8)
    for lo in range(0, n, TEXT_BLOCK):
        hi = min(lo + TEXT_BLOCK, n)
        if rebuilt:
            rows = _vertex_rows(forest, lo, hi)
            # not _expect: a file that differs from the rebuild is parsed
            if rows == memoryview(data)[at:at + len(rows)]:
                at += len(rows)
                continue
            rebuilt = False
        _read_rows(forest, array, at, lo, hi)
        try:
            rows = _vertex_rows(forest, lo, hi)
        except ConfigError as exc:  # the writer's guard: a non-finite value
            raise ConfigError(f"snapshot {path}: {exc}") from None
        at = _expect(path, data, at, rows)
        _check_parsed(path, forest, lo, hi)
    _expect(path, data, at, _TRAILER, to_end=True)
    return forest
