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
from operator import itemgetter

import numpy as np

from .errors import ConfigError
from .fileio import json_text
from .hashing import HASH_BLOCK, WEIGHT_STREAM, exp_from_uniform, hash_uniform_vec
from .lattice import Dir, Window


class WeightProfile(Enum):
    """Level dependence of edge waiting-time rates."""

    STRETCH = "stretch"
    EDEN = "eden"
    DECREASING = "decreasing"

    def rates(self, M: int) -> list[float]:
        """Edge rates of levels 0..M; level 0 has no edges and holds 0.0.
        A decreasing rate past the largest double raises OverflowError."""
        if self is WeightProfile.EDEN:
            return [0.0] + [1.0] * M
        sign = -1 if self is WeightProfile.STRETCH else 1
        return [0.0] + [math.ldexp(1.0, sign * h) for h in range(1, M + 1)]


def _tail_column(W: int, level, col, d):
    """Column of the tail of the edge that enters column col of a level by
    direction d.

    It depends only on the parity of the level: a RIGHT step into an even
    level starts one column to the left, a LEFT step into an odd level one
    column to the right, and the other two start in the head's own column.
    """
    return (col + ((level & 1) - d)) % W


def incoming_tail_index(W: int, head: np.ndarray, d) -> np.ndarray:
    """Flat index ``level * W + column`` of the tail of the edge that
    enters each flat head index by direction d (one Dir code per head)."""
    level, col = np.divmod(head, W)
    return (level - 1) * W + _tail_column(W, level, col, d)


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
        # the rate is monotone in the level, so level M holds its extreme
        try:
            rate = self.rates[-1]
        except OverflowError:
            rate = math.inf
        if not 0.0 < rate < math.inf:
            raise ConfigError(
                f"the {self.profile.value} rate at level M={self.window.M} is not a "
                f"positive finite double; use a smaller height cap"
            )

    @cached_property
    def rates(self) -> np.ndarray:
        """Edge rate of each level 0..M (``WeightProfile.rates``)."""
        return np.array(self.profile.rates(self.window.M))

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
        tails = (level - 1) * W + _tail_column(W, level, np.arange(W), _IN_DIRS)
        u = hash_uniform_vec(self.seed, self.edge_address(WEIGHT_STREAM, tails, _IN_DIRS))
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
    levels of about HASH_BLOCK edges each.
    """
    win = field.window
    W, M = win.W, win.M
    dist = np.zeros((M + 1, W), dtype=np.float64)
    parent_dir = np.full((M + 1, W), -1, dtype=np.int8)
    root_x = np.zeros((M + 1, W), dtype=np.int64)
    cols = np.arange(W, dtype=np.int64)
    root_x[0] = 2 * cols
    step = max(1, HASH_BLOCK // (2 * W))
    for lo in range(1, M + 1, step):
        hi = min(lo + step - 1, M)
        block_r, block_l = field.incoming_weights(lo, hi)
        for y, w_r, w_l in zip(range(lo, hi + 1), block_r, block_l):
            cols_r, cols_l = _tail_column(W, y, cols, _IN_DIRS)
            cand_r = dist[y - 1][cols_r] + w_r
            cand_l = dist[y - 1][cols_l] + w_l
            take_left = cand_l <= cand_r
            dist[y] = np.where(take_left, cand_l, cand_r)
            parent_dir[y] = np.where(take_left, np.int8(Dir.LEFT), np.int8(Dir.RIGHT))
            root_x[y] = root_x[y - 1][np.where(take_left, cols_l, cols_r)]
    return Forest(win, field.profile.value, field.seed, dist, parent_dir, root_x)


# JSON text of a parent direction, indexed by its Dir code, and the code of
# each JSON value the loader accepts (null on the boundary).
_DIR_JSON = np.array([f'"{d.letter}"' for d in Dir], dtype=object)
_DIR_CODE = {None: -1, **{d.letter: int(d) for d in Dir}}


def snapshot_text(forest: Forest) -> str:
    """Serialize a covered forest to canonical JSON text.

    The header goes through ``fileio.json_text``.  Vertices appear sorted
    by (y, x); float values are written with 17 significant digits so
    reloading reproduces them bit for bit.  Each level is formatted by one
    template over its rows; non-finite values, which JSON cannot hold,
    raise ConfigError naming the first such level.
    """
    win = forest.window
    W, M = win.W, win.M
    values = forest.values
    pdirs = forest.parent_dir
    roots = forest.root_x
    if np.any(roots < 0):
        raise ValueError("snapshot requires a fully covered window")
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        y = int(np.argmin(finite))
        raise ConfigError(
            f"{forest.value_key} is not finite at level {y} ({forest.label}, "
            f"{W}x{M}); a JSON snapshot cannot hold it"
        )
    vertex = ('    {"x": %d, "y": %d, ' + json_text(forest.value_key)
              + ': %.17g, "parentDir": %s, "rootX": %d}')
    level = ",\n".join([vertex] * W)
    cols = 2 * np.arange(W, dtype=np.int64)
    cells: list = [None] * (5 * W)
    header = {"window": {"W": W, "M": M}, "profile": forest.label, "seed": forest.seed}
    chunks = ["{\n", *(f"  {json_text(k)}: {json_text(v)},\n" for k, v in header.items()),
              '  "vertices": [\n']
    for y in range(M + 1):
        cells[0::5] = (cols + (y & 1)).tolist()
        cells[1::5] = [y] * W
        cells[2::5] = values[y].tolist()
        cells[3::5] = ["null"] * W if y == 0 else _DIR_JSON[pdirs[y]].tolist()
        cells[4::5] = roots[y].tolist()
        chunks.append(level % tuple(cells))
        chunks.append(",\n" if y < M else "\n")
    chunks.append("  ]\n}\n")
    return "".join(chunks)


def check_invariants(forest: Forest) -> None:
    """Raise ValueError unless a covered forest is consistent.

    Boundary labels must equal their own x, and every vertex above the
    boundary must carry its parent's root label, so every label is a
    boundary root.  Values must not decrease along a parent edge.
    """
    win = forest.window
    W, M = win.W, win.M
    roots = forest.root_x
    values = forest.values
    bad = np.flatnonzero(roots[0] != 2 * np.arange(W))
    if bad.size:
        j = int(bad[0])
        raise ValueError(f"boundary vertex ({2 * j},0) has root label {int(roots[0, j])}")
    heads = np.arange(W, (M + 1) * W)
    tails = incoming_tail_index(W, heads, forest.parent_dir[1:].ravel())
    for broken, what in (
        (roots.ravel()[heads] != roots.ravel()[tails], "a root label other than"),
        (values.ravel()[heads] < values.ravel()[tails], "a value below"),
    ):
        if broken.any():
            y, j = divmod(int(heads[np.argmax(broken)]), W)
            raise ValueError(
                f"vertex {tuple(win.vertex_at(y, j))} has {what} its parent's"
            )


# The Python types json.load gives each kind of vertex field: coordinates
# and labels are integers (not bool), times are numbers (the writer's %.17g
# writes a zero as 0).
_JSON_TYPES = {"integer": frozenset({int}), "number": frozenset({int, float})}


def _column(vertices, key: str, dtype, path: str, kind=None, codes=None) -> np.ndarray:
    """One field of every vertex record, mapped through codes if given, else
    each value of the JSON kind given (one type pass over the column)."""
    try:
        items = map(itemgetter(key), vertices)
        if codes is not None:
            items = map(codes.__getitem__, items)
        else:
            items, types = list(items), _JSON_TYPES[kind]
            if not types.issuperset(map(type, items)):
                i = next(i for i, v in enumerate(items) if type(v) not in types)
                raise ConfigError(f"snapshot {path}: vertex {i} has {key} {items[i]!r}; "
                                  f"it must be a JSON {kind}")
        return np.fromiter(items, dtype, len(vertices))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ConfigError(f"malformed snapshot {path}: bad {key!r} ({exc!r})") from exc


def load_snapshot(path: str) -> Forest:
    """Reload a snapshot written by snapshot_text, in its layout only.

    Rejects with ConfigError a file that cannot be read or parsed as JSON,
    a header that is missing or malformed (numbers must be JSON integers),
    a profile that is not a label, a vertex count other than the window's
    (checked before anything of the window's size is allocated), a vertex
    out of the writer's (y, x) order, a vertex without the label's value
    key, an x, y or rootX that is not a JSON integer or a value that is not
    a JSON number, a non-finite value, a parent direction other than null on the
    boundary and L or R above it, and arrays that fail check_invariants.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read snapshot {path}: {exc}") from exc
    try:
        W, M, seed = doc["window"]["W"], doc["window"]["M"], doc["seed"]
        label, vertices = doc["profile"], doc["vertices"]
        n = len(vertices)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed snapshot {path}: {exc}") from exc
    if any(type(v) is not int for v in (W, M, seed)):
        raise ConfigError(f"malformed snapshot {path}: W, M and seed must be integers, "
                          f"got {W!r}, {M!r} and {seed!r}")
    if type(label) is not str or label not in VALUE_KEYS:
        raise ConfigError(f"malformed snapshot {path}: profile {label!r} is not one of "
                          f"{', '.join(VALUE_KEYS)}")
    win = Window(W, M)
    if n != (M + 1) * W:
        raise ConfigError(f"snapshot {path} lists {n} vertices; its {W}x{M} window "
                          f"holds {(M + 1) * W}")
    level = np.arange(M + 1)[:, None]
    xs = _column(vertices, "x", np.int64, path, "integer").reshape(M + 1, W)
    ys = _column(vertices, "y", np.int64, path, "integer").reshape(M + 1, W)
    misplaced = (ys != level) | (xs != (level & 1) + 2 * np.arange(W))
    if misplaced.any():
        y, j = divmod(int(np.argmax(misplaced)), W)
        raise ConfigError(f"snapshot {path}: vertex {y * W + j} is ({xs[y, j]}, {ys[y, j]}) "
                          f"where the (y, x) order puts {tuple(win.vertex_at(y, j))}")
    key = VALUE_KEYS[label]
    values = _column(vertices, key, np.float64, path, "number").reshape(M + 1, W)
    pdirs = _column(vertices, "parentDir", np.int8, path, codes=_DIR_CODE).reshape(M + 1, W)
    roots = _column(vertices, "rootX", np.int64, path, "integer").reshape(M + 1, W)
    finite = np.isfinite(values)
    if not finite.all():
        y, j = divmod(int(np.argmin(finite)), W)
        raise ConfigError(f"snapshot {path}: {key} {values[y, j]} of vertex "
                          f"{tuple(win.vertex_at(y, j))} is not finite")
    wrong = (pdirs < 0) != (level == 0)
    if wrong.any():
        y, j = divmod(int(np.argmax(wrong)), W)
        raise ConfigError(f"snapshot {path}: vertex {tuple(win.vertex_at(y, j))} has "
                          f"parentDir {vertices[y * W + j]['parentDir']!r}; the boundary's, "
                          f"and only the boundary's, is null")
    forest = Forest(win, label, seed, values, pdirs, roots)
    try:
        check_invariants(forest)
    except ValueError as exc:
        raise ConfigError(f"inconsistent snapshot {path}: {exc}") from None
    return forest
