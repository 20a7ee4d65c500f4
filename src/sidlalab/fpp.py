"""First-passage percolation on the window: weights and geodesic forests.

Each directed edge carries an independent exponential waiting time whose
rate depends only on the edge's level.  The defining profile halves the
rate with every level (rate ``2**-h`` at level h), which doubles the mean
waiting time and stretches geodesics vertically; the uniform profile is
the classical Eden-type growth, and the decreasing profile inverts the
stretch so that high edges are fast.

Weights are recomputed on demand from the counter hash rather than stored:
a field object is just (seed, profile, window, horizontal origin).  The
passage time from the boundary to every vertex then satisfies a one-level
dynamic program, because every path from the boundary climbs exactly one
level per edge.  Running the program level by level yields, for each
vertex, its passage time, the direction of the minimizing incoming edge,
and the boundary root it descends from.  The minimizing edges form a
spanning forest rooted on the boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter

import numpy as np

from .errors import ConfigError
from .hashing import WEIGHT_STREAM, exp_from_uniform, hash_uniform, hash_uniform_vec
from .lattice import Dir, Edge, Vertex, Window


class WeightProfile(Enum):
    """Level dependence of edge waiting-time rates."""

    STRETCH = "stretch"
    EDEN = "eden"
    DECREASING = "decreasing"

    def rate(self, level: int) -> float:
        if level < 1:
            raise ValueError(f"edges sit at levels >= 1, got {level}")
        if self is WeightProfile.STRETCH:
            return math.ldexp(1.0, -level)
        if self is WeightProfile.EDEN:
            return 1.0
        return math.ldexp(1.0, level)

    @classmethod
    def parse(cls, s: str) -> "WeightProfile":
        try:
            return cls(s.lower())
        except ValueError:
            names = ", ".join(p.value for p in cls)
            raise ConfigError(f"unknown profile {s!r}; choose one of {names}") from None


def _tail_column(W: int, level, col, d):
    """Column of the tail of the edge that enters column col of a level by
    direction d.

    It depends only on the parity of the level: a RIGHT step into an even
    level starts one column to the left, a LEFT step into an odd level one
    column to the right, and the other two start in the head's own column.
    """
    return (col + ((level & 1) - d)) % W


def incoming_tail_columns(W: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Column index of the tail, per head column, for edges into a level.

    Returns ``(cols_right, cols_left)``: entry j gives the tail column one
    level down of the RIGHT-step (resp. LEFT-step) edge whose head is
    column j.
    """
    cols = np.arange(W, dtype=np.int64)
    return _tail_column(W, level, cols, Dir.RIGHT), _tail_column(W, level, cols, Dir.LEFT)


def incoming_tail_index(W: int, head: np.ndarray, d) -> np.ndarray:
    """Flat index ``level * W + column`` of the tail of the edge that
    enters each flat head index by direction d (one Dir code per head)."""
    level, col = np.divmod(head, W)
    return (level - 1) * W + _tail_column(W, level, col, d)


@dataclass(frozen=True)
class WeightField:
    """Deterministic exponential weight field keyed on edge addresses."""

    seed: int
    profile: WeightProfile
    window: Window
    x_origin: int = 0

    def shifted(self, k: int) -> "WeightField":
        """Field whose weight at edge e equals this field's weight at the
        edge translated k steps to the left (so forests translate right)."""
        return WeightField(
            self.seed, self.profile, self.window,
            (self.x_origin + 2 * k) % self.window.period,
        )

    def _key_x(self, x: int) -> int:
        return (x - self.x_origin) % self.window.period

    def weight(self, e: Edge) -> float:
        """Waiting time of a single canonical edge."""
        tail = self.window.canonicalize(e.tail)
        u = hash_uniform(
            self.seed, WEIGHT_STREAM, self._key_x(tail.x), tail.y, int(e.dir)
        )
        return float(exp_from_uniform(u, self.profile.rate(e.level)))

    def incoming_weights(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """Weights of all edges into a level, as (right-step, left-step)
        arrays indexed by head column."""
        if not 1 <= level <= self.window.M:
            raise ValueError(f"level {level} outside 1..{self.window.M}")
        W = self.window.W
        cols_r, cols_l = incoming_tail_columns(W, level)
        tail_parity = (level - 1) & 1
        rate = self.profile.rate(level)
        ws = []
        for cols, d in ((cols_r, Dir.RIGHT), (cols_l, Dir.LEFT)):
            xs = ((tail_parity + 2 * cols) - self.x_origin) % self.window.period
            u = hash_uniform_vec(
                self.seed,
                [WEIGHT_STREAM, xs.astype(np.uint64), level - 1, int(d)],
            )
            ws.append(exp_from_uniform(u, rate))
        return ws[0], ws[1]


@dataclass
class GeodesicForest:
    """Passage times plus the spanning forest of minimizing edges.

    Arrays have shape (M + 1, W), indexed by (level, column).  Row 0 is the
    boundary: distance 0, no parent, each vertex its own root.
    """

    window: Window
    profile: WeightProfile
    seed: int
    dist: np.ndarray
    parent_dir: np.ndarray
    root_x: np.ndarray

    value_key = "dist"

    @property
    def profile_label(self) -> str:
        return self.profile.value

    @property
    def node_values(self) -> np.ndarray:
        return self.dist

    @property
    def max_dist(self) -> float:
        return float(self.dist.max())

    def distance(self, v: Vertex) -> float:
        v = self.window.canonicalize(v)
        if v.y > self.window.M:
            raise ValueError(f"vertex {v} above the height cap {self.window.M}")
        return float(self.dist[v.y, self.window.column_of(v)])

    def parent_edge(self, v: Vertex) -> Edge | None:
        v = self.window.canonicalize(v)
        if v.y == 0:
            return None
        d = Dir(int(self.parent_dir[v.y, self.window.column_of(v)]))
        tail = Vertex(v.x - d.dx, v.y - 1)
        return Edge(self.window.canonicalize(tail), d)

    def root_of(self, v: Vertex) -> Vertex:
        v = self.window.canonicalize(v)
        return Vertex(int(self.root_x[v.y, self.window.column_of(v)]), 0)


def build_forest(field: WeightField) -> GeodesicForest:
    """Run the level dynamic program over the whole window.

    At each level the candidate passage time through either incoming edge
    is the tail's passage time plus the edge weight; the minimum wins and
    ties go to the LEFT-step edge.
    """
    win = field.window
    W, M = win.W, win.M
    dist = np.zeros((M + 1, W), dtype=np.float64)
    parent_dir = np.full((M + 1, W), -1, dtype=np.int8)
    root_x = np.zeros((M + 1, W), dtype=np.int64)
    root_x[0] = 2 * np.arange(W, dtype=np.int64)
    for y in range(1, M + 1):
        w_r, w_l = field.incoming_weights(y)
        cols_r, cols_l = incoming_tail_columns(W, y)
        cand_r = dist[y - 1][cols_r] + w_r
        cand_l = dist[y - 1][cols_l] + w_l
        take_left = cand_l <= cand_r
        dist[y] = np.where(take_left, cand_l, cand_r)
        parent_dir[y] = np.where(take_left, np.int8(Dir.LEFT), np.int8(Dir.RIGHT))
        tail_cols = np.where(take_left, cols_l, cols_r)
        root_x[y] = root_x[y - 1][tail_cols]
    return GeodesicForest(win, field.profile, field.seed, dist, parent_dir, root_x)


@dataclass
class ForestSnapshot:
    """A forest-shaped object reloaded from disk.

    Quacks like GeodesicForest for analysis and rendering: exposes window,
    node_values, parent_dir, root_x and the key the values were stored
    under ("dist" for passage times, "occupancy_time" for particle runs).
    """

    window: Window
    profile_label: str
    seed: int
    value_key: str
    node_values: np.ndarray
    parent_dir: np.ndarray
    root_x: np.ndarray

    def root_of(self, v: Vertex) -> Vertex:
        v = self.window.canonicalize(v)
        return Vertex(int(self.root_x[v.y, self.window.column_of(v)]), 0)


# JSON text of a parent direction, indexed by its Dir code, and the code of
# each JSON value the loader accepts (null on the boundary).
_DIR_JSON = np.array([f'"{d.letter}"' for d in Dir], dtype=object)
_DIR_CODE = {None: -1, **{d.letter: int(d) for d in Dir}}


def snapshot_text(obj) -> str:
    """Serialize a covered forest-like object to canonical JSON text.

    Vertices appear sorted by (y, x); float values are written with 17
    significant digits so reloading reproduces them bit for bit.  Each
    level is formatted by one template over its rows; non-finite values,
    which JSON cannot hold, raise ConfigError naming the first such level.
    """
    win = obj.window
    W, M = win.W, win.M
    values = obj.node_values
    pdirs = obj.parent_dir
    roots = obj.root_x
    if np.any(roots < 0):
        raise ValueError("snapshot requires a fully covered window")
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        y = int(np.argmin(finite))
        raise ConfigError(
            f"{obj.value_key} is not finite at level {y} ({obj.profile_label}, "
            f"{W}x{M}); a JSON snapshot cannot hold it"
        )
    vertex = ('    {"x": %d, "y": %d, "' + obj.value_key
              + '": %.17g, "parentDir": %s, "rootX": %d}')
    level = ",\n".join([vertex] * W)
    cols = 2 * np.arange(W, dtype=np.int64)
    cells: list = [None] * (5 * W)
    chunks = [
        "{\n"
        f'  "window": {{"W": {W}, "M": {M}}},\n'
        f'  "profile": {json.dumps(obj.profile_label)},\n'
        f'  "seed": {obj.seed},\n'
        '  "vertices": [\n'
    ]
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


def check_invariants(forest_like) -> None:
    """Raise ValueError unless a covered forest-like object is consistent.

    Boundary labels must equal their own x, and every vertex above the
    boundary must carry its parent's root label, so every label is a
    boundary root.  Values must not decrease along a parent edge.
    """
    win = forest_like.window
    W, M = win.W, win.M
    roots = forest_like.root_x
    values = forest_like.node_values
    bad = np.flatnonzero(roots[0] != 2 * np.arange(W))
    if bad.size:
        j = int(bad[0])
        raise ValueError(f"boundary vertex ({2 * j},0) has root label {int(roots[0, j])}")
    heads = np.arange(W, (M + 1) * W)
    tails = incoming_tail_index(W, heads, forest_like.parent_dir[1:].ravel())
    for broken, what in (
        (roots.ravel()[heads] != roots.ravel()[tails], "a root label other than"),
        (values.ravel()[heads] < values.ravel()[tails], "a value below"),
    ):
        if broken.any():
            y, j = divmod(int(heads[np.argmax(broken)]), W)
            raise ValueError(
                f"vertex {tuple(win.vertex_at(y, j))} has {what} its parent's"
            )


def _column(vertices, key: str, dtype, path: str, codes=None) -> np.ndarray:
    """One field of every vertex record, mapped through codes if given."""
    items = map(itemgetter(key), vertices)
    if codes is not None:
        items = map(codes.__getitem__, items)
    try:
        return np.fromiter(items, dtype, len(vertices))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed snapshot {path}: bad {key!r} ({exc!r})") from exc


def load_snapshot(path: str) -> ForestSnapshot:
    """Reload a snapshot written by snapshot_text.

    Rejects with ValueError a vertex outside the window, a vertex listed
    twice, a hole, a parent direction other than L or R, and arrays that
    fail check_invariants.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        win = Window(int(doc["window"]["W"]), int(doc["window"]["M"]))
        profile_label = str(doc["profile"])
        seed = int(doc["seed"])
        vertices = doc["vertices"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed snapshot {path}: {exc}") from exc
    if not vertices:
        raise ValueError(f"snapshot {path} has no vertices")
    W, M = win.W, win.M
    value_key = "occupancy_time" if "occupancy_time" in vertices[0] else "dist"
    xs = _column(vertices, "x", np.int64, path) % win.period
    ys = _column(vertices, "y", np.int64, path)
    outside = (ys < 0) | (ys > M) | ((xs + ys) % 2 != 0)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(f"snapshot vertex {Vertex(int(xs[i]), int(ys[i]))} outside window")
    flat = ys * W + (xs >> 1)
    seen = np.bincount(flat, minlength=(M + 1) * W)
    if seen.max() > 1:
        y, j = divmod(int(np.argmax(seen)), W)
        raise ValueError(f"snapshot {path} lists vertex {tuple(win.vertex_at(y, j))} twice")
    values = np.full((M + 1, W), np.nan, dtype=np.float64)
    pdirs = np.full((M + 1, W), -1, dtype=np.int8)
    roots = np.full((M + 1, W), -1, dtype=np.int64)
    values.ravel()[flat] = _column(vertices, value_key, np.float64, path)
    pdirs.ravel()[flat] = _column(vertices, "parentDir", np.int8, path, _DIR_CODE)
    roots.ravel()[flat] = _column(vertices, "rootX", np.int64, path)
    if np.isnan(values).any() or np.any(roots < 0):
        raise ValueError(f"snapshot {path} does not cover its window")
    if np.any(pdirs[1:] < 0):
        raise ValueError(f"snapshot {path} missing parent directions")
    snap = ForestSnapshot(win, profile_label, seed, value_key, values, pdirs, roots)
    try:
        check_invariants(snap)
    except ValueError as exc:
        raise ValueError(f"inconsistent snapshot {path}: {exc}") from None
    return snap
