"""Brute-force reference implementations used to cross-check the package.

Everything here is deliberately naive: distances come from enumerating
every monotone path one by one, trees come from filtering edge subsets,
and shell counts come straight from the definition.  Slow, but honest,
and sharing no code path with the implementations under test.  Random
draws go through the scalar hash (``hashing.hash_u64`` and
``hash_uniform``, the reference definition the package's vector hash
matches) and ``exp_variate``, the scalar form of ``exp_from_uniform``.

The object lattice (``Vertex``, ``Edge``, ``head``, ``edge_str``,
``vertex_at``, ``dir_dx`` and ``dir_letter``) names vertices and edges as
NamedTuples; the package itself keeps them as plain integers.
``edge_objects`` turns a package tree's integer (y, x, d) edge triples
into an ``Edge`` set, and ``reference_enumerate_monotone_trees``, the
object enumerator, is the reference for
``analysis.enumerate_monotone_trees``.

The object walk API (``edge_in_tree``, ``walk_particle``,
``apply_extension``, ``hash_coin_stream``, ``ring_arrival`` and
``next_ring``: Vertex/Edge objects and one scalar hash per coin) is the
literal particle rule, one ring at a time.  ``reference_rings`` drives it
as the bitwise reference for ``sidla._run_rings``; ``reference_jumps`` and
``reference_replay`` claim vertices through ``apply_extension``.  These
four append one (site, time, outcome, edge) tuple per event to an event
log that the caller passes in, a plain list that
``reference_events_csv_text`` formats; the package keeps no such log.

The ``reference_*`` ring functions are the object-based coupling engine
(one ``CoupledRing`` per ring carrying its whole path, a tuple sort and a
prefix walk per ring), kept as the bitwise reference for the array engine
in ``sidlalab.coupling``; ``reference_offsets`` draws one edge's repeat
arrivals in a scalar loop, the reference for ``AuxClockField.offsets``.

``reference_gaps_csv_text`` and ``reference_events_csv_text`` format
every row by one ``%``-template (``%.17g`` for the floats), the bitwise
reference for the cell-built CSV writers; ``reference_cell_text`` joins
rows one cell at a time, the reference for ``fileio.cell_text``.

The last group are the per-vertex forest writers, loader and reductions
(``reference_snapshot_text``, ``reference_load_snapshot``,
``reference_render_svg``, ``reference_slim_fractions`` and
``reference_flank_left_distances``): one Python step per vertex or per
root, kept as the bitwise reference for the array forms in ``sidlalab``.

``reference_ks_statistic`` is the one-sample KS statistic against the
unit exponential CDF in plain array expressions, the bitwise reference
for the in-place ``analysis.ks_test_exp1``.

``reference_chi_square_compare`` counts each sample into a label -> count
dict and pools the two dicts' table with numpy arrays rebuilt at every
merge, the bitwise reference for ``analysis.chi_square_compare``.

``exact_forest`` reruns the forest program in exact rational arithmetic,
so rounding cannot move a root unnoticed.

``owner_of``, ``open_tree_edges`` (the brute-force form of the particle
drivers' stop rule), ``truncated_mean_height``, ``cone_check``, the lattice
helpers ``canonicalize``, ``dir_from_letter``, ``is_valid``, ``contains``,
``column_of``, ``level_vertices``, ``boundary``, ``rel_x``, ``in_cone``,
``in_edges``, ``out_edges`` and ``incoming_tail_columns``, the scalar
definitions ``level_rate`` and ``scalar_edge_address`` (the references for
``WeightField.rates`` and ``WeightField.edge_address``), and
``edge_weight`` (one edge's weight from one scalar hash, the reference for
``WeightField.incoming_weights``) are small helpers the oracles and the
acceptance gate use, with no caller in the package; ``is_monotone_tree``
and ``flanks`` (one root's flank vertices and their triangle, the per-root
reference for ``analysis.flank_left_distances``) are likewise test-only, as
is ``snapshot_arrays_sha256``, the array digest of the golden snapshot tests.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from sidlalab.analysis import Chi2Result, chi2_sf, extract_tree, root_heights, slim_levels
from sidlalab.coupling import REPEAT_MODES, AuxClockField, RingKind
from sidlalab.errors import ConfigError, CouplingFault
from sidlalab.fpp import Forest, WeightField, WeightProfile, load_snapshot
from sidlalab.hashing import (
    AUX_STREAM,
    CLOCK_STREAM,
    COIN_STREAM,
    JUMP_STREAM,
    TINY,
    WEIGHT_STREAM,
    hash_u64,
    hash_uniform,
)
from sidlalab.render import _HIGHLIGHT_COLOR, _PALETTE_SEED, RenderOptions, _fmt
from sidlalab.lattice import Dir, Window
from sidlalab.sidla import SidlaState, SimulationLimitError, new_state


class Vertex(NamedTuple):
    x: int
    y: int


class Edge(NamedTuple):
    """Directed edge identified by its tail and direction."""

    tail: Vertex
    dir: Dir


def dir_dx(d: Dir) -> int:
    """The horizontal step of a direction: -1 for LEFT, 1 for RIGHT."""
    return 2 * int(d) - 1


def dir_letter(d: Dir) -> str:
    return "LR"[d]


def head(e: Edge) -> Vertex:
    return Vertex(e.tail.x + dir_dx(e.dir), e.tail.y + 1)


def edge_str(e: Edge) -> str:
    return f"{e.tail.x},{e.tail.y},{dir_letter(e.dir)}"


def vertex_at(window: Window, level: int, column: int) -> Vertex:
    return Vertex((level & 1) + 2 * column, level)


def edge_objects(edges: Iterable[tuple[int, int, int]]) -> frozenset[Edge]:
    """The Edge set of a package tree's integer (y, x, d) edge triples."""
    return frozenset(Edge(Vertex(x, y), Dir(d)) for y, x, d in edges)


def dir_from_letter(s: str) -> Dir:
    if s == "L":
        return Dir.LEFT
    if s == "R":
        return Dir.RIGHT
    raise ValueError(f"direction must be 'L' or 'R', got {s!r}")


def canonicalize(window: Window, v: Vertex) -> Vertex:
    return Vertex(v.x % window.period, v.y)


def is_valid(v: Vertex) -> bool:
    return v.y >= 0 and (v.x + v.y) % 2 == 0


def contains(window: Window, v: Vertex) -> bool:
    return 0 <= v.y <= window.M and is_valid(v)


def column_of(window: Window, v: Vertex) -> int:
    """Column index 0..W-1 of a canonical vertex within its level."""
    return (v.x % window.period) >> 1


def level_vertices(window: Window, level: int) -> list[Vertex]:
    if not 0 <= level <= window.M:
        raise ValueError(f"level {level} outside window (0..{window.M})")
    return [vertex_at(window, level, j) for j in range(window.W)]


def boundary(window: Window) -> list[Vertex]:
    return level_vertices(window, 0)


def owner_of(forest: Forest, v: Vertex) -> int:
    """Root label of a window vertex, -1 while it is unclaimed."""
    return int(forest.root_x[v.y, column_of(forest.window, v)])


def open_tree_edges(forest: Forest, root_x_value: int, max_level: int) -> list[Edge]:
    """The free edges that leave a root's tree into levels 1..max_level:
    each out-edge, to an unclaimed head, of each of the tree's vertices
    below max_level, found by visiting every vertex there."""
    win = forest.window
    return [e for y in range(max_level) for v in level_vertices(win, y)
            if owner_of(forest, v) == root_x_value for e in out_edges(v)
            if owner_of(forest, canonicalize(win, head(e))) < 0]


def truncated_mean_height(forest: Forest) -> float:
    """Mean over roots of min(height, M); censored trees count as M."""
    heights, _ = root_heights(forest)
    return float(heights.mean())


def rel_x(window: Window, v: Vertex, base: Vertex) -> int:
    """Horizontal displacement from base to v, lifted to (-W, W]."""
    dx = (v.x - base.x) % window.period
    if dx > window.W:
        dx -= window.period
    return dx


def in_cone(base: Vertex, v: Vertex, window: Window | None = None) -> bool:
    """True if v lies in the light cone opening upward from base.

    With a window, the horizontal displacement is first lifted to the
    representative nearest base.
    """
    dy = v.y - base.y
    if dy < 0:
        return False
    dx = rel_x(window, v, base) if window is not None else v.x - base.x
    return abs(dx) <= dy


def out_edges(v: Vertex) -> tuple[Edge, Edge]:
    return Edge(v, Dir.LEFT), Edge(v, Dir.RIGHT)


def in_edges(v: Vertex, window: Window | None = None) -> tuple[Edge, Edge]:
    """The two edges whose head is v, tails one level down."""
    if v.y < 1:
        raise ValueError(f"vertex {v} has no incoming edges")
    left_tail = Vertex(v.x + 1, v.y - 1)  # arrives by a LEFT step
    right_tail = Vertex(v.x - 1, v.y - 1)
    if window is not None:
        left_tail = canonicalize(window, left_tail)
        right_tail = canonicalize(window, right_tail)
    return Edge(right_tail, Dir.RIGHT), Edge(left_tail, Dir.LEFT)


def snapshot_arrays_sha256(path: str, extra: bytes = b"") -> str:
    """sha256 over the values, parent_dir and root_x bytes of a reloaded
    snapshot, then extra: a digest of what a snapshot holds, not of its
    text layout."""
    forest = load_snapshot(path)
    h = hashlib.sha256()
    for a in (forest.values, forest.parent_dir, forest.root_x):
        h.update(a.tobytes())
    h.update(extra)
    return h.hexdigest()


def exp_variate(u: float, rate: float) -> float:
    """One inverse-CDF exponential variate: ``-log1p(-u) / rate``, clamped
    to TINY, in the same float ops as ``hashing.exp_from_uniform``."""
    w = float(-np.log1p(-u) / rate)
    return w if w > 0.0 else TINY


def level_rate(profile: WeightProfile, level: int) -> float:
    """The edge rate at one level >= 1 by the profile's definition: 2**-level
    (stretch), 1 (eden) or 2**level (decreasing)."""
    if profile is WeightProfile.STRETCH:
        return 2.0 ** -level
    return 1.0 if profile is WeightProfile.EDEN else 2.0 ** level


def incoming_tail_columns(W: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Tail columns of the (right-step, left-step) edges into each head
    column of a level: the heads' x minus and plus one, wrapped."""
    hx = (level & 1) + 2 * np.arange(W)
    return ((hx - 1) % (2 * W)) >> 1, ((hx + 1) % (2 * W)) >> 1


def scalar_edge_address(window: Window, stream: int, e: Edge) -> list[int]:
    """Hash address of one edge: the stream tag, its canonical tail's x and
    y, and its direction."""
    tail = canonicalize(window, e.tail)
    return [stream, tail.x, tail.y, int(e.dir)]


def edge_weight(field: WeightField, e: Edge) -> float:
    """Waiting time of a single canonical edge."""
    u = hash_uniform(field.seed, *scalar_edge_address(field.window, WEIGHT_STREAM, e))
    return exp_variate(u, level_rate(field.profile, head(e).y))


def cone_check(forest: Forest, root) -> bool:
    """Every vertex of the root's tree lies in the upward cone of the root
    and no slice exceeds the cone width m+1."""
    win = forest.window
    x0 = root.x if isinstance(root, Vertex) else int(root)
    for m in range(1, win.M + 1):
        cols = np.nonzero(forest.root_x[m] == x0)[0]
        if len(cols) == 0:
            continue
        if len(cols) > m + 1:
            return False
        xs = (m & 1) + 2 * cols
        dxs = (xs - x0) % win.period
        dxs = np.where(dxs > win.W, dxs - win.period, dxs)
        if np.any(np.abs(dxs) > m):
            return False
    return True


def _canonical_x(window, level: int, j: int) -> int:
    return (level & 1) + 2 * j


def brute_force_forest(field):
    """Recompute dist/parent/root for every window vertex by enumerating
    all monotone paths down to the boundary.

    Path sums accumulate from the boundary upward, matching the DP's
    left-fold order, so agreement is expected bit for bit.  Parent choice
    re-applies the left-on-tie rule from scratch.
    """
    win = field.window
    W, M = win.W, win.M

    dist = np.zeros((M + 1, W), dtype=np.float64)
    parent = np.full((M + 1, W), -1, dtype=np.int8)
    root = np.zeros((M + 1, W), dtype=np.int64)
    root[0, :] = np.arange(0, 2 * W, 2, dtype=np.int64)

    def all_path_dists(v: Vertex) -> list[float]:
        """Total weight of every monotone boundary path ending at v,
        summed from level 1 upward."""
        if v.y == 0:
            return [0.0]
        sums = []
        for choices in range(1 << v.y):
            cur = v
            edges_down = []
            for bit in range(v.y):
                e_r, e_l = in_edges(cur)
                e = e_r if (choices >> bit) & 1 else e_l
                edges_down.append(e)
                cur = e.tail
            total = 0.0
            for e in reversed(edges_down):
                total = total + edge_weight(field, e)
            sums.append(total)
        return sums

    memo_dist: dict[Vertex, float] = {}

    def vdist(v: Vertex) -> float:
        cv = canonicalize(win, v)
        if cv not in memo_dist:
            memo_dist[cv] = min(all_path_dists(cv))
        return memo_dist[cv]

    memo_root: dict[Vertex, int] = {}

    def vroot(v: Vertex) -> int:
        cv = canonicalize(win, v)
        if cv.y == 0:
            return cv.x
        if cv not in memo_root:
            e_r, e_l = in_edges(cv, win)
            via_r = vdist(e_r.tail) + edge_weight(field, e_r)
            via_l = vdist(e_l.tail) + edge_weight(field, e_l)
            up = e_l if via_l <= via_r else e_r
            memo_root[cv] = vroot(up.tail)
        return memo_root[cv]

    for m in range(1, M + 1):
        for j in range(W):
            v = Vertex(_canonical_x(win, m, j), m)
            dist[m, j] = vdist(v)
            e_r, e_l = in_edges(v, win)
            via_r = vdist(e_r.tail) + edge_weight(field, e_r)
            via_l = vdist(e_l.tail) + edge_weight(field, e_l)
            parent[m, j] = int(Dir.LEFT) if via_l <= via_r else int(Dir.RIGHT)
            root[m, j] = vroot(v)
    return dist, parent, root


def exact_forest(field):
    """Parent directions and root labels of the level DP run in exact
    rational arithmetic over the same float64 weights.

    Each passage time is the exact ``Fraction`` sum of the weights on its
    path, so a comparison that float rounding decides differently shows up
    as another parent direction or root label.  Exact ties go LEFT, as in
    ``build_forest``.  Returns ``(parent_dir, root_x)``.
    """
    win = field.window
    W, M = win.W, win.M
    parent = np.full((M + 1, W), -1, dtype=np.int8)
    root = np.zeros((M + 1, W), dtype=np.int64)
    root[0, :] = np.arange(0, 2 * W, 2, dtype=np.int64)
    dist = [Fraction(0)] * W
    for m in range(1, M + 1):
        row = []
        for j in range(W):
            best = None
            # RIGHT first, so an exact tie is won by the LEFT edge after it
            for e in in_edges(Vertex(_canonical_x(win, m, j), m), win):
                jt = column_of(win, e.tail)
                via = dist[jt] + Fraction(edge_weight(field, e))
                if best is None or via <= best:
                    best = via
                    parent[m, j] = int(e.dir)
                    root[m, j] = root[m - 1, jt]
            row.append(best)
        dist = row
    return parent, root


def is_monotone_tree(root: Vertex, edges: Iterable[Edge]) -> bool:
    """Check the unique-incoming-edge tree property over the edge set."""
    edges = list(edges)
    heads = [head(e) for e in edges]
    if len(set(heads)) != len(heads):
        return False
    if root in heads:
        return False
    verts = {root} | set(heads)
    return all(e.tail in verts for e in edges)


def is_tree_edge_set(root: Vertex, edges) -> bool:
    """Independent monotone-tree test: distinct heads, none equal to the
    root, every tail either the root or some other edge's head."""
    edges = list(edges)
    heads = [head(e) for e in edges]
    if len(set(heads)) != len(heads):
        return False
    if root in heads:
        return False
    attach = set(heads) | {root}
    return all(e.tail in attach for e in edges)


def cone_edges_up_to(root: Vertex, max_level: int) -> list[Edge]:
    """Every directed edge whose tail lies in the cone of root at a level
    below max_level."""
    out = []
    for dy in range(max_level):
        for dx in range(-dy, dy + 1, 2):
            v = Vertex(root.x + dx, root.y + dy)
            if in_cone(root, v):
                out.extend(out_edges(v))
    return out


def trees_by_subset_filter(max_edges: int, root: Vertex = Vertex(0, 0)):
    """All monotone trees with at most max_edges edges, found by filtering
    combinations of candidate cone edges."""
    candidates = cone_edges_up_to(root, max_edges)
    found = set()
    for k in range(max_edges + 1):
        for combo in combinations(candidates, k):
            if is_tree_edge_set(root, combo):
                found.add(frozenset(combo))
    return found


def reference_enumerate_monotone_trees(
    max_edges: int, root: Vertex = Vertex(0, 0)
) -> Iterator[frozenset[Edge]]:
    """The Edge set of every monotone tree at the root with at most
    max_edges edges, in the package enumerator's order.

    Edges are added in increasing (level, tail x, direction) order; a
    parent edge always sorts before the edges it enables, so every tree is
    produced from exactly one addition sequence and each prefix along the
    way is itself a valid tree.
    """

    def key(e: Edge) -> tuple[int, int, int]:
        return (e.tail.y, e.tail.x, int(e.dir))

    def grow(edges: list[Edge], verts: set[Vertex], last_key):
        yield frozenset(edges)
        if len(edges) == max_edges:
            return
        cands = sorted(
            (
                Edge(v, d)
                for v in verts
                for d in (Dir.LEFT, Dir.RIGHT)
                if head(Edge(v, d)) not in verts
            ),
            key=key,
        )
        for e in cands:
            if last_key is not None and key(e) <= last_key:
                continue
            a = head(e)
            edges.append(e)
            verts.add(a)
            yield from grow(edges, verts, key(e))
            edges.pop()
            verts.remove(a)

    yield from grow([], {root}, None)


def brute_shell_counts(root: Vertex, edges) -> dict[int, int]:
    """Outer-boundary shell sizes straight from the definition: for each
    tree vertex, count its missing out-edges at the head's level."""
    edges = set(edges)
    verts = {root} | {head(e) for e in edges}
    counts: dict[int, int] = {}
    for v in verts:
        for e in out_edges(v):
            if e not in edges:
                lvl = e.tail.y + 1
                counts[lvl] = counts.get(lvl, 0) + 1
    return counts


def shell_weighted_sum(counts: dict[int, int]) -> Fraction:
    return sum(
        (Fraction(c, 2**lvl) for lvl, c in counts.items()), Fraction(0)
    )


# ---------------------------------------------------------------------------
# The object walk API and the literal ring driver


def edge_in_tree(state: SidlaState, root_x_value: int, e: Edge) -> bool:
    """True if e is the parent edge of its head in the tree of that root."""
    forest = state.forest
    a = canonicalize(forest.window, head(e))
    if a.y > forest.window.M:
        return False
    j = column_of(forest.window, a)
    return (
        int(forest.root_x[a.y, j]) == root_x_value
        and int(forest.parent_dir[a.y, j]) == int(e.dir)
    )


def walk_particle(
    state: SidlaState, root_x_value: int, coin_at: Callable[[int], Dir]
) -> Edge | None:
    """Run one coin-walk from the given boundary root.

    Returns the claimed edge, or None if the particle vanished.  coin_at
    maps the step index to a direction; the literal driver plugs in a
    counter-hash stream, tests can pass explicit sequences.
    """
    win = state.forest.window
    v = canonicalize(win, Vertex(root_x_value, 0))
    step = 0
    while True:
        d = coin_at(step)
        step += 1
        e = Edge(v, d)
        a = canonicalize(win, head(e))
        if a.y <= win.M and edge_in_tree(state, root_x_value, e):
            v = a
            continue
        if a.y <= win.M and state.forest.root_x[a.y, column_of(win, a)] < 0:
            return e
        return None


def apply_extension(state: SidlaState, root_x_value: int, e: Edge, time: float) -> None:
    """Claim the head of e for the given root at the given clock value."""
    forest = state.forest
    a = canonicalize(forest.window, head(e))
    j = column_of(forest.window, a)
    if int(forest.root_x[a.y, j]) >= 0:
        raise ValueError(f"vertex {a} already occupied")
    forest.root_x[a.y, j] = root_x_value
    forest.parent_dir[a.y, j] = int(e.dir)
    forest.values[a.y, j] = time


def hash_coin_stream(seed: int, ring_index: int) -> Callable[[int], Dir]:
    return lambda step: Dir(hash_u64(seed, COIN_STREAM, ring_index, step) & 1)


def ring_arrival(seed: int, ring_index: int, W: int) -> tuple[float, int]:
    """Clock gap and boundary site of one ring: Exp(W) gap, uniform site."""
    gap = exp_variate(hash_uniform(seed, CLOCK_STREAM, ring_index, 0), W)
    u = hash_uniform(seed, CLOCK_STREAM, ring_index, 1)
    site = min(int(u * W), W - 1)
    return gap, 2 * site


def next_ring(state: SidlaState, seed: int, log: list) -> tuple[int, Edge | None]:
    """Advance the literal driver by one ring, appending its event to log;
    returns (site_x, claimed edge)."""
    k = state.n_rings
    gap, site_x = ring_arrival(seed, k, state.forest.window.W)
    state.clock += gap
    state.n_rings = k + 1
    e = walk_particle(state, site_x, hash_coin_stream(seed, k))
    if e is not None:
        apply_extension(state, site_x, e, state.clock)
    log.append((site_x, state.clock, "extend" if e is not None else "vanish",
                edge_str(e) if e is not None else ""))
    return site_x, e


def reference_rings(state: SidlaState, seed: int, max_rings: int, log: list) -> SidlaState:
    """The object-based rings driver, kept as the bitwise reference for
    ``sidla._run_rings``: one ``next_ring`` per ring, each coin and each
    clock draw its own scalar hash chain."""
    win = state.forest.window
    while state.n_occupied < win.W * win.M:
        if state.n_rings >= max_rings:
            raise SimulationLimitError(
                f"window not covered after {max_rings} rings "
                f"(W={win.W}, M={win.M}); the jumps driver has no such limit"
            )
        next_ring(state, seed, log)
    return state


def _edge_code(window: Window, e: Edge) -> int:
    return (e.tail.y * window.period + e.tail.x) * 2 + int(e.dir)


def _decode_edge(window: Window, code: int) -> Edge:
    d = Dir(code & 1)
    xy = code >> 1
    return Edge(Vertex(xy % window.period, xy // window.period), d)


def reference_jumps(state: SidlaState, seed: int, log: list) -> SidlaState:
    """The object-based jumps driver, kept as the bitwise reference for
    ``sidla._run_jumps``: Edge/Vertex objects, two O(M) level loops and
    one full hash chain per uniform.

    Keeps free edges grouped by level (all edges at a level share one
    rate); each event picks a level proportionally to count * rate and
    then a uniform edge within the level.
    """
    win = state.forest.window
    W, M = win.W, win.M
    level_rate = [0.0] + [math.ldexp(1.0, -h) for h in range(1, M + 1)]
    free: list[list[int]] = [[] for _ in range(M + 1)]
    pos: dict[int, int] = {}

    def add_edge(e: Edge) -> None:
        code = _edge_code(win, e)
        lst = free[head(e).y]
        pos[code] = len(lst)
        lst.append(code)

    def remove_edge(code: int, level: int) -> None:
        i = pos.pop(code)
        lst = free[level]
        last = lst.pop()
        if last != code:
            lst[i] = last
            pos[last] = i

    for v in boundary(win):
        for d in (Dir.LEFT, Dir.RIGHT):
            add_edge(Edge(v, d))

    total = W * M
    k = 0
    while state.n_occupied < total:
        rate_sum = 0.0
        for h in range(1, M + 1):
            rate_sum += len(free[h]) * level_rate[h]
        state.clock += exp_variate(hash_uniform(seed, JUMP_STREAM, k, 0), rate_sum)
        r = hash_uniform(seed, JUMP_STREAM, k, 1) * rate_sum
        chosen = 0
        acc = 0.0
        for h in range(1, M + 1):
            c = len(free[h])
            if c:
                chosen = h
                acc += c * level_rate[h]
                if r < acc:
                    break
        lst = free[chosen]
        i = min(int(hash_uniform(seed, JUMP_STREAM, k, 2) * len(lst)), len(lst) - 1)
        e = _decode_edge(win, lst[i])
        root = owner_of(state.forest, e.tail)
        a = canonicalize(win, head(e))
        apply_extension(state, root, e, state.clock)
        log.append((root, state.clock, "extend", edge_str(e)))
        for dead in in_edges(a, win):
            code = _edge_code(win, dead)
            if code in pos:
                remove_edge(code, a.y)
        if a.y < M:
            for d2 in (Dir.LEFT, Dir.RIGHT):
                if owner_of(state.forest, head(Edge(a, d2))) < 0:
                    add_edge(Edge(a, d2))
        k += 1
    state.n_rings = k
    return state


@dataclass(frozen=True)
class CoupledRing:
    """One clock ring of a boundary site with its assigned particle path."""

    site: Vertex
    time: float
    path: tuple[Edge, ...]
    kind: RingKind

    @property
    def target(self) -> Vertex:
        return head(self.path[-1])


def reference_offsets(field: AuxClockField, e: Edge, budget: float) -> list[float]:
    """Arrival offsets (cumulative, ascending) of one edge's auxiliary clock
    not exceeding budget, one scalar hash per arrival."""
    if budget <= 0.0:
        return []
    address = scalar_edge_address(field.window, AUX_STREAM, e)
    rate = level_rate(field.profile, head(e).y)
    out: list[float] = []
    acc = 0.0
    k = 0
    while True:
        u = hash_uniform(field.seed, *address, k)
        acc += exp_variate(u, rate)
        if acc > budget:
            return out
        out.append(acc)
        k += 1


def reference_generate_rings(
    forest: Forest,
    field: AuxClockField,
    horizon: float,
    repeats: str = "full",
) -> list[CoupledRing]:
    """Assign rings for every site of the window, sorted by time.

    Interior rings (one per tree vertex) are always produced.  Boundary
    edges of each tree produce their base firing unconditionally and, with
    repeats="full", the auxiliary arrivals up to the horizon.  Edges whose
    head lies above the cap have no home in the window and are skipped;
    their total rate is at most (M + 2) * 2**-(M+1) per site.
    """
    if repeats not in REPEAT_MODES:
        raise ConfigError(f"unknown repeats mode {repeats!r}; use full or base")
    win = forest.window
    W, M = win.W, win.M
    max_dist = float(forest.values.max())
    if horizon < max_dist:
        raise ValueError(
            f"horizon {horizon} below forest max distance {max_dist}; "
            f"rings after coverage would be censored"
        )
    weights = [None] + list(zip(*field.incoming_weights(1, M)))
    children: list[list[list[tuple[int, Dir]]]] = [
        [[] for _ in range(W)] for _ in range(M)
    ]
    for y in range(1, M + 1):
        cols_r, cols_l = incoming_tail_columns(W, y)
        pd_row = forest.parent_dir[y]
        for j in range(W):
            d = Dir(int(pd_row[j]))
            tail_col = int(cols_l[j]) if d is Dir.LEFT else int(cols_r[j])
            children[y - 1][tail_col].append((j, d))

    rings: list[CoupledRing] = []
    for j0 in range(W):
        site = Vertex(2 * j0, 0)
        stack: list[tuple[Vertex, int, float, tuple[Edge, ...]]] = [
            (site, j0, 0.0, ())
        ]
        while stack:
            v, j, lam, path = stack.pop()
            if path:
                rings.append(CoupledRing(site, lam, path, RingKind.INTERIOR))
            if v.y >= M:
                continue
            kids = children[v.y][j]
            for d in (Dir.LEFT, Dir.RIGHT):
                e = Edge(v, d)
                a = canonicalize(win, head(e))
                ja = column_of(win, a)
                w_r, w_l = weights[a.y]
                w = float(w_l[ja]) if d is Dir.LEFT else float(w_r[ja])
                child_col = next((jc for jc, dc in kids if dc is d), None)
                if child_col is not None:
                    stack.append((a, child_col, lam + w, path + (e,)))
                    continue
                t_base = lam + w
                bpath = path + (e,)
                rings.append(CoupledRing(site, t_base, bpath, RingKind.BOUNDARY_REPEAT))
                if repeats == "full" and t_base < horizon:
                    for off in reference_offsets(field, e, horizon - t_base):
                        rings.append(
                            CoupledRing(site, t_base + off, bpath,
                                        RingKind.BOUNDARY_REPEAT)
                        )
    rings.sort(key=lambda r: (r.time, r.site.x, len(r.path), int(r.kind), r.path))
    return rings


def reference_replay(rings: list[CoupledRing], window: Window, log: list) -> SidlaState:
    """Run the assigned rings through the particle rules, in order.

    Interior rings whose final edge's head is free extend the tree; every
    other ring vanishes.  An interior ring whose path prefix is not in the
    current tree contradicts the construction and raises CouplingFault.
    """
    state = new_state(window)
    for ring in rings:
        state.n_rings += 1
        state.clock = ring.time
        outcome = "vanish"
        claimed = ""
        if ring.kind is RingKind.INTERIOR:
            root_val = ring.site.x
            for e in ring.path[:-1]:
                if not edge_in_tree(state, root_val, e):
                    raise CouplingFault(
                        f"ring at t={ring.time} site={ring.site.x}: path edge "
                        f"{edge_str(e)} not in the current tree"
                    )
            last = ring.path[-1]
            a = canonicalize(window, head(last))
            if owner_of(state.forest, a) < 0:
                apply_extension(state, root_val, last, ring.time)
                outcome = "extend"
                claimed = edge_str(last)
        log.append((ring.site.x, ring.time, outcome, claimed))
    return state


def interring_gaps(rings, site, horizon: float | None = None) -> np.ndarray:
    """Successive ring-time differences at one boundary site."""
    site_x = site.x if isinstance(site, Vertex) else int(site)
    times = [r.time for r in rings if r.site.x == site_x
             and (horizon is None or r.time <= horizon)]
    if len(times) < 2:
        raise ValueError(f"need >= 2 rings at site {site_x}, found {len(times)}")
    return np.diff(np.asarray(times, dtype=np.float64))


def reference_pooled_gaps(rings, window: Window, horizon: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Gaps at every site pooled in site order; returns (site_x, gap) arrays."""
    times: dict[int, list[float]] = {2 * j: [] for j in range(window.W)}
    for r in rings:
        if horizon is None or r.time <= horizon:
            times[r.site.x].append(r.time)
    sites: list[int] = []
    gaps: list[float] = []
    for x in sorted(times):
        ts = times[x]
        for i in range(1, len(ts)):
            sites.append(x)
            gaps.append(ts[i] - ts[i - 1])
    return np.asarray(sites, dtype=np.int64), np.asarray(gaps, dtype=np.float64)


def reference_gaps_csv_text(sites: np.ndarray, gaps: np.ndarray) -> str:
    """A ``site_x,gap`` header and one row per gap, formatted in one pass."""
    cells: list = [None] * (2 * len(gaps))
    cells[0::2] = np.asarray(sites, dtype=np.int64).tolist()
    cells[1::2] = np.asarray(gaps, dtype=np.float64).tolist()
    return "site_x,gap\n" + ("%d,%.17g\n" * len(gaps)) % tuple(cells)


def reference_events_csv_text(events: list) -> str:
    """An oracle's event log as CSV with columns site_x,time,outcome,edge,
    formatted by one template over all rows; a non-empty edge is quoted."""
    rows = "".join(['%s,%.17g,%s,"%s"\n' if e else "%s,%.17g,%s,%s\n"
                    for _, _, _, e in events])
    return "site_x,time,outcome,edge\n" + rows % tuple(chain.from_iterable(events))


def reference_cell_text(columns: list) -> bytes:
    """Rows of literal bytes and cell rows, joined one row and one column
    at a time, with every NUL byte dropped."""
    n = next(len(c) for c in columns if not isinstance(c, bytes))
    rows = [b"".join(c if isinstance(c, bytes) else bytes(c[i].tolist()) for c in columns)
            for i in range(n)]
    return b"".join(rows).replace(b"\0", b"")


# ---------------------------------------------------------------------------
# Per-vertex forest writers, loader and reductions


def reference_snapshot_text(obj: Forest) -> str:
    """Serialize a covered forest to canonical JSON text.

    Vertices appear sorted by (y, x); float values are written with 17
    significant digits so reloading reproduces them bit for bit.
    """
    win = obj.window
    values = obj.values
    pdirs = obj.parent_dir
    roots = obj.root_x
    if np.any(roots < 0):
        raise ValueError("snapshot requires a fully covered window")
    rows = []
    for y in range(win.M + 1):
        for j in range(win.W):
            x = (y & 1) + 2 * j
            val = format(float(values[y, j]), ".17g")
            if y == 0:
                pd = "null"
            else:
                pd = '"L"' if int(pdirs[y, j]) == int(Dir.LEFT) else '"R"'
            rows.append(
                f'    {{"x": {x}, "y": {y}, "{obj.value_key}": {val}, '
                f'"parentDir": {pd}, "rootX": {int(roots[y, j])}}}'
            )
    body = ",\n".join(rows)
    return (
        "{\n"
        f'  "window": {{"W": {win.W}, "M": {win.M}}},\n'
        f'  "profile": {json.dumps(obj.label)},\n'
        f'  "seed": {obj.seed},\n'
        '  "vertices": [\n'
        f"{body}\n"
        "  ]\n"
        "}\n"
    )


def reference_load_snapshot(path: str) -> Forest:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        win = Window(int(doc["window"]["W"]), int(doc["window"]["M"]))
        label = str(doc["profile"])
        seed = int(doc["seed"])
        vertices = doc["vertices"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed snapshot {path}: {exc}") from exc
    if not vertices:
        raise ValueError(f"snapshot {path} has no vertices")
    value_key = "occupancy_time" if label == "sidla" else "dist"
    values = np.full((win.M + 1, win.W), np.nan, dtype=np.float64)
    pdirs = np.full((win.M + 1, win.W), -1, dtype=np.int8)
    roots = np.full((win.M + 1, win.W), -1, dtype=np.int64)
    for rec in vertices:
        v = canonicalize(win, Vertex(int(rec["x"]), int(rec["y"])))
        if not contains(win, v):
            raise ValueError(f"snapshot vertex {v} outside window")
        j = column_of(win, v)
        values[v.y, j] = float(rec[value_key])
        roots[v.y, j] = int(rec["rootX"])
        if rec["parentDir"] is not None:
            pdirs[v.y, j] = int(dir_from_letter(rec["parentDir"]))
    if np.isnan(values).any() or np.any(roots < 0):
        raise ValueError(f"snapshot {path} does not cover its window")
    if np.any(pdirs[1:] < 0):
        raise ValueError(f"snapshot {path} missing parent directions")
    return Forest(win, label, seed, values, pdirs, roots)


def root_color(x: int) -> str:
    """The scalar reference palette of ``render.render_svg``: the colour of
    root x, a hue hashed over the wheel but the red-ish band, so the
    highlight stays unique."""
    hue = 25 + (hash_u64(_PALETTE_SEED, x) % 300)
    return f"hsl({hue},62%,42%)"


def reference_render_svg(forest: Forest, options: RenderOptions = RenderOptions()) -> str:
    """Render the forest (or covered particle state) as an SVG document."""
    win = forest.window
    W, M = win.W, win.M
    top = M if options.max_level is None else min(options.max_level, M)
    s = options.scale
    highlight_x = None
    if options.highlight_root is not None:
        highlight_x = options.highlight_root % win.period

    def sx(x: float) -> float:
        return (x + 1.0) * s

    def sy(y: float) -> float:
        return (top - y + 1.0) * s

    width = _fmt((2 * W + 2) * s)
    height = _fmt((top + 2) * s)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"  <title>{forest.label} seed={forest.seed} "
        f"window={W}x{M}</title>",
        f'  <rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]

    stroke = _fmt(0.16 * s)
    plain: list[str] = []
    red: list[str] = []
    labels = forest.root_x
    pdirs = forest.parent_dir
    for y in range(1, top + 1):
        for j in range(W):
            root = int(labels[y, j])
            if root < 0:
                continue
            hx = (y & 1) + 2 * j
            d = Dir(int(pdirs[y, j]))
            tx = hx - dir_dx(d)
            seg = (
                f'  <line x1="{_fmt(sx(tx))}" y1="{_fmt(sy(y - 1))}" '
                f'x2="{_fmt(sx(hx))}" y2="{_fmt(sy(y))}" '
            )
            if highlight_x is not None and root == highlight_x:
                red.append(
                    seg + f'stroke="{_HIGHLIGHT_COLOR}" '
                    f'stroke-width="{stroke}" stroke-linecap="round"/>'
                )
            else:
                plain.append(
                    seg + f'stroke="{root_color(root)}" '
                    f'stroke-width="{stroke}" stroke-linecap="round"/>'
                )
    lines.extend(plain)
    lines.extend(red)

    r = _fmt(0.2 * s)
    for j in range(W):
        x = 2 * j
        color = (
            _HIGHLIGHT_COLOR
            if highlight_x is not None and x == highlight_x
            else root_color(x)
        )
        lines.append(
            f'  <circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(0))}" r="{r}" '
            f'fill="{color}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def reference_slim_fractions(obj, slim_d: float) -> list[float]:
    """The stats slim loop: one extracted tree per uncensored root of
    positive height, its slim-level count over its height."""
    W = obj.window.W
    heights, censored = root_heights(obj)
    slim_fracs = []
    for j in range(W):
        if censored[j] or heights[j] < 1:
            continue
        tree = extract_tree(obj, 2 * j)
        frac = len(slim_levels(tree, slim_d)) / heights[j]
        slim_fracs.append(frac)
    return slim_fracs


def reference_flank_left_distances(forest: Forest, n: int) -> np.ndarray:
    """Left-flank distances of every root with a nonempty level-n slice.

    Pools the per-tree samples used by the tail bound; ordering follows
    ascending root x, so the output is deterministic."""
    win = forest.window
    if not 1 <= n <= win.M:
        raise ValueError(f"level {n} outside 1..{win.M}")
    row = forest.root_x[n]
    values = forest.values
    out = []
    for x0 in np.unique(row):
        if x0 < 0:
            continue
        cols = np.nonzero(row == x0)[0]
        xs = (n & 1) + 2 * cols
        dxs = (xs - int(x0)) % win.period
        dxs = np.where(dxs > win.W, dxs - win.period, dxs)
        lx = int(x0) + int(dxs.min()) - 2
        col = column_of(win, canonicalize(win, Vertex(lx, n)))
        out.append(float(values[n, col]))
    return np.asarray(out, dtype=np.float64)


def reference_ks_statistic(sample) -> float:
    """max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n) over the sorted sample, with
    F(x) = 1 - exp(-x) as -expm1(-x)."""
    arr = np.sort(np.asarray(sample, dtype=np.float64))
    n = arr.size
    cdf = -np.expm1(-arr)
    i = np.arange(1, n + 1, dtype=np.float64)
    return max(float(np.max(i / n - cdf)), float(np.max(cdf - (i - 1.0) / n)))


def reference_chi_square_compare(sample_a, sample_b) -> Chi2Result:
    """Two-sample chi-square over the union of the two histograms' labels;
    while some expected count (the smaller side's) drops below 5, the
    smallest-expectation bin is merged into a neighbor."""
    hist_a = dict(Counter(int(v) for v in sample_a))
    hist_b = dict(Counter(int(v) for v in sample_b))
    keys = sorted(set(hist_a) | set(hist_b))
    a = np.array([hist_a.get(k, 0) for k in keys], dtype=np.float64)
    b = np.array([hist_b.get(k, 0) for k in keys], dtype=np.float64)
    keep = (a + b) > 0
    a, b = a[keep], b[keep]
    if a.size == 0 or a.sum() == 0 or b.sum() == 0:
        raise ValueError("chi-square needs two nonempty histograms")
    total = a.sum() + b.sum()

    def expected(av: np.ndarray, bv: np.ndarray) -> np.ndarray:
        col = av + bv
        return np.minimum(av.sum() * col / total, bv.sum() * col / total)

    a = list(a)
    b = list(b)
    while len(a) > 1:
        exp = expected(np.asarray(a), np.asarray(b))
        if exp.min() >= 5.0:
            break
        i = int(np.argmin(exp))
        va, vb = a.pop(i), b.pop(i)
        t = i if i < len(a) else i - 1
        a[t] += va
        b[t] += vb
    av = np.asarray(a)
    bv = np.asarray(b)
    if expected(av, bv).min() < 5.0:
        raise ConfigError(
            "expected counts below 5 even after pooling; samples too small"
        )
    if len(av) == 1:
        return Chi2Result(statistic=0.0, p_value=1.0, dof=0, n_bins=1)
    col = av + bv
    ea = av.sum() * col / total
    eb = bv.sum() * col / total
    stat = float(np.sum((av - ea) ** 2 / ea) + np.sum((bv - eb) ** 2 / eb))
    dof = len(av) - 1
    p = chi2_sf(dof, stat)
    return Chi2Result(statistic=stat, p_value=p, dof=dof, n_bins=len(av))


def _triangle_lattice_points(a: Vertex, b: Vertex, c: Vertex) -> frozenset[Vertex]:
    """Lattice vertices (x+y even) inside the closed triangle abc, by exact
    integer cross products."""

    def cross(o: Vertex, p: Vertex, q: Vertex) -> int:
        return (p.x - o.x) * (q.y - o.y) - (p.y - o.y) * (q.x - o.x)

    orient = cross(a, b, c)
    if orient == 0:
        raise ValueError(f"degenerate triangle {a}, {b}, {c}")
    if orient < 0:
        b, c = c, b
    points = []
    xs = (a.x, b.x, c.x)
    ys = (a.y, b.y, c.y)
    for y in range(min(ys), max(ys) + 1):
        for x in range(min(xs), max(xs) + 1):
            if (x + y) % 2 != 0:
                continue
            p = Vertex(x, y)
            if (
                cross(a, b, p) >= 0
                and cross(b, c, p) >= 0
                and cross(c, a, p) >= 0
            ):
                points.append(p)
    return frozenset(points)


@dataclass(frozen=True)
class FlankInfo:
    """The two vertices flanking a level slice, their distances, and the
    triangle spanned per the verbatim hull definition.

    Coordinates are unwrapped relative to the root (the left flank can
    have negative x); the triangle may fail to contain non-contiguous
    slices above the base level, which is reported, not repaired.
    """

    n: int
    l_n: Vertex
    r_n: Vertex
    left_dist: float
    right_dist: float
    M_n: float
    slice_size: int
    triangle: frozenset[Vertex]


def flanks(forest: Forest, root, n: int) -> FlankInfo:
    """Locate the flanking vertices of the root's level-n slice.

    Distances are read off the forest values (passage time, or occupancy
    time for a replayed state).  The window must be wide enough for the
    slice plus flanks to fit without wrapping.
    """
    win = forest.window
    x0 = root.x if isinstance(root, Vertex) else int(root)
    if not 1 <= n <= win.M:
        raise ValueError(f"level {n} outside 1..{win.M}")
    cols = np.nonzero(forest.root_x[n] == x0)[0]
    if len(cols) == 0:
        raise ValueError(f"tree of root {x0} has an empty level-{n} slice")
    xs = (n & 1) + 2 * cols
    dxs = (xs - x0) % win.period
    dxs = np.where(dxs > win.W, dxs - win.period, dxs)
    dx_min, dx_max = int(dxs.min()), int(dxs.max())
    if (dx_max + 2) - (dx_min - 2) >= win.period:
        raise ValueError(
            f"flanks of the level-{n} slice wrap around the window (W={win.W})"
        )
    l_n = Vertex(x0 + dx_min - 2, n)
    r_n = Vertex(x0 + dx_max + 2, n)
    values = forest.values
    left_dist = float(values[n, column_of(win, canonicalize(win, l_n))])
    right_dist = float(values[n, column_of(win, canonicalize(win, r_n))])
    k = int(len(cols))
    apex = Vertex(l_n.x + (k + 1), l_n.y + (k + 1))
    triangle = _triangle_lattice_points(l_n, r_n, apex)
    return FlankInfo(
        n=n,
        l_n=l_n,
        r_n=r_n,
        left_dist=left_dist,
        right_dist=right_dist,
        M_n=max(left_dist, right_dist),
        slice_size=k,
        triangle=triangle,
    )
