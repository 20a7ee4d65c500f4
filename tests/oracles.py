"""Brute-force reference implementations used to cross-check the package.

Everything here is deliberately naive: distances come from enumerating
every monotone path one by one, trees come from filtering edge subsets,
and shell counts come straight from the definition.  Slow, but honest,
and sharing no code path with the implementations under test, except
that ``reference_jumps`` claims vertices through ``sidla.apply_extension``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from sidlalab.hashing import JUMP_STREAM, exp_from_uniform, hash_uniform
from sidlalab.lattice import (
    Dir,
    Edge,
    Vertex,
    Window,
    edge_str,
    head,
    in_cone,
    in_edges,
    out_edges,
)
from sidlalab.sidla import SidlaState, apply_extension


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
                total = total + field.weight(e)
            sums.append(total)
        return sums

    memo_dist: dict[Vertex, float] = {}

    def vdist(v: Vertex) -> float:
        cv = win.canonicalize(v)
        if cv not in memo_dist:
            memo_dist[cv] = min(all_path_dists(cv))
        return memo_dist[cv]

    memo_root: dict[Vertex, int] = {}

    def vroot(v: Vertex) -> int:
        cv = win.canonicalize(v)
        if cv.y == 0:
            return cv.x
        if cv not in memo_root:
            e_r, e_l = in_edges(cv, win)
            via_r = vdist(e_r.tail) + field.weight(e_r)
            via_l = vdist(e_l.tail) + field.weight(e_l)
            up = e_l if via_l <= via_r else e_r
            memo_root[cv] = vroot(up.tail)
        return memo_root[cv]

    for m in range(1, M + 1):
        for j in range(W):
            v = Vertex(_canonical_x(win, m, j), m)
            dist[m, j] = vdist(v)
            e_r, e_l = in_edges(v, win)
            via_r = vdist(e_r.tail) + field.weight(e_r)
            via_l = vdist(e_l.tail) + field.weight(e_l)
            parent[m, j] = int(Dir.LEFT) if via_l <= via_r else int(Dir.RIGHT)
            root[m, j] = vroot(v)
    return dist, parent, root


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


def _edge_code(window: Window, e: Edge) -> int:
    return (e.tail.y * window.period + e.tail.x) * 2 + int(e.dir)


def _decode_edge(window: Window, code: int) -> Edge:
    d = Dir(code & 1)
    xy = code >> 1
    return Edge(Vertex(xy % window.period, xy // window.period), d)


def reference_jumps(state: SidlaState, seed: int) -> SidlaState:
    """The object-based jumps driver, kept as the bitwise reference for
    ``sidla._run_jumps``: Edge/Vertex objects, two O(M) level loops and
    one full hash chain per uniform.

    Keeps free edges grouped by level (all edges at a level share one
    rate); each event picks a level proportionally to count * rate and
    then a uniform edge within the level.
    """
    win = state.window
    W, M = win.W, win.M
    level_rate = [0.0] + [math.ldexp(1.0, -h) for h in range(1, M + 1)]
    free: list[list[int]] = [[] for _ in range(M + 1)]
    pos: dict[int, int] = {}

    def add_edge(e: Edge) -> None:
        code = _edge_code(win, e)
        lst = free[e.level]
        pos[code] = len(lst)
        lst.append(code)

    def remove_edge(code: int, level: int) -> None:
        i = pos.pop(code)
        lst = free[level]
        last = lst.pop()
        if last != code:
            lst[i] = last
            pos[last] = i

    for v in win.boundary():
        for d in (Dir.LEFT, Dir.RIGHT):
            add_edge(Edge(v, d))

    total = W * M
    k = 0
    while state.n_occupied < total:
        rate_sum = 0.0
        for h in range(1, M + 1):
            rate_sum += len(free[h]) * level_rate[h]
        state.clock += float(
            exp_from_uniform(hash_uniform(seed, JUMP_STREAM, k, 0), rate_sum)
        )
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
        root = state.owner_of(e.tail)
        a = win.canonicalize(head(e))
        apply_extension(state, root, e, state.clock)
        if state.log_events:
            state.events.append((root, state.clock, "extend", edge_str(e)))
        for dead in in_edges(a, win):
            code = _edge_code(win, dead)
            if code in pos:
                remove_edge(code, a.y)
        if a.y < M:
            for d2 in (Dir.LEFT, Dir.RIGHT):
                if not state.occupied(head(Edge(a, d2))):
                    add_edge(Edge(a, d2))
        k += 1
    state.n_rings = k
    return state
