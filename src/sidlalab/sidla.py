"""Stretched internal DLA on the window.

Particles drop onto a uniformly random boundary site at rate W (one ring of
the global clock per particle) and walk upward through the tree grown at
that site: at each vertex the walker flips a fair coin for a direction,
follows the edge if it already belongs to its own tree, claims the head if
that vertex is free and inside the window, and otherwise vanishes.  A tree
therefore adds at most one vertex per ring, and the probability that a
given free boundary edge at level h is claimed in one ring is exactly
``2**-h``: the coin path to its tail is forced, one choice per level.

Two drivers produce the same process law:

* ``rings``: the literal event loop, one coin-walk per ring.  Faithful but
  needs on the order of ``W * 2**M`` rings to cover the window, since the
  top level extends with probability ``2**-M`` per ring.
* ``jumps``: exponential-clock thinning.  Each free edge at level h rings
  independently at rate ``2**-h`` (rings arrive at rate W and the walk
  claims the edge with probability ``2**-h / W``), so the next extension
  can be sampled directly.  Exactly ``W * M`` events cover the window.

Both drivers share one state layout, draw from tagged counter-hash streams
keyed by (seed, counter), and record an event log suitable for CSV export.
The jumps loop runs on integer state only.  It hashes its (seed, stream)
address prefix once per run and draws the uniforms of a whole block of
events with one vector hash.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np

from .errors import ConfigError
from .fpp import Forest
from .hashing import (
    CLOCK_STREAM,
    COIN_STREAM,
    JUMP_STREAM,
    TINY,
    exp_from_uniform,
    hash_u64,
    hash_uniform,
    hash_uniform_vec,
)
from .lattice import Dir, Edge, Vertex, Window, edge_str, head

DEFAULT_RING_BUDGET_FACTOR = 10_000

# Largest cap for which the literal driver fits comfortably inside the
# default ring budget (expected rings ~ W * 2**(M+1) vs budget 1e4 * W * M).
AUTO_LITERAL_MAX_CAP = 12

# Events whose uniforms the jumps driver draws per vector hash; bounds its
# hash temporaries to O(block) instead of O(W * M).
JUMP_BLOCK = 1 << 16


class SimulationLimitError(RuntimeError):
    """The ring budget ran out before the window was covered."""


@dataclass
class SidlaState:
    """One particle run: its forest, clock, counters and event log.

    The forest's values are the clock values at which each vertex was
    claimed (0 on the boundary); unclaimed vertices hold root -1.  Heights
    and censoring are read from the forest (``fpp.slice_sizes``).
    """

    forest: Forest
    clock: float = 0.0
    n_rings: int = 0
    n_occupied: int = 0
    events: list = field(default_factory=list)
    log_events: bool = False

    def is_covered(self) -> bool:
        win = self.forest.window
        return self.n_occupied >= win.W * win.M


def new_state(window: Window, seed: int = 0, log_events: bool = False) -> SidlaState:
    W, M = window.W, window.M
    root_x = np.full((M + 1, W), -1, dtype=np.int64)
    parent_dir = np.full((M + 1, W), -1, dtype=np.int8)
    times = np.full((M + 1, W), np.nan, dtype=np.float64)
    root_x[0] = 2 * np.arange(W, dtype=np.int64)
    times[0] = 0.0
    forest = Forest(window, "sidla", seed, "occupancy_time", times, parent_dir, root_x)
    return SidlaState(forest, log_events=log_events)


def edge_in_tree(state: SidlaState, root_x_value: int, e: Edge) -> bool:
    """True if e is the parent edge of its head in the tree of that root."""
    forest = state.forest
    a = forest.window.canonicalize(head(e))
    if a.y > forest.window.M:
        return False
    j = forest.window.column_of(a)
    return (
        int(forest.root_x[a.y, j]) == root_x_value
        and int(forest.parent_dir[a.y, j]) == int(e.dir)
    )


def walk_particle(
    state: SidlaState, root_x_value: int, coin_at: Callable[[int], Dir]
) -> Edge | None:
    """Run one coin-walk from the given boundary root.

    Returns the claimed edge, or None if the particle vanished.  coin_at
    maps the step index to a direction; the production drivers plug in a
    counter-hash stream, tests can pass explicit sequences.
    """
    win = state.forest.window
    v = win.canonicalize(Vertex(root_x_value, 0))
    step = 0
    while True:
        d = coin_at(step)
        step += 1
        e = Edge(v, d)
        a = win.canonicalize(head(e))
        if a.y <= win.M and edge_in_tree(state, root_x_value, e):
            v = a
            continue
        if a.y <= win.M and state.forest.root_x[a.y, win.column_of(a)] < 0:
            return e
        return None


def apply_extension(state: SidlaState, root_x_value: int, e: Edge, time: float) -> None:
    """Claim the head of e for the given root at the given clock value."""
    forest = state.forest
    a = forest.window.canonicalize(head(e))
    j = forest.window.column_of(a)
    if int(forest.root_x[a.y, j]) >= 0:
        raise ValueError(f"vertex {a} already occupied")
    forest.root_x[a.y, j] = root_x_value
    forest.parent_dir[a.y, j] = int(e.dir)
    forest.values[a.y, j] = time
    state.n_occupied += 1


def hash_coin_stream(seed: int, ring_index: int) -> Callable[[int], Dir]:
    return lambda step: Dir(hash_u64(seed, COIN_STREAM, ring_index, step) & 1)


def ring_arrival(seed: int, ring_index: int, W: int) -> tuple[float, int]:
    """Clock gap and boundary site of one ring: Exp(W) gap, uniform site."""
    gap = float(exp_from_uniform(hash_uniform(seed, CLOCK_STREAM, ring_index, 0), W))
    u = hash_uniform(seed, CLOCK_STREAM, ring_index, 1)
    site = min(int(u * W), W - 1)
    return gap, 2 * site


def next_ring(state: SidlaState, seed: int) -> tuple[int, Edge | None]:
    """Advance the literal driver by one ring; returns (site_x, claimed edge)."""
    k = state.n_rings
    gap, site_x = ring_arrival(seed, k, state.forest.window.W)
    state.clock += gap
    state.n_rings = k + 1
    e = walk_particle(state, site_x, hash_coin_stream(seed, k))
    if e is not None:
        apply_extension(state, site_x, e, state.clock)
    if state.log_events:
        state.events.append(
            (site_x, state.clock, "extend" if e is not None else "vanish",
             edge_str(e) if e is not None else "")
        )
    return site_x, e


def _run_rings(state: SidlaState, seed: int, max_rings: int) -> SidlaState:
    while not state.is_covered():
        if state.n_rings >= max_rings:
            raise SimulationLimitError(
                f"window not covered after {max_rings} rings "
                f"(W={state.forest.window.W}, M={state.forest.window.M}); "
                f"the jumps driver has no such limit"
            )
        next_ring(state, seed)
    return state


def _jump_draws(seed: int, n_events: int):
    """Yield (Exp(1) variate, level uniform, edge uniform) for events
    0..n_events-1 of a jumps run: ``hash_uniform(mid, k, j)`` for j = 0, 1, 2
    with ``mid = hash_u64(seed, JUMP_STREAM)``, a block of events per vector
    hash.  The variate is ``-log1p(-u0)``, as in exp_from_uniform."""
    mid = hash_u64(seed, JUMP_STREAM)
    for lo in range(0, n_events, JUMP_BLOCK):
        k = np.arange(lo, min(lo + JUMP_BLOCK, n_events), dtype=np.uint64)
        u = hash_uniform_vec(mid, [k[:, None], np.arange(3, dtype=np.uint64)])
        yield from zip((-np.log1p(-u[:, 0])).tolist(), u[:, 1].tolist(), u[:, 2].tolist())


def _run_jumps(state: SidlaState, seed: int) -> SidlaState:
    """Sample extension events directly from the free-edge clocks.

    Free edges are grouped by level (one rate per level) as codes
    ``(y * 2W + x) * 2 + dir`` of their tails.  Each event bisects the prefix
    sums of count * rate for a level, then takes a uniform edge within it.
    Owners, directions and times live in list mirrors of the forest arrays.
    """
    forest = state.forest
    W, M, P = forest.window.W, forest.window.M, forest.window.period
    level_rate = [0.0] + [math.ldexp(1.0, -h) for h in range(1, M + 1)]
    free: list[list[int]] = [[] for _ in range(M + 1)]
    free[1] = [4 * j + d for j in range(W) for d in (0, 1)]
    pos = {code: i for i, code in enumerate(free[1])}
    # term[h] = len(free[h]) * 2**-h; exact, and summed left to right
    term = [len(lst) * rate for lst, rate in zip(free, level_rate)]
    owner, pdir = forest.root_x.tolist(), forest.parent_dir.tolist()
    occ = forest.values.tolist()
    events, log = state.events, state.log_events
    clock = state.clock
    n_events = W * M - state.n_occupied
    for e0, u1, u2 in _jump_draws(seed, n_events):
        pref = list(accumulate(term))
        rate_sum = pref[-1]
        w = e0 / rate_sum
        clock += w if w > 0.0 else TINY
        h = bisect_right(pref, u1 * rate_sum, 1)
        if h > M:  # r rounded up to a subnormal rate_sum: last non-empty level
            h = max(i for i in range(1, M + 1) if free[i])
        lst = free[h]
        n = len(lst)
        code = lst[min(int(u2 * n), n - 1)]
        d = code & 1
        base = (h - 1) * P
        x = (code >> 1) - base
        root = owner[h - 1][x >> 1]
        hx = (x + 2 * d - 1) % P
        j = hx >> 1
        if owner[h][j] >= 0:
            raise ValueError(f"vertex {Vertex(hx, h)} already occupied")
        owner[h][j] = root
        pdir[h][j] = d
        occ[h][j] = clock
        if log:
            events.append((root, clock, "extend", f"{x},{h - 1},{'LR'[d]}"))
        # both in-edges of the new vertex die, Right (from hx - 1) before Left
        # (from hx + 1): the order fixes where swap-with-last moves codes
        for dead in ((base + (hx - 1) % P) * 2 + 1, (base + (hx + 1) % P) * 2):
            i = pos.pop(dead, None)
            if i is not None:
                last = lst.pop()
                if last != dead:
                    lst[i] = last
                    pos[last] = i
        term[h] = len(lst) * level_rate[h]
        if h < M:
            up = free[h + 1]
            for d2 in (0, 1):
                if owner[h + 1][((hx + 2 * d2 - 1) % P) >> 1] < 0:
                    c2 = ((h * P + hx) << 1) + d2
                    pos[c2] = len(up)
                    up.append(c2)
            term[h + 1] = len(up) * level_rate[h + 1]
    forest.root_x[:], forest.parent_dir[:], forest.values[:] = owner, pdir, occ
    state.clock, state.n_rings = clock, n_events
    state.n_occupied += n_events
    return state


def run_until_covered(
    window: Window,
    seed: int,
    method: str = "auto",
    ring_budget_factor: int = DEFAULT_RING_BUDGET_FACTOR,
    log_events: bool = False,
) -> SidlaState:
    """Run the particle system until every window vertex is claimed.

    method is "rings" (literal event loop), "jumps" (clock thinning) or
    "auto", which picks rings for small caps and jumps otherwise.  The
    rings driver stops with SimulationLimitError if coverage takes more
    than ring_budget_factor * W * M rings.
    """
    if method not in ("auto", "rings", "jumps"):
        raise ConfigError(f"unknown method {method!r}; use auto, rings or jumps")
    state = new_state(window, seed=seed, log_events=log_events)
    if method == "auto":
        method = "rings" if window.M <= AUTO_LITERAL_MAX_CAP else "jumps"
    if method == "rings":
        return _run_rings(state, seed, ring_budget_factor * window.W * window.M)
    return _run_jumps(state, seed)


def events_csv_text(state: SidlaState) -> str:
    """Ring event log as CSV with columns site_x,time,outcome,edge."""
    lines = ["site_x,time,outcome,edge"]
    for site_x, t, outcome, edge in state.events:
        tail = f'"{edge}"' if edge else ""
        lines.append(f"{site_x},{format(t, '.17g')},{outcome},{tail}")
    return "\n".join(lines) + "\n"
