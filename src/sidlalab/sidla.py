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
  top level extends with probability ``2**-M`` per ring; the ring budget,
  not the speed of a ring, is what limits it to small caps.
* ``jumps``: exponential-clock thinning.  Each free edge at level h rings
  independently at rate ``2**-h`` (rings arrive at rate W and the walk
  claims the edge with probability ``2**-h / W``), so the next extension
  can be sampled directly.  Exactly ``W * M`` events cover the window, each
  at O(band) cost: only the few levels that hold free edges take part.

Both drivers run on integer state only, list mirrors of the forest arrays
written back at the end.  Each hashes its (seed, stream) address prefix
once per run and draws a whole block of rings or events with one vector
hash per stream, never one scalar hash per ring or coin.  Neither keeps
an event log: the events CSV is derived from the forest and a claim record.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ConfigError
from .fileio import block_text, cell_text, float_cells, int_cells
from .fpp import Forest, WeightProfile, incoming_tail_index
from .hashing import (
    CLOCK_STREAM,
    COIN_STREAM,
    HASH_BLOCK,
    JUMP_STREAM,
    TINY,
    check_seeds,
    exp_from_uniform,
    hash_u64,
    hash_u64_vec,
    hash_uniform_vec,
)
from .lattice import Window

DEFAULT_RING_BUDGET_FACTOR = 10_000

# Largest cap for which the literal driver fits comfortably inside the
# default ring budget (expected rings ~ W * 2**(M+1) vs budget 1e4 * W * M).
AUTO_LITERAL_MAX_CAP = 12


class SimulationLimitError(RuntimeError):
    """The ring budget ran out before the window was covered."""


@dataclass
class SidlaState:
    """One particle run: its forest, claim record, clock and counters.

    The forest's values are the clock values at which each vertex was
    claimed (0 on the boundary); unclaimed vertices hold root -1 and
    ``claim_event`` -1, claimed ones the index of the event (ring or jump)
    that claimed them.  ``method`` names the driver that ran.  A run
    stopped below the cap (``run_until_covered``'s ``up_to``) holds
    unclaimed vertices above its stop level; its ``clock`` and ``n_rings``
    (events run) end at the event that claimed the last vertex at or below
    that level.
    """

    forest: Forest
    claim_event: np.ndarray
    clock: float = 0.0
    n_rings: int = 0
    method: str | None = None

    @property
    def n_occupied(self) -> int:
        """Claimed vertices above the boundary."""
        return int(np.count_nonzero(self.forest.root_x[1:] >= 0))


def new_state(window: Window, seed: int = 0) -> SidlaState:
    check_seeds(seed)
    W, M = window.W, window.M
    root_x = np.full((M + 1, W), -1, dtype=np.int64)
    parent_dir = np.full((M + 1, W), -1, dtype=np.int8)
    times = np.full((M + 1, W), np.nan, dtype=np.float64)
    root_x[0] = 2 * np.arange(W, dtype=np.int64)
    times[0] = 0.0
    forest = Forest(window, "sidla", seed, times, parent_dir, root_x)
    return SidlaState(forest, np.full_like(root_x, -1))


def _ring_arrivals(seed: int, k: np.ndarray, W: int) -> tuple[np.ndarray, np.ndarray]:
    """Exp(W) clock gaps and sites ``2 * min(int(u1 * W), W - 1)`` of the rings k (a
    uint64 column) of a rings run, from ``hash_uniform(seed, CLOCK_STREAM, k, j)``."""
    u = hash_uniform_vec(hash_u64(seed, CLOCK_STREAM), [k, np.arange(2, dtype=np.uint64)])
    return exp_from_uniform(u[:, 0], W), 2 * np.minimum((u[:, 1] * W).astype(np.int64), W - 1)


def _ring_draws(seed: int, lo: int, hi: int, W: int, M: int):
    """Yield (clock gap, site x, coins) for rings lo..hi-1 of a rings run:
    ``_ring_arrivals`` and ring k's coin at step s, ``hash_u64(seed,
    COIN_STREAM, k, s) & 1`` for s < M (a walk that has climbed to the cap
    leaves the window whatever its next coin).  A block of rings, M + 2
    words each within HASH_BLOCK, takes one vector hash per stream."""
    coin_mid, steps = hash_u64(seed, COIN_STREAM), np.arange(M, dtype=np.uint64)
    step = max(1, HASH_BLOCK // (M + 2))
    for a in range(lo, hi, step):
        k = np.arange(a, min(a + step, hi), dtype=np.uint64)[:, None]
        gaps, sites = _ring_arrivals(seed, k, W)
        coins = hash_u64_vec(coin_mid, [k, steps]) & np.uint64(1)
        yield from zip(gaps.tolist(), sites.tolist(), coins.tolist())


def _need(state: SidlaState, up_to: int) -> int:
    """The stop rule's count: unclaimed vertices at levels 1..up_to."""
    return int(np.count_nonzero(state.forest.root_x[1:up_to + 1] < 0))


def _run_rings(state: SidlaState, seed: int, max_rings: int, up_to: int) -> SidlaState:
    """Ring the clock until every vertex at levels 1..up_to is claimed, at
    most max_rings times.

    Each ring drops a particle on its site and walks it up by its coins
    while the edge taken is its own tree's parent edge; it claims a free
    head as ring n and vanishes on a foreign one or at the cap.
    """
    forest = state.forest
    W, M, P = forest.window.W, forest.window.M, forest.window.period
    owner, pdir = forest.root_x.tolist(), forest.parent_dir.tolist()
    occ, claim = forest.values.tolist(), state.claim_event.tolist()
    clock, n = state.clock, state.n_rings
    need = _need(state, up_to)
    for gap, root, coins in _ring_draws(seed, n, max_rings, W, M):
        clock += gap
        x = root
        for y, d in enumerate(coins):
            hx = (x + 2 * d - 1) % P
            row, j = y + 1, hx >> 1
            o = owner[row][j]
            if o == root and pdir[row][j] == d:
                x = hx
                continue
            if o < 0:
                owner[row][j], pdir[row][j], occ[row][j], claim[row][j] = root, d, clock, n
                need -= row <= up_to
            break
        n += 1
        if not need:
            break
    forest.root_x[:], forest.parent_dir[:], forest.values[:] = owner, pdir, occ
    state.claim_event[:], state.clock, state.n_rings, state.method = claim, clock, n, "rings"
    if need:
        raise SimulationLimitError(
            f"levels 1..{up_to} not covered after {max_rings} rings "
            f"(W={W}, M={M}); the jumps driver has no such limit"
        )
    return state


def _jump_draws(seed: int, n_events: int):
    """Yield (Exp(1) variate, level uniform, edge uniform) for events
    0..n_events-1 of a jumps run: ``hash_uniform(mid, k, j)`` for j = 0, 1, 2
    with ``mid = hash_u64(seed, JUMP_STREAM)``, a block of events, three
    words each within HASH_BLOCK, per vector hash.  The variate is
    ``-log1p(-u0)``, as in exp_from_uniform."""
    mid = hash_u64(seed, JUMP_STREAM)
    step = max(1, HASH_BLOCK // 3)
    for lo in range(0, n_events, step):
        k = np.arange(lo, min(lo + step, n_events), dtype=np.uint64)
        u = hash_uniform_vec(mid, [k[:, None], np.arange(3, dtype=np.uint64)])
        yield from zip((-np.log1p(-u[:, 0])).tolist(), u[:, 1].tolist(), u[:, 2].tolist())


def _run_jumps(state: SidlaState, seed: int, up_to: int) -> SidlaState:
    """Sample extension events directly from the free-edge clocks until
    every vertex at levels 1..up_to is claimed.

    Free edges are grouped by level (one rate per level) as codes
    ``(y * 2W + x) * 2 + dir`` of their tails; ``pos[code]`` is a code's
    place in its level's list, -1 if not free.  Each event bisects the
    prefix sums of count * rate for a level, then takes a uniform edge
    within it.  Only levels low..top (the lowest with free edges, the
    highest reached) hold any: the sums are 0.0 below and constant above,
    so an event sums the band alone, in the same float adds, at O(band)
    cost.  Owners, directions and times are flat lists, ``level * W + col``.
    """
    forest = state.forest
    W, M, P = forest.window.W, forest.window.M, forest.window.period
    level_rate = WeightProfile.STRETCH.rates(M)
    free: list[list[int]] = [[] for _ in range(M + 1)]
    free[1] = [4 * j + d for j in range(W) for d in (0, 1)]
    pos = [-1] * (4 * W * M)
    for i, code in enumerate(free[1]):
        pos[code] = i
    # term[h] = len(free[h]) * 2**-h; exact, and summed left to right
    term = [len(lst) * rate for lst, rate in zip(free, level_rate)]
    low = top = 1
    owner, pdir = forest.root_x.ravel().tolist(), forest.parent_dir.ravel().tolist()
    occ, order = forest.values.ravel().tolist(), array("q")  # each event's vertex, as C ints
    clock, need = state.clock, _need(state, up_to)
    for e0, u1, u2 in _jump_draws(seed, W * M - state.n_occupied):
        pref = list(accumulate(term[low:top + 1]))
        rate_sum = pref[-1]
        w = e0 / rate_sum
        clock += w if w > 0.0 else TINY
        h = low + bisect_right(pref, u1 * rate_sum)
        if h > top:  # r rounded up to a subnormal rate_sum: last non-empty level
            h = max(i for i in range(low, top + 1) if free[i])
        lst = free[h]
        n = len(lst)
        k = int(u2 * n)
        code = lst[k if k < n else n - 1]
        d = code & 1
        base = (h - 1) * P
        x = (code >> 1) - base
        root = owner[code >> 2]  # the tail's flat index
        hx = (x + 2 * d - 1) % P
        v = h * W + (hx >> 1)
        if owner[v] >= 0:
            raise ValueError(f"vertex ({hx}, {h}) already occupied")
        owner[v], pdir[v], occ[v] = root, d, clock
        order.append(v)
        # both in-edges of the new vertex die, Right (from hx - 1) before Left
        # (from hx + 1): the order fixes where swap-with-last moves codes
        for dead in ((base + (hx - 1) % P) * 2 + 1, (base + (hx + 1) % P) * 2):
            i = pos[dead]
            if i >= 0:
                pos[dead] = -1
                last = lst.pop()
                if last != dead:
                    lst[i] = last
                    pos[last] = i
        term[h] = len(lst) * level_rate[h]
        if h < M:
            up = free[h + 1]
            row = (h + 1) * W
            c2 = (h * P + hx) << 1  # the Left out-edge; Right is c2 + 1
            if owner[row + ((hx - 1) % P >> 1)] < 0:
                pos[c2] = len(up)
                up.append(c2)
            if owner[row + ((hx + 1) % P >> 1)] < 0:
                pos[c2 + 1] = len(up)
                up.append(c2 + 1)
            term[h + 1] = len(up) * level_rate[h + 1]
            if h == top:
                top = h + 1
        need -= h <= up_to
        if not need:
            break
        while low < top and not free[low]:
            low += 1
    forest.root_x.flat, forest.parent_dir.flat, forest.values.flat = owner, pdir, occ
    state.claim_event.flat[np.frombuffer(order, np.int64)] = np.arange(len(order))
    state.clock, state.n_rings, state.method = clock, len(order), "jumps"
    return state


def run_until_covered(window: Window, seed: int, method: str = "auto",
                      up_to: int | None = None) -> SidlaState:
    """Run the particle system until every vertex at levels 1..up_to is
    claimed; up_to defaults to the cap M, the whole window.

    method is "rings" (literal event loop), "jumps" (clock thinning) or
    "auto", which picks rings for small caps and jumps otherwise.  The
    rings driver stops with SimulationLimitError if coverage takes more
    than DEFAULT_RING_BUDGET_FACTOR * W * M rings.

    A claim is never undone and a tree grows only upward, so once levels
    1..up_to are covered they are final: the stopped run equals the full
    one on rows 0..up_to of every array.  Above up_to it holds the vertices
    claimed so far (the rest unclaimed), and its clock and n_rings end at
    the event that claimed the last vertex at or below up_to.
    """
    if method not in ("auto", "rings", "jumps"):
        raise ConfigError(f"unknown method {method!r}; use auto, rings or jumps")
    up_to = window.M if up_to is None else up_to
    if not 1 <= up_to <= window.M:
        raise ConfigError(f"stop level must lie in 1..{window.M}, got {up_to}")
    state = new_state(window, seed=seed)
    if method == "auto":
        method = "rings" if window.M <= AUTO_LITERAL_MAX_CAP else "jumps"
    if method == "rings":
        return _run_rings(state, seed, DEFAULT_RING_BUDGET_FACTOR * window.W * window.M, up_to)
    return _run_jumps(state, seed, up_to)


def events_csv_text(state: SidlaState) -> bytearray:
    """The run's events as CSV (site_x,time,outcome,edge), one row per event
    in order, as ASCII bytes: the event that claimed vertex v gives v's root,
    time, ``extend`` and quoted parent edge; any other is a ring that vanished
    at the ring stream's site and clock.  ValueError if there is no claim record."""
    fo, claim, W = state.forest, state.claim_event.ravel(), state.forest.window.W
    if not np.array_equal(claim[W:] >= 0, fo.root_x.ravel()[W:] >= 0):
        raise ValueError("claimed vertices without a claim event: not a particle driver's run")
    vertex = np.full(state.n_rings, -1, dtype=np.min_scalar_type(-claim.size))
    vertex[claim[claim >= 0]] = np.flatnonzero(claim >= 0)  # event -> vertex
    clock = 0.0

    def rows(lo: int, hi: int) -> bytearray:  # called block by block, in order
        nonlocal clock
        v = vertex[lo:hi].astype(np.int64)
        hit = v >= 0
        time, site = fo.values.flat[v], fo.root_x.flat[v]
        if not hit.all():  # the clock sums on from the last row, as the driver's did
            gaps, sites = _ring_arrivals(fo.seed, np.arange(lo, hi, dtype=np.uint64)[:, None], W)
            gaps[0] += clock
            time, site = np.where(hit, time, np.cumsum(gaps)), np.where(hit, site, sites)
        clock = float(time[-1])
        cells = [int_cells(site), b",", float_cells(time), b",",  # outcome, and a quote by claim
                 np.frombuffer(b'vanish,\0extend,"', np.uint8).reshape(2, 8)[hit * 1]]
        del time, site  # each block temporary goes once used: the peak stays low
        d, m = fo.parent_dir.flat[v].astype(np.int64), hit[:, None]
        y, col = np.divmod(incoming_tail_index(W, v, d), W)  # of the parent edge's tail
        cells += [int_cells((y & 1) + 2 * col) * m, m * np.uint8(44), int_cells(y * hit) * m,
                  # the letter and closing quote by Dir code + 1 (0: vanish)
                  np.frombuffer(b'\0\0\0,L",R"', np.uint8).reshape(3, 3)[(d + 1) * hit], b"\n"]
        del v, y, col, d
        return cell_text(cells)

    return block_text(b"site_x,time,outcome,edge\n", state.n_rings, rows, len(b",,,\n"))
