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

Both drivers run on integer state only: list mirrors of the forest arrays
they read, and one record of each claim (vertex, root, direction, clock,
event), written back with one indexed assignment per array at the end.
Each hashes its (seed, stream) address prefix once per run and draws each
block of rings or events with one vector hash per stream, never one scalar
hash per ring or coin; the blocks grow from small, so a run that stops
early hashes few draws it never uses.  Neither keeps an event log: the
events CSV is derived from the forest and the claim record.  Both work in
columns, on flat indices ``level * W + column``: a free edge is the code
``2 * tail + d``, so vertex v's out-edges are ``2v`` and ``2v + 1``.  An edge
by d from column c of level y enters column ``(c + d - ((y + 1) & 1)) % W``,
and the vertex it claims has both tails and both heads in columns
``left = (c + d - 1) % W`` and ``(left + 1) % W``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ConfigError
from .fileio import block_text, cell_text, float_cells, int_cells
from .fpp import Forest, WeightField, WeightProfile
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
from .lattice import Window, incoming_tail_index

DEFAULT_RING_BUDGET_FACTOR = 10_000

# Draws of the first block a run hashes; later blocks double (_draw_blocks)
FIRST_DRAW_BLOCK = 256

# Largest cap for which the literal driver fits comfortably inside the
# default ring budget (expected rings ~ W * 2**(M+1) vs budget 1e4 * W * M).
AUTO_LITERAL_MAX_CAP = 12


class SimulationLimitError(ConfigError):
    """The ring budget ran out before the run's stop rule was met (a usage error)."""


@dataclass
class SidlaState:
    """One particle run: its forest, claim record, clock and counters.

    The forest's values are the clock values at which each vertex was
    claimed (0 on the boundary); unclaimed vertices hold root -1 and
    ``claim_event`` -1, claimed ones the index of the event (ring or jump)
    that claimed them.  ``method`` names the driver that ran.  A run
    stopped early (``run_until_covered``'s ``up_to`` and ``root``) holds
    unclaimed vertices; its ``clock`` and ``n_rings`` (events run) end at
    the event after which the watched trees were final up to the stop level.
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


def _ring_arrivals(clock_mid: int, k: np.ndarray, W: int) -> tuple[np.ndarray, np.ndarray]:
    """Exp(W) clock gaps and sites ``2 * min(int(u1 * W), W - 1)`` of the rings k (a
    uint64 column) of a rings run, from ``hash_uniform(seed, CLOCK_STREAM, k, j)``;
    clock_mid is the stream's prefix ``hash_u64(seed, CLOCK_STREAM)``."""
    u = hash_uniform_vec(clock_mid, [k, np.arange(2, dtype=np.uint64)])
    return exp_from_uniform(u[:, 0], W), 2 * np.minimum((u[:, 1] * W).astype(np.int64), W - 1)


def _draw_blocks(n: int, cap: int):
    """Yield the index blocks (a, b) that split 0..n-1: FIRST_DRAW_BLOCK
    indices first, doubling up to cap.  A run that stops early hashes few
    draws it never uses, and a long one soon draws cap at a time."""
    lo, step = 0, min(FIRST_DRAW_BLOCK, cap)
    while lo < n:
        yield lo, min(lo + step, n)
        lo, step = lo + step, min(2 * step, cap)


def _ring_draws(seed: int, n_rings: int, W: int, M: int):
    """Yield (clock gap, site x, coins) for rings 0..n_rings-1 of a rings run:
    ``_ring_arrivals`` and ring k's coin at step s, ``hash_u64(seed,
    COIN_STREAM, k, s) & 1`` for s < M (a walk that has climbed to the cap
    leaves the window whatever its next coin).  A block of rings, M + 2
    words each within HASH_BLOCK, takes one vector hash per stream."""
    clock_mid, coin_mid = hash_u64(seed, CLOCK_STREAM), hash_u64(seed, COIN_STREAM)
    steps = np.arange(M, dtype=np.uint64)
    for a, b in _draw_blocks(n_rings, max(1, HASH_BLOCK // (M + 2))):
        k = np.arange(a, b, dtype=np.uint64)[:, None]
        gaps, sites = _ring_arrivals(clock_mid, k, W)
        coins = hash_u64_vec(coin_mid, [k, steps]) & np.uint64(1)
        yield from zip(gaps.tolist(), sites.tolist(), coins.tolist())


def _open_weights(W: int, M: int, root: int | None) -> list[int]:
    """The stop rule's weight of each vertex, by flat index ``level * W +
    col``: 1 if its tree is watched (root's, or every tree if root is None)
    and its out-edges lead into levels 1..up_to, else 0.  Only the boundary
    holds weights here; a driver gives each vertex it claims below up_to its
    tail's weight.  The open edges are the free edges whose tail weighs 1:
    a claim closes its in-edges from claimed tails (weight 0 if unclaimed)
    and opens its out-edges to free heads."""
    weight = [0] * ((M + 1) * W)
    if root is None:
        weight[:W] = [1] * W
    else:
        weight[root >> 1] = 1
    return weight


def _claims() -> tuple[array, array, array, array]:
    """Empty claim records, C arrays of each claim's vertex (flat index),
    root, direction and clock."""
    return array("q"), array("q"), array("b"), array("d")


def _write_claims(state: SidlaState, claims: tuple, events, clock: float, n: int,
                  method: str) -> SidlaState:
    """Write a run's claim records (``_claims``) and each claim's event into
    its state: each array takes one indexed assignment over the claimed
    vertices."""
    order, roots, dirs, times = (np.frombuffer(c, c.typecode) for c in claims)
    forest = state.forest
    forest.root_x.flat[order], forest.parent_dir.flat[order] = roots, dirs
    forest.values.flat[order], state.claim_event.flat[order] = times, events
    state.clock, state.n_rings, state.method = clock, n, method
    return state


def _run_rings(state: SidlaState, seed: int, max_rings: int, up_to: int,
               root: int | None = None) -> SidlaState:
    """Ring the clock of a fresh ``new_state`` until no free edge leads from a
    watched tree into levels 1..up_to (run_until_covered), at most max_rings times.

    Each ring drops a particle on its site and walks it up by its coins
    while the edge taken is its own tree's parent edge; it claims a free
    head as ring n and vanishes on a foreign one or at the cap.  ``opened``
    counts the open edges (``_open_weights``).
    """
    forest = state.forest
    W, M = forest.window.W, forest.window.M
    # root + parent direction by vertex above level 0, -1 if free (roots are
    # even, so it decodes): the fresh state's root labels
    mark = forest.root_x.tolist()
    claims = order, roots, dirs, times = _claims()
    rings = array("q")  # each claim's ring
    weight = _open_weights(W, M, root)
    clock, n, opened = 0.0, 0, 2 * sum(weight)
    for gap, site, coins in _ring_draws(seed, max_rings, W, M):
        clock += gap
        c = site >> 1
        for row, d in enumerate(coins, 1):
            j = (c + d - (row & 1)) % W
            m = mark[row][j]
            if m == site + d:
                c = j
                continue
            if m < 0:
                mark[row][j] = site + d
                order.append(row * W + j)
                roots.append(site)
                dirs.append(d)
                times.append(clock)
                rings.append(n)
                # the in-edges from columns left and right below close
                tails, left = (row - 1) * W, (c + d - 1) % W
                right = (left + 1) % W
                opened -= weight[tails + left] + weight[tails + right]
                if row < up_to and weight[tails + c]:
                    weight[row * W + j] = 1
                    heads = mark[row + 1]
                    opened += (heads[left] < 0) + (heads[right] < 0)
            break
        n += 1
        if not opened:
            break
    _write_claims(state, claims, np.frombuffer(rings, np.int64), clock, n, "rings")
    if opened:
        raise SimulationLimitError(
            f"levels 1..{up_to} not final after {max_rings} rings "
            f"(W={W}, M={M}); the jumps driver has no such limit"
        )
    return state


def _jump_draws(seed: int, n_events: int):
    """Yield (Exp(1) variate, level uniform, edge uniform) for events
    0..n_events-1 of a jumps run: ``hash_uniform(mid, k, j)`` for j = 0, 1, 2
    with ``mid = hash_u64(seed, JUMP_STREAM)``, a block of events
    (``_draw_blocks``, three words each within HASH_BLOCK) per vector hash.
    The variate is ``-log1p(-u0)``, as in exp_from_uniform."""
    mid = hash_u64(seed, JUMP_STREAM)
    for lo, hi in _draw_blocks(n_events, max(1, HASH_BLOCK // 3)):
        k = np.arange(lo, hi, dtype=np.uint64)
        u = hash_uniform_vec(mid, [k[:, None], np.arange(3, dtype=np.uint64)])
        yield from zip((-np.log1p(-u[:, 0])).tolist(), u[:, 1].tolist(), u[:, 2].tolist())


def _run_jumps(state: SidlaState, seed: int, rates: np.ndarray, up_to: int,
               root: int | None = None) -> SidlaState:
    """Sample extension events of a fresh ``new_state`` directly from the
    free-edge clocks, rates[h] at level h, until no free edge leads from a
    watched tree into levels 1..up_to (run_until_covered).

    Free edges are grouped by level (one rate per level) as codes ``2 *
    tail + d`` (module docstring), level 1's being ``range(2W)``; ``pos``
    (2 * W * M entries) holds a code's place in its level's list, -1 if not
    free.  Each event bisects the prefix sums of count * rate for a level,
    then takes a uniform edge within it.  Only levels low..top (the lowest
    with free edges, the highest reached) hold any: the sums are 0.0 below
    and constant above, so an event sums the band alone, in the same float
    adds, at O(band) cost.  ``opened`` counts the open edges
    (``_open_weights``).  Owners are a flat list by vertex; each claim is
    recorded in C arrays, written back at the end.
    """
    forest = state.forest
    W, M = forest.window.W, forest.window.M
    level_rate = rates.tolist()
    free: list[list[int]] = [[] for _ in range(M + 1)]
    free[1] = list(range(2 * W))
    pos = [-1] * (2 * W * M)
    pos[:2 * W] = free[1]
    # term[h] = len(free[h]) * 2**-h; exact, and summed left to right
    term = [len(lst) * rate for lst, rate in zip(free, level_rate)]
    low = top = 1
    owner = forest.root_x.ravel().tolist()
    claims = order, roots, dirs, times = _claims()
    weight = _open_weights(W, M, root)
    clock, opened = 0.0, 2 * sum(weight)
    for e0, u1, u2 in _jump_draws(seed, W * M):
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
        tail, d, base = code >> 1, code & 1, (h - 1) * W
        left = (tail - base + d - 1) % W
        right = (left + 1) % W
        v = base + W + (left if h & 1 else right)
        if owner[v] >= 0:
            raise ValueError(f"vertex {v} at level {h} already occupied")
        tree = owner[v] = owner[tail]
        order.append(v)
        roots.append(tree)
        dirs.append(d)
        times.append(clock)
        # both in-edges of the new vertex die, Right (from left) before Left
        # (from right): the order fixes where swap-with-last moves codes
        for dead in (2 * (base + left) + 1, 2 * (base + right)):
            i = pos[dead]
            if i >= 0:
                pos[dead] = -1
                last = lst.pop()
                if last != dead:
                    lst[i] = last
                    pos[last] = i
                opened -= weight[dead >> 1]
        term[h] = len(lst) * level_rate[h]
        if h < M:
            up = free[h + 1]
            heads = base + 2 * W
            wv = weight[v] = weight[tail] if h < up_to else 0
            if owner[heads + left] < 0:  # the Left out-edge
                pos[2 * v] = len(up)
                up.append(2 * v)
                opened += wv
            if owner[heads + right] < 0:
                pos[2 * v + 1] = len(up)
                up.append(2 * v + 1)
                opened += wv
            term[h + 1] = len(up) * level_rate[h + 1]
            if h == top:
                top = h + 1
        if not opened:
            break
        while low < top and not free[low]:
            low += 1
    return _write_claims(state, claims, np.arange(len(order)), clock, len(order), "jumps")


def run_until_covered(window: Window, seed: int, method: str = "auto",
                      up_to: int | None = None, root: int | None = None) -> SidlaState:
    """Run the particle system until no free edge leads from a watched tree
    into levels 1..up_to; up_to defaults to the cap M.  The watched tree is
    root's (a boundary x), or every tree if root is None, and then the rule
    reads "until every vertex at levels 1..up_to is claimed".

    method is "rings" (literal event loop), "jumps" (clock thinning) or
    "auto", which picks rings for small caps and jumps otherwise.  The
    rings driver stops with SimulationLimitError if the stop takes more
    than DEFAULT_RING_BUDGET_FACTOR * W * M rings.

    A claim is never undone and a tree grows only upward through its free
    edges, so once none leads into levels 1..up_to the watched trees are
    final there: the stopped run equals the full one on their vertices at
    levels 0..up_to (with root None, on rows 0..up_to of every array).
    Elsewhere it holds the vertices claimed so far (the rest unclaimed),
    and its clock and n_rings end at the event after which the last such
    edge closed.  The jumps driver takes the run's stretch
    ``WeightField.rates``; a cap they cannot hold is refused as fpp refuses
    it, before any event.
    """
    if method not in ("auto", "rings", "jumps"):
        raise ConfigError(f"unknown method {method!r}; use auto, rings or jumps")
    up_to = window.M if up_to is None else up_to
    if not 1 <= up_to <= window.M:
        raise ConfigError(f"stop level must lie in 1..{window.M}, got {up_to}")
    if root is not None and not (root % 2 == 0 and 0 <= root < window.period):
        raise ConfigError(f"root must be an even x in 0..{window.period - 2}, got {root}")
    rates = WeightField(seed, WeightProfile.STRETCH, window).rates
    state = new_state(window, seed=seed)
    if method == "auto":
        method = "rings" if window.M <= AUTO_LITERAL_MAX_CAP else "jumps"
    if method == "rings":
        return _run_rings(state, seed, DEFAULT_RING_BUDGET_FACTOR * window.W * window.M,
                          up_to, root)
    return _run_jumps(state, seed, rates, up_to, root)


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
    clock, clock_mid = 0.0, hash_u64(fo.seed, CLOCK_STREAM)

    def rows(lo: int, hi: int) -> bytearray:  # called block by block, in order
        nonlocal clock
        v = vertex[lo:hi].astype(np.int64)
        hit = v >= 0
        time, site = fo.values.flat[v], fo.root_x.flat[v]
        if not hit.all():  # the clock sums on from the last row, as the driver's did
            gaps, sites = _ring_arrivals(clock_mid, np.arange(lo, hi, dtype=np.uint64)[:, None], W)
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
