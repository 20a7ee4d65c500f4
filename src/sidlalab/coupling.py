"""Ring construction from a weight sample, and its particle replay.

The bridge between the two pictures: given a geodesic forest, every
monotone path from a boundary site through its own tree is assigned a ring
of that site's clock.  A path that stays inside the tree fires once, at
the path's accumulated weight; a path that exits through an outer boundary
edge fires at its accumulated weight and then again at each arrival of an
auxiliary clock attached to that edge (rate ``2**-level``), restarted at
the base firing and truncated at the horizon.  Replaying the assigned
rings through the particle rules reproduces the forest exactly: interior
rings perform the extensions, in the order of the passage times, and
boundary repeats all vanish.

Rings are parallel arrays built from the forest's arrays, so memory is
O(rings) rather than O(total path length), and replay checks each ring
against the ring that claimed the tail of its last edge instead of
walking its path again.  A ring's time is the passage time of that tail
plus the weight of its last edge, recomputed from the weight field: the
same float add as the forest program's candidate through that edge, so
the passage sum along the path, accumulated parent-first.  The replayed
occupancy therefore matches the forest's distances bit for bit exactly
when every parent edge carries its head's distance as its tail's
distance plus its weight, which by induction from the boundary is the
forest's own claim that distances are path sums; likewise for the roots,
which an interior ring takes from its tail.

The repeat streams are where all the volume is: a free edge at level h
fires about ``rate * horizon`` times, and with the stretch profile the
horizon scales like ``2**M``; they are block-hashed, AUX_BLOCK arrivals
of every live edge per vector hash.  Callers that only need the forest
identity can drop to ``repeats="base"`` (one firing per boundary edge),
which leaves the replayed occupancy untouched; gap statistics need
``repeats="full"`` and a window small enough for the horizon to be tame.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .analysis import root_heights
from .errors import ConfigError, CouplingFault
from .fileio import block_text, cell_text, float_cells, int_cells
from .fpp import Forest, WeightField, WeightProfile, build_forest
from .hashing import AUX_STREAM, exp_from_uniform, hash_u64_vec, hash_uniform_vec
from .lattice import Dir, Window, incoming_tail_index
from .sidla import SidlaState, new_state

REPEAT_MODES = ("full", "base")
AUX_BLOCK = 32  # arrivals per live edge and vector hash in AuxClockField.offsets

# Soft budget on generated rings: verify_coupling's repeats="auto" picks full
# repeat streams, about W * horizon rings, when they fit it, else base ones.
AUTO_REPEAT_RING_BUDGET = 5_000_000


class AuxClockField(WeightField):
    """A weight field that also carries deterministic Poisson arrival
    streams, one per edge.

    Arrivals for an edge are the partial sums of counter-hashed
    exponential gaps at the edge's level rate, independent of the weights
    by stream tag.
    """

    def offsets(self, tails: np.ndarray, dirs: np.ndarray,
                budgets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(edge position, offset) of each arrival up to its edge's budget, for
        edges given by flat tail index and Dir code.  Offset k is the running
        sum of gaps j = 0..k, from ``hash_uniform(seed, AUX_STREAM, x, y, dir, j)``."""
        rate = self.rates[tails // self.window.W + 1]
        mid = hash_u64_vec(self.seed, self.edge_address(AUX_STREAM, tails, dirs))
        live = np.flatnonzero(budgets > 0.0)
        acc, k = np.zeros(len(live)), np.arange(AUX_BLOCK, dtype=np.uint64)
        edges, offs = [live[:0]], [acc[:0]]  # dtypes of an empty result
        while live.size:
            w = exp_from_uniform(hash_uniform_vec(mid[live, None], [k]), rate[live, None])
            w[:, 0] += acc
            arrival = np.cumsum(w, axis=1)
            keep = arrival <= budgets[live, None]
            edges.append(live[np.nonzero(keep)[0]])
            offs.append(arrival[keep])
            live, acc = live[keep[:, -1]], arrival[keep[:, -1], -1]
            k += AUX_BLOCK
        return np.concatenate(edges), np.concatenate(offs)


class RingKind(IntEnum):
    INTERIOR = 0
    BOUNDARY_REPEAT = 1


@dataclass(frozen=True)
class Rings:
    """Coupled rings as parallel arrays, one entry per ring.

    Ring i fires at ``time[i]`` on the clock of boundary site ``site[i]``
    (its x).  Its last edge steps in direction ``dir[i]`` into the vertex
    ``head[i]`` (flat index ``level * W + column``), and its path is the
    tree path from the site to that edge's tail followed by the edge, so
    ``depth`` (the head's level) is the path length.  ``kind[i]`` is a
    RingKind code.
    """

    window: Window
    time: np.ndarray
    site: np.ndarray
    head: np.ndarray
    dir: np.ndarray
    kind: np.ndarray

    def __len__(self) -> int:
        return len(self.time)

    @property
    def depth(self) -> np.ndarray:
        return self.head // self.window.W

    @property
    def tail(self) -> np.ndarray:
        return incoming_tail_index(self.window.W, self.head, self.dir)

    def take(self, order) -> "Rings":
        """The rings at the given positions, in that order."""
        return Rings(self.window, self.time[order], self.site[order],
                     self.head[order], self.dir[order], self.kind[order])


def generate_rings(
    forest: Forest,
    field: AuxClockField,
    horizon: float,
    repeats: str = "full",
) -> Rings:
    """Assign rings for every site of the window, sorted by time.

    Every vertex at levels 1..M has one interior ring on its parent edge
    and one boundary base ring on its losing incoming edge.  Each fires at
    its tail's passage time plus the edge's weight, the same float add as
    the forest program's candidate through that edge, on the clock of its
    tail's root.  With repeats="full" each boundary edge whose base ring
    fires before the horizon adds its auxiliary arrivals up to the horizon
    (``field.offsets``; "base" needs only the field's weights).  The edges
    whose head lies above the cap get no ring; their total rate is at most
    (M + 2) * 2**-(M+1) per site.

    Rings are sorted by (time, site, depth, kind), then by head vertex.
    The last key only orders rings that tie on the first four, and no
    result depends on it: gaps depend only on the multiset of times at
    each site, and the interior rings of a tie group target distinct
    vertices at one level, whose parents sort strictly earlier (smaller
    depth at equal time and site).  Repeats of one edge that tie exactly
    are identical rings.  ``ring_order`` finds that order with one argsort
    of the times, and sorts all five keys only when two times tie exactly.
    """
    if repeats not in REPEAT_MODES:
        raise ConfigError(f"unknown repeats mode {repeats!r}; use full or base")
    win = forest.window
    W, M = win.W, win.M
    if not np.isfinite(horizon):
        raise ConfigError(f"horizon {horizon} is not finite; repeat streams would never "
                          f"end, and no ring could be censored")
    max_dist = float(forest.values.max())
    if horizon < max_dist:
        raise ValueError(
            f"horizon {horizon} below forest max distance {max_dist}; "
            f"rings after coverage would be censored"
        )
    heads = np.arange(W, (M + 1) * W, dtype=np.int64)
    win_dir = forest.parent_dir[1:].ravel()
    w_r, w_l = (w.ravel() for w in field.incoming_weights(1, M))
    parts = []
    for d in (win_dir, 1 - win_dir):
        tails = incoming_tail_index(W, heads, d)
        time = forest.values.ravel()[tails] + np.where(d == Dir.LEFT, w_l, w_r)
        parts.append((time, forest.root_x.ravel()[tails], heads, d))
    if repeats == "full":
        # the base rings, whose tails the loop's last pass left in tails
        time, site, _, d = parts[1]
        live = np.flatnonzero(time < horizon)
        edge, off = field.offsets(tails[live], d[live], horizon - time[live])
        at = live[edge]
        parts.append((time[at] + off, site[at], heads[at], d[at]))
    columns = [np.concatenate(c) for c in zip(*parts)]
    kind = np.full(len(columns[0]), RingKind.BOUNDARY_REPEAT, dtype=np.int8)
    kind[:W * M] = RingKind.INTERIOR
    rings = Rings(win, *columns, kind)
    return rings.take(ring_order(rings))


def ring_order(rings: Rings) -> np.ndarray:
    """The permutation ``np.lexsort`` gives rings by (time, site, depth,
    kind, head).  When the sorted times are strictly increasing that order
    is unique, so one argsort of the times gives it at a fraction of the
    cost; only when two times tie exactly (or one is NaN) are all five
    keys sorted."""
    order = np.argsort(rings.time)
    t = rings.time[order]
    if not np.all(t[1:] > t[:-1]):
        order = np.lexsort((rings.head, rings.kind, rings.depth, rings.site, rings.time))
    return order


def replay(rings: Rings) -> SidlaState:
    """Run the assigned rings through the particle rules, in order.

    A ring's particle walks its path inside its site's tree exactly when
    the ring that claimed the tail of its last edge came earlier and
    belongs to the same site; that ring's own path was checked the same
    way, so by induction one comparison per ring stands for the walk over
    every prefix.  Then an interior ring claims its head, which must still
    be free, and a boundary ring vanishes on its head, which must already
    be claimed (a free head would be claimed instead).  Any other outcome
    contradicts the construction and raises CouplingFault, naming the
    first ring at which the replay departs from it.
    """
    window = rings.window
    W, M = window.W, window.M
    n = len(rings)
    pos = np.arange(n, dtype=np.int64)
    interior = rings.kind == RingKind.INTERIOR
    # claim[v]: position of the first interior ring targeting v; boundary
    # vertices count as claimed before any ring, unclaimed ones after all
    claim = np.full((M + 1) * W, n, dtype=np.int64)
    claim[:W] = -1
    np.minimum.at(claim, rings.head[interior], pos[interior])
    claimed = np.flatnonzero(claim[W:] < n) + W
    by = claim[claimed]
    state = new_state(window)
    owner = state.forest.root_x.ravel()  # a view; row 0 holds the boundary labels
    owner[claimed] = rings.site[by]

    tails = rings.tail
    off_tree = (claim[tails] > pos) | (owner[tails] != rings.site)
    head_claim = claim[rings.head]
    faults = (
        (off_tree, "its path leaves the tree before its last edge"),
        (interior & (head_claim != pos), "its interior target is already claimed"),
        (~interior & (head_claim > pos), "it reaches its boundary target before the claim"),
    )
    first = [(int(np.argmax(bad)), why) for bad, why in faults if bad.any()]
    if first:
        i, why = min(first)
        y, j = divmod(int(rings.head[i]), W)
        raise CouplingFault(
            f"ring {i} at t={float(rings.time[i])!r} site={int(rings.site[i])} "
            f"head={((y & 1) + 2 * j, y)}: {why}"
        )

    state.forest.parent_dir.flat[claimed] = rings.dir[by]
    state.forest.values.flat[claimed] = rings.time[by]
    state.n_rings = n
    state.clock = float(rings.time[-1]) if n else 0.0
    return state


def pooled_gaps(rings: Rings, horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """Gaps at every site up to horizon, pooled in site order; returns (site_x, gap) arrays.

    The rings are in time order, so a stable sort by site leaves each
    site's times ascending; gaps are differences of neighbours that share
    a site.  Sites are even, so the sort runs on their columns in the
    smallest unsigned type that holds W - 1, where numpy's stable sort is
    a radix sort (up to 16 bits); the permutation, and so the order, is
    the same as a stable sort of the sites.
    """
    keep = rings.time <= horizon
    site, time = rings.site[keep], rings.time[keep]
    column = (site >> 1).astype(np.min_scalar_type(rings.window.W - 1))
    order = np.argsort(column, kind="stable")
    site, time = site[order], time[order]
    same = site[1:] == site[:-1]
    return site[1:][same], (time[1:] - time[:-1])[same]


@dataclass
class CouplingReport:
    """Outcome of one coupled construct-and-replay verification."""

    seed: int
    repeats: str
    forest_equal: bool
    censored_count: int
    n_rings: int
    gap_sites: np.ndarray
    gap_sample: np.ndarray


def forests_match(a: Forest, b: Forest) -> bool:
    """Equality of two forests' arrays, edge for edge and time for time,
    times compared bit-exact; labels and value keys may differ."""
    return all(np.array_equal(x, y) for x, y in (
        (a.root_x, b.root_x), (a.parent_dir, b.parent_dir), (a.values, b.values)))


def verify_coupling(
    seed: int,
    window: Window,
    horizon_factor: float = 1.5,
    profile: WeightProfile = WeightProfile.STRETCH,
    repeats: str = "full",
) -> CouplingReport:
    """Build a forest, assign its rings, replay them, compare the results.

    The horizon is horizon_factor times the forest's coverage time, so
    with full repeats the gap statistics keep mass after coverage.  The
    gaps are returned for a test on the sample pooled over replicas.
    """
    field = AuxClockField(seed, profile, window)
    forest = build_forest(field)
    horizon = float(forest.values.max()) * horizon_factor
    if repeats == "auto":
        repeats = "full" if window.W * horizon <= AUTO_REPEAT_RING_BUDGET else "base"
    rings = generate_rings(forest, field, horizon, repeats=repeats)
    state = replay(rings)
    sites, gaps = pooled_gaps(rings, horizon=horizon)
    return CouplingReport(
        seed=seed,
        repeats=repeats,
        forest_equal=forests_match(forest, state.forest),
        censored_count=int(np.count_nonzero(root_heights(forest)[1])),
        n_rings=len(rings),
        gap_sites=sites,
        gap_sample=gaps,
    )


def gaps_csv_text(sites: np.ndarray, gaps: np.ndarray) -> bytearray:
    """A ``site_x,gap`` header and one row per gap (``%d,%.17g``), built
    from cells, as ASCII bytes."""
    sites, gaps = np.asarray(sites), np.asarray(gaps)
    return block_text(b"site_x,gap\n", len(gaps), lambda lo, hi: cell_text(
        [int_cells(sites[lo:hi]), b",", float_cells(gaps[lo:hi]), b"\n"]), len(b",\n"))
