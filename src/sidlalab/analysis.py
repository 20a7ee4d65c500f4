"""Exact and statistical verification tools.

Two families of checks live here.  The exact family works on finite
monotone trees, coded as integer edge triples, in integer arithmetic: the
outer-shell weight identity (the level-i outer boundary counts, weighted
``2**-i``, always sum to exactly 1) and an exhaustive enumerator of small
monotone trees.  The statistical family summarizes simulation samples:
tree heights with censoring, slice profiles, the flank distance tail
bound, survival curves with binomial confidence bands, and the generic KS
and chi-square tests used to compare the particle picture with the weight
picture, with their p-values from closed forms in Python floats.

Everything here is a pure function of its inputs; nothing draws random
numbers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ConfigError
from .fpp import Forest, slice_sizes, tree_heights
from .lattice import Window, tail_column

ENUMERATION_GUARD = 12

_Z_99_ONE_SIDED = 2.3263478740408408
_Z_95_TWO_SIDED = 1.959963984540054


class MonotoneTree(NamedTuple):
    """A finite tree rooted on the boundary at x = root, every edge climbing
    one level.  Each edge is an integer triple (y, x, d): its tail's level
    and plane x, and its ``Dir`` code; the head is (x + 2d - 1, y + 1).
    Tuple order is the (level, tail x, direction) order of the enumerator."""

    root: int
    edges: frozenset[tuple[int, int, int]]

    def level_counts(self) -> Counter:
        """Vertices per level: the root at 0 and each edge's head."""
        counts = Counter(y + 1 for y, _, _ in self.edges)
        counts[0] = 1
        return counts

    def height(self) -> int:
        return max((y + 1 for y, _, _ in self.edges), default=0)


def extract_tree(forest: Forest, root: int) -> MonotoneTree:
    """Lift the tree of the root at x = root out of a covered forest.

    Vertices are unwrapped into plane coordinates level by level: each
    vertex's x is its parent's, read by column from the level below, plus
    its step.  So a tree crossing the cyclic seam still comes out
    connected; the root keeps its canonical x.
    """
    win = forest.window
    x0 = root % win.period
    unwrapped = np.empty(win.W, dtype=np.int64)  # by column, of the level below
    unwrapped[x0 >> 1] = x0
    edges: list[tuple[int, int, int]] = []
    for m in range(1, win.M + 1):
        cols = np.flatnonzero(forest.root_x[m] == x0)
        if not cols.size:
            break
        d = forest.parent_dir[m, cols].astype(np.int64)
        tail_x = unwrapped[tail_column(win.W, m, cols, d)]
        edges += [(m - 1, x, c) for x, c in zip(tail_x.tolist(), d.tolist())]
        unwrapped[cols] = tail_x + 2 * d - 1
    return MonotoneTree(x0, frozenset(edges))


def level_profile(forest: Forest, root: int, m: int) -> int:
    """Size of the level-m slice, |T^m(root)|, of the root at x = root."""
    if m < 0:
        raise ValueError(f"level must be nonnegative, got {m}")
    if m > forest.window.M:
        raise ValueError(f"level {m} above cap {forest.window.M}")
    return int(np.count_nonzero(forest.root_x[m] == root))


# ---------------------------------------------------------------------------
# Outer shells and the exact weight identity


def shell_weight(tree: MonotoneTree) -> tuple[int, int]:
    """The outer-shell weight sum as the integer ratio (n, 2**K), K =
    height + 1; the shell identity holds exactly when n == 2**K.

    A vertex at level y with c children leaves 2 - c out-edges outside the
    tree, each an outer-shell edge of level y + 1 and weight 2**-(y + 1); so
    n is the sum over the tree's distinct vertices of
    (2 - c) * 2**(K - y - 1)."""
    k = tree.height() + 1
    children = Counter((x, y) for y, x, _ in tree.edges)
    verts = {(tree.root, 0)} | {(x + 2 * d - 1, y + 1) for y, x, d in tree.edges}
    return sum((2 - children[v]) << (k - v[1] - 1) for v in verts), 1 << k


def enumerate_monotone_trees(max_edges: int) -> Iterator[MonotoneTree]:
    """Yield every monotone tree at the root x = 0 with at most max_edges
    edges.

    The edges are added in increasing (level, tail x, direction) order, the
    plain tuple order of the edge triples; a parent edge always sorts
    before the edges it enables, so every tree is produced from exactly
    one addition sequence and each prefix along the way is itself a valid
    tree.
    """
    if max_edges > ENUMERATION_GUARD:
        raise ConfigError(
            f"max_edges {max_edges} exceeds the enumeration guard "
            f"{ENUMERATION_GUARD}"
        )
    if max_edges < 0:
        raise ConfigError(f"max_edges must be nonnegative, got {max_edges}")
    edges: list[tuple[int, int, int]] = []
    verts = {(0, 0)}

    def grow(last):
        yield MonotoneTree(0, frozenset(edges))
        if len(edges) == max_edges:
            return
        for e in sorted((y, x, d) for x, y in verts for d in (0, 1)
                        if (y, x, d) > last and (x + 2 * d - 1, y + 1) not in verts):
            y, x, d = e
            a = (x + 2 * d - 1, y + 1)
            edges.append(e)
            verts.add(a)
            yield from grow(e)
            edges.pop()
            verts.remove(a)

    yield from grow((-1, 0, 0))  # sorts below every edge


# ---------------------------------------------------------------------------
# Slimness and flanks


def slim_levels(tree: MonotoneTree, D: float) -> list[int]:
    """Levels n up to the height where the slice size is strictly between
    0 and D."""
    counts = tree.level_counts()
    h = tree.height()
    return [n for n in range(1, h + 1) if 0 < counts.get(n, 0) < D]


def flank_left_distances(forest: Forest, n: int) -> np.ndarray:
    """Left-flank distances of every root with a nonempty level-n slice.

    Pools the per-tree samples used by the tail bound; ordering follows
    ascending root x, so the output is deterministic.  The leftmost slice
    offset of every root comes from one minimum over root labels."""
    win = forest.window
    if not 1 <= n <= win.M:
        raise ValueError(f"level {n} outside 1..{win.M}")
    row = forest.root_x[n]
    cols = np.flatnonzero(row >= 0)
    roots, owner = np.unique(row[cols], return_inverse=True)
    dxs = ((n & 1) + 2 * cols - row[cols]) % win.period
    dxs = np.where(dxs > win.W, dxs - win.period, dxs)
    dx_min = np.full(len(roots), win.period, dtype=np.int64)
    np.minimum.at(dx_min, owner, dxs)
    left_cols = ((roots + dx_min - 2) % win.period) >> 1
    return forest.values[n, left_cols].astype(np.float64)


# ---------------------------------------------------------------------------
# Binomial confidence helpers


def wilson_interval(successes, n: int, z: float) -> tuple[np.ndarray, np.ndarray]:
    """The Wilson score interval for successes (an array, or one count) out
    of n trials at normal quantile z, clipped to [0, 1]."""
    if n <= 0:
        raise ValueError("need at least one sample")
    p = np.asarray(successes) / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    # rounding can push an endpoint one ulp past the point estimate
    return (np.maximum(0.0, np.minimum(center - half, p)),
            np.minimum(1.0, np.maximum(center + half, p)))


@dataclass(frozen=True)
class FlankBoundReport:
    """Tail-frequency check of flank distances against the 1/kappa bound."""

    n: int
    kappa: float
    n_samples: int
    threshold: float
    n_exceed: int
    frequency: float
    upper99: float
    bound: float
    passed: bool

    def line(self) -> str:
        return (
            f"flank n={self.n} kappa={format(self.kappa, 'g')} "
            f"freq={self.frequency:.4f} upper99={self.upper99:.4f} "
            f"bound={self.bound:.4f} "
            f"{'pass' if self.passed else 'FAIL'}"
        )


def flank_bound_test(samples, n: int, kappa: float) -> FlankBoundReport:
    """Empirical frequency of flank distances exceeding kappa * 2**(n+1),
    with a 99% upper confidence bound; passes iff that bound stays within
    1/kappa plus slack."""
    if not kappa > 1.0:
        raise ValueError(f"kappa must exceed 1, got {kappa}")
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size < 100:
        raise ValueError(f"need >= 100 samples, got {arr.size}")
    threshold = kappa * math.ldexp(1.0, n + 1)
    n_exceed = int(np.count_nonzero(arr > threshold))
    freq = n_exceed / arr.size
    upper = wilson_interval(n_exceed, arr.size, _Z_99_ONE_SIDED)[1]
    bound = 1.0 / kappa
    return FlankBoundReport(
        n=n,
        kappa=float(kappa),
        n_samples=int(arr.size),
        threshold=float(threshold),
        n_exceed=n_exceed,
        frequency=float(freq),
        upper99=float(upper),
        bound=bound,
        passed=bool(upper <= bound + 0.05),
    )


# ---------------------------------------------------------------------------
# Coverage, heights, survival


def coverage_partition_check(forest: Forest, window: Window) -> bool:
    """Every vertex at levels 1..M carries a legal root label (even, in
    0..2W-1).  Each vertex holds one label, so the slice sizes of the trees
    then partition each level into its W vertices."""
    labels = forest.root_x
    if labels.shape != (window.M + 1, window.W):
        return False
    rows = labels[1:]
    return bool(np.all((rows >= 0) & (rows < window.period) & (rows % 2 == 0)))


def root_heights(forest: Forest, sizes: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Per-root tree heights and censoring flags, read from the slice-size
    table (the forest's ``slice_sizes``, built here unless given).

    Returns (heights, censored), both indexed by boundary column; censored
    roots reach the cap, so their height M is a lower bound."""
    heights = tree_heights(slice_sizes(forest) if sizes is None else sizes)
    return heights, heights == forest.window.M


def slim_fractions(forest: Forest, D: float, sizes: np.ndarray) -> np.ndarray:
    """Per tree of positive height below the cap, in ascending root order:
    the fraction of its levels whose slice is nonempty and narrower than D.

    Slice sizes, heights and censoring of every tree come from sizes, the
    forest's ``slice_sizes``.  The tallest tree, the likeliest to cross the
    seam, is also lifted with ``extract_tree`` and counted with
    ``slim_levels``; a disagreement with the table raises RuntimeError."""
    if not D > 0:
        raise ValueError(f"slim threshold D must be positive, got {D}")
    M = forest.window.M
    heights = tree_heights(sizes)
    slim = np.count_nonzero((sizes[:, 1:] > 0) & (sizes[:, 1:] < D), axis=1)
    j = int(np.argmax(heights))
    tree = extract_tree(forest, 2 * j)
    counts = tree.level_counts()
    if ([counts[m] for m in range(1, M + 1)] != sizes[j, 1:].tolist()
            or len(slim_levels(tree, D)) != slim[j]):
        raise RuntimeError(f"slice-size table disagrees with the tree of root {2 * j}")
    kept = (heights < M) & (heights >= 1)
    return slim[kept] / heights[kept]


def tail_height_estimate(heights, levels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Empirical survival P(height >= n) at each of the levels with its 95%
    Wilson band: the arrays (probability, ci_low, ci_high), in levels' order.

    Censored heights must come in already mapped to the cap value, which
    keeps them counted as at-least-cap for every level up to the cap."""
    arr = np.sort(np.asarray(heights, dtype=np.int64))
    if arr.size == 0:
        raise ValueError("no height samples")
    k = arr.size - np.searchsorted(arr, levels)  # the heights >= n
    return (k / arr.size, *wilson_interval(k, arr.size, _Z_95_TWO_SIDED))


# ---------------------------------------------------------------------------
# Generic tests


def chi2_sf(k: int, x: float) -> float:
    """P(X > x) for X chi-square with k >= 1 degrees of freedom, Q(k/2, x/2),
    as sums of positive terms (Abramowitz & Stegun 26.4.4-26.4.5).

    With h = x/2, let t_j = h**j / j! for even k and h**(j - 1/2) /
    gamma(j + 1/2) for odd k.  Then Q = exp(-h) * sum(t_j for j < k/2), plus
    erfc(sqrt(h)) for odd k, and the lower tail 1 - Q is exp(-h) times the
    rest of the series.  Far below the mean (8h < k) Q is one minus that
    small lower tail, which keeps Q monotone where it rounds to 1.  Where
    exp(-h) would be subnormal, or the terms are rescaled by powers of two
    to stay finite, the weight goes into the exponent instead."""
    h = 0.5 * x
    if 0.0 < 8.0 * h < k:
        a = 0.5 * k
        s, t, d = 0.0, 1.0, a + 1.0
        while t > 1e-17 * s:
            s += t
            t = t * h / d
            d += 1.0
        return 1.0 - math.exp(a * math.log(h) - h - math.lgamma(a + 1.0)) * s
    if k % 2:
        p, t, d = math.erfc(math.sqrt(h)), math.sqrt(h) / math.gamma(1.5), 1.5
    else:
        p, t, d = 0.0, 1.0, 1.0
    s, scale = 0.0, 0  # the terms are scaled by 2**-scale
    for _ in range(k // 2):
        s += t
        t = t * h / d
        d += 1.0
        if t > 2.0 ** 960:
            s, t, scale = math.ldexp(s, -960), math.ldexp(t, -960), scale + 960
    if h < 708.0 and not scale:
        return min(p + math.exp(-h) * s, 1.0)
    if s:
        p += math.exp(math.log(s) + scale * math.log(2.0) - h)
    return min(p, 1.0)


def kolmogorov_sf(y: float) -> float:
    """P(sqrt(n) D_n > y) in the limit n -> oo: the Kolmogorov survival
    function, by its alternating series for y >= 1 and its theta-function
    form below 1 (Marsaglia, Tsang & Wang 2003), clamped to [0, 1]."""
    if y >= 1.0:
        s, k = 0.0, 1
        while True:
            term = math.exp(-2.0 * k * k * y * y)
            s += term if k % 2 else -term
            if term <= 1e-17 * s:
                break
            k += 1
        p = 2.0 * s
    else:
        s = sum(math.exp(-(2 * k - 1) ** 2 * math.pi ** 2 / (8.0 * y * y))
                for k in range(1, 8))
        p = 1.0 - math.sqrt(2.0 * math.pi) / y * s
    return min(max(p, 0.0), 1.0)


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    n_samples: int


def ks_test_exp1(sample) -> KsResult:
    """One-sample KS against the unit-rate exponential CDF with the
    standard asymptotic p-value.  The statistic is computed in place: one
    sorted copy of the sample and one index array."""
    cdf = np.array(sample, dtype=np.float64).ravel()  # the one copy, sorted
    cdf.sort()
    n = cdf.size
    if n < 10:
        raise ValueError(f"need >= 10 samples, got {n}")
    if cdf[0] <= 0.0:
        raise ValueError("sample contains nonpositive values")
    np.negative(np.expm1(np.negative(cdf, out=cdf), out=cdf), out=cdf)  # 1 - exp(-x)
    step = np.arange(1, n + 1, dtype=np.float64)  # i, then i / n - cdf
    d_plus = float(np.subtract(np.divide(step, n, out=step), cdf, out=step).max())
    del step  # so the next index array takes its place
    step = np.arange(n, dtype=np.float64)  # i - 1, then cdf - (i - 1) / n
    d_minus = float(np.subtract(cdf, np.divide(step, n, out=step), out=step).max())
    d = max(d_plus, d_minus)
    p = kolmogorov_sf(math.sqrt(n) * d)
    return KsResult(statistic=d, p_value=p, n_samples=int(n))


@dataclass(frozen=True)
class Chi2Result:
    statistic: float
    p_value: float
    dof: int
    n_bins: int


def chi_square_compare(sample_a, sample_b) -> Chi2Result:
    """Two-sample chi-square on the 2 x k contingency table of two integer
    samples, binned over the sorted union of their values.

    Adjacent-style pooling: while some expected count drops below 5, the
    smallest-expectation bin is merged into a neighbor.  Identical
    samples give statistic 0 and p = 1.
    """
    n_a, n_b = len(sample_a), len(sample_b)
    if not n_a or not n_b:
        raise ValueError("chi-square needs two nonempty samples")
    keys, bins = np.unique(np.concatenate([sample_a, sample_b]).astype(np.int64),
                           return_inverse=True)
    a = np.bincount(bins[:n_a], minlength=keys.size).tolist()
    b = np.bincount(bins[n_a:], minlength=keys.size).tolist()
    small, total = min(n_a, n_b), n_a + n_b  # the smaller side has the smaller expectation
    while True:
        exp = [small * (x + y) / total for x, y in zip(a, b)]
        i = exp.index(min(exp))
        if exp[i] >= 5.0 or len(a) == 1:
            break
        va, vb = a.pop(i), b.pop(i)
        # after the pop, the right neighbor (if any) sits at index i
        t = i if i < len(a) else i - 1
        a[t] += va
        b[t] += vb
    if exp[i] < 5.0:
        raise ConfigError("expected counts below 5 even after pooling; samples too small")
    if len(a) == 1:
        return Chi2Result(statistic=0.0, p_value=1.0, dof=0, n_bins=1)
    av = np.array(a, dtype=np.float64)
    bv = np.array(b, dtype=np.float64)
    col = av + bv
    ea = n_a * col / total
    eb = n_b * col / total
    stat = float(np.sum((av - ea) ** 2 / ea) + np.sum((bv - eb) ** 2 / eb))
    dof = len(av) - 1
    p = chi2_sf(dof, stat)
    return Chi2Result(statistic=stat, p_value=p, dof=dof, n_bins=len(av))
