import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    Edge,
    Vertex,
    boundary,
    brute_shell_counts,
    cone_check,
    edge_objects,
    flanks,
    head,
    is_monotone_tree,
    reference_chi_square_compare,
    reference_enumerate_monotone_trees,
    reference_ks_statistic,
    shell_weighted_sum,
    trees_by_subset_filter,
)
from sidlalab.analysis import (
    Chi2Result,
    MonotoneTree,
    chi2_sf,
    chi_square_compare,
    coverage_partition_check,
    enumerate_monotone_trees,
    extract_tree,
    flank_bound_test,
    flank_left_distances,
    kolmogorov_sf,
    ks_test_exp1,
    level_profile,
    root_heights,
    shell_identity_check,
    shell_weight,
    slim_fractions,
    slim_levels,
    tail_height_estimate,
    wilson_interval,
)
from sidlalab.fpp import WeightField, WeightProfile, build_forest, slice_sizes
from sidlalab.hashing import hash_uniform_vec, exp_from_uniform
from sidlalab.lattice import Dir, Window
from sidlalab.sidla import run_until_covered

ROOT = Vertex(0, 0)
E_L = Edge(ROOT, Dir.LEFT)
E_R = Edge(ROOT, Dir.RIGHT)


def stretch_forest(seed=3, W=8, M=8):
    return build_forest(
        WeightField(seed=seed, profile=WeightProfile.STRETCH, window=Window(W, M))
    )


# ---------------------------------------------------------------------------
# Monotone trees and shells


def test_is_monotone_tree_examples():
    assert is_monotone_tree(ROOT, [])
    assert is_monotone_tree(ROOT, [E_R])
    assert is_monotone_tree(ROOT, [E_L, E_R])
    assert is_monotone_tree(ROOT, [E_R, Edge(Vertex(1, 1), Dir.LEFT)])
    # detached edge
    assert not is_monotone_tree(ROOT, [Edge(Vertex(1, 1), Dir.LEFT)])
    # two parents for one vertex
    assert not is_monotone_tree(
        ROOT,
        [E_L, E_R, Edge(Vertex(-1, 1), Dir.RIGHT), Edge(Vertex(1, 1), Dir.LEFT)],
    )


def test_root_only_shell():
    t = MonotoneTree(0, frozenset())
    assert brute_shell_counts(ROOT, edge_objects(t.edges)) == {1: 2}
    assert shell_weight(t) == (2, 2)  # 2 * 2**-1
    assert shell_identity_check(t)


def test_one_edge_shell():
    t = MonotoneTree(0, frozenset([(0, 0, Dir.RIGHT)]))
    assert edge_objects(t.edges) == {E_R}
    assert brute_shell_counts(ROOT, edge_objects(t.edges)) == {1: 1, 2: 2}
    assert shell_weight(t) == (4, 4)  # 2**-1 + 2 * 2**-2
    assert shell_identity_check(t)


def test_two_edge_shell():
    t = MonotoneTree(0, frozenset([(0, 0, Dir.LEFT), (0, 0, Dir.RIGHT)]))
    assert brute_shell_counts(ROOT, edge_objects(t.edges)) == {2: 4}
    assert shell_identity_check(t)


def test_a_broken_identity_is_caught():
    """A tree with a detached edge or a head reached twice breaks the sum:
    the check reads the distinct vertices and their children, not the edge
    count."""
    detached = [(1, 1, Dir.LEFT)]
    two_parents = [(0, 0, Dir.LEFT), (0, 0, Dir.RIGHT), (1, -1, Dir.RIGHT), (1, 1, Dir.LEFT)]
    for edges, (num, den) in ((detached, (10, 8)), (two_parents, (6, 8))):
        t = MonotoneTree(0, frozenset(edges))
        assert shell_weight(t) == (num, den) and not shell_identity_check(t)
        assert shell_weighted_sum(brute_shell_counts(ROOT, edge_objects(edges))) * den == num


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_monotone_trees(0)) == 1
    assert sum(1 for _ in enumerate_monotone_trees(1)) == 3
    assert sum(1 for _ in enumerate_monotone_trees(2)) == 8


def test_enumeration_matches_subset_filter():
    mine = {edge_objects(t.edges) for t in enumerate_monotone_trees(4)}
    assert mine == trees_by_subset_filter(4)


def test_enumeration_matches_the_object_enumerator():
    """The integer enumerator yields the object enumerator's trees, in its
    order, for every k <= 8, and the known counts at 9 and 10 edges."""
    for k in range(9):
        trees = list(enumerate_monotone_trees(k))
        assert all(t.root == 0 for t in trees)
        assert [edge_objects(t.edges) for t in trees] == list(
            reference_enumerate_monotone_trees(k))
    assert sum(1 for _ in enumerate_monotone_trees(9)) == 17_533
    assert sum(1 for _ in enumerate_monotone_trees(10)) == 55_971


def test_enumeration_guard():
    with pytest.raises(ValueError):
        list(enumerate_monotone_trees(13))
    with pytest.raises(ValueError):
        list(enumerate_monotone_trees(-1))


def test_shell_identity_exact_up_to_six_edges():
    n = 0
    for t in enumerate_monotone_trees(6):
        total = shell_weighted_sum(brute_shell_counts(ROOT, edge_objects(t.edges)))
        assert total == 1 and shell_identity_check(t)
        num, den = shell_weight(t)
        assert total * den == num and den == 2 ** (t.height() + 1)
        n += 1
    assert n == 569  # matches the subset-filter oracle count


def test_shell_splits_at_a_full_first_level():
    """When both root edges are present the shell is the disjoint union of
    the two child subtrees' shells, one level up."""
    for edges in reference_enumerate_monotone_trees(5):
        if E_L not in edges or E_R not in edges:
            continue
        desc = {Vertex(-1, 1): {Vertex(-1, 1)}, Vertex(1, 1): {Vertex(1, 1)}}
        for e in sorted(edges, key=lambda e: e.tail.y):
            for dset in desc.values():
                if e.tail in dset:
                    dset.add(head(e))
        split = {}
        for child, dset in desc.items():
            sub = [e for e in edges if e.tail in dset]
            for lvl, c in brute_shell_counts(child, sub).items():
                split[lvl] = split.get(lvl, 0) + c
        assert split == brute_shell_counts(ROOT, edges)


def test_extract_tree_round_trip():
    fo = stretch_forest(seed=5)
    for root in boundary(fo.window):
        t = extract_tree(fo, root.x)
        assert t.root == root.x
        assert is_monotone_tree(root, edge_objects(t.edges))
        for m in range(1, fo.window.M + 1):
            assert t.level_counts()[m] == level_profile(fo, root.x, m)


def test_tree_height_and_censoring():
    fo = stretch_forest(seed=5, W=8, M=8)
    top_owners = set(int(x) for x in fo.root_x[8])
    heights, censored = root_heights(fo)
    for j, root in enumerate(boundary(fo.window)):
        t = extract_tree(fo, root.x)
        assert (t.height() == 8) == (root.x in top_owners) == censored[j]
        depth = max((head(e).y for e in edge_objects(t.edges)), default=0)
        assert t.height() == depth == heights[j]


def test_level_profile_validation():
    fo = stretch_forest()
    with pytest.raises(ValueError):
        level_profile(fo, ROOT.x, -1)
    with pytest.raises(ValueError):
        level_profile(fo, ROOT.x, fo.window.M + 1)


# ---------------------------------------------------------------------------
# Slimness, flanks, cones


def test_slim_params_validation():
    """slim_fractions refuses a slim threshold D that is not positive."""
    fo = build_forest(WeightField(1, WeightProfile.STRETCH, Window(8, 4)))
    slim_fractions(fo, 4.0)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="slim threshold D must be positive"):
            slim_fractions(fo, bad)


def test_slim_levels_thin_chain():
    chain = MonotoneTree(0, frozenset([(0, 0, Dir.RIGHT), (1, 1, Dir.RIGHT), (2, 2, Dir.RIGHT)]))
    assert slim_levels(chain, 2.0) == [1, 2, 3]
    assert slim_levels(chain, 1.0) == []  # strict on both sides


def fake_forest_one_column_tree():
    """W=4, M=2 handmade labels: tree of 0 owns (1,1) only."""
    root_x = np.array([[0, 2, 4, 6], [0, 2, 4, 6], [2, 2, 4, 6]])
    values = np.array([[0.0] * 4, [1.0, 2.0, 3.0, 4.0], [5.0] * 4])
    return SimpleNamespace(window=Window(4, 2), root_x=root_x, values=values)


def test_flanks_verbatim_example():
    fl = flanks(fake_forest_one_column_tree(), ROOT, 1)
    assert fl.l_n == Vertex(-1, 1)
    assert fl.r_n == Vertex(3, 1)
    assert fl.slice_size == 1
    assert fl.left_dist == 4.0  # (-1,1) wraps to (7,1), column 3
    assert fl.right_dist == 2.0
    assert fl.M_n == 4.0
    assert fl.triangle == frozenset(
        [
            Vertex(-1, 1),
            Vertex(1, 1),
            Vertex(3, 1),
            Vertex(0, 2),
            Vertex(2, 2),
            Vertex(1, 3),
        ]
    )


def test_flanks_errors():
    fk = fake_forest_one_column_tree()
    with pytest.raises(ValueError):
        flanks(fk, ROOT, 0)
    with pytest.raises(ValueError):
        flanks(fk, ROOT, 2)  # empty slice at level 2


def test_flank_left_distances_pools_all_roots():
    fo = stretch_forest(seed=7, W=16, M=8)
    n = 2
    pooled = flank_left_distances(fo, n)
    roots = [
        r for r in boundary(fo.window)
        if np.any(fo.root_x[n] == r.x)
    ]
    assert len(pooled) == len(roots)
    per_root = [flanks(fo, r, n).left_dist for r in roots]
    assert np.array_equal(pooled, np.asarray(per_root))


@pytest.mark.parametrize("n", [0, 9])
def test_flank_left_distances_refuses_a_level_outside_the_window(n):
    with pytest.raises(ValueError, match=f"^level {n} outside 1..8$"):
        flank_left_distances(stretch_forest(seed=7, W=16, M=8), n)


def test_cone_check_on_real_and_corrupted_forest():
    fo = stretch_forest(seed=9, W=8, M=8)
    for root in boundary(fo.window):
        assert cone_check(fo, root)
    bad = replace(fo, root_x=fo.root_x.copy())
    bad.root_x[1, 4] = 0  # (9,1) cannot hang under root 0
    assert not cone_check(bad, ROOT)


# ---------------------------------------------------------------------------
# Confidence intervals and the flank bound


@given(
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=1, max_value=50),
    st.floats(min_value=0.5, max_value=3.0),
)
def test_wilson_interval_is_the_score_interval(k, n, z):
    k = min(k, n)
    lo, hi = wilson_interval(k, n, z)
    assert 0.0 <= lo <= k / n <= hi <= 1.0
    # endpoints solve (p - phat)^2 * n = z^2 p (1 - p)
    phat = k / n
    qa, qb, qc = n + z * z, -(2 * n * phat + z * z), n * phat * phat
    disc = np.sqrt(qb * qb - 4 * qa * qc)
    assert np.allclose([(-qb - disc) / (2 * qa), (-qb + disc) / (2 * qa)],
                       [lo, hi], atol=1e-9)


@pytest.mark.parametrize("n", [0, -1])
def test_wilson_interval_needs_a_sample(n):
    with pytest.raises(ValueError, match="need at least one sample"):
        wilson_interval(0, n, 1.96)


def scalar_wilson(k, n, z):
    """The Wilson interval in scalar float arithmetic, one operation at a time."""
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return max(0.0, min(center - half, p)), min(1.0, max(center + half, p))


@given(st.integers(min_value=1, max_value=10**6),
       st.floats(min_value=0.5, max_value=3.0))
@example(8, 1.959963984540054)
@example(10**6, 2.3263478740408408)
def test_wilson_interval_on_arrays_is_the_scalar_formula(n, z):
    """The array interval equals the scalar formula bit for bit at every
    count of a grid over 0..n, so the stats CSV digits do not move."""
    k = np.unique(np.linspace(0, n, num=min(n + 1, 201)).astype(np.int64))
    lo, hi = wilson_interval(k, n, z)
    expect = [scalar_wilson(int(c), n, z) for c in k]
    assert list(zip(lo.tolist(), hi.tolist())) == expect


def test_flank_bound_reports():
    low = np.full(200, 1.0)
    rep = flank_bound_test(low, n=4, kappa=2.0)
    assert rep.passed and rep.n_exceed == 0
    assert rep.threshold == 64.0
    assert "pass" in rep.line()
    high = np.full(200, 1e9)
    rep2 = flank_bound_test(high, n=4, kappa=2.0)
    assert not rep2.passed and rep2.frequency == 1.0
    assert "FAIL" in rep2.line()


def test_flank_bound_validation():
    with pytest.raises(ValueError):
        flank_bound_test(np.ones(200), n=4, kappa=1.0)
    with pytest.raises(ValueError):
        flank_bound_test(np.ones(50), n=4, kappa=2.0)


# ---------------------------------------------------------------------------
# Coverage, heights, survival


def test_coverage_partition_on_forest():
    fo = stretch_forest(seed=11)
    assert coverage_partition_check(fo, fo.window)
    bad = replace(fo, root_x=fo.root_x.copy())
    bad.root_x[3, 2] = 1  # odd label is not a root
    assert not coverage_partition_check(bad, fo.window)
    for label in (-1, 2 * fo.window.W):  # unclaimed, or beyond the period
        bad.root_x[3, 2] = label
        assert not coverage_partition_check(bad, fo.window)
    assert not coverage_partition_check(replace(fo, root_x=fo.root_x[:3]), fo.window)


def test_root_heights_match_level_profiles():
    fo = stretch_forest(seed=13, W=8, M=8)
    heights, censored = root_heights(fo)
    for j, root in enumerate(boundary(fo.window)):
        profile = [level_profile(fo, root.x, m) for m in range(1, 9)]
        expect = max((m for m, c in enumerate(profile, start=1) if c > 0), default=0)
        assert heights[j] == expect
        assert censored[j] == (profile[-1] > 0)


@st.composite
def table_case(draw):
    W = draw(st.integers(min_value=1, max_value=16))
    M = draw(st.integers(min_value=1, max_value=W))
    seed = draw(st.integers(min_value=0, max_value=2**64 - 1))
    # the particle picture runs the stretch rates only
    profile = draw(st.sampled_from([None, *WeightProfile]))
    return W, M, seed, profile


@settings(max_examples=60, deadline=None)
@given(table_case())
def test_slice_size_table_matches_trees(case):
    """The slice-size table equals level_profile at every (root, level) of
    the fpp forest for every profile and of the jumps particle forest, and
    the heights read from it are the lifted trees' heights."""
    W, M, seed, profile = case
    win = Window(W, M)
    if profile is None:
        fo = run_until_covered(win, seed, method="jumps").forest
    else:
        fo = build_forest(WeightField(seed, profile, win))
    sizes = slice_sizes(fo)
    assert sizes.shape == (W, M + 1)
    heights, censored = root_heights(fo)
    for j, root in enumerate(boundary(win)):
        assert sizes[j].tolist() == [level_profile(fo, root.x, m) for m in range(M + 1)]
        assert heights[j] == extract_tree(fo, root.x).height()
    assert np.array_equal(censored, heights == M)


def test_tail_height_estimate():
    heights = np.array([0, 1, 1, 2, 5, 5, 5, 8])
    levels = [1, 2, 5, 8]
    p, lo, hi = tail_height_estimate(heights, levels)
    assert p.tolist() == [7 / 8, 5 / 8, 4 / 8, 1 / 8]
    assert (lo <= p).all() and (p <= hi).all()
    for i, n in enumerate(levels):  # each level's band is its own Wilson interval
        k = int(np.count_nonzero(heights >= n))
        assert (lo[i], hi[i]) == scalar_wilson(k, heights.size, 1.959963984540054)
    with pytest.raises(ValueError):
        tail_height_estimate([], [1])


# ---------------------------------------------------------------------------
# KS and chi-square


def test_ks_accepts_true_exponential():
    u = hash_uniform_vec(99, [np.arange(5000, dtype=np.uint64)])
    sample = exp_from_uniform(u, 1.0)
    res = ks_test_exp1(sample)
    assert res.p_value > 1e-3
    assert res.n_samples == 5000


def test_ks_rejects_wrong_scale():
    u = hash_uniform_vec(99, [np.arange(5000, dtype=np.uint64)])
    res = ks_test_exp1(exp_from_uniform(u, 2.0))
    assert res.p_value < 1e-6


def test_ks_validation():
    with pytest.raises(ValueError):
        ks_test_exp1([1.0] * 5)
    with pytest.raises(ValueError):
        ks_test_exp1([0.0] * 20)


def test_ks_statistic_known_value():
    # single observation at the exponential median, n >= 10 via repeats:
    # for a constant sample at log 2 the empirical CDF steps from 0 to 1,
    # so D = 1/2 exactly
    res = ks_test_exp1(np.full(16, np.log(2.0)))
    assert res.statistic == pytest.approx(0.5)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(1e-300, 1e3, allow_subnormal=False), min_size=10, max_size=400),
       st.sampled_from([1.0, 1e-3, 50.0]))
def test_ks_statistic_matches_the_reference_bitwise(sample, scale):
    """The in-place statistic is the plain formula's, bit for bit, and
    the sample passed in is left as it was."""
    x = np.array(sample) * scale
    before = x.copy()
    assert ks_test_exp1(x).statistic == reference_ks_statistic(x)
    assert np.array_equal(x, before)


def _sample(hist: dict) -> np.ndarray:
    """The integer sample with the value -> count table hist."""
    return np.repeat(np.array(list(hist), dtype=np.int64), list(hist.values()))


def test_chi_square_identical_histograms():
    h = _sample({0: 40, 1: 30, 2: 30})
    res = chi_square_compare(h, h)
    assert (res.statistic, res.p_value) == (0.0, 1.0)
    one = chi_square_compare([1] * 30, [1] * 30)  # one bin: no test to make
    assert (one.statistic, one.p_value, one.n_bins) == (0.0, 1.0, 1)


def test_chi_square_detects_shift():
    res = chi_square_compare(_sample({0: 100, 1: 100}), _sample({0: 160, 1: 40}))
    assert res.p_value < 1e-6
    assert res.dof == 1


def test_chi_square_pools_sparse_bins():
    a = _sample({0: 50, 1: 50, 2: 2, 3: 1})
    b = _sample({0: 48, 1: 52, 2: 1, 3: 2})
    res = chi_square_compare(a, b)
    assert res.n_bins < 4
    assert res.p_value > 0.5


@st.composite
def sample_pair(draw):
    """Two integer samples of 1..400 values each, drawn from one run of at
    most 25 consecutive integers."""
    lo = draw(st.integers(-50, 50))
    values = st.integers(lo, lo + draw(st.integers(0, 24)))
    return tuple(draw(st.lists(values, min_size=n, max_size=n))
                 for n in (draw(st.integers(1, 400)), draw(st.integers(1, 400))))


def _outcome(test, a, b):
    """test's result with every float as its bits, or the type of the
    ValueError (ConfigError among them) it raised."""
    try:
        res = test(a, b)
    except ValueError as exc:
        return type(exc)
    return res.statistic.hex(), res.p_value.hex(), res.dof, res.n_bins


@settings(max_examples=100, deadline=None)
@given(sample_pair())
@example(([0] * 40 + [1] * 30 + [2] * 30, [0] * 30 + [1] * 40 + [2] * 30))
@example(([5] * 3, [5] * 4))  # one bin below 5
@example(([1] * 30, [1] * 30))  # one bin
def test_chi_square_compare_is_the_histogram_reference(pair):
    """Binning by one bincount per sample and pooling on plain lists gives
    the histogram-dict reference's result bit for bit, or its exception."""
    a, b = pair
    assert _outcome(chi_square_compare, a, b) == _outcome(reference_chi_square_compare, a, b)


_TINY = np.finfo(np.float64).tiny


def _check_against_oracle(ours: np.ndarray, oracle: np.ndarray, tol) -> None:
    """Relative error within tol where the oracle is a normal double; below
    that both values must be below the smallest normal (with the slack of
    one subnormal rounding)."""
    normal = oracle >= _TINY
    rel = np.abs(ours[normal] - oracle[normal]) / oracle[normal]
    assert np.all(rel <= np.broadcast_to(tol, oracle.shape)[normal]), rel.max()
    assert np.all(ours[~normal] < 2.3e-308) and np.all(oracle[~normal] < 2.3e-308)


def test_chi2_sf_matches_scipy_within_bound():
    """chi2_sf against scipy.special.chdtrc, a test-only oracle, for dof
    1-60 and statistics up to 2000.  Each error of chi2_sf that can exceed
    a few ulps grows with h = x/2: erfc at a rounded sqrt(h) and an
    exponent of size h rounded to a double, at most h * 2**-52 together,
    and chdtrc itself is off by up to 1.3e-13 there (against 40-digit
    mpmath at x = 1491.2, dof 41).  From h = 708 exp(-h) is subnormal and
    the weight goes into the exponent: at (16, 1490) and (40, 1600)
    exp(-h) * s would give 1.26e-307 and 0 against 7.20e-308 and 4.45e-310.
    p lies in [0, 1] and does not increase with x."""
    from scipy.special import chdtrc

    x = np.unique(np.concatenate([np.linspace(0.0, 2000.0, 8001),
                                  np.geomspace(1e-8, 2000.0, 800), [1490.0, 1600.0]]))
    for dof in range(1, 61):
        ours = np.array([chi2_sf(dof, v) for v in x.tolist()])
        _check_against_oracle(ours, chdtrc(dof, x), 1e-13 + x / 2 * 2.0 ** -52)
        assert ours[0] == 1.0 and np.all((ours >= 0.0) & (ours <= 1.0)), dof
        assert np.all(np.diff(ours) <= 0.0), dof


def test_chi2_sf_stays_finite_for_many_degrees_of_freedom():
    """Terms h**j / j! past exp(709) are rescaled, not overflowed: near the
    mean p stays near one half however large the dof."""
    from scipy.special import chdtrc

    for dof, x in [(1500, 1500.0), (2000, 2000.0), (1417, 1600.0), (5001, 4000.0)]:
        assert abs(chi2_sf(dof, x) - float(chdtrc(dof, x))) < 1e-12, dof


def test_chi2_sf_gives_the_compare_pins_bit_for_bit():
    """The pinned compare.json p-values (64x32, 40 replicas, seeds 1 and
    4242), which scipy's chdtrc produced before."""
    assert chi2_sf(2, 1.8361638361638362) == 0.39928416680355588
    assert chi2_sf(3, 2.0042735042735043) == 0.57152019662201825
    assert chi2_sf(3, 0.91034482758620694) == 0.82293067354097515


def test_kolmogorov_sf_matches_scipy_within_bound():
    """kolmogorov_sf against scipy.special.kolmogorov, a test-only oracle,
    on (0, 6]; p lies in [0, 1] and does not increase with y."""
    from scipy.special import kolmogorov

    y = np.unique(np.concatenate([np.linspace(0.0, 6.0, 24001)[1:], np.geomspace(1e-3, 6.0, 500)]))
    ours = np.array([kolmogorov_sf(v) for v in y.tolist()])
    _check_against_oracle(ours, kolmogorov(y), 1e-13)
    assert np.all((ours >= 0.0) & (ours <= 1.0))
    assert np.all(np.diff(ours) <= 0.0)
    assert kolmogorov_sf(40.0) == 0.0


def test_chi_square_needs_two_nonempty_histograms():
    with pytest.raises(ValueError):
        chi_square_compare([], [])
    with pytest.raises(ValueError):
        chi_square_compare([0] * 5, [])


def test_chi_square_accepts_union_of_keys():
    res = chi_square_compare(_sample({0: 50, 1: 50}), _sample({0: 50, 2: 50}))
    assert res.n_bins >= 2
