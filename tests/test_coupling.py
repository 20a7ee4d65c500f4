import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    Edge,
    Vertex,
    canonicalize,
    column_of,
    exp_variate,
    interring_gaps,
    level_rate,
    reference_gaps_csv_text,
    reference_generate_rings,
    reference_offsets,
    reference_pooled_gaps,
    reference_replay,
    vertex_at,
)

from sidlalab import coupling
from sidlalab.analysis import ks_test_exp1, root_heights
from sidlalab.cli import EXIT_CONFIG, EXIT_VERIFY, main
from sidlalab.coupling import (
    AuxClockField,
    RingKind,
    Rings,
    auto_repeats_mode,
    forests_match,
    gaps_csv_text,
    generate_rings,
    pooled_gaps,
    replay,
    ring_order,
    verify_coupling,
)
from sidlalab.errors import ConfigError, CouplingFault
from sidlalab.fpp import WeightField, WeightProfile, build_forest
from sidlalab.hashing import hash_uniform_vec
from sidlalab.lattice import Dir, Window
from sidlalab.sidla import events_csv_text


def make_rings(seed=1, W=8, M=4, repeats="full", horizon_factor=1.5,
               profile=WeightProfile.STRETCH, engine=generate_rings):
    win = Window(W, M)
    field = AuxClockField(seed, profile, win)
    forest = build_forest(field)
    horizon = forest.values.max() * horizon_factor
    rings = engine(forest, field, horizon, repeats=repeats)
    return win, forest, rings, horizon


def interior(rings):
    return rings.kind == RingKind.INTERIOR


def test_rings_are_time_sorted_with_positive_times():
    _, _, rings, horizon = make_rings()
    assert np.all(np.diff(rings.time) >= 0.0)
    assert np.all(rings.time > 0.0)
    # interior rings and auxiliary repeats respect the horizon; only the
    # base firing of a boundary edge may land beyond it
    assert np.all(rings.time[interior(rings)] <= horizon)


def test_interior_rings_cover_every_vertex_once():
    win, forest, rings, _ = make_rings()
    targets = rings.head[interior(rings)]
    assert np.array_equal(np.sort(targets), np.arange(win.W, (win.M + 1) * win.W))


def test_interior_ring_times_are_forest_distances():
    win, forest, rings, _ = make_rings()
    inner = interior(rings)
    # bit-exact: a ring's time is the forest program's winning float add
    assert np.array_equal(rings.time[inner], forest.values.ravel()[rings.head[inner]])


def test_paths_start_at_their_site():
    """A ring's path is its site's tree path to the tail of its last edge,
    then that edge: the tail lies one level down in the site's tree, and
    an interior ring's last edge is its head's parent edge."""
    _, forest, rings, _ = make_rings()
    assert np.array_equal(forest.root_x.ravel()[rings.tail], rings.site)
    assert np.array_equal(rings.tail // rings.window.W, rings.depth - 1)
    inner = interior(rings)
    heads = rings.head[inner]
    assert np.array_equal(forest.parent_dir.ravel()[heads], rings.dir[inner])
    assert np.array_equal(forest.root_x.ravel()[heads], rings.site[inner])


@pytest.mark.parametrize("profile", list(WeightProfile))
def test_aux_field_is_the_weight_field(profile):
    """The coupling's one field draws the weights and rates of the plain
    weight field bit for bit, so its forest is the same forest."""
    win = Window(9, 7)
    aux, plain = AuxClockField(3, profile, win), WeightField(3, profile, win)
    assert aux.rates.tobytes() == plain.rates.tobytes()
    for got, want in zip(aux.incoming_weights(1, 7), plain.incoming_weights(1, 7)):
        assert got.tobytes() == want.tobytes()
    assert forests_match(build_forest(aux), build_forest(plain))


def test_horizon_below_coverage_rejected():
    win = Window(8, 4)
    field = AuxClockField(1, WeightProfile.STRETCH, win)
    forest = build_forest(field)
    with pytest.raises(ValueError):
        generate_rings(forest, field, forest.values.max() * 0.5, repeats="full")


def test_infinite_horizon_refused_before_any_ring(monkeypatch):
    """Full repeat streams under an infinite horizon would keep every edge
    live forever; the horizon is refused before any stream is drawn."""
    def no_streams(*args):
        raise AssertionError("repeat streams drawn for a horizon that is not finite")

    monkeypatch.setattr(AuxClockField, "offsets", no_streams)
    win = Window(8, 4)
    field = AuxClockField(1, WeightProfile.STRETCH, win)
    forest = build_forest(field)
    for horizon in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="is not finite"):
            generate_rings(forest, field, horizon, repeats="full")


def test_repeats_mode_validation():
    win = Window(8, 4)
    field = AuxClockField(1, WeightProfile.STRETCH, win)
    forest = build_forest(field)
    for mode in ("some", "none"):
        with pytest.raises(ValueError, match="use full or base"):
            generate_rings(forest, field, forest.values.max() * 2, repeats=mode)


def test_auto_repeats_mode_switches_on_volume():
    assert auto_repeats_mode(Window(8, 4), 100.0) == "full"
    assert auto_repeats_mode(Window(1024, 64), 1e9) == "base"


def test_replay_reproduces_forest_bit_exactly():
    for seed in (1, 2, 3, 4, 5):
        win, forest, rings, _ = make_rings(seed=seed)
        state = replay(rings)
        assert forests_match(forest, state.forest), seed
        assert state.forest.value_key == "occupancy_time"


def test_replay_base_mode_matches_too():
    win, forest, rings, _ = make_rings(seed=7, W=16, M=8, repeats="base")
    state = replay(rings)
    assert forests_match(forest, state.forest)


def test_a_replayed_state_has_no_events_to_write():
    """replay claims vertices at ring times that are not on the particle
    ring stream, so it records no claim events, and the events writer
    refuses its state rather than make up vanish rows."""
    _, _, rings, _ = make_rings(seed=2)
    state = replay(rings)
    assert (state.claim_event == -1).all()
    with pytest.raises(ValueError, match="without a claim event"):
        events_csv_text(state)


def test_replay_detects_out_of_order_paths():
    win, forest, rings, _ = make_rings(seed=3)
    interiors = np.flatnonzero(interior(rings) & (rings.depth > 1))
    # move a deep ring before everything else so its path prefix is missing
    i = interiors[-1]
    broken = rings.take(np.r_[i, 0:i, i + 1:len(rings)])
    with pytest.raises(CouplingFault):
        replay(broken)


def test_replay_detects_boundary_ring_before_its_head_claim():
    """A boundary ring whose head is still free would claim it under the
    particle rules instead of vanishing."""
    win, forest, rings, _ = make_rings(seed=3)
    # a level-1 boundary ring starts at its site, so its path is in the tree
    i = np.flatnonzero(~interior(rings) & (rings.depth == 1))[-1]
    claim = np.flatnonzero(interior(rings) & (rings.head == rings.head[i]))[0]
    assert claim < i
    broken = rings.take(np.r_[0:claim, i, claim:i, i + 1:len(rings)])
    v = vertex_at(win, *divmod(int(rings.head[i]), win.W))
    with pytest.raises(CouplingFault,
                       match=rf"ring {claim} .* head=\({v.x}, {v.y}\): .*before the claim"):
        replay(broken)


def test_replay_detects_a_second_claim():
    win, forest, rings, _ = make_rings(seed=3)
    i = np.flatnonzero(interior(rings))[0]
    doubled = rings.take(np.r_[0:len(rings), i])
    v = vertex_at(win, *divmod(int(rings.head[i]), win.W))
    with pytest.raises(CouplingFault,
                       match=rf"ring {len(rings)} .* head=\({v.x}, {v.y}\): .*already claimed"):
        replay(doubled)


def corrupted(forest, name, y, j, value):
    """A copy of the forest with one entry of one of its arrays replaced."""
    a = getattr(forest, name).copy()
    a[y, j] = value
    return dataclasses.replace(forest, **{name: a})


@pytest.mark.parametrize("name", ["dist", "root_x"])
@pytest.mark.parametrize("y", [1, 3, 6])
def test_replay_detects_a_wrong_forest_entry(name, y):
    """Ring times and sites come from the tails' distances and roots and
    from the edge weights, so a distance that is not its parent's plus the
    edge weight, or a root that is not its parent's, fails the comparison
    (or the replay, when a child's ring no longer starts in its tail's
    tree)."""
    win = Window(16, 6)
    field = WeightField(5, WeightProfile.STRETCH, win)
    good = build_forest(field)
    attr, wrong = {"dist": ("values", np.nextafter(good.values[y, 3], np.inf)),
                   "root_x": ("root_x", (good.root_x[y, 3] + 2) % win.period)}[name]
    forest = corrupted(good, attr, y, 3, wrong)
    rings = generate_rings(forest, field, forest.values.max() * 1.5, repeats="base")
    try:
        state = replay(rings)
    except CouplingFault:
        return
    assert not forests_match(forest, state.forest)


def test_couple_exits_verify_on_a_wrong_forest(tmp_path, monkeypatch, capsys):
    """The couple command's gate fails when the forest program is wrong."""
    def bad_build_forest(field):
        forest = build_forest(field)
        M = field.window.M
        return corrupted(forest, "values", M, 0, forest.values[M, 0] * 0.5)
    monkeypatch.setattr(coupling, "build_forest", bad_build_forest)
    assert main(["couple", "-W", "16", "-M", "6", "--repeats", "base",
                 "--out", str(tmp_path / "c.json"),
                 "--gaps-out", str(tmp_path / "g.csv")]) == EXIT_VERIFY
    assert json.loads((tmp_path / "c.json").read_text())["forest_equal"] is False


def test_couple_refuses_auto_modes_split_across_replicas(tmp_path, monkeypatch, capsys):
    """auto resolves per replica from its seed's horizon; gaps of full and
    base streams must not be pooled into one test."""
    win = Window(8, 4)
    volumes = [win.W * 1.5 * float(build_forest(WeightField(s, WeightProfile.STRETCH, win))
                                   .values.max()) for s in (1, 2)]
    assert volumes[0] != volumes[1]
    monkeypatch.setattr(coupling, "AUTO_REPEAT_RING_BUDGET", sum(volumes) / 2)
    monkeypatch.chdir(tmp_path)
    argv = ["couple", "-W", "8", "-M", "4", "--replicas", "2", "--out", "c.json",
            "--gaps-out", "g.csv"]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "{'base': 1, 'full': 1}" in captured.err
    assert "pass --repeats full or --repeats base" in captured.err
    assert captured.out == "" and not any(tmp_path.iterdir())
    assert main(argv + ["--repeats", "none"]) == EXIT_CONFIG
    assert "invalid choice: 'none'" in capsys.readouterr().err
    assert main(argv + ["--repeats", "full"]) == 0
    # one resolved mode runs as before
    monkeypatch.setattr(coupling, "AUTO_REPEAT_RING_BUDGET", 2 * max(volumes))
    assert main(argv) == 0


def test_gap_statistics_exp1():
    win, forest, rings, horizon = make_rings(seed=11, W=16, M=6)
    sites, gaps = pooled_gaps(rings, horizon=horizon)
    assert len(gaps) > 500
    assert abs(float(np.mean(gaps)) - 1.0) < 0.1
    # lag-1 autocorrelation of pooled gaps is consistent with independence
    g = gaps - np.mean(gaps)
    rho = float(np.sum(g[1:] * g[:-1]) / np.sum(g * g))
    assert abs(rho) < 3.0 / np.sqrt(len(gaps)) + 0.05, rho


def test_single_site_gaps_match_pooled():
    win, forest, rings, horizon = make_rings(seed=11, W=16, M=6)
    _, _, ref_rings, _ = make_rings(seed=11, W=16, M=6,
                                    engine=reference_generate_rings)
    sites, gaps = pooled_gaps(rings, horizon=horizon)
    for site in (0, 14, 30):
        g = interring_gaps(ref_rings, Vertex(site, 0), horizon=horizon)
        assert gaps[sites == site].tobytes() == g.tobytes()


def test_interring_gaps_needs_two_rings():
    with pytest.raises(ValueError):
        interring_gaps([], Vertex(0, 0))


def test_verify_coupling_report():
    rep = verify_coupling(2, Window(16, 8), repeats="full")
    assert rep.forest_equal
    assert len(rep.gap_sample) >= 10
    assert ks_test_exp1(rep.gap_sample).p_value > 1e-4
    assert abs(float(np.mean(rep.gap_sample)) - 1.0) < 0.1
    assert len(rep.gap_sample) == len(rep.gap_sites)
    assert 0 < rep.censored_count <= 16
    fo = build_forest(WeightField(2, WeightProfile.STRETCH, Window(16, 8)))
    assert rep.censored_count == int(np.count_nonzero(root_heights(fo)[1]))


def test_verify_coupling_auto_mode():
    rep = verify_coupling(4, Window(8, 4), repeats="auto")
    assert rep.forest_equal
    assert rep.repeats == "full"


def test_gaps_csv_shape():
    sites = np.array([0, 0, 2])
    gaps = np.array([0.5, 1.25, 2.0])
    text = gaps_csv_text(sites, gaps).decode()
    lines = text.strip().split("\n")
    assert lines[0] == "site_x,gap"
    assert lines[1] == "0,0.5"
    assert len(lines) == 4


def test_coupling_invariant_under_repeat_mode():
    """Interior rings, and hence the replayed forest, are identical whether
    or not boundary repeat streams are generated."""
    win, forest, rings_full, _ = make_rings(seed=9, repeats="full")
    _, _, rings_base, _ = make_rings(seed=9, repeats="base")
    def interiors(rs):
        inner = interior(rs)
        return [a[inner].tobytes() for a in (rs.site, rs.time, rs.head, rs.dir)]
    assert interiors(rings_full) == interiors(rings_base)
    assert len(rings_full) > len(rings_base) == 2 * win.W * win.M


def test_cumsum_along_a_block_matches_the_running_sum_bitwise():
    """offsets sums a block of gaps with np.cumsum, seeded with the running
    sum in column 0, where the scalar reference adds one gap at a time; a
    numpy that summed pairwise would move every repeat ring."""
    gaps = [exp_variate(u, r) for u, r in zip(
        hash_uniform_vec(5, [np.arange(64 * 40, dtype=np.uint64)]).tolist(),
        [2.0 ** -(i % 11) for i in range(64 * 40)])]
    block = np.array(gaps).reshape(64, 40)
    start = np.array([0.0] + [float(i) ** 3 / 7.0 for i in range(1, 64)])
    seeded = block.copy()
    seeded[:, 0] += start
    got = np.cumsum(seeded, axis=1)
    want = np.empty_like(block)
    for i, acc in enumerate(start.tolist()):
        for j, w in enumerate(block[i].tolist()):
            acc += w
            want[i, j] = acc
    assert got.tobytes() == want.tobytes()


@st.composite
def aux_edges(draw):
    """Random out-edges of a window with budgets of up to ~60 mean gaps,
    some of them not positive, and possibly none at all."""
    W = draw(st.integers(min_value=1, max_value=16))
    M = draw(st.integers(min_value=1, max_value=min(W, 10)))
    profile = draw(st.sampled_from(list(WeightProfile)))
    seed = draw(st.integers(min_value=0, max_value=2**64 - 1))
    edges = draw(st.lists(st.tuples(
        st.integers(min_value=0, max_value=M * W - 1), st.sampled_from(list(Dir)),
        st.one_of(st.sampled_from([0.0, -0.0, -1.0]), st.floats(-2.0, 60.0))), max_size=12))
    return W, M, profile, seed, edges


@settings(max_examples=60, deadline=None)
@given(aux_edges())
@example((1, 1, WeightProfile.STRETCH, 1, []))
@example((1, 1, WeightProfile.STRETCH, 1, [(0, Dir.RIGHT, 0.0)]))
def test_offsets_match_the_scalar_loop_bitwise(case):
    W, M, profile, seed, edges = case
    win = Window(W, M)
    aux = AuxClockField(seed, profile, win)
    tails = np.array([t for t, _, _ in edges], dtype=np.int64)
    dirs = np.array([d for _, d, _ in edges], dtype=np.int8)
    # a budget of f mean gaps of the edge's level
    budgets = np.array([f / level_rate(profile, t // W + 1) for t, _, f in edges])
    edge, off = aux.offsets(tails, dirs, budgets)
    assert edge.dtype == np.int64 and off.dtype == np.float64
    assert len(edge) == len(off)
    for i, (t, d, _) in enumerate(edges):
        tail = vertex_at(win, *divmod(t, W))
        want = reference_offsets(aux, Edge(tail, d), float(budgets[i]))
        assert off[edge == i].tobytes() == np.array(want, dtype=np.float64).tobytes()


@st.composite
def coupling_case(draw):
    repeats = draw(st.sampled_from(coupling.REPEAT_MODES))
    W = draw(st.integers(min_value=1, max_value=16))
    # full repeat streams grow like 2**M under the stretch profile
    M = draw(st.integers(min_value=1, max_value=min(W, 7 if repeats == "full" else 16)))
    profile = draw(st.sampled_from(list(WeightProfile)))
    return W, M, profile, repeats, draw(st.integers(min_value=0, max_value=2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(coupling_case())
@example((64, 64, WeightProfile.DECREASING, "base", 1))  # many exact time ties
@example((1, 1, WeightProfile.STRETCH, "full", 1))  # the base ring is past the horizon
@example((300, 4, WeightProfile.STRETCH, "full", 3))  # pooled_gaps sorts uint16 columns
def test_rings_replay_and_gaps_match_reference_bitwise(case):
    W, M, profile, repeats, seed = case
    win, forest, rings, horizon = make_rings(seed, W, M, repeats, profile=profile)
    _, _, ref, _ = make_rings(seed, W, M, repeats, profile=profile,
                              engine=reference_generate_rings)
    assert len(rings) == len(ref)
    keys = (rings.time, rings.site, rings.depth, rings.kind)
    ref_keys = (np.array([r.time for r in ref], dtype=np.float64),
                np.array([r.site.x for r in ref], dtype=np.int64),
                np.array([len(r.path) for r in ref], dtype=np.int64),
                np.array([int(r.kind) for r in ref], dtype=np.int64))
    for a, b in zip(keys, ref_keys):
        assert a.tobytes() == b.astype(a.dtype).tobytes()
    # within a tie group of those keys the two engines may order rings
    # differently, but they must assign the same (head, last step) pairs
    group = np.cumsum(np.r_[True, np.any([np.diff(k) != 0 for k in keys], axis=0)])
    last = [(canonicalize(win, r.target), r.path[-1].dir) for r in ref]
    ref_code = np.array([(2 * ((v.y * W) + column_of(win, v)) + int(d)) for v, d in last],
                        dtype=np.int64)
    code = 2 * rings.head + rings.dir
    assert np.array_equal(code[np.lexsort((code, group))],
                          ref_code[np.lexsort((ref_code, group))])

    ref_log = []
    state, ref_state = replay(rings), reference_replay(ref, win, ref_log)
    assert np.array_equal(state.forest.root_x, ref_state.forest.root_x)
    assert np.array_equal(state.forest.parent_dir, ref_state.forest.parent_dir)
    assert state.forest.values.tobytes() == ref_state.forest.values.tobytes()
    assert (state.n_rings, state.n_occupied) == (ref_state.n_rings, ref_state.n_occupied)
    assert len(ref_log) == ref_state.n_rings
    assert float.hex(state.clock) == float.hex(ref_state.clock)
    assert forests_match(forest, state.forest)

    for h in (None, horizon):
        sites, gaps = pooled_gaps(rings, horizon=h)
        ref_sites, ref_gaps = reference_pooled_gaps(ref, win, horizon=h)
        assert sites.dtype == ref_sites.dtype and gaps.dtype == ref_gaps.dtype
        assert sites.tobytes() == ref_sites.tobytes()
        assert gaps.tobytes() == ref_gaps.tobytes()
        assert gaps_csv_text(sites, gaps) == reference_gaps_csv_text(sites, gaps).encode()


def lexsort_order(rings):
    return np.lexsort((rings.head, rings.kind, rings.depth, rings.site, rings.time))


@pytest.mark.parametrize("W,M,profile,ties", [
    (64, 32, WeightProfile.STRETCH, False), (64, 64, WeightProfile.DECREASING, True)])
def test_ring_order_is_the_five_key_lexsort(W, M, profile, ties):
    """generate_rings' order is the lexsort by (time, site, depth, kind,
    head), head included, with or without exact time ties."""
    _, _, rings, _ = make_rings(1, W, M, "base", profile=profile)
    assert bool(np.any(np.diff(rings.time) == 0.0)) == ties
    shuffled = rings.take(np.random.default_rng(0).permutation(len(rings)))
    order = ring_order(shuffled)
    assert np.array_equal(order, lexsort_order(shuffled))
    sorted_ = shuffled.take(order)
    for name in ("time", "site", "head", "dir", "kind"):
        assert getattr(sorted_, name).tobytes() == getattr(rings, name).tobytes()


@st.composite
def synthetic_rings(draw):
    """Rings with arbitrary columns whose times come from a handful of
    values, so that exact ties, NaN and all-distinct times all occur."""
    W = draw(st.integers(min_value=1, max_value=6))
    M = draw(st.integers(min_value=1, max_value=W))
    values = draw(st.lists(st.floats(allow_infinity=False), min_size=1, max_size=5))
    n = draw(st.integers(min_value=0, max_value=30))
    col = lambda elements: np.array(draw(st.lists(elements, min_size=n, max_size=n)))
    return Rings(Window(W, M),
                 col(st.sampled_from(values)).astype(np.float64),
                 2 * col(st.integers(0, W - 1)).astype(np.int64),
                 col(st.integers(W, (M + 1) * W - 1)).astype(np.int64),
                 col(st.sampled_from(list(Dir))).astype(np.int8),
                 col(st.sampled_from(list(RingKind))).astype(np.int8))


@settings(max_examples=200, deadline=None)
@given(synthetic_rings())
def test_ring_order_matches_lexsort_on_synthetic_rings(rings):
    assert np.array_equal(ring_order(rings), lexsort_order(rings))


def test_ring_order_takes_the_argsort_path_without_ties(monkeypatch):
    """Stretch 64x32 has no exact time ties, so its rings are ordered by
    one argsort of the times and never by the five-key lexsort."""
    def no_lexsort(*args, **kwargs):
        raise AssertionError("np.lexsort called on rings without time ties")
    monkeypatch.setattr(np, "lexsort", no_lexsort)
    _, _, rings, _ = make_rings(1, 64, 32, "base")
    assert len(rings) == 2 * 64 * 32


# Digests of the coupling's outputs, recorded on the object-based engine
# (now tests/oracles.reference_*): sha256 over the replayed root_x,
# parent_dir and occupancy times, the sorted ring times, sites, depths and kinds
# (the last two as int64) and the pooled (sites, gaps); the ring count and
# the final clock as float.hex.  Decreasing 64x64 has exact time ties
# between boundary rings and their heads' claims.
COUPLING_GOLDEN = [
    ((64, 32, "stretch", "base", 1), "ec6d762cf6dfe6b39a36a494d404e247fcc52c80f81f0af2bbcce6821c51fdaf", 4096, "0x1.5cfc0c1c2d693p+34"),
    ((32, 8, "stretch", "full", 1), "12b327c0a72799e7cdf98bd3b2394754de2c256bc261fd442e4c1a1ee9e244f0", 23967, "0x1.add0651fd0d34p+10"),
    ((64, 64, "decreasing", "base", 1), "ccf3ddba445684affe8e7f8f06858709d9fae942df6f1458c8c5527e0f100ec3", 8192, "0x1.1e52f41ec3e24p+1"),
    # recorded on the per-edge scalar repeat streams (now oracles.reference_offsets)
    ((64, 10, "stretch", "full", 1), "2fb5f4f72c7e87f45ddbfa097b802b3864cb35138b9f06949b450e4c3483414f", 364104, "0x1.64a2af09641fcp+12"),
]


@pytest.mark.parametrize("case,digest,n_rings,clock_hex", COUPLING_GOLDEN)
def test_coupling_golden_digests(case, digest, n_rings, clock_hex):
    W, M, profile, repeats, seed = case
    win, forest, rings, horizon = make_rings(seed, W, M, repeats,
                                             profile=WeightProfile(profile))
    state = replay(rings)
    sites, gaps = pooled_gaps(rings, horizon=horizon)
    h = hashlib.sha256()
    for a in (state.forest.root_x, state.forest.parent_dir, state.forest.values, rings.time,
              rings.site, rings.depth.astype(np.int64),
              rings.kind.astype(np.int64), sites, gaps):
        h.update(a.tobytes())
    assert h.hexdigest() == digest
    assert state.n_rings == n_rings
    assert float.hex(state.clock) == clock_hex


# sha256 of the couple report and gaps CSV, recorded on the object-based
# engine.  Decreasing 64x64 (above) writes no artifact: its pooled gaps
# contain exact zeros, which verify_coupling refuses with a ConfigError.
COUPLE_ARTIFACTS_GOLDEN = [
    (("-W", "64", "-M", "32", "--repeats", "base"),
     "713b0ff8ba6727b8522e03e6f94e4d3b5d9aefa24fbeb992c865dfcb9fa188fc",
     "b18dbbf48b5c07e311f2fe891737b125746b43792a328b177ad16cc8d026c608"),
    (("-W", "32", "-M", "8", "--repeats", "full"),
     "c40dc9bd2a0a4ff3d50c84c8f98cc22029e1d6b5ec0b810ef5bcb3dced5339f5",
     "d837e38dc1f74e2388e5f6dcc6a7be854557035a2b9c2031c116e3fb9d9c3022"),
]


@pytest.mark.parametrize("argv,report_digest,gaps_digest", COUPLE_ARTIFACTS_GOLDEN)
def test_couple_artifact_golden_digests(argv, report_digest, gaps_digest,
                                        tmp_path, capsys):
    report, gaps_csv = tmp_path / "couple.json", tmp_path / "gaps.csv"
    assert main(["couple", *argv, "--seed", "1", "--out", str(report),
                 "--gaps-out", str(gaps_csv)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == report_digest
    assert hashlib.sha256(gaps_csv.read_bytes()).hexdigest() == gaps_digest
