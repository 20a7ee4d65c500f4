import dataclasses
import hashlib
import math
import tracemalloc
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from oracles import (
    Edge,
    Vertex,
    apply_extension,
    canonicalize,
    column_of,
    dir_dx,
    edge_in_tree,
    hash_coin_stream,
    level_rate,
    next_ring,
    open_tree_edges,
    reference_events_csv_text,
    reference_jumps,
    reference_rings,
    ring_arrival,
    snapshot_arrays_sha256,
    vertex_at,
    walk_particle,
)

from sidlalab import fileio, sidla
from sidlalab.errors import ConfigError
from sidlalab.fpp import WeightField, WeightProfile, snapshot_text
from sidlalab.hashing import JUMP_STREAM, hash_u64, hash_uniform
from sidlalab.lattice import Dir, Window
from sidlalab.sidla import (
    SimulationLimitError,
    events_csv_text,
    new_state,
    run_until_covered,
)
from sidlalab.analysis import coverage_partition_check, level_profile, root_heights


def censored_roots(state):
    """Root x of every tree that reaches the cap, from the slice-size table."""
    _, censored = root_heights(state.forest)
    return (2 * np.flatnonzero(censored)).tolist()


def frozen_two_tree_state():
    """W=2, M=2 state: root 0 owns (1,1) by a Right edge, root 2 owns
    (3,1) likewise.  From root 0 exactly two level-2 edges are extendable,
    each with walk probability 1/4; a Left first coin vanishes."""
    state = new_state(Window(2, 2), seed=0)
    apply_extension(state, 0, Edge(Vertex(0, 0), Dir.RIGHT), 1.0)
    apply_extension(state, 2, Edge(Vertex(2, 0), Dir.RIGHT), 2.0)
    return state


def coins(seq):
    return lambda step: seq[step]


def test_new_state_layout():
    state = new_state(Window(3, 2), seed=4)
    fo = state.forest
    assert (fo.label, fo.seed, fo.value_key) == ("sidla", 4, "occupancy_time")
    assert fo.root_x.shape == (3, 3)
    assert (fo.root_x[0] == [0, 2, 4]).all()
    assert (fo.root_x[1:] == -1).all()
    assert (fo.values[0] == 0.0).all()
    assert np.isnan(fo.values[1:]).all()
    assert state.n_occupied == 0


def test_edge_in_tree():
    state = frozen_two_tree_state()
    assert edge_in_tree(state, 0, Edge(Vertex(0, 0), Dir.RIGHT))
    assert not edge_in_tree(state, 0, Edge(Vertex(0, 0), Dir.LEFT))
    # the wrapped Left edge from root 0 hits root 2's vertex
    assert not edge_in_tree(state, 0, Edge(Vertex(2, 0), Dir.RIGHT))
    assert edge_in_tree(state, 2, Edge(Vertex(2, 0), Dir.RIGHT))


def test_walk_moves_along_own_tree_and_extends():
    state = frozen_two_tree_state()
    e = walk_particle(state, 0, coins([Dir.RIGHT, Dir.LEFT]))
    assert e == Edge(Vertex(1, 1), Dir.LEFT)
    e = walk_particle(state, 0, coins([Dir.RIGHT, Dir.RIGHT]))
    assert e == Edge(Vertex(1, 1), Dir.RIGHT)


def test_walk_vanishes_on_foreign_vertex():
    state = frozen_two_tree_state()
    # Left from root 0 heads into (3,1), owned by root 2
    assert walk_particle(state, 0, coins([Dir.LEFT])) is None


def test_walk_vanishes_above_cap():
    state = new_state(Window(2, 1), seed=0)
    apply_extension(state, 0, Edge(Vertex(0, 0), Dir.RIGHT), 1.0)
    # moving up from (1,1) would leave the window in either direction
    assert walk_particle(state, 0, coins([Dir.RIGHT, Dir.LEFT])) is None
    assert walk_particle(state, 0, coins([Dir.RIGHT, Dir.RIGHT])) is None


def test_apply_extension_guards_and_censoring():
    state = frozen_two_tree_state()
    with pytest.raises(ValueError):
        apply_extension(state, 0, Edge(Vertex(0, 0), Dir.RIGHT), 3.0)
    assert censored_roots(state) == []
    apply_extension(state, 0, Edge(Vertex(1, 1), Dir.LEFT), 3.0)
    assert censored_roots(state) == [0]  # level 2 is the cap here


def test_transition_law_on_frozen_tree():
    """Monte Carlo over coin walks from root 0 of the frozen state: each
    of the two extendable level-2 edges is hit with probability 1/4."""
    state = frozen_two_tree_state()
    n = 20000
    hits = {Edge(Vertex(1, 1), Dir.LEFT): 0, Edge(Vertex(1, 1), Dir.RIGHT): 0}
    vanished = 0
    for k in range(n):
        e = walk_particle(state, 0, hash_coin_stream(17, k))
        if e is None:
            vanished += 1
        else:
            hits[e] += 1
    for e, c in hits.items():
        assert abs(c / n - 0.25) < 0.015, (e, c / n)
    assert abs(vanished / n - 0.5) < 0.015


def test_ring_arrival_law():
    W = 8
    gaps = np.array([ring_arrival(3, k, W)[0] for k in range(4000)])
    sites = np.array([ring_arrival(3, k, W)[1] for k in range(4000)])
    d, p = stats.kstest(gaps, "expon", args=(0, 1.0 / W))
    assert p > 1e-4, (d, p)
    assert set(np.unique(sites)) <= set(range(0, 2 * W, 2))
    counts = np.bincount(sites // 2, minlength=W)
    chi, p = stats.chisquare(counts)
    assert p > 1e-4, (counts, p)


def test_ring_clock_advances():
    state, log = new_state(Window(4, 2), seed=9), []
    t_prev = 0.0
    for _ in range(20):
        next_ring(state, 9, log)
        assert state.clock > t_prev
        t_prev = state.clock
    assert state.n_rings == 20
    assert [t for _, t, _, _ in log] == sorted({t for _, t, _, _ in log})
    assert log[-1][1] == state.clock


@pytest.mark.parametrize("method", ["rings", "jumps"])
def test_run_until_covered(method):
    win = Window(4, 3)
    state = run_until_covered(win, seed=5, method=method)
    fo = state.forest
    assert state.n_occupied == win.W * win.M
    assert (fo.root_x >= 0).all()
    assert np.isin(fo.root_x, [0, 2, 4, 6]).all()
    assert coverage_partition_check(fo, win)
    # occupancy time increases strictly along parent chains
    for m in range(1, win.M + 1):
        for j in range(win.W):
            v = vertex_at(win, m, j)
            d = Dir(int(fo.parent_dir[m, j]))
            tail = canonicalize(win, Vertex(v.x - dir_dx(d), v.y - 1))
            assert fo.values[m, j] > fo.values[tail.y, column_of(win, tail)]


def test_method_validation_and_budget(monkeypatch):
    with pytest.raises(ConfigError):
        run_until_covered(Window(4, 3), seed=1, method="spin")
    for method in ("rings", "jumps"):
        for up_to in (0, 4):  # the stop level lies in 1..M
            with pytest.raises(ConfigError, match=r"stop level must lie in 1\.\.3, got"):
                run_until_covered(Window(4, 3), seed=1, method=method, up_to=up_to)
        for root in (1, -2, 8):  # an even boundary x in 0..2W-2
            with pytest.raises(ConfigError, match=r"root must be an even x in 0\.\.6, got"):
                run_until_covered(Window(4, 3), seed=1, method=method, root=root)
    monkeypatch.setattr(sidla, "DEFAULT_RING_BUDGET_FACTOR", 1)
    with pytest.raises(SimulationLimitError):
        run_until_covered(Window(4, 4), seed=1, method="rings")


def test_drivers_agree_in_law():
    """Level-1 slice size of the tree at 0 has the same law under the
    literal ring loop and the clock-thinned driver."""
    win = Window(4, 3)
    reps = 150
    h_rings = np.zeros(3, dtype=int)
    h_jumps = np.zeros(3, dtype=int)
    for seed in range(reps):
        s1 = run_until_covered(win, seed=seed, method="rings")
        s2 = run_until_covered(win, seed=10_000 + seed, method="jumps")
        h_rings[level_profile(s1.forest, 0, 1)] += 1
        h_jumps[level_profile(s2.forest, 0, 1)] += 1
    table = np.array([h_rings, h_jumps])
    table = table[:, table.sum(axis=0) > 0]
    chi, p, dof, _ = stats.chi2_contingency(table)
    assert p > 1e-3, (table, p)


def test_jumps_event_count_is_exact():
    win = Window(5, 4)
    state = run_until_covered(win, seed=2, method="jumps")
    assert state.n_rings == win.W * win.M  # one extension per event


def test_events_csv_format():
    """One row per ring: W * M quoted extend rows and a vanish row, with
    an empty edge, for every other ring; the times never fall."""
    state = run_until_covered(Window(4, 2), 9, method="rings")
    text = events_csv_text(state).decode()
    lines = text.strip().split("\n")
    assert lines[0] == "site_x,time,outcome,edge"
    assert len(lines) == state.n_rings + 1 > 4 * 2 + 1
    outcomes = [ln.split(",")[2] for ln in lines[1:]]
    assert outcomes.count("extend") == 4 * 2 and set(outcomes) == {"extend", "vanish"}
    for ln in lines[1:]:
        assert ln.endswith('"') if ",extend," in ln else ln.endswith(",vanish,")
    times = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert times == sorted(times) and times[-1] == state.clock


@pytest.mark.parametrize("block", [1, 2, 7])
def test_events_csv_is_the_same_for_every_text_block(block, monkeypatch):
    """Text blocks split a rings run anywhere, between claimed and vanished
    rows alike; the clock carried from block to block keeps every row the
    reference driver's."""
    win, log = Window(5, 3), []
    fast = run_until_covered(win, 2, method="rings")
    reference_rings(new_state(win, 2), 2, 10_000 * 5 * 3, log)
    monkeypatch.setattr(fileio, "TEXT_BLOCK", block)
    assert events_csv_text(fast) == reference_events_csv_text(log).encode()


def test_events_csv_refuses_a_state_without_claim_records():
    state = run_until_covered(Window(4, 2), 9, method="jumps")
    state.claim_event[2, 1] = -1
    with pytest.raises(ValueError, match="without a claim event"):
        events_csv_text(state)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=10).flatmap(
           lambda W: st.tuples(st.just(W), st.integers(min_value=1, max_value=min(W, 5)))),
       st.integers(min_value=0, max_value=2**64 - 1))
def test_claim_events_index_the_run(window, seed):
    """A jumps event claims one vertex each, so the claim indices of the
    window are a permutation of 0..W*M-1; a rings run's are distinct ring
    indices below n_rings.  The boundary holds -1."""
    win = Window(*window)
    for method in ("jumps", "rings"):
        state = run_until_covered(win, seed, method=method)
        claim = state.claim_event
        assert claim.shape == state.forest.root_x.shape and claim.dtype == np.int64
        assert (claim[0] == -1).all()
        inner = np.sort(claim[1:], axis=None)
        if method == "jumps":
            assert np.array_equal(inner, np.arange(win.W * win.M))
        else:
            assert inner[0] >= 0 and inner[-1] < state.n_rings
            assert (np.diff(inner) > 0).all()


@st.composite
def stopped_run_case(draw):
    """A driver, a window (rings at caps <= 6, jumps up to 64x32), a stop
    level in 1..M and a seed."""
    method = draw(st.sampled_from(["rings", "jumps"]))
    W = draw(st.integers(min_value=1, max_value=10 if method == "rings" else 64))
    M = draw(st.integers(min_value=1, max_value=min(W, 6 if method == "rings" else 32)))
    L = draw(st.integers(min_value=1, max_value=M))
    return method, W, M, L, draw(st.integers(min_value=0, max_value=2**64 - 1))


def run_arrays(state):
    fo = state.forest
    return fo.root_x, fo.parent_dir, fo.values, state.claim_event


@settings(max_examples=40, deadline=None)
@given(stopped_run_case())
@example(("jumps", 64, 32, 16, 1))  # compare's default clip at the benchmark's window
@example(("rings", 10, 6, 2, 5))
@example(("jumps", 7, 7, 7, 3))  # a stop at the cap
@example(("jumps", 1, 1, 1, 2))  # W = 1 and 2: a claim's two columns wrap
@example(("rings", 2, 2, 1, 6))
@example(("jumps", 2, 2, 1, 8))
def test_a_stopped_run_is_the_full_run_cut_at_its_stop(case):
    """A run stopped at level L equals the full run on rows 0..L and covers
    levels 1..L.  It is the full run cut after the event that claimed the
    last vertex at or below L: exactly the full run's earlier claims,
    with that event's clock, and its events CSV is a prefix of the full
    run's.  up_to=M is the full run."""
    method, W, M, L, seed = case
    win = Window(W, M)
    full = run_until_covered(win, seed, method=method)
    cut = run_until_covered(win, seed, method=method, up_to=L)
    for a, b in zip(run_arrays(full), run_arrays(cut)):
        assert a[:L + 1].tobytes() == b[:L + 1].tobytes()
    assert (cut.forest.root_x[1:L + 1] >= 0).all()
    assert cut.n_rings == int(cut.claim_event[1:L + 1].max()) + 1 <= full.n_rings
    assert cut.clock == np.nanmax(cut.forest.values[1:L + 1])
    kept = (full.claim_event < cut.n_rings)[1:]
    assert kept[:L].all()
    for a, b, unclaimed in zip(run_arrays(full), run_arrays(cut), (-1, -1, np.nan, -1)):
        assert np.where(kept, a[1:], unclaimed).tobytes() == b[1:].tobytes()
    assert events_csv_text(full).startswith(events_csv_text(cut))
    whole = run_until_covered(win, seed, method=method, up_to=M)
    for a, b in zip(run_arrays(full), run_arrays(whole)):
        assert a.tobytes() == b.tobytes()
    assert (float.hex(whole.clock), whole.n_rings) == (float.hex(full.clock), full.n_rings)


@st.composite
def root_stop_case(draw):
    """A stopped run's case and a root x, 0..2W-2."""
    method, W, M, L, seed = draw(stopped_run_case())
    return method, W, M, L, 2 * draw(st.integers(min_value=0, max_value=W - 1)), seed


@settings(max_examples=40, deadline=None)
@given(root_stop_case())
@example(("jumps", 64, 32, 16, 0, 1))  # compare's stop at the benchmark's window
@example(("rings", 10, 6, 3, 18, 5))
@example(("jumps", 1, 1, 1, 0, 0))  # both out-edges of a root lead to one head
def test_a_root_stopped_run_is_final_on_the_roots_tree(case):
    """A run stopped once no free edge leads from root r's tree into levels
    1..L is the full run cut after its last event, and so equals it on that
    tree at levels 0..L: the same vertices, directions, times and claim
    events.  It runs no more events than the run stopped at level L.  At
    its stop the brute-force scan finds no free edge from the tree into
    levels 1..L; one event earlier it found one."""
    method, W, M, L, r, seed = case
    win = Window(W, M)
    full = run_until_covered(win, seed, method=method)
    cut = run_until_covered(win, seed, method=method, up_to=L, root=r)
    tree = full.forest.root_x[:L + 1] == r
    assert np.array_equal(cut.forest.root_x[:L + 1] == r, tree)
    for a, b in zip(run_arrays(full), run_arrays(cut)):
        assert a[:L + 1][tree].tobytes() == b[:L + 1][tree].tobytes()
    kept = (full.claim_event < cut.n_rings)[1:]
    for a, b, unclaimed in zip(run_arrays(full), run_arrays(cut), (-1, -1, np.nan, -1)):
        assert np.where(kept, a[1:], unclaimed).tobytes() == b[1:].tobytes()
    assert cut.n_rings <= run_until_covered(win, seed, method=method, up_to=L).n_rings
    assert open_tree_edges(cut.forest, r, L) == []
    last = cut.claim_event == cut.n_rings - 1  # the stop follows a claim
    assert np.count_nonzero(last) == 1
    before = dataclasses.replace(cut.forest, root_x=np.where(last, -1, cut.forest.root_x))
    assert open_tree_edges(before, r, L) != []


@pytest.mark.parametrize("window,method,kept_kb", [((64, 32), "jumps", 150),
                                                  ((16, 8), "rings", 100)],
                         ids=["jumps-64x32", "rings-16x8"])
def test_a_run_keeps_no_event_log(window, method, kept_kb):
    """What a run keeps after it returns is its forest and one claim index
    per vertex (25 bytes a vertex: 53 and 4 kB here), however many events
    ran (2,048 jumps; 6,501 rings at 16x8), and its events CSV can still be
    written from that.  A log of one Python tuple per event kept about
    370 and 550 kB here.  tracemalloc slows the driver about 40x, so the windows
    are small."""
    tracemalloc.start()
    try:
        state = run_until_covered(Window(*window), 1, method=method)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= kept_kb * 1e3, kept
    assert events_csv_text(state).count(b"\n") == state.n_rings + 1


def test_runs_are_deterministic():
    win = Window(4, 3)
    a = run_until_covered(win, seed=33, method="rings")
    b = run_until_covered(win, seed=33, method="rings")
    assert np.array_equal(a.forest.root_x, b.forest.root_x)
    assert np.array_equal(a.forest.values, b.forest.values)
    assert a.clock == b.clock


# Digests of the jumps driver's full output, recorded on the object-based
# driver (now tests/oracles.reference_jumps): sha256 of snapshot + events
# CSV, the final clock as float.hex, the censored roots and the event count.
JUMPS_GOLDEN = [
    ((64, 32, 1), 'bcdcf631c0a326b58029afe9faf9c4b0d7595a57f8514890a87ddcff68e47574', '0x1.f35b4dc6d1c49p+32', [2, 22, 26, 30, 38, 46, 60, 68, 78, 84, 96, 104, 122], 2048),
    ((64, 32, 2), 'b1e00ba3a32ac6fcc6d17b1fddf790b5cc94b08bd49515c1e220a861e3a87e46', '0x1.5c267794bcf70p+33', [6, 18, 22, 24, 36, 52, 54, 68, 80, 94, 96, 102, 118, 124], 2048),
    ((8, 4, 3), '5a6515c76b4daf6a8be03b3910c4cd172df80f1740c431f5817f01525fb250d3', '0x1.3e0e42b3238c6p+5', [4, 8, 12], 32),
    ((16, 16, 0), '876748962a7e4e8cfc770c337e15b830069a2869367cc51d32f7a1f80333c42f', '0x1.c86903f23a0b6p+17', [0, 8, 20, 22], 256),
    ((33, 7, 2), '04f354c7f8681322cf42f53a643ab36e72798587893db03bbe0b5c93abad1e23', '0x1.f645342f5f484p+7', [0, 4, 8, 12, 18, 20, 28, 32, 36, 44, 50, 56, 60], 231),
    ((64, 64, 1), '22c70afccee13b3656a269d98eb024289f566814c23c75d36e5c5e2183f05433', '0x1.85da7e6199cb2p+65', [26, 38, 68, 84, 96, 122], 4096),
    # the band of levels with free edges climbs far above level 1
    ((256, 256, 1), '9021988044da0f4c8557dbee3b8660fd6093d17b7d30f90503bf552344734c2c', '0x1.9fad6d79e9d05p+257',
     [22, 54, 84, 106, 142, 168, 184, 234, 256, 274, 306, 318, 364, 402, 410, 446, 456,
      468, 500], 65536),
    # wide and low: the band spans the whole height from the start
    ((200, 3, 5), '917a137819899ebe8043d5c83add8dc39d5403fcfbedb0d9167d405342014c8c', '0x1.67a7ab780afc3p+4',
     [4, 6, 10, 12, 14, 16, 20, 22, 28, 30, 36, 44, 46, 50, 52, 60, 66, 70, 76, 78, 82,
      84, 86, 90, 94, 100, 102, 106, 110, 114, 116, 120, 124, 130, 132, 134, 136, 138,
      142, 150, 154, 158, 164, 168, 172, 176, 178, 182, 186, 188, 192, 196, 200, 204,
      210, 212, 214, 220, 226, 230, 234, 242, 246, 248, 250, 254, 258, 260, 264, 266,
      272, 274, 278, 282, 288, 292, 296, 300, 306, 310, 314, 316, 320, 322, 326, 330,
      332, 336, 338, 342, 346, 350, 354, 358, 362, 366, 370, 374, 378, 382, 384, 386,
      392, 398], 600),
    # a single event
    ((1, 1, 0), '4fd93c38b68755a167d84055491d3a732cbd0c53c2bb9ab21aea0e07a00f85ac', '0x1.c3053ccaedddfp+1',
     [0], 1),
]


# oracles.snapshot_arrays_sha256 of each JUMPS_GOLDEN run's snapshot, reloaded,
# with its events CSV, recorded beside the text digests: a snapshot layout
# change may replace the text digests and must keep these.
JUMPS_ARRAY_GOLDEN = {
    (64, 32, 1): "421642208f10fe5f005f0362cabac065cba76f5829d185fdaa805398b7d839b4",
    (64, 32, 2): "8bf4baa76842548df1188896293b0a820c6de9e35614603721b580c5a5ebecce",
    (8, 4, 3): "bc88e195c583154c4ce8656d89d83194bc5113155dea478d5f59f5dbd28292bf",
    (16, 16, 0): "227c3b56f1ec17f3c59ef0775d26ac73ede4c821f385c7c423af6f15579221c1",
    (33, 7, 2): "ab9cd3f64eecbb96a0b5e81389cfcb139a313507e537fb3b4b8f3ceb869f8085",
    (64, 64, 1): "518818505f7499b8f9533ab1739af2f23d89767b30b728edec5f484f803b982b",
    (256, 256, 1): "3e1a1b75b88a8311ed55515c33347f86b9fa772ac7ad588ba8e39229cf862b33",
    (200, 3, 5): "518c213a38f8ad43a28942b085a4a973e867225eb6196eff8a079ee7518992a5",
    (1, 1, 0): "d0641c5a2a774c5db9a4521330e4a6a260697529b264f21ebd18882fa1b0fd97",
}


def assert_golden_texts(state, digest, array_digest, tmp_path):
    snap, events = snapshot_text(state.forest), events_csv_text(state)
    assert hashlib.sha256(snap + events).hexdigest() == digest
    path = tmp_path / "snap.json"
    path.write_bytes(snap)
    assert snapshot_arrays_sha256(str(path), events) == array_digest


@pytest.mark.parametrize("case,digest,clock_hex,censored,n_rings", JUMPS_GOLDEN)
def test_jumps_golden_digests(case, digest, clock_hex, censored, n_rings, tmp_path):
    W, M, seed = case
    state = run_until_covered(Window(W, M), seed, method="jumps")
    assert_golden_texts(state, digest, JUMPS_ARRAY_GOLDEN[case], tmp_path)
    assert float.hex(state.clock) == clock_hex
    assert censored_roots(state) == censored
    assert state.n_rings == n_rings


# Digests of the rings driver's full output, recorded on the object-based
# driver (now tests/oracles.reference_rings), as for JUMPS_GOLDEN; the
# 24x12 run spans about 40 draw blocks.
RINGS_GOLDEN = [
    ((1, 1, 0), 'f0f4f912f65ad3d8ea0e9886b89fc2ea4798d1d9ba73bca3183ca24ee37b4c2e', '0x1.d5b763d9afb7ap-2', [0], 1),
    ((5, 3, 2), '34fcd74d3b209f21e4e00f5eee24282339729b75ccda02f194b3708da0fef69d', '0x1.517420ea68b58p+2', [0, 4, 6], 36),
    ((8, 4, 3), 'f70a72cfb017ddbb38da4cb7fa12b83b6086837d7f23347dcfa3b913e585e9f4', '0x1.4e6274c660260p+5', [0, 8, 14], 352),
    ((16, 8, 1), '4e8957ff99e1c7c9ccfb9db3fa7f537efae1c72593966810ef629dd7ea51a3a7', '0x1.9874be85282abp+8', [0, 2, 6, 8, 14, 16, 20, 24], 6501),
    ((9, 9, 7), '81f018150a19e8748b0b0475dca3a47ceef306068b2671b15ba7964e1956d13c', '0x1.be9e02f824559p+10', [4, 6, 14], 16072),
    ((24, 12, 1), '2b16458f468c6fbffe886fc0ef5badff55dab848bb28bde19c753befeea18fc6', '0x1.e40679e1f5720p+12', [0, 6, 10, 14, 20, 34, 38], 185094),
]


# Array digests of the RINGS_GOLDEN runs, as for JUMPS_ARRAY_GOLDEN.
RINGS_ARRAY_GOLDEN = {
    (1, 1, 0): "b0022ed805f61cd32933d21d5e7e26b554631fd8368078e8ad3e21d12e0bc707",
    (5, 3, 2): "0cf49e932ddbf600f4ef5968e587678cb2a8aef5b1879475fbcc66d7a4b8c9fb",
    (8, 4, 3): "09c730d375127bed23a64589e0cb80f88a8a35dce7e4820c18e7e58c2b3ba55b",
    (16, 8, 1): "b4d855941871ea45ccf97c2afa96fa75898b940ea228b9c4e50c831dd5e652f5",
    (9, 9, 7): "18587eb23481318210e20b706709e0befed55a2ebaac9187e1683538ec6b9df2",
    (24, 12, 1): "9c3b372ed2fd12acfb7f286bdb86c939cb85509271f2847bb53f5ce53362918b",
}


@pytest.mark.parametrize("case,digest,clock_hex,censored,n_rings", RINGS_GOLDEN)
def test_rings_golden_digests(case, digest, clock_hex, censored, n_rings, tmp_path):
    W, M, seed = case
    state = run_until_covered(Window(W, M), seed, method="rings")
    assert_golden_texts(state, digest, RINGS_ARRAY_GOLDEN[case], tmp_path)
    assert float.hex(state.clock) == clock_hex
    assert censored_roots(state) == censored
    assert state.n_rings == n_rings


def assert_same_run(fast, ref, ref_log):
    """Same forest, counters and clock, and the events CSV derived from the
    fast run is the reference driver's event log, field for field."""
    assert np.array_equal(fast.forest.root_x, ref.forest.root_x)
    assert np.array_equal(fast.forest.parent_dir, ref.forest.parent_dir)
    assert fast.forest.values.tobytes() == ref.forest.values.tobytes()
    assert float.hex(fast.clock) == float.hex(ref.clock)
    assert (fast.n_rings, fast.n_occupied) == (ref.n_rings, ref.n_occupied)
    assert events_csv_text(fast) == reference_events_csv_text(ref_log).encode()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10).flatmap(
           lambda W: st.tuples(st.just(W), st.integers(min_value=1, max_value=min(W, 6)))),
       st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=1, max_value=40))
@example((10, 6), 1, 3)  # needs far more than one ring per vertex
@example((1, 1), 2, 1)  # W = 1 and 2: a claim's two columns wrap
@example((2, 2), 4, 3)
def test_rings_match_reference_bitwise(window, seed, block_words):
    """Draw blocks of a few rings split the run; the block driver matches
    the object walk ring for ring.  With a budget of one ring per vertex
    both give up after the same rings, in the same state."""
    W, M = window
    win = Window(W, M)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sidla, "HASH_BLOCK", block_words)
        mp.setattr(sidla, "FIRST_DRAW_BLOCK", 1)  # blocks of 1, 2, 4, ... rings
        for budget in (10_000 * W * M, W * M):
            runs, log = [], []
            for run in (lambda *args: sidla._run_rings(*args, M),
                        lambda *args: reference_rings(*args, log)):
                state = new_state(win, seed)
                try:
                    run(state, seed, budget)
                    runs.append((False, state))
                except SimulationLimitError:
                    runs.append((True, state))
            (gave_up, fast), (ref_gave_up, ref) = runs
            assert gave_up == ref_gave_up == (fast.n_occupied < W * M)
            assert_same_run(fast, ref, log)


@st.composite
def window_and_seed(draw):
    W = draw(st.integers(min_value=1, max_value=12))
    M = draw(st.integers(min_value=1, max_value=W))
    return W, M, draw(st.integers(min_value=0, max_value=2**64 - 1))


@settings(max_examples=40, deadline=None)
@given(window_and_seed())
@example((56, 56, 7))  # M > 53, where the level prefix sums may round
@example((300, 2, 11))  # W >> M: hundreds of free edges on one or two levels
@example((1, 1, 3))  # W = 1 and 2: a claim's two columns wrap
@example((2, 2, 5))
@example((2, 1, 9))
def test_jumps_match_reference_bitwise(case):
    W, M, seed = case
    win = Window(W, M)
    fast = run_until_covered(win, seed, method="jumps")
    log = []
    assert_same_run(fast, reference_jumps(new_state(win, seed=seed), seed, log), log)


def test_jump_draws_match_per_event_hashes(monkeypatch):
    """The block draw equals the per-event scalar hashes, across blocks
    that split the run unevenly, and a whole run with such blocks still
    matches the reference driver bit for bit."""
    monkeypatch.setattr(sidla, "HASH_BLOCK", 21)  # at most 7 events per block
    monkeypatch.setattr(sidla, "FIRST_DRAW_BLOCK", 2)  # blocks of 2, 4, 7, 7, 7, 3
    mid = hash_u64(5, JUMP_STREAM)
    expect = [(float(-np.log1p(-hash_uniform(mid, k, 0))), hash_uniform(mid, k, 1),
               hash_uniform(mid, k, 2)) for k in range(30)]
    assert list(sidla._jump_draws(5, 30)) == expect
    win = Window(9, 5)
    fast = run_until_covered(win, 5, method="jumps")
    log = []
    assert_same_run(fast, reference_jumps(new_state(win, seed=5), 5, log), log)


def loop_level_choice(counts, u):
    """The object-based driver's two level loops, on level counts 1..M."""
    rates = [math.ldexp(1.0, -h) for h in range(1, len(counts) + 1)]
    rate_sum = 0.0
    for c, rate in zip(counts, rates):
        rate_sum += c * rate
    r = u * rate_sum
    chosen, acc = 0, 0.0
    for h, (c, rate) in enumerate(zip(counts, rates), start=1):
        if c:
            chosen = h
            acc += c * rate
            if r < acc:
                break
    return rate_sum, chosen


@st.composite
def band_counts(draw):
    """Free-edge counts of levels 1..M with empty levels below the lowest
    non-empty one, and ``top``: at least the highest non-empty level, with
    empty levels possibly at and above it."""
    counts = ([0] * draw(st.integers(min_value=0, max_value=3))
              + draw(st.lists(st.integers(min_value=0, max_value=128), min_size=1,
                              max_size=90).filter(any))
              + [0] * draw(st.integers(min_value=0, max_value=3)))
    last = max(h for h, c in enumerate(counts, start=1) if c)
    return counts, draw(st.integers(min_value=last, max_value=len(counts)))


@settings(max_examples=300, deadline=None)
@given(band_counts(), st.floats(min_value=0.0, max_value=1.0 - 2.0**-53))
@example(([1] + [0] * 52 + [1, 2], 55), 0.75)  # left to right 0.5; exact 0.5 + 2**-53
@example(([0] * 1073 + [1], 1074), 0.9)  # subnormal rate_sum: r rounds up to it
@example(([0] * 1072 + [1, 0], 1074), 0.9)  # ... and the fallback meets an empty top
def test_prefix_sum_level_choice_matches_loops(case, u):
    """_run_jumps picks the level by bisecting the accumulate() prefix sums
    of the band low..top alone (below low every term is 0.0, above top the
    sums stay at rate_sum).  Driver runs meet no inexact prefix sum (the
    band spans at most 8 levels up to 1024x256, never 53), so the identity
    with the loops is checked here on arbitrary counts, inexact and
    subnormal sums included."""
    counts, top = case
    term = [0.0] + [c * math.ldexp(1.0, -h) for h, c in enumerate(counts, start=1)]
    low = next(h for h, c in enumerate(counts, start=1) if c)
    pref = list(accumulate(term[low:top + 1]))
    rate_sum = pref[-1]
    h = low + bisect_right(pref, u * rate_sum)
    if h > top:
        h = max(i for i in range(low, top + 1) if counts[i - 1])
    ref_sum, ref_h = loop_level_choice(counts, u)
    assert float.hex(rate_sum) == float.hex(ref_sum)
    assert h == ref_h


class _Stop(Exception):
    pass


@pytest.mark.parametrize("M", [1, 3, 64, 1074])
def test_jumps_rates_are_the_stretch_field_rates(M, monkeypatch):
    """The jumps driver's rate table is the run's stretch
    WeightField.rates, bitwise, up to the largest cap that field holds:
    2**-h at level h >= 1 and 0.0 at level 0."""
    seen = []

    def spy(state, seed, rates, up_to, root=None):
        seen.append(rates)
        raise _Stop

    monkeypatch.setattr(sidla, "_run_jumps", spy)
    with pytest.raises(_Stop):
        run_until_covered(Window(M, M), 7, method="jumps")
    field = WeightField(7, WeightProfile.STRETCH, Window(M, M))
    assert seen[0].tobytes() == field.rates.tobytes()
    assert [r.hex() for r in seen[0].tolist()] == [
        (0.0).hex(), *(level_rate(WeightProfile.STRETCH, h).hex() for h in range(1, M + 1))]


@pytest.mark.parametrize("seed", [2**64 + 1, -1])
def test_particle_runs_refuse_a_seed_outside_64_bits(seed):
    """-1 would alias seed 2**64 - 1 in every stream of the run."""
    with pytest.raises(ConfigError, match=rf"seeds must lie in 0..2\*\*64-1, got {seed}$"):
        run_until_covered(Window(4, 2), seed)
    with pytest.raises(ConfigError, match="seeds must lie in"):
        new_state(Window(4, 2), seed)
