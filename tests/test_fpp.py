import math
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (
    boundary,
    brute_force_forest,
    column_of,
    edge_weight,
    exact_forest,
    incoming_tail_columns,
    level_rate,
    scalar_edge_address,
)
from sidlalab import fpp
from sidlalab.analysis import extract_tree
from sidlalab.errors import ConfigError
from sidlalab.fpp import (
    WeightField,
    WeightProfile,
    build_forest,
    incoming_tail_index,
    load_snapshot,
    snapshot_text,
)
from sidlalab.hashing import AUX_STREAM, WEIGHT_STREAM
from sidlalab.lattice import Dir, Edge, Vertex, Window, head


def small_field(seed=3, profile=WeightProfile.STRETCH, W=6, M=6):
    return WeightField(seed=seed, profile=profile, window=Window(W, M))


def test_profile_rates():
    """The whole table, up to the largest cap each profile represents, is
    bitwise the scalar definition; level 0 holds 0.0."""
    assert WeightProfile.STRETCH.rates(3) == [0.0, 0.5, 0.25, 0.125]
    assert WeightProfile.EDEN.rates(3) == [0.0, 1.0, 1.0, 1.0]
    assert WeightProfile.DECREASING.rates(3) == [0.0, 2.0, 4.0, 8.0]
    for profile, M in ((WeightProfile.STRETCH, 1074), (WeightProfile.EDEN, 1100),
                       (WeightProfile.DECREASING, 1023)):
        rates = profile.rates(M)
        assert len(rates) == M + 1 and rates[0] == 0.0
        assert [r.hex() for r in rates[1:]] == [level_rate(profile, h).hex()
                                                for h in range(1, M + 1)]
        field = WeightField(1, profile, Window(M, M))
        assert field.rates.tobytes() == np.array(rates).tobytes()
    assert WeightProfile.STRETCH.rates(1074)[-1] == 5e-324
    with pytest.raises(OverflowError):
        WeightProfile.DECREASING.rates(1024)


def heads_tail_columns(W, level, d):
    """The package's tail column of the edge into each head column of a
    level by direction d."""
    heads = level * W + np.arange(W)
    return (incoming_tail_index(W, heads, np.full(W, d)) - (level - 1) * W).tolist()


def test_incoming_tail_columns_even_level():
    # heads at an even level have odd-level tails one step to either side
    cols_r, cols_l = incoming_tail_columns(4, 2)
    assert cols_r.tolist() == [3, 0, 1, 2] == heads_tail_columns(4, 2, Dir.RIGHT)
    assert cols_l.tolist() == [0, 1, 2, 3] == heads_tail_columns(4, 2, Dir.LEFT)


def test_incoming_tail_columns_odd_level():
    cols_r, cols_l = incoming_tail_columns(4, 1)
    assert cols_r.tolist() == [0, 1, 2, 3] == heads_tail_columns(4, 1, Dir.RIGHT)
    assert cols_l.tolist() == [1, 2, 3, 0] == heads_tail_columns(4, 1, Dir.LEFT)


@pytest.mark.parametrize("W,M", [(1, 1), (4, 3), (7, 5)])
def test_edge_address_is_the_scalar_address(W, M):
    """Every out-edge of levels 0..M-1 has the oracle's address, for even
    and odd widths, whatever the array shape."""
    field = small_field(W=W, M=M)
    win = field.window
    tails = np.arange(M * W).reshape(M, W, 1)
    dirs = np.array([Dir.LEFT, Dir.RIGHT])
    for stream in (WEIGHT_STREAM, AUX_STREAM):
        address = np.broadcast_arrays(*field.edge_address(stream, tails, dirs))
        for t in range(M * W):
            for d in Dir:
                e = Edge(win.vertex_at(*divmod(t, W)), d)
                got = [int(a[t // W, t % W, d]) for a in address]
                assert got == scalar_edge_address(win, stream, e)


def test_weight_positive_and_deterministic():
    field = small_field()
    e = Edge(Vertex(1, 1), Dir.LEFT)
    w1 = edge_weight(field, e)
    assert w1 > 0.0
    assert edge_weight(field, e) == w1
    # wrapped tail addresses the same weight
    e_wrapped = Edge(Vertex(1 + field.window.period, 1), Dir.LEFT)
    assert edge_weight(field, e_wrapped) == w1


def test_incoming_weights_match_scalar():
    """Every row of a multi-level block equals the scalar weights of the
    edges into its level, for even and odd widths and partial blocks."""
    for W, M, lo, hi in ((6, 6, 1, 6), (6, 6, 2, 4), (7, 5, 1, 5), (7, 5, 5, 5)):
        field = small_field(seed=11, W=W, M=M)
        win = field.window
        block_r, block_l = field.incoming_weights(lo, hi)
        assert block_r.shape == block_l.shape == (hi - lo + 1, W)
        for level, w_r, w_l in zip(range(lo, hi + 1), block_r, block_l):
            cols_r, cols_l = incoming_tail_columns(W, level)
            for j in range(W):
                v = win.vertex_at(level, j)
                tail_r = win.vertex_at(level - 1, int(cols_r[j]))
                tail_l = win.vertex_at(level - 1, int(cols_l[j]))
                assert w_r[j] == edge_weight(field, Edge(tail_r, Dir.RIGHT))
                assert w_l[j] == edge_weight(field, Edge(tail_l, Dir.LEFT))
                # sanity: those edges really point at v
                assert (tail_r.x + 1) % win.period == v.x % win.period
                assert (tail_l.x - 1) % win.period == v.x % win.period
    for lo, hi in ((0, 1), (3, 2), (1, 6)):
        with pytest.raises(ValueError):
            field.incoming_weights(lo, hi)


@pytest.mark.parametrize("block", [1, 2 * 14 * 5 + 3, 1 << 16])
def test_forest_is_the_same_for_every_weight_block(monkeypatch, block):
    """Hashing the weights a block of levels at a time, with blocks that
    split the window unevenly, leaves the forest bit for bit unchanged;
    the reference hashes every level of the window in one call."""
    field = small_field(seed=8, W=14, M=12)
    monkeypatch.setattr(fpp, "HASH_BLOCK", 2 * 14 * 12)
    ref = build_forest(field)
    monkeypatch.setattr(fpp, "HASH_BLOCK", block)
    fo = build_forest(field)
    assert np.array_equal(fo.values, ref.values)
    assert np.array_equal(fo.parent_dir, ref.parent_dir)
    assert np.array_equal(fo.root_x, ref.root_x)


def test_build_forest_hashes_a_small_window_in_one_call(monkeypatch):
    calls = []
    real = fpp.hash_uniform_vec
    monkeypatch.setattr(fpp, "hash_uniform_vec",
                        lambda seed, parts: calls.append(seed) or real(seed, parts))
    build_forest(WeightField(1, WeightProfile.STRETCH, Window(64, 32)))
    assert len(calls) == 1


def test_profiles_have_distinct_scales():
    win = Window(16, 12)
    mx = {}
    for profile in WeightProfile:
        fo = build_forest(WeightField(seed=5, profile=profile, window=win))
        mx[profile] = fo.values.max()
    assert mx[WeightProfile.DECREASING] < mx[WeightProfile.EDEN]
    assert mx[WeightProfile.EDEN] < mx[WeightProfile.STRETCH]
    # stretch distances to level n scale like 2^n
    assert mx[WeightProfile.STRETCH] > 2**10
    assert mx[WeightProfile.DECREASING] < 4.0


@pytest.mark.parametrize("profile", list(WeightProfile))
@pytest.mark.parametrize("seed", [1, 9])
def test_forest_matches_brute_force(profile, seed):
    """The DP agrees bit for bit with per-vertex enumeration of all
    monotone paths, for distances, parents, and root labels."""
    field = WeightField(seed=seed, profile=profile, window=Window(7, 7))
    fo = build_forest(field)
    bd, bp, br = brute_force_forest(field)
    assert np.array_equal(fo.values, bd)
    assert np.array_equal(fo.parent_dir, bp)
    assert np.array_equal(fo.root_x, br)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_decreasing_forest_matches_exact_arithmetic(seed):
    """Rerunning the DP in exact rationals over the same float weights
    gives the same parent directions and root labels, so no rounding
    decides a comparison; at 64x64 the smallest weights fall below half
    an ulp of their tails' times, and the roots still agree."""
    field = WeightField(seed, WeightProfile.DECREASING, Window(32, 32))
    fo = build_forest(field)
    parent, root = exact_forest(field)
    assert np.array_equal(fo.parent_dir, parent)
    assert np.array_equal(fo.root_x, root)
    field = WeightField(seed, WeightProfile.DECREASING, Window(64, 64))
    assert np.array_equal(build_forest(field).root_x, exact_forest(field)[1])


def test_forest_basic_shape_and_monotonicity():
    fo = build_forest(small_field(seed=2, W=12, M=10))
    assert (fo.label, fo.seed, fo.value_key) == ("stretch", 2, "dist")
    assert fo.values.shape == (11, 12)
    assert (fo.values[0] == 0.0).all()
    assert (fo.parent_dir[0] == -1).all()
    assert np.isin(fo.parent_dir[1:], [0, 1]).all()
    # dist strictly increases along parent chains
    win = fo.window
    for m in range(1, 11):
        for j in range(12):
            v = win.vertex_at(m, j)
            d = Dir(int(fo.parent_dir[m, j]))
            tail = win.canonicalize(Vertex(v.x - d.dx, m - 1))
            assert fo.values[m, j] > fo.values[m - 1, column_of(win, tail)]


def test_root_labels_are_boundary_even_x():
    fo = build_forest(small_field(seed=4))
    W = fo.window.W
    assert sorted(set(fo.root_x[0])) == list(range(0, 2 * W, 2))
    assert np.isin(fo.root_x, np.arange(0, 2 * W, 2)).all()


def test_tie_breaks_left():
    # a stub field whose two incoming weights are always equal
    win = Window(4, 3)

    def equal_weights(lo, hi):
        return np.full((hi - lo + 1, 4), 0.5), np.full((hi - lo + 1, 4), 0.5)

    stub = SimpleNamespace(
        window=win,
        seed=0,
        profile=WeightProfile.EDEN,
        incoming_weights=equal_weights,
    )
    fo = build_forest(stub)
    assert (fo.parent_dir[1:] == int(Dir.LEFT)).all()


def test_trees_partition_vertices():
    fo = build_forest(small_field(seed=10))
    win = fo.window
    seen = {}
    for root in boundary(win):
        for e in extract_tree(fo, root.x).edges:
            hd = win.canonicalize(head(e))
            assert hd not in seen
            seen[hd] = root.x
    # every interior vertex claimed exactly once
    assert len(seen) == win.W * win.M


def test_root_of_follows_parents():
    fo = build_forest(small_field(seed=12))
    W = fo.window.W
    cur = 6 * W  # flat index of the vertex (0, 6)
    root = fo.root_x.flat[cur]
    while cur >= W:
        cur = int(incoming_tail_index(W, np.array([cur]), fo.parent_dir.flat[cur])[0])
    assert root == 2 * cur


def test_exact_candidate_ties_never_occur_in_a_million_vertices():
    """The two incoming path sums at a vertex are continuous variates; an
    exact float64 tie should never show up at this sample size, keeping
    the deterministic left preference statistically invisible."""
    total = 0
    ties = 0
    for seed in (1, 2, 3, 4):
        field = WeightField(seed, WeightProfile.STRETCH, Window(1024, 256))
        fo = build_forest(field)
        block_r, block_l = field.incoming_weights(1, 256)
        for level, w_r, w_l in zip(range(1, 257), block_r, block_l):
            cols_r, cols_l = incoming_tail_columns(1024, level)
            prev = fo.values[level - 1]
            ties += int(np.count_nonzero((prev[cols_r] + w_r)
                                         == (prev[cols_l] + w_l)))
            total += 1024
    assert total >= 1_000_000
    assert ties == 0


def test_snapshot_json_schema():
    import json

    fo = build_forest(small_field(seed=13, W=4, M=3))
    payload = json.loads(snapshot_text(fo))
    assert payload["window"] == {"W": 4, "M": 3}
    assert payload["profile"] == "stretch"
    assert payload["seed"] == 13
    assert len(payload["vertices"]) == 4 * 4
    first = payload["vertices"][0]
    assert set(first) == {"x", "y", "dist", "parentDir", "rootX"}
    assert first["y"] == 0 and first["parentDir"] is None
    ys = [v["y"] for v in payload["vertices"]]
    assert ys == sorted(ys)


def test_snapshot_roundtrip_bit_exact(tmp_path):
    fo = build_forest(small_field(seed=13))
    text = snapshot_text(fo)
    p = tmp_path / "f.json"
    p.write_text(text)
    snap = load_snapshot(str(p))
    assert snap.value_key == "dist"
    assert np.array_equal(snap.values, fo.values)
    assert np.array_equal(snap.parent_dir, fo.parent_dir)
    assert np.array_equal(snap.root_x, fo.root_x)
    assert snap.window == fo.window
    # serialization is a fixed point
    assert snapshot_text(snap) == text


def test_snapshot_text_deterministic():
    fo = build_forest(small_field(seed=14))
    assert snapshot_text(fo) == snapshot_text(fo)


def test_load_snapshot_rejects_bad_payload(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"schema": "other"}')
    with pytest.raises(ConfigError, match="malformed snapshot"):
        load_snapshot(str(p))
    p.write_text('{"window": {"W": 4, "M": 3}, "profile": "stretch", "seed": 1')
    with pytest.raises(ConfigError, match="cannot read snapshot"):
        load_snapshot(str(p))
    with pytest.raises(ConfigError, match="cannot read snapshot"):
        load_snapshot(str(tmp_path / "missing.json"))


@pytest.mark.parametrize("profile,M", [("decreasing", 1024), ("stretch", 1075)])
def test_unrepresentable_rate_is_refused_up_front(profile, M):
    """The level-M rate of decreasing overflows at M = 1024; that of
    stretch underflows to 0 at M = 1075."""
    with pytest.raises(ConfigError, match=f"{profile} rate at level M={M}"):
        WeightField(1, WeightProfile(profile), Window(M, M))
    WeightField(1, WeightProfile(profile), Window(M - 1, M - 1))
