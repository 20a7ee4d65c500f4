"""The array-native forest path: snapshot writer and loader, SVG writer and
the stats reductions, checked against golden digests recorded on the
per-vertex implementations and against those implementations, kept in
``oracles``, bit for bit."""

import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    reference_flank_left_distances,
    reference_load_snapshot,
    reference_render_svg,
    reference_slim_fractions,
    reference_snapshot_text,
    snapshot_arrays_sha256,
)
from sidlalab import analysis
from sidlalab.analysis import MonotoneTree, flank_left_distances, slim_fractions
from sidlalab.cli import main
from sidlalab.errors import ConfigError
from sidlalab.fileio import json_text
from sidlalab.fpp import (
    WeightField,
    WeightProfile,
    build_forest,
    check_invariants,
    load_snapshot,
    snapshot_text,
)
from sidlalab.lattice import Window
from sidlalab.render import RenderOptions, render_svg
from sidlalab.sidla import run_until_covered

# sha256 of CLI artifacts and stdout, recorded on the per-vertex writers,
# loader and stats loops.  Commands of one case run in one directory.  A
# "<snapshot> arrays" entry is oracles.snapshot_arrays_sha256 of the reloaded
# snapshot, recorded beside its text digest: a snapshot layout change may
# replace the text digest and must keep it.
GOLDEN = {
    "fpp_stretch_8x6": (
        ["fpp --seed 7 -W 8 -M 6 --profile stretch --out f.json"],
        {"f.json": "694dbcd7e756306824ab692b59bcc042735e91f9649dbe45f8a24288e10a1318",
         "f.json arrays": "a0c9c93e14d13bbf5ce6c7856617eeb85698d0e1ba5676586d514da4a9140ae4",
         "stdout": "8130a20dc5c726334f1ca6ba7e0c85ad3bba29a73d2fec61d59c54583f9cf5b7"}),
    "fpp_eden_16x8": (
        ["fpp --seed 3 -W 16 -M 8 --profile eden --out e.json"],
        {"e.json": "a7077afa8faed5ae4ee3786a5f4e992766e2897f85baab867b49d0002c936836",
         "e.json arrays": "b85dde3c7a75f785f8471bdbbc673b6719547711db47f7d79a70ee1671838eac",
         "stdout": "3b7bdc5aed470c6a59ec2fe8902747af3b4f75251f90aa29554464520df1fd0c"}),
    "sidla_jumps": (
        ["sidla --seed 2 -W 6 -M 4 --method jumps --out run.json"],
        {"run_s2.json": "7bf9e6ae979efd73892d05ebc12c083f2042412895702feb86fc28cc2411d6ba",
         "run_s2.json arrays":
             "2cb879fb1408ad04a0c7e3fcf1ba7fd3419c150b396400a14661e91875c0c722",
         "run_s2_events.csv":
             "6c0c35e4adf62045d6fc2ee0d439222bcf77a6d415ee06f209013351dafd8c58",
         "stdout": "335c0122b3732a4680ce8839b695a3c23400bc57c0dda253f5beff8b34feae7f"}),
    "render_default": (
        ["render --seed 7 -W 8 -M 6 --out d.svg"],
        {"d.svg": "c6d61a7cf036f78bdcd8cf0afb7ea2cc34dca373c752abfe718212bb83124f4a",
         "stdout": "31bf249aabd044883b95c59daa8e17c9668362a2711812a07cee61a56a1fe07e"}),
    "render_no_highlight": (
        ["render --seed 7 -W 8 -M 6 --highlight-root none --out n.svg"],
        {"n.svg": "5dd344fd060b97b669a90a0aa93c8225b7973de9dfc1c930969f70b71cee463c",
         "stdout": "21b3de6c5f3d62e0a08605cf226eec8818f5a227a2d420ba122756357f27c798"}),
    "render_max_level": (
        ["render --seed 7 -W 8 -M 6 --max-level 2 --out m.svg"],
        {"m.svg": "b3a1ed7d311ab67ff70583b81a19be9f6c7496244d081eee1ae812bf0ecf8f53",
         "stdout": "eeb91346c3743c04a4683870997804550796c9f23bd842e50eff16be76f7a73c"}),
    "render_scale": (
        ["render --seed 7 -W 8 -M 6 --scale 7.3 --out s.svg"],
        {"s.svg": "8971f3b5b138d33caf12cc990651c76cee5661eadcf58ff9f9b9b7c8f972c0bb",
         "stdout": "583528977ba900d5e65a17194a7e938f3f46c02de5ee8cc57f0417829e0e6bff"}),
    "render_reloaded": (
        ["fpp --seed 11 -W 12 -M 10 --profile decreasing --out f.json",
         "render --in f.json --highlight-root 6 --out r.svg",
         "sidla --seed 2 -W 6 -M 4 --method jumps --out run.json",
         "render --in run_s2.json --out q.svg"],
        {"r.svg": "6eeb71063be0be6f87d916243ffd1c5d14b81b6333ab3526b968229d489bbc1e",
         "q.svg": "f9b57e366675c9cf6201452b4cc3ee7ce210b43fc3c7bf6df7c1c70724dd22a2",
         "stdout": "6ee0f972495dc6a0cb407c37c14586afd3eec29f7a1bc52f8ac674d04eb5800d"}),
    "stats_fpp": (
        ["stats --seed 4 -W 16 -M 8 --replicas 12 --flank-levels 2,4 --kappa 2,4 "
         "--out st.csv"],
        {"st.csv": "ae416ed8ffd53c0e4e3137b1c200e0f65528d45eaffc118a1d4713e29cae2393",
         "stdout": "332a0bb523b5b5294e2bf8cf5455a66ae2e541d4775d379fca62a26b977258d5"}),
    "stats_decreasing": (
        ["stats --seed 9 -W 16 -M 12 --profile decreasing --replicas 3 --slim-d 2.5 "
         "--flank-levels 1,5,12 --out sd.csv"],
        {"sd.csv": "87030a995ad88c592bdea64cc308d9585e6996b53b2999548aef38f9a3b9eb95",
         "stdout": "5055d7ad9e2f5745e8e959dc209332a7c60bd7e30b25e6d984202bbf41c9e96e"}),
    "stats_sidla": (
        ["stats --picture sidla --method jumps --seed 5 -W 12 -M 6 --replicas 3 "
         "--flank-levels 1,3 --out ss.csv"],
        {"ss.csv": "ead1746e6f75d41e3f1d4d91de29ba281b733809511e7bee436c3d257a635e66",
         "stdout": "50bfeb7ea4f37d5d0939fe2a303bf1d934398349733ad57e85a5af811ffd4378"}),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_artifacts_match_golden_digests(name, tmp_path, monkeypatch, capsys):
    commands, digests = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    assert [main(c.split()) for c in commands] == [0] * len(commands)
    got = {a: sha256((tmp_path / a).read_bytes()) for a in digests
           if a != "stdout" and not a.endswith(" arrays")}
    got.update({a: snapshot_arrays_sha256(str(tmp_path / a.removesuffix(" arrays")))
                for a in digests if a.endswith(" arrays")})
    got["stdout"] = sha256(capsys.readouterr().out.encode())
    assert got == digests


# ---------------------------------------------------------------------------
# Bitwise agreement with the per-vertex oracles


@st.composite
def forests(draw):
    W = draw(st.integers(1, 16))
    M = draw(st.integers(1, W))
    profile = draw(st.sampled_from(list(WeightProfile)))
    seed = draw(st.integers(0, 2**32))
    return build_forest(WeightField(seed, profile, Window(W, M)))


def render_options(W: int, M: int):
    highlight = st.one_of(st.none(), st.integers(-2 * W, 4 * W))
    return st.builds(RenderOptions, highlight_root=highlight,
                     scale=st.floats(0.05, 40.0),
                     max_level=st.one_of(st.none(), st.integers(0, M + 2)))


def assert_same_snapshot(a, b):
    assert (a.window, a.label, a.seed, a.value_key) == (b.window, b.label, b.seed, b.value_key)
    for x, y in ((a.values, b.values), (a.parent_dir, b.parent_dir), (a.root_x, b.root_x)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@settings(max_examples=60, deadline=None)
@given(forests(), st.data())
def test_forest_path_matches_oracles(tmp_path_factory, fo, data):
    W, M = fo.window.W, fo.window.M
    text = snapshot_text(fo)
    assert text == reference_snapshot_text(fo)
    path = tmp_path_factory.mktemp("snap") / "f.json"
    path.write_text(text)
    snap = load_snapshot(str(path))
    assert_same_snapshot(snap, reference_load_snapshot(str(path)))
    opts = data.draw(render_options(W, M))
    assert render_svg(fo, opts) == reference_render_svg(fo, opts)
    assert render_svg(snap, opts) == reference_render_svg(snap, opts)
    for n in range(1, M + 1):
        got, want = flank_left_distances(fo, n), reference_flank_left_distances(fo, n)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    d = data.draw(st.sampled_from([0.5, 1.0, 2.0, 2.5, 4.0, 100.0]))
    assert slim_fractions(fo, d).tolist() == reference_slim_fractions(fo, d)


@pytest.mark.parametrize("seed,W,M", [(3, 6, 4), (8, 9, 9), (1, 12, 5)])
def test_particle_state_path_matches_oracles(seed, W, M, tmp_path):
    state = run_until_covered(Window(W, M), seed, method="jumps").forest
    check_invariants(state)
    text = snapshot_text(state)
    assert text == reference_snapshot_text(state)
    path = tmp_path / "s.json"
    path.write_text(text)
    assert_same_snapshot(load_snapshot(str(path)), reference_load_snapshot(str(path)))
    assert render_svg(state) == reference_render_svg(state)
    for n in range(1, M + 1):
        assert flank_left_distances(state, n).tobytes() \
            == reference_flank_left_distances(state, n).tobytes()
    assert slim_fractions(state, 4.0).tolist() == reference_slim_fractions(state, 4.0)


def test_slim_fractions_cross_checks_the_tallest_tree(monkeypatch, tmp_path, capsys):
    fo = build_forest(WeightField(5, WeightProfile.STRETCH, Window(12, 8)))
    heights, _ = analysis.root_heights(fo)
    tallest = 2 * int(np.argmax(heights))
    calls = []
    lift = analysis.extract_tree

    def lift_one_level_short(forest, root):
        calls.append(root)
        tree = lift(forest, root)
        top = tree.height()
        return MonotoneTree(tree.root, frozenset(e for e in tree.edges if e.tail.y < top - 1))

    monkeypatch.setattr(analysis, "extract_tree", lift_one_level_short)
    with pytest.raises(RuntimeError, match=f"tree of root {tallest}"):
        slim_fractions(fo, 4.0)
    assert calls == [tallest]
    monkeypatch.chdir(tmp_path)
    assert main("stats --seed 5 -W 12 -M 8 --replicas 2 --out st.csv".split()) == 3
    assert "slice-size table disagrees" in capsys.readouterr().err
    assert not (tmp_path / "st.csv").exists()


# ---------------------------------------------------------------------------
# The JSON writer, loader rejections and the non-finite guard


def test_json_text_rules():
    doc = {"ok": True, "n": 3, "inner": {"x": 0.1, "nan": float("nan")}, "s": 'a"b'}
    text = json_text(doc)
    assert text == '{"ok": true, "n": 3, "inner": {"x": 0.10000000000000001, "nan": null}, "s": "a\\"b"}'
    assert json.loads(text)["inner"]["x"] == 0.1
    for bad in (float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="non-finite"):
            json_text({"v": bad})


def small_snapshot():
    fo = build_forest(WeightField(5, WeightProfile.STRETCH, Window(4, 3)))
    return json.loads(snapshot_text(fo))


def rejects(tmp_path, doc, match):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=match):
        load_snapshot(str(path))


def vertex(doc, x, y):
    return next(v for v in doc["vertices"] if (v["x"], v["y"]) == (x, y))


def test_loader_rejects_vertex_outside_window(tmp_path):
    doc = small_snapshot()
    doc["vertices"].append({**vertex(doc, 1, 3), "x": 0})  # x + y odd
    rejects(tmp_path, doc, "lists 17 vertices; its 4x3 window holds 16")
    doc = small_snapshot()
    doc["vertices"].append({**vertex(doc, 1, 3), "y": 5})  # above the cap
    rejects(tmp_path, doc, "lists 17 vertices; its 4x3 window holds 16")


def test_loader_rejects_hole(tmp_path):
    doc = small_snapshot()
    doc["vertices"].remove(vertex(doc, 3, 1))
    rejects(tmp_path, doc, "lists 15 vertices; its 4x3 window holds 16")


def test_loader_refuses_a_window_its_vertices_cannot_cover(tmp_path):
    """The header's window is refused before any array of its size is
    allocated (here 1.5 TiB of bincount)."""
    doc = small_snapshot()
    doc["window"] = {"W": 100_000_000_000, "M": 1}
    doc["vertices"] = doc["vertices"][:1]
    rejects(tmp_path, doc, "lists 1 vertices; its 100000000000x1 window holds 200000000000")


def test_loader_refuses_header_numbers_that_are_not_integers(tmp_path):
    fo = build_forest(WeightField(1, WeightProfile.STRETCH, Window(3, 1)))
    for key, bad in (("W", 3.7), ("M", True), ("seed", 1.9), ("seed", True), ("W", "3")):
        doc = json.loads(snapshot_text(fo))
        if key == "seed":
            doc["seed"] = bad
        else:
            doc["window"][key] = bad
        rejects(tmp_path, doc, r"malformed snapshot .*: W, M and seed must be integers")


def test_loader_rejects_bad_parent_dir_letter(tmp_path):
    doc = small_snapshot()
    vertex(doc, 3, 1)["parentDir"] = "U"
    rejects(tmp_path, doc, r"malformed snapshot .*: bad 'parentDir' \(KeyError\('U'\)\)")


def test_loader_rejects_duplicate_vertex(tmp_path):
    doc = small_snapshot()
    # the same vertex twice, once under a lifted x, with an equal record
    doc["vertices"].append({**vertex(doc, 2, 2), "x": 2 + 8})
    rejects(tmp_path, doc, "lists 17 vertices; its 4x3 window holds 16")


def test_loader_takes_only_the_writers_vertex_order(tmp_path):
    """Vertex i of a W-wide window sits at level i // W, column i % W, so
    x = (y & 1) + 2 * (i % W); the first vertex out of place is named."""
    doc = small_snapshot()
    doc["vertices"].reverse()
    rejects(tmp_path, doc, r"vertex 0 is \(7, 3\) where the \(y, x\) order puts \(0, 0\)")
    doc = small_snapshot()
    vs = doc["vertices"]
    vs[5], vs[9] = vs[9], vs[5]
    rejects(tmp_path, doc, r"vertex 5 is \(2, 2\) where the \(y, x\) order puts \(3, 1\)")
    doc = small_snapshot()
    vertex(doc, 2, 2)["x"] = 2 + 8  # the same vertex one period over
    rejects(tmp_path, doc, r"vertex 9 is \(10, 2\) where the \(y, x\) order puts \(2, 2\)")


def test_loader_refuses_a_boundary_parent_dir(tmp_path):
    doc = small_snapshot()
    vertex(doc, 0, 0)["parentDir"] = "L"
    rejects(tmp_path, doc, r"vertex \(0, 0\) has parentDir 'L'; the boundary's, and only")
    doc = small_snapshot()
    vertex(doc, 1, 1)["parentDir"] = None
    rejects(tmp_path, doc, r"vertex \(1, 1\) has parentDir None; the boundary's, and only")


def test_loader_refuses_a_profile_that_is_not_a_label(tmp_path):
    for bad in ({"not": "a label"}, "foo"):
        doc = small_snapshot()
        doc["profile"] = bad
        rejects(tmp_path, doc, rf"profile {re.escape(repr(bad))} is not one of "
                               "stretch, eden, decreasing, sidla")


def test_loader_takes_the_value_key_the_label_sets(tmp_path):
    doc = small_snapshot()
    for v in doc["vertices"]:
        v["occupancy_time"] = v.pop("dist")
    rejects(tmp_path, doc, r"bad 'dist' \(KeyError\('dist'\)\)")
    doc = small_snapshot()
    doc["profile"] = "sidla"
    rejects(tmp_path, doc, r"bad 'occupancy_time' \(KeyError\('occupancy_time'\)\)")


@pytest.mark.parametrize("x,y,key,bad,kind", [
    (1, 1, "rootX", 2.5, "integer"),  # np.fromiter made it 2
    (3, 1, "x", "3", "integer"),
    (1, 3, "dist", "repr", "number"),  # the value's repr, as a string
    (0, 0, "dist", False, "number"),  # a boundary time
    (1, 1, "y", 1.0, "integer"),
])
def test_loader_refuses_mistyped_vertex_fields(tmp_path, capsys, x, y, key, bad, kind):
    """x, y and rootX are JSON integers and the value a JSON number; a
    bool, float or string is refused, naming the key and the vertex's
    place in the list, where each of these loaded before."""
    doc = small_snapshot()
    v = vertex(doc, x, y)
    v[key] = repr(v[key]) if bad == "repr" else bad
    i = doc["vertices"].index(v)
    rejects(tmp_path, doc, rf"vertex {i} has {key} {re.escape(repr(v[key]))}; "
                           rf"it must be a JSON {kind}")
    assert main(["render", "--in", str(tmp_path / "bad.json"),
                 "--out", str(tmp_path / "x.svg")]) == 1
    assert f"it must be a JSON {kind}" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


def test_loader_rejects_root_contradicting_parent_chain(tmp_path):
    doc = small_snapshot()
    v = vertex(doc, 3, 3)
    v["rootX"] = (v["rootX"] + 2) % 8
    rejects(tmp_path, doc, r"vertex \(3, 3\) has a root label other than its parent's")


def test_loader_rejects_wrong_boundary_label_and_falling_value(tmp_path):
    doc = small_snapshot()
    vertex(doc, 2, 0)["rootX"] = 4
    rejects(tmp_path, doc, r"boundary vertex \(2,0\) has root label 4")
    doc = small_snapshot()
    vertex(doc, 1, 3)["dist"] = -1.0
    rejects(tmp_path, doc, r"vertex \(1, 3\) has a value below its parent's")


def test_loader_rejects_non_finite_values(tmp_path):
    # json.load takes Infinity and NaN; the top level has no child to catch them
    for x, y in ((1, 3), (3, 1)):
        for bad in (math.inf, -math.inf, math.nan):
            doc = small_snapshot()
            vertex(doc, x, y)["dist"] = bad
            rejects(tmp_path, doc, rf"dist {bad} of vertex \({x}, {y}\) is not finite")


def test_snapshot_refuses_non_finite_values():
    fo = build_forest(WeightField(2, WeightProfile.EDEN, Window(4, 3)))
    fo.values[2, 1] = np.inf
    with pytest.raises(ConfigError, match="not finite at level 2"):
        snapshot_text(fo)


def test_fpp_refuses_to_write_inf_at_stretch_overflow(tmp_path, monkeypatch, capsys):
    """From level 1023 the stretch weights, of order 2**1023, push passage
    times past the largest double to inf, which JSON cannot hold.  From
    M = 1075 the level-M rate itself underflows to 0, which the weight field
    refuses before any work."""
    monkeypatch.chdir(tmp_path)
    with np.errstate(over="ignore", divide="ignore"):
        code = main(["fpp", "-W", "1074", "-M", "1074", "--out", "f.json"])
    assert code == 1
    assert "dist is not finite at level 1023" in capsys.readouterr().err
    assert main(["fpp", "-W", "1100", "-M", "1100", "--out", "f.json"]) == 1
    assert "stretch rate at level M=1100" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()
