"""The array-native forest path: snapshot writer and loader, SVG writer and
the stats reductions, checked against golden digests recorded on the
per-vertex implementations and against those implementations, kept in
``oracles``, bit for bit."""

import dataclasses
import hashlib
import json
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
from sidlalab import analysis, fpp
from sidlalab.analysis import MonotoneTree, flank_left_distances, slim_fractions
from sidlalab.cli import main
from sidlalab.errors import ConfigError
from sidlalab.fileio import json_text
from sidlalab.fpp import (
    WeightField,
    WeightProfile,
    build_forest,
    load_snapshot,
    snapshot_text,
)
from sidlalab.lattice import Window
from sidlalab.render import RenderOptions, _coordinate_texts, render_svg
from sidlalab.sidla import SimulationLimitError, _run_rings, new_state, run_until_covered

# sha256 of CLI artifacts and stdout, recorded on the per-vertex writers,
# loader and stats loops.  Commands of one case run in one directory.  The
# render_* cases drew a fresh sample when render could sample; their SVG
# digests are the ones recorded then, and their stdout digests hash the
# pinned fpp line followed by the recorded render line.  A
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
        ["fpp --seed 7 -W 8 -M 6 --out f.json",
         "render --in f.json --out d.svg"],
        {"d.svg": "c6d61a7cf036f78bdcd8cf0afb7ea2cc34dca373c752abfe718212bb83124f4a",
         "stdout": "a06b3247ead93b93c251f40583ee880d3be12418bbcc1466d6d0901ad8ef0093"}),
    "render_no_highlight": (
        ["fpp --seed 7 -W 8 -M 6 --out f.json",
         "render --in f.json --highlight-root none --out n.svg"],
        {"n.svg": "5dd344fd060b97b669a90a0aa93c8225b7973de9dfc1c930969f70b71cee463c",
         "stdout": "103e022a77f91dcd41005d2fde610161c0fcb59fec1b727123874d7ad787b031"}),
    "render_max_level": (
        ["fpp --seed 7 -W 8 -M 6 --out f.json",
         "render --in f.json --max-level 2 --out m.svg"],
        {"m.svg": "b3a1ed7d311ab67ff70583b81a19be9f6c7496244d081eee1ae812bf0ecf8f53",
         "stdout": "0b12b7ee90ff755037e8174c0b26dcb8eddc06626e01f1a4d88b386493cc4db9"}),
    "render_scale": (
        ["fpp --seed 7 -W 8 -M 6 --out f.json",
         "render --in f.json --scale 7.3 --out s.svg"],
        {"s.svg": "8971f3b5b138d33caf12cc990651c76cee5661eadcf58ff9f9b9b7c8f972c0bb",
         "stdout": "b1f024725f8f8fd7c3d0dac0cc275cd1c3c3af4d540884cf0ab81060b3b496bd"}),
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
    assert text == reference_snapshot_text(fo).encode()
    path = tmp_path_factory.mktemp("snap") / "f.json"
    path.write_bytes(text)
    snap = load_snapshot(str(path))
    assert_same_snapshot(snap, reference_load_snapshot(str(path)))
    opts = data.draw(render_options(W, M))
    assert render_svg(fo, opts) == reference_render_svg(fo, opts).encode()
    assert render_svg(snap, opts) == reference_render_svg(snap, opts).encode()
    for n in range(1, M + 1):
        got, want = flank_left_distances(fo, n), reference_flank_left_distances(fo, n)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    d = data.draw(st.sampled_from([0.5, 1.0, 2.0, 2.5, 4.0, 100.0]))
    assert slim_fractions(fo, d).tolist() == reference_slim_fractions(fo, d)


@pytest.mark.parametrize("seed,W,M", [(3, 6, 4), (8, 9, 9), (1, 12, 5)])
def test_particle_state_path_matches_oracles(seed, W, M, tmp_path):
    state = run_until_covered(Window(W, M), seed, method="jumps").forest
    text = snapshot_text(state)
    assert text == reference_snapshot_text(state).encode()
    path = tmp_path / "s.json"
    path.write_bytes(text)
    assert_same_snapshot(load_snapshot(str(path)), reference_load_snapshot(str(path)))
    assert render_svg(state) == reference_render_svg(state).encode()
    for n in range(1, M + 1):
        assert flank_left_distances(state, n).tobytes() \
            == reference_flank_left_distances(state, n).tobytes()
    assert slim_fractions(state, 4.0).tolist() == reference_slim_fractions(state, 4.0)


def test_render_matches_oracle_on_a_partly_claimed_forest():
    """A rings run stopped by its budget leaves unclaimed vertices, root
    -1, which are not drawn.  highlight_root=None is also -1 inside the
    renderer, so only drawn segments may be tested for the highlight."""
    state = new_state(Window(16, 8), seed=3)
    with pytest.raises(SimulationLimitError):
        _run_rings(state, 3, 300, 8)
    fo = state.forest
    claimed = np.flatnonzero((fo.root_x >= 0).any(axis=1))
    top = int(claimed[-1])
    assert 1 < top < fo.window.M and (fo.root_x[1:top + 1] < 0).any()
    highlight = int(fo.root_x[top][fo.root_x[top] >= 0][0])
    for opts in (RenderOptions(highlight_root=None), RenderOptions(highlight_root=highlight),
                 RenderOptions(highlight_root=highlight, max_level=top - 1),
                 RenderOptions(highlight_root=None, max_level=top - 1)):
        svg = render_svg(fo, opts)
        assert svg == reference_render_svg(fo, opts).encode()
        assert (b"#d81b2a" in svg) == (opts.highlight_root is not None)
        shown = fo.window.M if opts.max_level is None else opts.max_level
        assert svg.count(b"<line") == np.count_nonzero(fo.root_x[1:shown + 1] >= 0)


def test_render_matches_oracle_where_coordinates_take_more_than_six_digits():
    """At 1000 columns and scale 0.123456789 every coordinate but 0 is
    written rounded to 6 digits, within the read-back tolerance; the drawing,
    cut at level 1 of 2 and with a drawn root highlighted, matches the
    oracle's."""
    fo = build_forest(WeightField(4, WeightProfile.STRETCH, Window(1000, 2)))
    opts = RenderOptions(highlight_root=int(fo.root_x[1, 0]), scale=0.123456789, max_level=1)
    text = _coordinate_texts(1000, 2, opts)
    assert sum(float(t) != k * opts.scale for k, t in enumerate(text)) == len(text) - 1
    svg = render_svg(fo, opts)
    assert svg == reference_render_svg(fo, opts).encode()
    assert svg.count(b'stroke="#d81b2a"') > 0 and svg.count(b"<line") == 1000


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
        return MonotoneTree(tree.root, frozenset(e for e in tree.edges if e[0] < top - 1))

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


@pytest.mark.parametrize("value", [[1], (0.5,), np.float32(0.5)])
def test_json_text_refuses_a_value_it_has_no_form_for(value):
    """Lists, tuples and floats other than Python's (a float32 would be
    written with the wrong digits) are refused, naming the type."""
    with pytest.raises(TypeError, match=f"^no JSON form for {type(value).__name__} "):
        json_text({"v": value})


def small_text():
    fo = build_forest(WeightField(5, WeightProfile.STRETCH, Window(4, 3)))
    return snapshot_text(fo).decode()


def small_snapshot():
    return json.loads(small_text())


def rejects(tmp_path, text, match):
    path = tmp_path / "bad.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ConfigError, match=match):
        load_snapshot(str(path))


# The writer's layout: five header lines, then vertex i of a W-wide window
# on line 6 + i, at level i // W and x = (y & 1) + 2 * (i % W).
def line_no(x, y, W=4):
    return 6 + y * W + x // 2


def edit(text, x, y, key, token, W=4):
    """text with the key's token in vertex (x, y)'s line replaced."""
    lines = text.split("\n")
    i = line_no(x, y, W) - 1
    lines[i], n = re.subn(rf'"{key}": [^,}}]+', f'"{key}": {token}', lines[i])
    assert n == 1
    return "\n".join(lines)


def vertex_lines(text):
    lines = text.split("\n")
    return lines[:5], [ln.rstrip(",") for ln in lines[5:-3]], lines[-3:]


def join(head, rows, tail):
    return "\n".join(head + [",\n".join(rows)] + tail)


def test_loader_rejects_vertex_outside_window(tmp_path):
    head, rows, tail = vertex_lines(small_text())
    outside = rows[-1].replace('"x": 1', '"x": 0')  # x + y odd
    rejects(tmp_path, join(head, rows + [outside], tail),
            "lists 17 vertices; its 4x3 window holds 16")
    above = rows[-1].replace('"y": 3', '"y": 5')  # above the cap
    rejects(tmp_path, join(head, rows + [above], tail),
            "lists 17 vertices; its 4x3 window holds 16")


def test_loader_rejects_hole(tmp_path):
    head, rows, tail = vertex_lines(small_text())
    del rows[line_no(3, 1) - 6]
    rejects(tmp_path, join(head, rows, tail), "lists 15 vertices; its 4x3 window holds 16")


def test_loader_refuses_a_window_its_vertices_cannot_cover(tmp_path):
    """The header's window is refused before any array of its size is
    allocated (here 1.5 TiB of values)."""
    head, rows, tail = vertex_lines(small_text())
    head[1] = '  "window": {"W": 100000000000, "M": 1},'
    rejects(tmp_path, join(head, rows[:1], tail),
            "lists 1 vertices; its 100000000000x1 window holds 200000000000")


def test_loader_refuses_header_numbers_that_are_not_integers(tmp_path):
    fo = build_forest(WeightField(1, WeightProfile.STRETCH, Window(3, 1)))
    for key, bad in (("W", 3.7), ("M", True), ("seed", 1.9), ("seed", True), ("W", "3")):
        doc = json.loads(snapshot_text(fo))
        if key == "seed":
            doc["seed"] = bad
        else:
            doc["window"][key] = bad
        rejects(tmp_path, json.dumps(doc), r"malformed snapshot .*: W, M and seed must be integers")


@pytest.mark.parametrize("seed", [2**64, -1])
def test_loader_refuses_a_seed_outside_64_bits(tmp_path, seed):
    text = small_text().replace('"seed": 5,', f'"seed": {seed},')
    rejects(tmp_path, text, rf"malformed snapshot .*: seeds must lie in 0..2\*\*64-1, got {seed}$")


def test_loader_rejects_bad_parent_dir_letter(tmp_path):
    rejects(tmp_path, edit(small_text(), 3, 1, "parentDir", '"U"'),
            r'line 11 reads .*"parentDir": "U".* where the writer writes .*"x": 3, "y": 1,')


def test_loader_rejects_duplicate_vertex(tmp_path):
    head, rows, tail = vertex_lines(small_text())
    # the same vertex twice, once under a lifted x, with an equal record
    twin = rows[line_no(2, 2) - 6].replace('"x": 2', '"x": 10')
    rejects(tmp_path, join(head, rows + [twin], tail),
            "lists 17 vertices; its 4x3 window holds 16")


def test_loader_takes_only_the_writers_vertex_order(tmp_path):
    """Vertex i of a W-wide window sits at level i // W, column i % W, so
    x = (y & 1) + 2 * (i % W); the first line out of place is named, with
    the line the writer writes there."""
    head, rows, tail = vertex_lines(small_text())
    rejects(tmp_path, join(head, rows[::-1], tail),
            r"line 6 reads '    \{\"x\": 7, \"y\": 3, .* where the writer writes "
            r"'    \{\"x\": 0, \"y\": 0, ")
    swapped = list(rows)
    swapped[5], swapped[9] = rows[9], rows[5]
    rejects(tmp_path, join(head, swapped, tail),
            r"line 11 reads '    \{\"x\": 2, \"y\": 2, .* where the writer writes "
            r"'    \{\"x\": 3, \"y\": 1, ")
    # the same vertex one period over
    rejects(tmp_path, edit(small_text(), 2, 2, "x", "10"),
            r"line 15 reads '    \{\"x\": 10, \"y\": 2, .* where the writer writes "
            r"'    \{\"x\": 2, \"y\": 2, ")


def test_loader_refuses_a_boundary_parent_dir(tmp_path):
    rejects(tmp_path, edit(small_text(), 0, 0, "parentDir", '"L"'),
            r'line 6 reads .*"parentDir": "L".* where the writer writes .*"parentDir": null')
    # null above the boundary is the writer's text of a missing parent.  It
    # names no edge, so the root label derived through it is some other
    # vertex's; where that differs from the file's rootX the line is named,
    # and where it agrees the block's forest check refuses the missing parent
    rejects(tmp_path, edit(small_text(), 1, 1, "parentDir", "null"),
            r'line 10 reads .*"parentDir": null, "rootX": 2\}.* where the writer writes '
            r'.*"parentDir": null, "rootX": 4\}')
    rejects(tmp_path, edit(small_text(), 2, 2, "parentDir", "null"),
            r"inconsistent snapshot .*: vertex \(2, 2\) has parent direction code -1; "
            "above the boundary it must be L or R")


def test_loader_refuses_a_profile_that_is_not_a_label(tmp_path):
    for bad in ({"not": "a label"}, "foo"):
        text = small_text().replace('"profile": "stretch"', f'"profile": {json.dumps(bad)}')
        rejects(tmp_path, text, rf"profile {re.escape(repr(bad))} is not one of "
                                "stretch, eden, decreasing, sidla")


def test_loader_takes_the_value_key_the_label_sets(tmp_path):
    rejects(tmp_path, small_text().replace('"dist"', '"occupancy_time"'),
            r"line 6 reads .*\"occupancy_time\": 0, .* where the writer writes .*\"dist\": 0, ")
    rejects(tmp_path, small_text().replace('"stretch"', '"sidla"'),
            r"line 6 reads .*\"dist\": 0, .* where the writer writes .*\"occupancy_time\": 0, ")


@pytest.mark.parametrize("x,y,key,token", [
    pytest.param(1, 1, "rootX", "2.5", id="1-1-rootX-2.5-integer"),
    pytest.param(3, 1, "x", '"3"', id="3-1-x-3-integer"),
    # the value's text, as a string
    pytest.param(1, 3, "dist", "repr", id="1-3-dist-repr-number"),
    pytest.param(0, 0, "dist", "false", id="0-0-dist-False-number"),  # a boundary time
    pytest.param(1, 1, "y", "1.0", id="1-1-y-1.0-integer"),
])
def test_loader_refuses_mistyped_vertex_fields(tmp_path, capsys, x, y, key, token):
    """x, y and rootX are the writer's integers and the value its number; a
    bool, float or string is refused, naming the line, where each of these
    loaded before the loader required JSON types."""
    text = small_text()
    if token == "repr":
        token = '"%s"' % re.search(rf'"x": {x}, "y": {y}, "dist": ([^,]+),', text).group(1)
    rejects(tmp_path, edit(text, x, y, key, token),
            rf"line {line_no(x, y)} reads .*\"{key}\": {re.escape(token)}.* where the writer "
            rf"writes '    \{{\"x\": {x}, \"y\": {y}, ")
    assert main(["render", "--in", str(tmp_path / "bad.json"),
                 "--out", str(tmp_path / "x.svg")]) == 1
    assert f"line {line_no(x, y)} reads" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("x,y,key,token", [
    (1, 3, "dist", "7.50"), (3, 1, "dist", " 2"), (1, 3, "rootX", "+0"), (1, 3, "rootX", "00"),
])
def test_loader_refuses_numbers_the_writer_writes_otherwise(tmp_path, x, y, key, token):
    """JSON numbers that %.17g or %d would not write are refused too."""
    rejects(tmp_path, edit(small_text(), x, y, key, token),
            rf"line {line_no(x, y)} reads .*\"{key}\": {re.escape(token)}.* where the writer "
            rf"writes '    \{{\"x\": {x}, \"y\": {y}, ")


def test_loader_rejects_root_contradicting_parent_chain(tmp_path):
    root = json.loads(small_text())["vertices"][line_no(3, 3) - 6]["rootX"]
    rejects(tmp_path, edit(small_text(), 3, 3, "rootX", (root + 2) % 8),
            rf'line 19 reads .*"rootX": {(root + 2) % 8}\}}.* where the writer writes '
            rf'.*"rootX": {root}\}}')


@pytest.mark.parametrize("seed,x,y,root", [
    (1, 4, 2, 6),  # the first line of a block, its level begun in the block before
    (3, 0, 2, 10),  # a root at the seam column, its tree across the seam
    (1, 11, 1, 0),  # a root at column 0, its tree across the seam
])
def test_loader_derives_roots_of_a_level_split_between_blocks(tmp_path, monkeypatch, seed,
                                                              x, y, root):
    """With 7 lines per reader block on a 6-wide window, every level above
    the boundary is split between two blocks.  The root labels, derived one
    level segment at a time, reload the forest exactly, and a rootX edited
    in a split level is refused, naming its line."""
    monkeypatch.setattr(fpp, "TEXT_BLOCK", 7)
    W = 6
    fo = build_forest(WeightField(seed, WeightProfile.STRETCH, Window(W, 4)))
    assert fo.root_x[y, x // 2] == root
    text = snapshot_text(fo)
    path = tmp_path / "f.json"
    path.write_bytes(text)
    assert_same_snapshot(load_snapshot(str(path)), fo)
    other = (root + 2) % (2 * W)
    rejects(tmp_path, edit(text.decode(), x, y, "rootX", other, W),
            rf'line {line_no(x, y, W)} reads .*"x": {x}, "y": {y}, .*"rootX": {other}\}}.* '
            rf'where the writer writes .*"rootX": {root}\}}')


@pytest.mark.parametrize("x,y,key,token,fault", [
    (4, 2, "dist", "0", "a value below its parent's"),
    # code -1 reads the tail at column 0 of level 1, whose root is the file's
    (10, 2, "parentDir", "null",
     "parent direction code -1; above the boundary it must be L or R"),
])
def test_loader_checks_a_parsed_block_against_a_rebuilt_parent(tmp_path, monkeypatch,
                                                                x, y, key, token, fault):
    """With 7 lines per reader block, a fault in the third block of a 6x4
    snapshot leaves the first two equal to the rebuild: parsing starts at
    the third, whose forest check refuses the vertex, its parent's row
    taken from a rebuilt block."""
    monkeypatch.setattr(fpp, "TEXT_BLOCK", 7)
    fo = build_forest(WeightField(1, WeightProfile.STRETCH, Window(6, 4)))
    parsed = []

    def read_rows(forest, data, at, lo, hi, _fn=fpp._read_rows):
        parsed.append(lo)
        return _fn(forest, data, at, lo, hi)

    monkeypatch.setattr(fpp, "_read_rows", read_rows)
    rejects(tmp_path, edit(snapshot_text(fo).decode(), x, y, key, token, 6),
            rf"^inconsistent snapshot .*: vertex \({x}, {y}\) has {re.escape(fault)}$")
    assert parsed == [14]


# 129 levels of 160 vertices: 20,640 lines, more than one reader block
WIDE = Window(160, 128)


def load_counting(path, monkeypatch):
    """load_snapshot of path, with its build_forest, _read_rows and
    _check_parsed calls counted."""
    calls = {"build_forest": 0, "_read_rows": 0, "_check_parsed": 0}
    for name in calls:
        def counted(*args, _fn=getattr(fpp, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(fpp, name, counted)
    return load_snapshot(str(path)), calls


@pytest.mark.parametrize("profile", [p.value for p in WeightProfile])
def test_loader_takes_the_rebuilt_forest_when_the_bytes_match(tmp_path, monkeypatch, profile):
    """A profile's snapshot is its header's rebuild: one build_forest
    call, no block parsed, and the forest that was written, bit for bit."""
    assert (WIDE.M + 1) * WIDE.W > fpp.TEXT_BLOCK
    fo = build_forest(WeightField(1, WeightProfile(profile), WIDE))
    path = tmp_path / "f.json"
    path.write_bytes(snapshot_text(fo))
    loaded, calls = load_counting(path, monkeypatch)
    assert_same_snapshot(loaded, fo)
    assert calls == {"build_forest": 1, "_read_rows": 0, "_check_parsed": 0}


def raise_one_top_value(fo):
    fo.values[-1, 7] = np.nextafter(fo.values[-1, 7], np.inf)
    return fo


@pytest.mark.parametrize("written,parsed", [
    # another seed's forest under seed 1's header differs from level 1 on
    (lambda: dataclasses.replace(build_forest(WeightField(2, WeightProfile.STRETCH, WIDE)),
                                 seed=1), 2),
    # a top-level value one ulp up, in the second block: no check refuses it
    (lambda: raise_one_top_value(build_forest(WeightField(1, WeightProfile.STRETCH, WIDE))), 1),
], ids=["seed-2-forest", "one-ulp-up"])
def test_loader_parses_from_the_first_block_the_rebuild_misses(tmp_path, monkeypatch,
                                                               written, parsed):
    """A file the writer could have written that is not its header's
    rebuild loads as written: parsed from the first block that differs."""
    fo = written()
    path = tmp_path / "f.json"
    path.write_bytes(snapshot_text(fo))
    loaded, calls = load_counting(path, monkeypatch)
    assert_same_snapshot(loaded, fo)
    assert calls == {"build_forest": 1, "_read_rows": parsed, "_check_parsed": parsed}


def test_loader_parses_a_file_it_has_no_rebuild_for(tmp_path, monkeypatch):
    """A particle run's snapshot, and a header whose rebuild raises
    ConfigError, are parsed whole."""
    state = run_until_covered(WIDE, 4, method="jumps")
    path = tmp_path / "run.json"
    path.write_bytes(snapshot_text(state.forest))
    loaded, calls = load_counting(path, monkeypatch)
    assert_same_snapshot(loaded, state.forest)
    assert calls == {"build_forest": 0, "_read_rows": 2, "_check_parsed": 2}
    fo = build_forest(WeightField(1, WeightProfile.EDEN, WIDE))
    path.write_bytes(snapshot_text(fo))

    def refused(field):
        raise ConfigError("refused")

    monkeypatch.setattr(fpp, "build_forest", refused)
    loaded, calls = load_counting(path, monkeypatch)
    assert_same_snapshot(loaded, fo)
    assert calls["_read_rows"] == calls["_check_parsed"] == 2


def test_loader_names_a_corrupt_byte_after_a_block_that_matched(tmp_path):
    """One byte changed in the second block: the message is the one the
    loader gave when it parsed every block."""
    fo = build_forest(WeightField(1, WeightProfile.STRETCH, WIDE))
    lines = bytes(snapshot_text(fo)).split(b"\n")
    assert lines[20005].endswith(b'"parentDir": "R", "rootX": 314},')
    lines[20005] = lines[20005].replace(b'"R"', b'"U"')
    path = tmp_path / "bad.json"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ConfigError) as refused:
        load_snapshot(str(path))
    # the message recorded where every block was parsed
    file_line = ('    {"x": 1, "y": 125, "dist": 1.0030208351640077e+37, "parentDir": "U", '
                 '"rootX": 314},\n')
    writer_line = file_line.replace('"U"', "null")
    assert str(refused.value) == (f"snapshot {path} line 20006 reads {file_line!r} "
                                  f"where the writer writes {writer_line!r}")


def test_loader_rejects_wrong_boundary_label_and_falling_value(tmp_path):
    rejects(tmp_path, edit(small_text(), 2, 0, "rootX", 4),
            r'line 7 reads .*"x": 2, "y": 0, .*"rootX": 4\}.* where the writer writes '
            r'.*"rootX": 2\}')
    rejects(tmp_path, edit(small_text(), 1, 3, "dist", -1),
            r"vertex \(1, 3\) has a value below its parent's")


def test_loader_rejects_non_finite_values(tmp_path):
    # JSON has no such tokens; the writer's own guard refuses the value
    for x, y in ((1, 3), (3, 1)):
        for bad in ("Infinity", "-Infinity", "NaN"):
            rejects(tmp_path, edit(small_text(), x, y, "dist", bad),
                    rf"dist is not finite at level {y} \(stretch, 4x3\)")


def test_loader_names_the_first_line_of_a_reformatted_snapshot(tmp_path):
    """json.dumps of a valid snapshot holds the same values, in other
    bytes; so do CRLF line ends."""
    rejects(tmp_path, json.dumps(small_snapshot()),
            r"line 1 reads '\{\"window\": \{\"W\": 4, \"M\": 3\}, .*\.\.\. where the writer "
            r"writes '\{\\n'$")
    rejects(tmp_path, small_text().replace("\n", "\r\n"),
            r"line 1 reads '\{\\r\\n' where the writer writes '\{\\n'$")


def test_loader_refuses_bytes_after_the_end_and_a_truncated_file(tmp_path):
    text = small_text()
    rejects(tmp_path, text + "\n", r"line 24 reads '\\n' where the writer ends the file")
    rejects(tmp_path, text + '{"x": 0}', r"line 24 reads '\{\"x\": 0\}' where the writer "
                                         "ends the file")
    rejects(tmp_path, text[:-1], r"line 23 reads '\}' where the writer writes '\}\\n'")
    path = tmp_path / "cut.json"
    for cut in (4, 7, 40, len(text) // 2, len(text) - 60):
        path.write_text(text[:-cut])
        with pytest.raises(ConfigError):
            load_snapshot(str(path))


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
