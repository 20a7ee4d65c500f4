import xml.etree.ElementTree as ET

import pytest

from oracles import reference_render_svg, root_color
from sidlalab.errors import ConfigError
from sidlalab.fpp import WeightField, WeightProfile, build_forest
from sidlalab.lattice import Window
from sidlalab.render import RenderOptions, render_svg
from sidlalab.sidla import run_until_covered


def forest(seed=21, W=8, M=6):
    return build_forest(
        WeightField(seed=seed, profile=WeightProfile.STRETCH, window=Window(W, M))
    )


def test_options_validation():
    RenderOptions()
    with pytest.raises(ConfigError):
        RenderOptions(scale=0.0)
    with pytest.raises(ConfigError):
        RenderOptions(max_level=-1)


def test_root_color_avoids_highlight_red():
    for x in range(0, 64, 2):
        c = root_color(x)
        assert c.startswith("hsl(")
        hue = int(c[4:].split(",")[0])
        assert 25 <= hue < 325


@pytest.mark.parametrize("W", [1, 2, 7, 300, 1024])
def test_palette_is_the_scalar_reference_for_every_root(W):
    """render_svg takes every root's hue from one vector hash: its circle
    fills are the reference root_color of each root but the highlighted one,
    and the whole drawing is the oracle's, byte for byte, highlighting no
    root, root 0, the last root, an odd x (no root) and a negative x taken
    mod the period."""
    fo = forest(seed=W, W=W, M=min(W, 2))
    for hr in (None, 0, 2 * W - 2, 3, -2 * W - 2):
        opts = RenderOptions(highlight_root=hr)
        svg = render_svg(fo, opts)
        assert svg == reference_render_svg(fo, opts).encode()
        lit = None if hr is None else hr % (2 * W)
        fills = [el.get("fill") for el in ET.fromstring(svg).iter() if el.tag.endswith("circle")]
        assert fills == ["#d81b2a" if x == lit else root_color(x) for x in range(0, 2 * W, 2)]


def test_svg_well_formed_and_complete():
    fo = forest()
    svg = render_svg(fo)
    doc = ET.fromstring(svg)
    assert doc.tag.endswith("svg")
    lines = [el for el in doc.iter() if el.tag.endswith("line")]
    # exactly one segment per interior vertex
    assert len(lines) == fo.window.W * fo.window.M
    n_red = sum(1 for el in lines if el.get("stroke") == "#d81b2a")
    n_highlight = sum(1 for row in fo.root_x[1:] for x in row if int(x) == 0)
    assert n_red == n_highlight > 0
    circles = [el for el in doc.iter() if el.tag.endswith("circle")]
    assert len(circles) == fo.window.W


def test_highlight_present_and_red():
    svg = render_svg(forest(), RenderOptions(highlight_root=0))
    assert b"#d81b2a" in svg
    svg_none = render_svg(forest(), RenderOptions(highlight_root=None))
    assert b"#d81b2a" not in svg_none


def test_max_level_truncates():
    fo = forest()
    full = render_svg(fo, RenderOptions(highlight_root=None))
    cropped = render_svg(fo, RenderOptions(highlight_root=None, max_level=2))
    n_full = full.count(b"<line")
    n_cropped = cropped.count(b"<line")
    assert n_cropped == fo.window.W * 2
    assert n_full > n_cropped


def test_render_svg_refuses_coordinates_six_digits_cannot_hold():
    """Coordinates are written with 6 significant digits: at 500,000 columns
    the boundary circles would share 20,001 cx texts among 83,334 of them,
    so the drawing is refused before any of it is built."""
    with pytest.raises(ConfigError, match=r"the 500000x1 drawing at scale 12 needs more than 6 "
                                          r"significant digits: .* written 1\.00002e\+07, 4 of "
                                          r"a lattice step off \(at most 0\.01\)$"):
        render_svg(forest(seed=1, W=500_000, M=1))


def test_byte_determinism():
    fo = forest(seed=5)
    assert render_svg(fo) == render_svg(fo)


def test_no_full_width_seam_segments():
    """Seam-crossing edges must be drawn locally, never as a segment
    spanning the whole image."""
    fo = forest(seed=9, W=6, M=6)
    doc = ET.fromstring(render_svg(fo, RenderOptions(scale=10.0)))
    width = 6 * 2 * 10.0
    for el in doc.iter():
        if el.tag.endswith("line"):
            dx = abs(float(el.get("x1")) - float(el.get("x2")))
            assert dx < width / 2


def test_renders_particle_state_too():
    state = run_until_covered(Window(6, 4), seed=3, method="jumps")
    svg = render_svg(state.forest)
    ET.fromstring(svg)
    assert b"sidla" in svg  # the forest label lands in the metadata title
