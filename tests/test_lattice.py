import pytest
from hypothesis import given, strategies as st

from oracles import (
    Edge,
    Vertex,
    boundary,
    canonicalize,
    column_of,
    contains,
    dir_dx,
    dir_from_letter,
    dir_letter,
    edge_str,
    head,
    in_cone,
    in_edges,
    is_valid,
    level_vertices,
    out_edges,
    rel_x,
    vertex_at,
)
from sidlalab.errors import ConfigError
from sidlalab.lattice import Dir, Window, tail_column

valid_vertices = st.builds(
    lambda j, y: Vertex(2 * j + (y & 1), y),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=0, max_value=40),
)


def test_dir_basics():
    assert dir_dx(Dir.LEFT) == -1 and dir_dx(Dir.RIGHT) == 1
    assert dir_letter(Dir.LEFT) == "L" and dir_letter(Dir.RIGHT) == "R"
    assert dir_from_letter("L") is Dir.LEFT
    assert dir_from_letter("R") is Dir.RIGHT
    with pytest.raises(ValueError):
        dir_from_letter("X")


def test_vertex_validity():
    assert is_valid(Vertex(0, 0))
    assert is_valid(Vertex(-3, 1))
    assert not is_valid(Vertex(1, 0))  # parity
    assert not is_valid(Vertex(0, -2))  # below the boundary


def test_head_and_level():
    # an edge's level is its head's
    e = Edge(Vertex(0, 0), Dir.RIGHT)
    assert head(e) == Vertex(1, 1)
    e2 = Edge(Vertex(-1, 3), Dir.LEFT)
    assert head(e2) == Vertex(-2, 4)


def test_window_validation():
    Window(4, 4)
    Window(8, 3)
    with pytest.raises(ConfigError):
        Window(0, 1)
    with pytest.raises(ConfigError):
        Window(4, 0)
    with pytest.raises(ConfigError):
        Window(3, 4)  # wider than tall is required


def test_window_canonicalize():
    win = Window(4, 4)
    assert win.period == 8
    assert canonicalize(win, Vertex(8, 0)) == Vertex(0, 0)
    assert canonicalize(win, Vertex(-1, 1)) == Vertex(7, 1)
    assert canonicalize(win, Vertex(9, 3)) == Vertex(1, 3)


def test_window_rel_x_is_centered_lift():
    win = Window(4, 4)
    # lifts into (-W, W]
    assert rel_x(win, Vertex(0, 0), Vertex(0, 0)) == 0
    assert rel_x(win, Vertex(6, 0), Vertex(0, 0)) == -2
    assert rel_x(win, Vertex(4, 0), Vertex(0, 0)) == 4
    assert rel_x(win, Vertex(2, 0), Vertex(4, 0)) == -2


def test_window_columns_and_vertices():
    win = Window(4, 4)
    assert [column_of(win, Vertex(x, 0)) for x in (0, 2, 4, 6)] == [0, 1, 2, 3]
    assert column_of(win, Vertex(8, 0)) == 0
    assert vertex_at(win, 2, 1) == Vertex(2, 2)
    level1 = level_vertices(win, 1)
    assert level1 == [Vertex(1, 1), Vertex(3, 1), Vertex(5, 1), Vertex(7, 1)]
    assert boundary(win) == [Vertex(0, 0), Vertex(2, 0), Vertex(4, 0), Vertex(6, 0)]
    assert all(contains(win, v) for v in level1)
    assert not contains(win, Vertex(0, 5))


def test_in_cone_plain():
    base = Vertex(0, 0)
    assert in_cone(base, base)
    assert in_cone(base, Vertex(-1, 1))
    assert in_cone(base, Vertex(3, 3))
    assert not in_cone(base, Vertex(4, 2))
    assert not in_cone(base, Vertex(-3, 1))


def test_in_cone_wraps_inside_window():
    win = Window(3, 3)  # period 6
    # (-1,1) is one step left of 0; canonically x=5
    assert in_cone(Vertex(0, 0), Vertex(5, 1), win)
    assert not in_cone(Vertex(0, 0), Vertex(5, 0), win)


@given(valid_vertices)
def test_out_in_edge_consistency(v):
    for e in out_edges(v):
        assert e.tail == v
        assert is_valid(head(e))
    if v.y > 0:
        e_r, e_l = in_edges(v)
        assert e_r.dir is Dir.RIGHT and e_l.dir is Dir.LEFT
        assert head(e_r) == v and head(e_l) == v


def test_in_edges_canonicalized_in_window():
    win = Window(3, 3)
    e_r, e_l = in_edges(Vertex(0, 2), win)
    assert e_r.tail == canonicalize(win, Vertex(-1, 1))
    assert e_l.tail == Vertex(1, 1)


@given(valid_vertices, st.sampled_from(list(Dir)))
def test_edge_str_roundtrip(v, d):
    xs, ys, letter = edge_str(Edge(v, d)).split(",")
    assert Edge(Vertex(int(xs), int(ys)), dir_from_letter(letter)) == Edge(v, d)


def test_a_vertexs_tails_and_heads_share_two_columns():
    """For every level parity and column: the edge by d from column c of
    level y enters column (c + d - ((y + 1) & 1)) % W, the inverse of
    tail_column; and a vertex's two tails and two heads occupy the same two
    columns, left = the Right in-edge's tail column and (left + 1) % W, the
    Left in-edge's, which are also the Left and the Right out-edge's heads.
    For the vertex claimed through that edge, left = (c + d - 1) % W.  W = 1
    and 2 are where left + 1 wraps."""
    for W in range(1, 8):
        for y in (1, 2, 3, 4):
            for c in range(W):
                for d in Dir:
                    j = (c + d - ((y + 1) & 1)) % W
                    assert tail_column(W, y + 1, j, d) == c
                    assert tail_column(W, y + 1, j, Dir.RIGHT) == (c + d - 1) % W
            for j in range(W):
                tails = [tail_column(W, y, j, d) for d in (Dir.RIGHT, Dir.LEFT)]
                heads = [[h for h in range(W) if tail_column(W, y + 1, h, d) == j]
                         for d in (Dir.LEFT, Dir.RIGHT)]
                left = tails[0]
                assert tails == [left, (left + 1) % W]
                assert heads == [[left], [(left + 1) % W]]
