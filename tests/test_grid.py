import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rooklink import (EmptySubgridError, InvalidVertexError, ProblemContractError,
                      ProductGraph, Subgrid, Vertex)
from rooklink.grid import flip

from helpers import neighbors


@st.composite
def subgrids(draw, max_dim=4):
    d1 = draw(st.integers(0, max_dim))
    d2 = draw(st.integers(0, max_dim))
    base = ProductGraph(d1, d2)
    rows = draw(st.sets(st.integers(0, d1), min_size=1))
    cols = draw(st.sets(st.integers(0, d2), min_size=1))
    return Subgrid(base, tuple(rows), tuple(cols))


class TestAdjacency:
    # adjacency is membership in the tests' neighbors(), the one query for it
    def test_same_row(self):
        g = ProductGraph(2, 3).subgrid()
        assert Vertex(0, 3) in neighbors(g, Vertex(0, 0))

    def test_same_column(self):
        g = ProductGraph(2, 3).subgrid()
        assert Vertex(0, 1) in neighbors(g, Vertex(2, 1))

    def test_diagonal_not_adjacent(self):
        g = ProductGraph(2, 3).subgrid()
        assert Vertex(1, 1) not in neighbors(g, Vertex(0, 0))

    def test_out_of_range(self):
        g = ProductGraph(2, 3).subgrid()
        with pytest.raises(InvalidVertexError):
            neighbors(g, Vertex(3, 0))

    @settings(deadline=None)
    @given(subgrids(), st.data())
    def test_symmetric_irreflexive(self, sub, data):
        verts = sorted(sub.vertices())
        u = data.draw(st.sampled_from(verts))
        v = data.draw(st.sampled_from(verts))
        assert u not in neighbors(sub, u)
        assert (v in neighbors(sub, u)) == (u in neighbors(sub, v))


class TestNeighbors:
    def test_full_grid_degree(self):
        sub = ProductGraph(2, 3).subgrid()
        assert len(neighbors(sub, Vertex(0, 0))) == 5

    def test_two_by_two_is_a_cycle(self):
        sub = Subgrid(ProductGraph(2, 3), (1, 2), (2, 3))
        assert neighbors(sub, Vertex(1, 2)) == {Vertex(2, 2), Vertex(1, 3)}

    def test_single_row_clique(self):
        sub = Subgrid(ProductGraph(0, 2), (0,), (0, 1, 2))
        assert neighbors(sub, Vertex(0, 1)) == {Vertex(0, 0), Vertex(0, 2)}

    def test_inactive_vertex(self):
        sub = Subgrid(ProductGraph(2, 3), (1, 2), (2, 3))
        with pytest.raises(InvalidVertexError):
            neighbors(sub, Vertex(0, 0))

    @settings(deadline=None)
    @given(subgrids())
    def test_degree_formula(self, sub):
        expected = (sub.n_rows - 1) + (sub.n_cols - 1)
        for v in sub.vertices():
            assert len(neighbors(sub, v)) == expected
        assert sub.vertex_count == sub.n_rows * sub.n_cols


class TestSubgrid:
    @settings(deadline=None)
    @given(subgrids())
    def test_vertices_are_row_major_and_fresh(self, sub):
        # labels with gaps included; each call is a new one-pass iterator
        nested = [Vertex(r, c) for r in sub.rows for c in sub.cols]
        cells = sub.vertices()
        assert list(cells) == nested == sorted(sub.vertices())
        assert list(cells) == [] and list(sub.vertices()) == nested
        assert all(type(v) is Vertex for v in sub.vertices())

    def test_full_subgrid_is_built_once(self):
        g = ProductGraph(2, 3)
        sub = g.subgrid()
        assert ProductGraph(2, 3).subgrid() is sub
        assert sub == Subgrid(g, (0, 1, 2), (0, 1, 2, 3)) and sub.base == g

    def test_no_rows_raises(self):
        with pytest.raises(EmptySubgridError):
            Subgrid(ProductGraph(1, 1), (), (0, 1))


class TestTranspose:
    def test_vertex_map(self):
        assert flip(Vertex(1, 2)) == Vertex(2, 1)

    def test_mirror_is_a_plain_tuple(self):
        # the solver mirrors every live terminal at a transpose; a Vertex
        # would cost several times as much to build, and compares equal
        assert type(flip(Vertex(1, 2))) is tuple

    @given(st.integers(0, 9), st.integers(0, 9))
    def test_involution(self, r, c):
        assert flip(flip(Vertex(r, c))) == Vertex(r, c)


class TestProductGraph:
    def test_vertices_are_row_major_and_the_subgrids(self):
        g = ProductGraph(2, 3)
        row_major = [Vertex(r, c) for r in range(3) for c in range(4)]
        assert list(g.vertices()) == row_major == list(g.subgrid().vertices())

    def test_dimension_sum_is_capped(self):
        assert ProductGraph(40_000, 60_000).vertex_count == 40_001 * 60_001
        with pytest.raises(ProblemContractError, match=r"d1 \+ d2 = 100001 > 100000"):
            ProductGraph(1, 100_000)
