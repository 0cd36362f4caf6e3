import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (_FlowNet, all_pairs_connectivity, brute_ab_feasible, brute_connectivity,
                     brute_local_connectivity, check_ab_system, disjoint_paths)
from rooklink import ProductGraph, Subgrid, Vertex, connectivity, menger
from rooklink.cli import EXIT_INTERNAL, main


def full(d1, d2):
    return ProductGraph(d1, d2).subgrid()


class TestDisjointPaths:
    def test_direct_edge_in_row_clique(self):
        sub = Subgrid(ProductGraph(0, 2), (0,), (0, 1, 2))
        ps = disjoint_paths(sub, [Vertex(0, 0)], [Vertex(0, 2)], (), 1)
        assert ps == [[Vertex(0, 0), Vertex(0, 2)]]

    def test_endpoint_in_both_sets(self):
        sub = full(2, 2)
        ps = disjoint_paths(sub, [Vertex(1, 1)], [Vertex(1, 1)], (), 1)
        assert ps == [[Vertex(1, 1)]]

    def test_five_disjoint_paths_between_any_five_sets(self):
        # the 3x4 grid is 5-connected, so any disjoint 5-sets are joinable
        sub = full(2, 3)
        rng = random.Random(5)
        verts = sorted(sub.vertices())
        for _ in range(25):
            picked = rng.sample(verts, 10)
            a_set, b_set = picked[:5], picked[5:]
            ps = disjoint_paths(sub, a_set, b_set, (), 5)
            assert ps is not None
            check_ab_system(sub, ps, a_set, b_set)

    def test_k_too_large_is_contract_error(self):
        sub = full(1, 1)
        with pytest.raises(ValueError):
            disjoint_paths(sub, [Vertex(0, 0)], [Vertex(1, 1)], (), 2)

    def test_forbidden_endpoint_is_contract_error(self):
        sub = full(1, 1)
        with pytest.raises(ValueError):
            disjoint_paths(sub, [Vertex(0, 0)], [Vertex(1, 1)], [Vertex(0, 0)], 1)

    def test_infeasible_is_none(self):
        # separate opposite corners of a 4-cycle by forbidding both cut vertices
        sub = full(1, 1)
        ps = disjoint_paths(sub, [Vertex(0, 0)], [Vertex(1, 1)],
                            [Vertex(0, 1), Vertex(1, 0)], 1)
        assert ps is None

    def test_deterministic(self):
        sub = full(2, 3)
        args = ([Vertex(0, 0), Vertex(1, 0)], [Vertex(2, 3), Vertex(0, 2)], [Vertex(1, 2)], 2)
        first = disjoint_paths(sub, *args)
        second = disjoint_paths(sub, *args)
        assert first == second

    def test_lexicographically_smallest_starts_kept(self):
        sub = full(2, 2)
        a_set = [Vertex(0, 0), Vertex(1, 0), Vertex(2, 0)]
        b_set = [Vertex(0, 2), Vertex(1, 2), Vertex(2, 2)]
        ps = disjoint_paths(sub, a_set, b_set, (), 2)
        assert [p[0] for p in ps] == [Vertex(0, 0), Vertex(1, 0)]


class TestFlowNet:
    def test_network_is_pinned(self):
        # arc targets, adjacency order and capacities of seeded networks on
        # subgrids with gapped labels, forbidden cells and unsorted A/B
        # lists, as built and after the max flow: the arc order fixes which
        # augmenting path each BFS finds, so equal digests mean equal flows
        rng = random.Random(18)
        base = ProductGraph(11, 11)
        built, flowed = hashlib.sha256(), hashlib.sha256()
        for _ in range(300):
            rows = rng.sample(range(12), rng.randint(1, 8))
            cols = rng.sample(range(12), rng.randint(1, 8))
            sub = Subgrid(base, tuple(rows), tuple(cols))
            cells = list(sub.vertices())
            forbidden = set(rng.sample(cells, rng.randint(0, len(cells) // 3)))
            verts = [v for v in cells if v not in forbidden]
            a_set = rng.sample(verts, rng.randint(1, min(4, len(verts))))
            b_set = rng.sample(verts, rng.randint(1, min(4, len(verts))))
            net = _FlowNet(sub, verts, a_set, b_set)
            built.update(repr((net.to, net.adj, bytes(net.cap))).encode())
            flowed.update(b"%d" % net.max_flow() + bytes(net.cap))
        assert built.hexdigest() == (
            "65da604e7d31d233ce490a79143b67f9e8d1d8126d36c0fd8092de77754452d0")
        assert flowed.hexdigest() == (
            "30afceaee21048238e66220a691f7c9e0627e1c8292634ee32f84af0c4ca75e0")


@st.composite
def flow_instances(draw):
    d1 = draw(st.integers(1, 3))
    d2 = draw(st.integers(1, 3))
    sub = full(d1, d2)
    verts = sorted(sub.vertices())
    a_set = draw(st.sets(st.sampled_from(verts), min_size=1, max_size=3))
    b_set = draw(st.sets(st.sampled_from(verts), min_size=1, max_size=4))
    pool = [v for v in verts if v not in a_set and v not in b_set]
    forbidden = draw(st.sets(st.sampled_from(pool), max_size=3)) if pool else set()
    k = draw(st.integers(1, min(len(a_set), len(b_set))))
    return sub, sorted(a_set), sorted(b_set), sorted(forbidden), k


class TestFlowProperties:
    @settings(deadline=None, max_examples=120)
    @given(flow_instances())
    def test_matches_brute_force_and_is_well_formed(self, inst):
        sub, a_set, b_set, forbidden, k = inst
        ps = disjoint_paths(sub, a_set, b_set, forbidden, k)
        expected = brute_ab_feasible(sub, a_set, b_set, forbidden, k)
        assert (ps is not None) == expected
        if ps is not None:
            assert len(ps) == k
            check_ab_system(sub, ps, a_set, b_set, forbidden)

    @settings(deadline=None, max_examples=60)
    @given(flow_instances(), st.data())
    def test_monotone_under_forbidding(self, inst, data):
        sub, a_set, b_set, forbidden, k = inst
        before = disjoint_paths(sub, a_set, b_set, forbidden, k)
        pool = [v for v in sub.vertices()
                if v not in set(a_set) | set(b_set) | set(forbidden)]
        if not pool:
            return
        extra = data.draw(st.sets(st.sampled_from(sorted(pool)), min_size=1))
        after = disjoint_paths(sub, a_set, b_set, sorted(set(forbidden) | extra), k)
        if before is None:
            assert after is None


class TestConnectivity:
    def test_four_cycle(self):
        assert connectivity(full(1, 1)) == 2

    def test_complete_graph(self):
        assert connectivity(full(0, 3)) == 3

    def test_grid(self):
        assert connectivity(full(2, 3)) == 5

    def test_single_vertex_undefined(self):
        with pytest.raises(ValueError):
            connectivity(full(0, 0))

    def test_matches_dimension_sum_on_small_grids(self):
        # every shape the connectivity benchmark draws, up to 9x9
        for d1 in range(1, 9):
            for d2 in range(1, 9):
                assert connectivity(full(d1, d2)) == d1 + d2

    def test_matches_all_pairs_on_full_grids(self):
        for d1 in range(1, 5):
            for d2 in range(1, 5):
                sub = full(d1, d2)
                assert connectivity(sub) == all_pairs_connectivity(sub)

    def test_matches_all_pairs_on_random_subgrids(self):
        rng = random.Random(10)
        base = ProductGraph(7, 7)
        labels = range(8)
        checked = 0
        while checked < 200:
            n_rows = rng.randint(1, 8)
            n_cols = rng.randint(1, min(8, 30 // n_rows))
            if n_rows * n_cols < 2:
                continue
            sub = Subgrid(base, tuple(rng.sample(labels, n_rows)), tuple(rng.sample(labels, n_cols)))
            assert connectivity(sub) == all_pairs_connectivity(sub), (sub.rows, sub.cols)
            checked += 1

    def test_one_checked_fan_per_pair_and_no_flow(self, monkeypatch):
        # 2(m-1)(n-1) Esfahanian-Hakimi pairs on m x n, each with its own
        # checked fan; no flow network exists in the package to build
        # (test_api.test_module_import_boundaries)
        checked, check_fan = [], menger._check_fan

        def check(s, x, y, paths, k):
            checked.append((x, y))
            check_fan(s, x, y, paths, k)

        monkeypatch.setattr(menger, "_check_fan", check)
        assert connectivity(full(8, 8)) == 16
        assert len(checked) == len(set(checked)) == 128

    def test_fans_are_as_wide_as_the_least_separator(self):
        # on every shape of at most 9 cells with two lines each way, on
        # gapped labels, each nonadjacent pair's fan has as many paths as
        # the pair's smallest separator has cells
        base = ProductGraph(4, 4)
        for rows in ((0, 3), (1, 2, 4), (0, 1, 3, 4)):
            for cols in ((2, 4), (0, 1, 3), (1, 2, 3, 4)):
                sub = Subgrid(base, rows, cols)
                if sub.vertex_count > 9:
                    continue
                cells = list(sub.vertices())
                for x in cells:
                    for y in cells:
                        if x[0] != y[0] and x[1] != y[1]:
                            fan = menger._fan(sub, x, y)
                            menger._check_fan(sub, x, y, fan, len(fan))
                            assert len(fan) == brute_local_connectivity(sub, x, y)

    @pytest.mark.parametrize("breaks", [
        lambda x, y, fan: fan[:1] + [[x, fan[0][1], y]] + fan[2:],  # a shared inner cell
        lambda x, y, fan: fan[:2] + [[x, fan[2][2], y]] + fan[3:],  # a step on no line
        lambda x, y, fan: fan[:2] + [fan[2][:-1]] + fan[3:],  # a wrong end
        lambda x, y, fan: fan[:2] + [[x, (9, x[1]), (9, y[1]), y]] + fan[3:],  # off the board
        lambda x, y, fan: fan[:-1],  # one path short
        # a path too short to have two ends is a broken fan, not an IndexError
        lambda x, y, fan: fan[:-1] + [[]],
        lambda x, y, fan: fan[:-1] + [[x]],
    ], ids=["shared-cell", "off-line-step", "wrong-end", "off-board", "short", "empty-path",
            "one-cell-path"])
    def test_a_broken_fan_is_a_bug(self, monkeypatch, breaks):
        sub = Subgrid(ProductGraph(9, 9), (0, 1, 3), (0, 1, 2, 4))
        x, y = Vertex(0, 0), Vertex(1, 1)
        with pytest.raises(ValueError):
            menger._check_fan(sub, x, y, breaks(x, y, menger._fan(sub, x, y)), 5)
        fan = menger._fan
        monkeypatch.setattr(menger, "_fan", lambda s, x, y: breaks(x, y, fan(s, x, y)))
        with pytest.raises(ValueError):
            connectivity(sub)
        assert main(["connectivity", "2", "3"]) == EXIT_INTERNAL

    def test_an_inactive_end_is_off_the_subgrid(self):
        # x's row is inactive and its column active: x is the path's one
        # inactive cell, and the activity check must reach the ends too
        sub = Subgrid(ProductGraph(2, 2), (1, 2), (0, 1, 2))
        x, y = Vertex(0, 0), Vertex(1, 1)
        with pytest.raises(ValueError):
            menger._check_fan(sub, x, y, [[x, (y[0], x[1]), y]], 1)

    def test_a_path_through_an_end_is_not_internally_disjoint(self):
        # in a whole fan, a path through y would take two of y's neighbours,
        # one too many; a check of fewer paths must catch it on its own
        sub = full(2, 2)
        x, y = Vertex(0, 0), Vertex(1, 1)
        menger._check_fan(sub, x, y, [[x, (0, 1), y]], 1)
        for path in ([x, (0, 1), y, (1, 2), y], [x, (0, 1), x, (1, 0), y]):
            with pytest.raises(ValueError):
                menger._check_fan(sub, x, y, [path], 1)

    def test_subgrid_connectivity(self):
        sub = Subgrid(ProductGraph(3, 4), (0, 2, 3), (1, 4))
        # induced graph is a 3x2 grid: connectivity (3-1) + (2-1)
        assert connectivity(sub) == 3

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_matches_brute_force_minimum_cut(self, d1, d2, data):
        base = ProductGraph(d1, d2)
        rows = data.draw(st.sets(st.integers(0, d1), min_size=1))
        cols = data.draw(st.sets(st.integers(0, d2), min_size=1))
        sub = Subgrid(base, tuple(rows), tuple(cols))
        if sub.vertex_count < 2 or sub.vertex_count > 9:
            return
        assert connectivity(sub) == brute_connectivity(sub)
