import hashlib
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rooklink.oracle
from rooklink.oracle import judged
from helpers import (brute_linkable, brute_orbit_count, corner_instances, fake_pool,
                     pairing_images, symmetry_tables)
from rooklink import (Linkage, LinkageProblem, ProblemContractError, ProductGraph,
                      Subgrid, Verdict, Vertex, VerifyReport,
                      all_pairings, exhaustive_solve, find_infeasible_pairing,
                      max_guaranteed_pairs, random_pairing, solve, verify)

V = Vertex


def problem(d1, d2, *pairs):
    return LinkageProblem(ProductGraph(d1, d2),
                          tuple((V(*s), V(*t)) for s, t in pairs))


class TestVerify:
    def test_accepts_valid_linkage(self):
        p = problem(2, 2, ((0, 0), (2, 0)), ((1, 1), (0, 2)))
        link = Linkage(((V(0, 0), V(2, 0)), (V(1, 1), V(1, 2), V(0, 2))))
        assert verify(p, link).ok

    def test_shared_vertex_names_disjointness(self):
        p = problem(2, 2, ((0, 0), (2, 2)), ((2, 0), (0, 2)))
        link = Linkage((
            (V(0, 0), V(1, 0), V(1, 1), V(2, 1), V(2, 2)),
            (V(2, 0), V(1, 0), V(1, 2), V(0, 2)),
        ))
        report = verify(p, link)
        assert not report.ok
        assert "disjointness" in report.reason and "(1, 0)" in report.reason

    def test_non_adjacent_step_names_adjacency(self):
        p = problem(2, 2, ((0, 0), (1, 1)))
        report = verify(p, Linkage(((V(0, 0), V(1, 1)),)))
        assert not report.ok
        assert "adjacency" in report.reason

    def test_wrong_endpoints(self):
        p = problem(2, 2, ((0, 0), (1, 1)))
        report = verify(p, Linkage(((V(0, 0), V(0, 1)),)))
        assert not report.ok
        assert "endpoints" in report.reason

    def test_wrong_path_count(self):
        p = problem(2, 2, ((0, 0), (1, 1)))
        report = verify(p, Linkage(()))
        assert not report.ok
        assert "path count" in report.reason

    def test_inactive_vertex(self):
        p = problem(1, 1, ((0, 0), (1, 1)))
        report = verify(p, Linkage(((V(0, 0), V(0, 2), V(1, 2), V(1, 1)),)))
        assert not report.ok
        assert "activity" in report.reason

    def test_repeated_vertex(self):
        p = problem(1, 2, ((0, 0), (1, 1)))
        bad = Linkage(((V(0, 0), V(0, 1), V(0, 0), V(1, 0), V(1, 1)),))
        report = verify(p, bad)
        assert not report.ok


class TestVerifyOrder:
    # verify names the first violation: a path's endpoints, then its
    # activity, adjacency and simplicity, and disjointness last of all
    def test_activity_outranks_an_earlier_adjacency_break(self):
        p = problem(1, 1, ((0, 0), (1, 1)))
        report = verify(p, Linkage(((V(0, 0), V(1, 1), V(1, 2), V(1, 1)),)))
        assert report.reason == "activity: path 1 uses inactive vertex (1, 2)"

    def test_simplicity_outranks_disjointness(self):
        p = problem(2, 2, ((0, 0), (0, 2)), ((2, 1), (0, 1)))
        path = (V(0, 0), V(0, 1), V(1, 1), V(0, 1), V(0, 2))
        report = verify(p, Linkage((path, (V(2, 1), V(0, 1)))))
        assert report.reason == "simplicity: path 1 repeats a vertex"
        # and the other way round: path 2 repeats a vertex of path 1
        q = LinkageProblem(p.grid, p.pairs[::-1])
        report = verify(q, Linkage(((V(2, 1), V(0, 1)), path)))
        assert report.reason == "simplicity: path 2 repeats a vertex"

    def test_endpoints_outrank_an_inactive_interior(self):
        p = problem(1, 1, ((0, 0), (1, 1)))
        report = verify(p, Linkage(((V(0, 0), V(0, 2), V(1, 2), V(1, 0)),)))
        assert report.reason == "endpoints: path 1 does not join its pair"

    def test_mutated_linkages_match_recorded_reasons(self):
        # seeded solver linkages on boards and proper subgrids, each with one
        # or two mutations; the reasons' digest was recorded with the
        # four-pass verify that preceded the one-walk verify
        reasons = [verify(p, link).reason or "ok" for p, link in _mutated_linkages(500)]
        assert {r.split(":")[0] for r in reasons} == {
            "ok", "endpoints", "activity", "adjacency", "simplicity", "disjointness"}
        digest = hashlib.sha256("\n".join(reasons).encode()).hexdigest()
        assert digest == "e0d3aa3bf454cd7db524c2c5210d7493a85ef5296d3204ed6c6f19b6a9743526"


def _mutated_linkages(count):
    rng = random.Random(4242)
    for _ in range(count):
        base = ProductGraph(rng.randint(1, 5), rng.randint(2, 5))
        rows, cols = list(range(base.n_rows)), list(range(base.n_cols))
        if rng.random() < 0.5:
            for labels in (rows, cols):
                if len(labels) > 2:
                    labels.remove(rng.choice(labels))
        grid = Subgrid(base, tuple(rows), tuple(cols))
        cells = [V(r, c) for r in rows for c in cols]
        k = rng.randint(1, max(1, LinkageProblem(grid, ()).guaranteed_bound))
        p = LinkageProblem(grid, random_pairing(rng.sample(cells, 2 * k), rng))
        paths = [list(path) for path in solve(p)[0].paths]
        for _ in range(rng.randint(1, 2)):
            kind, i = rng.randrange(4), rng.randrange(k)
            path = paths[i]
            j = rng.randrange(len(path))
            if kind == 0 and len(path) > 2:  # drop an interior cell
                del path[rng.randrange(1, len(path) - 1)]
            elif kind == 1:  # duplicate a cell: any path's, one on a step's line, or a step
                j, pick = rng.randrange(len(path) - 1), rng.randrange(3)
                a, b = path[j], path[j + 1]
                fits = [w for other in paths for w in other if w not in (a, b)
                        and (a[0] == b[0] == w[0] or a[1] == b[1] == w[1])]
                if pick == 0 or pick == 1 and not fits:
                    path.insert(rng.randrange(1, len(path)), rng.choice(rng.choice(paths)))
                elif pick == 1:
                    path.insert(j + 1, rng.choice(fits))
                else:
                    path[j + 2:j + 2] = [a, b]
            elif kind == 2:  # shift a cell along its row or column, perhaps off the board
                r, c = path[j]
                path[j] = V(r + rng.randint(-1, 2), c) if rng.random() < 0.5 else V(r, c + rng.randint(-1, 2))
            elif k > 1:  # swap two paths
                i2 = rng.randrange(k)
                paths[i], paths[i2] = paths[i2], paths[i]
        yield p, Linkage(tuple(tuple(path) for path in paths))


class TestVerifyMetamorphic:
    def _valid_instance(self):
        p = problem(2, 2, ((0, 0), (2, 2)), ((2, 0), (0, 2)))
        link = Linkage((
            (V(0, 0), V(0, 1), V(2, 1), V(2, 2)),
            (V(2, 0), V(1, 0), V(1, 2), V(0, 2)),
        ))
        assert verify(p, link).ok
        return p, link

    def test_pair_permutation_preserves_verdict(self):
        p, link = self._valid_instance()
        for perm in itertools.permutations(range(len(p.pairs))):
            q = LinkageProblem(p.grid, tuple(p.pairs[i] for i in perm))
            swapped = Linkage(tuple(link.paths[i] for i in perm))
            assert verify(q, swapped).ok

    def test_path_reversal_preserves_verdict(self):
        p, link = self._valid_instance()
        for i in range(len(link.paths)):
            paths = list(link.paths)
            paths[i] = tuple(reversed(paths[i]))
            assert verify(p, Linkage(tuple(paths))).ok


class TestExhaustiveSolve:
    def test_adjacent_pair_is_an_edge(self):
        p = problem(2, 2, ((0, 0), (0, 2)))
        verdict = exhaustive_solve(p)
        assert verdict.feasible
        assert verify(p, verdict.witness).ok

    def test_empty_problem(self):
        p = problem(1, 1)
        assert exhaustive_solve(p).feasible

    def test_witness_always_verifies(self):
        grid = ProductGraph(1, 2)
        verts = sorted(grid.subgrid().vertices())
        for tset in itertools.combinations(verts, 4):
            for pairing in all_pairings(tset):
                p = LinkageProblem(grid, tuple(pairing))
                verdict = exhaustive_solve(p)
                if verdict.feasible:
                    assert verify(p, verdict.witness).ok

    def test_budget_exhaustion_is_indeterminate(self):
        p = problem(3, 3, ((0, 0), (1, 1)), ((1, 0), (2, 2)), ((2, 0), (3, 3)))
        verdict = exhaustive_solve(p, node_budget=2)
        assert verdict.indeterminate
        assert verdict.feasible is None
        assert verdict.witness is None

    def test_deterministic_node_counts(self):
        p = problem(2, 3, ((0, 0), (1, 1)), ((1, 0), (2, 2)))
        a = exhaustive_solve(p)
        b = exhaustive_solve(p)
        assert (a.feasible, a.nodes_explored) == (b.feasible, b.nodes_explored)
        assert a.witness == b.witness

    def test_seeded_mix_matches_recorded_digest(self):
        # verdicts, node counts and witnesses of a seeded mix of subgrid
        # problems under three budgets, hashed; the digest was recorded
        # from the recursive set-based search this one replaced
        rng = random.Random(5)
        digest = hashlib.sha256()
        for _ in range(200):
            n_rows, n_cols = rng.randint(1, 4), rng.randint(2, 5)
            rows = tuple(sorted(rng.sample(range(7), n_rows)))
            cols = tuple(sorted(rng.sample(range(7), n_cols)))
            sub = Subgrid(ProductGraph(6, 6), rows, cols)
            verts = sorted(sub.vertices())
            k = rng.randint(1, min(5, len(verts) // 2))
            p = LinkageProblem(sub, tuple(random_pairing(rng.sample(verts, 2 * k), rng)))
            for budget in (None, 5, 50):
                v = exhaustive_solve(p, budget)
                digest.update(repr((v.feasible, v.nodes_explored,
                                    v.witness and v.witness.paths)).encode())
        assert digest.hexdigest() == (
            "9edf0c7f9185047d5da1b444f2458dcf191a5bba4cc33188e7b7acdbeb0d44d5")

    def test_every_budget_boundary(self):
        # a search of N nodes held to a budget b < N stops one node over
        # (at 1 for any b <= 0); from b = N on it ends as unbudgeted, and
        # one decided before any node ignores its budget, negative or not
        rng = random.Random(9)
        kinds = set()
        for _ in range(80):
            rows = tuple(sorted(rng.sample(range(5), rng.randint(1, 3))))
            cols = tuple(sorted(rng.sample(range(5), rng.randint(2, 4))))
            sub = Subgrid(ProductGraph(4, 4), rows, cols)
            verts = sorted(sub.vertices())
            k = rng.randint(1, len(verts) // 2)
            p = LinkageProblem(sub, tuple(random_pairing(rng.sample(verts, 2 * k), rng)))
            full = exhaustive_solve(p)
            n = full.nodes_explored
            kinds.add((full.feasible, n > 0))
            for budget in range(-2, n + 2):
                v = exhaustive_solve(p, budget)
                if 0 < n and budget < n:
                    assert v == Verdict(None, None, max(budget, 0) + 1)
                else:
                    assert v == full
        assert kinds == {(True, True), (False, True), (False, False)}

    def test_setup_memory_is_linear_in_the_pairs(self):
        # each far pair's board-sized bits are built once per search and
        # shared by every position before it (about 0.24 MB peak here);
        # one copy per position would be about 45,000 pairs of them for
        # 300 pairs on 2,401 cells, about 19 MB before the first node
        rng = random.Random(4)
        g = ProductGraph(49, 49)
        verts = sorted(g.subgrid().vertices())
        p = LinkageProblem(g, tuple(random_pairing(rng.sample(verts, 600), rng)))
        exhaustive_solve(p, 0)  # builds the cached board table outside the trace
        tracemalloc.start()
        try:
            assert exhaustive_solve(p, 1).indeterminate
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_labels_do_not_change_the_search(self):
        rows, cols = (1, 4, 7, 8), (0, 2, 5, 9)
        sub = Subgrid(ProductGraph(8, 9), rows, cols)
        plain = ProductGraph(3, 3)
        verts = sorted(plain.vertices())
        rng = random.Random(11)

        def relabel(v):
            return V(rows[v[0]], cols[v[1]])

        for _ in range(60):
            k = rng.randint(1, 4)
            pairs = tuple(random_pairing(rng.sample(verts, 2 * k), rng))
            a = exhaustive_solve(LinkageProblem(plain, pairs))
            q = LinkageProblem(sub, tuple((relabel(s), relabel(t)) for s, t in pairs))
            b = exhaustive_solve(q)
            assert (b.feasible, b.nodes_explored) == (a.feasible, a.nodes_explored)
            if a.feasible:
                assert verify(q, b.witness).ok
                assert b.witness.paths == tuple(tuple(map(relabel, path))
                                                for path in a.witness.paths)

    def test_single_pair_always_feasible_on_connected_grids(self):
        for d1, d2 in [(1, 1), (1, 2), (2, 2), (0, 3)]:
            grid = ProductGraph(d1, d2)
            verts = sorted(grid.subgrid().vertices())
            for s, t in itertools.combinations(verts, 2):
                p = LinkageProblem(grid, ((s, t),))
                assert exhaustive_solve(p).feasible


class TestLinkedness:
    def test_four_cycle_is_one_linked(self):
        res = find_infeasible_pairing(1, 1, 1, exhaustive=True)
        assert res.found is None and res.completed

    def test_three_by_three_is_two_linked(self):
        res = find_infeasible_pairing(2, 2, 2, exhaustive=True)
        assert res.found is None and res.completed

    def test_two_by_three_is_not_two_linked(self):
        res = find_infeasible_pairing(1, 2, 2, exhaustive=True)
        assert res.found is not None and res.completed
        assert exhaustive_solve(res.found).feasible is False
        assert not brute_linkable(res.found)

    @pytest.mark.parametrize("d1,d2,k", [(9, 9, 4), (5, 7, 4), (2, 9, 5)])
    def test_large_board_is_refused_before_any_table_is_built(self, monkeypatch,
                                                              d1, d2, k):
        # each orbit bound is below 5,000, but the sweep would build
        # _row_tables(8) for the 8 x 8 cut of (9,9), and the orbits of the
        # other two take minutes to hours of search, so the default mode
        # samples instead (a node budget keeps it short)
        def refuse(m):
            raise AssertionError(f"_row_tables({m}) built")

        monkeypatch.setattr(rooklink.oracle, "_row_tables", refuse)
        res = find_infeasible_pairing(d1, d2, k, node_budget=2000)
        assert not res.completed and res.found is None

    def test_three_pairs_sweep_on_a_six_by_six_cut(self, monkeypatch):
        # every orbit of 6 terminals has a pairing in the top-left 6 x 6,
        # so the 8 x 8 board needs _row_tables(6), not _row_tables(8)
        tables = rooklink.oracle._row_tables

        def at_most_six(m):
            assert m <= 6, f"_row_tables({m}) built"
            return tables(m)

        monkeypatch.setattr(rooklink.oracle, "_row_tables", at_most_six)
        res = find_infeasible_pairing(7, 7, 3)
        assert res.completed and res.found is None
        assert res.instances_checked == 268

    def test_one_row_board_with_many_pairs_is_one_orbit(self):
        # 29!! pairings, but one orbit, which the default mode sweeps
        # without walking them; sampling is still there when asked for
        res = find_infeasible_pairing(0, 29, 15, count=3)
        assert res.completed and res.found is None and res.instances_checked == 1
        res = find_infeasible_pairing(0, 29, 15, count=3, exhaustive=False)
        assert not res.completed and res.instances_checked == 3

    def test_sampled_mode_finds_the_easy_counterexample(self):
        res = find_infeasible_pairing(1, 2, 2, exhaustive=False, seed=3, count=200)
        assert res.found is not None and res.completed

    def test_sampled_mode_on_linked_grid(self):
        # a sample that comes up empty proves nothing
        res = find_infeasible_pairing(2, 2, 2, exhaustive=False, seed=3, count=50)
        assert res.found is None and not res.completed


class TestSharpness:
    def test_two_by_three_counterexample(self):
        res = find_infeasible_pairing(1, 2, 2)
        assert res.found is not None and res.completed
        assert exhaustive_solve(res.found).feasible is False
        assert not brute_linkable(res.found)

    def test_transposed_family(self):
        res = find_infeasible_pairing(2, 1, 2)
        assert res.found is not None and res.completed
        assert not brute_linkable(res.found)

    def test_three_by_three_has_none(self):
        res = find_infeasible_pairing(2, 2, 2)
        assert res.found is None and res.completed

    def test_budget_gives_incomplete(self):
        res = find_infeasible_pairing(2, 2, 2, node_budget=5)
        assert res.found is None and not res.completed

    def test_random_mode_finds_a_certified_pairing(self):
        res = find_infeasible_pairing(1, 2, 2, exhaustive=False, seed=4, count=300)
        assert res.found is not None and res.completed
        assert exhaustive_solve(res.found).feasible is False
        assert not brute_linkable(res.found)
        # the seeded draws, and so the find and its counts, are pinned
        assert res.found.pairs == (((0, 1), (1, 2)), ((0, 2), (1, 1)))
        assert (res.instances_checked, res.nodes_explored) == (5, 26)

    @pytest.mark.parametrize("d1,d2,k,budget,outcome", [
        (2, 3, 3, 17, (False, 2, 17)),
        (2, 3, 3, 6, (False, 1, 6)),
        (2, 3, 3, 0, (False, 0, 0)),
        (1, 1, 1, 7, (True, 2, 7)),
        (1, 1, 1, 6, (False, 2, 7)),
    ])
    def test_budget_boundary_is_pinned(self, d1, d2, k, budget, outcome):
        # a budget spent to the last node stops the sweep before the next
        # instance, uncounted, unless no instance is left: then the sweep
        # is complete; an instance that runs out is counted, one node over
        res = find_infeasible_pairing(d1, d2, k, node_budget=budget)
        assert res.found is None
        assert (res.completed, res.instances_checked, res.nodes_explored) == outcome

    @pytest.mark.parametrize("d1,d2,k", [(1, 2, 2), (2, 2, 2), (2, 4, 3)])
    def test_pool_matches_sequential(self, d1, d2, k):
        assert (find_infeasible_pairing(d1, d2, k, workers=2)
                == find_infeasible_pairing(d1, d2, k, workers=1))

    @pytest.mark.parametrize("d1,d2,k,checked,nodes,pairing", [
        (2, 3, 3, 5, 214, (((0, 0), (1, 1)), ((0, 1), (2, 0)), ((1, 0), (2, 1)))),
        (1, 6, 4, 11, 656, (((0, 0), (1, 1)), ((0, 1), (1, 0)),
                            ((0, 2), (1, 3)), ((0, 3), (1, 2)))),
        (2, 5, 4, 35, 28_428, (((0, 0), (1, 2)), ((0, 1), (2, 0)),
                               ((0, 2), (1, 1)), ((1, 0), (2, 1)))),
    ])
    def test_hunt_counts_are_pinned(self, d1, d2, k, checked, nodes, pairing):
        res = find_infeasible_pairing(d1, d2, k)
        assert res.completed
        assert (res.instances_checked, res.nodes_explored) == (checked, nodes)
        assert res.found.pairs == pairing
        assert not brute_linkable(res.found)

    @pytest.mark.parametrize("args, kw, outcomes", [
        # sweep mode: a find at 214 nodes, and a complete 182-orbit sweep
        ((2, 3, 3), {}, {0: (False, 0, 0), 1: (False, 1, 2), 213: (False, 5, 214),
                         214: (True, 5, 214), 215: (True, 5, 214)}),
        ((2, 4, 3), {}, {0: (False, 0, 0), 1: (False, 1, 2), 3594: (False, 182, 3595),
                         3595: (True, 182, 3595), 3596: (True, 182, 3595)}),
        # sample mode: a find at 26 nodes, and 200 draws with none
        ((1, 2, 2), dict(exhaustive=False, seed=4, count=300),
         {0: (False, 0, 0), 1: (False, 1, 2), 25: (False, 5, 26),
          26: (True, 5, 26), 27: (True, 5, 26)}),
        ((2, 2, 2), dict(exhaustive=False, seed=3, count=200),
         {0: (False, 0, 0), 1: (False, 1, 2), 1754: (False, 200, 1755),
          1755: (False, 200, 1755), 1756: (False, 200, 1755)}),
    ])
    def test_budget_boundaries_do_not_depend_on_the_pool(self, monkeypatch, args, kw,
                                                         outcomes):
        # (completed, checked, nodes) at budgets 0, 1 and total - 1 .. total + 1,
        # pinned where a budget ran the hunt in order in this process; a
        # pooled chunk is handed more budget than its later instances' shares
        full = find_infeasible_pairing(*args, **kw)
        serial = {budget: find_infeasible_pairing(*args, node_budget=budget, **kw)
                  for budget in outcomes}
        sizes = fake_pool(monkeypatch, cores=2)
        for budget, outcome in outcomes.items():
            res = serial[budget]
            assert (res.completed, res.instances_checked, res.nodes_explored) == outcome
            assert res == full if budget >= full.nodes_explored else res.found is None
            assert find_infeasible_pairing(*args, node_budget=budget, workers=2, **kw) == res
        assert sizes == [2] * len(outcomes)

    def test_sweep_decisions_are_pinned(self):
        # sweep by default, only when forced, or refused, for every
        # (d1, d2, k) with d1, d2 < 16 and 1 <= k <= 16 that fits 2k
        # terminals; the digest was recorded from the two rules it replaced
        lines = []
        for d1, d2 in itertools.product(range(16), repeat=2):
            grid = ProductGraph(d1, d2)
            for k in range(1, min(16, grid.vertex_count // 2) + 1):
                lines.append(f"{d1} {d2} {k} {rooklink.oracle._sweep_mode(grid, k)}\n")
        assert len(lines) == 3402
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
            "8dc127fdeb5af076b76d1249d061e8db26e5e9a91389aa21c8b9692ce2abd027")

    def test_sweep_calls_the_module_global(self, monkeypatch):
        calls = []
        solve = rooklink.oracle.exhaustive_solve

        def counting(problem, node_budget=None):
            calls.append(problem)
            return solve(problem, node_budget)

        monkeypatch.setattr(rooklink.oracle, "exhaustive_solve", counting)
        res = find_infeasible_pairing(2, 3, 3)
        assert len(calls) == res.instances_checked == 5

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_witness_is_verified_in_this_process(self, monkeypatch, workers):
        # the (2,4,3) sweep finds all 182 orbits feasible; a pooled hunt
        # hands each witness back, and a witness that fails verify is a bug
        fake_pool(monkeypatch, cores=2)
        calls = []

        def counting(problem, linkage):
            calls.append(problem)
            return verify(problem, linkage)

        monkeypatch.setattr(rooklink.oracle, "verify", counting)
        res = find_infeasible_pairing(2, 4, 3, workers=workers)
        assert res.completed and res.found is None
        assert len(calls) == res.instances_checked == 182
        monkeypatch.setattr(rooklink.oracle, "verify",
                            lambda problem, linkage: VerifyReport(False, "injected"))
        with pytest.raises(ValueError, match="oracle witness fails verify: injected"):
            find_infeasible_pairing(2, 4, 3, workers=workers)

    def test_zero_pairs_is_trivially_linked(self):
        for exhaustive in (None, True, False):
            res = find_infeasible_pairing(2, 2, 0, exhaustive=exhaustive)
            assert res.found is None and res.completed

    def test_negative_pair_count_is_rejected(self):
        for exhaustive in (None, True, False):
            with pytest.raises(ValueError, match="pair count must be non-negative"):
                find_infeasible_pairing(2, 2, -1, exhaustive=exhaustive)

    def test_more_terminals_than_cells_are_rejected(self):
        # three pairs need six of the 2 x 2 board's four cells
        with pytest.raises(ProblemContractError, match="not enough vertices"):
            find_infeasible_pairing(1, 1, 3)

    def test_random_pairing_rejects_odd_input(self):
        with pytest.raises(ValueError):
            random_pairing([1, 2, 3], random.Random(0))


class TestRandomProblem:
    def test_no_cell_list_is_built(self, monkeypatch):
        def refused(self):
            raise AssertionError("the board's cells were listed")

        monkeypatch.setattr(Subgrid, "vertices", refused)
        p = rooklink.oracle.random_problem(ProductGraph(20000, 20000), 2, random.Random(0))
        assert p.k == 2 and all(p.subgrid.contains(v) for pair in p.pairs for v in pair)


class TestJudged:
    def test_serial_is_lazy(self):
        items = judged(lambda x: x * x, itertools.count(), 1)
        assert list(itertools.islice(items, 3)) == [(0, 0), (1, 1), (2, 4)]

    def test_pool_is_capped_at_the_cores_and_streams_in_order(self, monkeypatch):
        sizes = fake_pool(monkeypatch, cores=2)
        items = judged(abs, itertools.count(-1000), 100_000)
        assert list(itertools.islice(items, 300)) == [(x, -x) for x in range(-1000, -700)]
        assert sizes == [2]

    def test_one_core_runs_serially(self, monkeypatch):
        sizes = fake_pool(monkeypatch, cores=1)
        assert list(judged(abs, [-2, 3], 8)) == [(-2, 2), (3, 3)]
        assert sizes == []


def _agreement_boards():
    """Every board with d1 + d2 <= 5, (2,1) among them, at the bound and
    one pair above it (where 2k terminals fit), plus (1,6) at both."""
    boards = []
    for total in range(1, 6):
        for d1 in range(total + 1):
            for k in (total // 2, total // 2 + 1):
                if k and 2 * k <= (d1 + 1) * (total - d1 + 1):
                    boards.append((d1, total - d1, k))
    return boards + [(1, 6, 3), (1, 6, 4)]


class TestOrbitSweep:
    @pytest.mark.parametrize("d1,d2,k,orbits", [
        (1, 1, 2, 2), (1, 2, 2, 8), (2, 1, 2, 8), (2, 2, 2, 11), (2, 2, 3, 28),
        (1, 4, 3, 31), (2, 3, 3, 139), (2, 2, 1, 2), (1, 4, 1, 3),
    ])
    def test_orbit_count_matches_brute_force(self, d1, d2, k, orbits):
        grid = ProductGraph(d1, d2)
        assert brute_orbit_count(grid, k) == orbits
        assert sum(1 for _ in rooklink.oracle._orbit_instances(grid, k)) == orbits

    @pytest.mark.parametrize("d1,d2,k,orbits", [
        (2, 4, 3, 182), (4, 2, 3, 182), (2, 5, 4, 1_650), (3, 4, 4, 5_617),
        # the sweep runs on a 4 x 4 cut of these boards, with transposition
        # only where the grid itself is square (a brute-force dedupe over
        # the whole grid gives the same counts)
        (3, 4, 2, 31), (4, 3, 2, 31), (4, 4, 2, 18),
    ])
    def test_orbit_count_matches_burnside(self, d1, d2, k, orbits):
        grid = ProductGraph(d1, d2)
        assert sum(1 for _ in rooklink.oracle._orbit_instances(grid, k)) == orbits

    def test_representatives_match_recorded_digest(self):
        # each board's representatives, in order, hashed; the digest was
        # recorded when each pattern's stabiliser was found by a second
        # pass over the row tables, apart from its canonicity test
        digest = hashlib.sha256()
        for d1, d2, k in ((2, 4, 3), (4, 2, 3), (3, 3, 3), (3, 3, 4), (4, 4, 2),
                          (1, 6, 4), (2, 5, 4)):
            for p in rooklink.oracle._orbit_instances(ProductGraph(d1, d2), k):
                digest.update(repr([(tuple(s), tuple(t)) for s, t in p.pairs]).encode())
        assert digest.hexdigest() == (
            "5fe7922221ea8076c4d1bb4de19d65d5c9d682c8b85c4b5963aaef12f516dd02")

    def test_every_pairing_has_an_image_among_the_representatives(self):
        grid = ProductGraph(3, 4)
        tables = symmetry_tables(grid)
        reps = {next(pairing_images(p.pairs, grid, tables[:1]))
                for p in rooklink.oracle._orbit_instances(grid, 4)}
        assert len(reps) == 5_617
        rng = random.Random(7)
        verts = sorted(grid.vertices())
        for _ in range(300):
            pairs = random_pairing(rng.sample(verts, 8), rng)
            assert any(image in reps for image in pairing_images(pairs, grid, tables)), pairs

    @pytest.mark.parametrize("d1,d2,k", _agreement_boards())
    def test_agrees_with_the_corner_sweep(self, monkeypatch, d1, d2, k):
        orbit = find_infeasible_pairing(d1, d2, k)
        monkeypatch.setattr(rooklink.oracle, "_orbit_instances", corner_instances)
        corner = find_infeasible_pairing(d1, d2, k)
        assert orbit.completed == corner.completed
        assert (orbit.found is None) == (corner.found is None)
        if orbit.found is not None:
            assert exhaustive_solve(orbit.found).feasible is False
            assert not brute_linkable(orbit.found)

    def test_one_row_yields_its_single_orbit_without_a_walk(self, monkeypatch):
        # every permutation of a one-row board's cells is a symmetry, so its
        # 945 pairings of ten terminals are one orbit, yielded unranked
        def no_rank(mate):
            raise AssertionError("walked the pairings of a one-row board")

        monkeypatch.setattr(rooklink.oracle, "_pairing_rank", no_rank)
        (p,) = rooklink.oracle._orbit_instances(ProductGraph(0, 9), 5)
        assert p.pairs == tuple((V(0, a), V(0, b)) for a, b in next(all_pairings(range(10))))

    def test_one_row_builds_no_table(self, monkeypatch):
        # 2k = 1000 columns: growing a pattern recurses once per column,
        # so a one-row board is answered before any table is built
        def no_tables(m):
            raise AssertionError("built the row tables of a one-row board")

        monkeypatch.setattr(rooklink.oracle, "_row_tables", no_tables)
        res = find_infeasible_pairing(0, 999, 500)
        assert (res.found, res.completed, res.instances_checked, res.nodes_explored) == (
            None, True, 1, 1000)
        (p,) = rooklink.oracle._orbit_instances(ProductGraph(9, 0), 5)
        assert p.pairs == tuple((V(a, 0), V(b, 0)) for a, b in next(all_pairings(range(10))))

    def test_one_row_cut_skips_neighbouring_pairs(self):
        # the representative pairs neighbouring cells, which stay connected,
        # so no reachability walk runs for 5,000 pending pairs at each step
        res = find_infeasible_pairing(0, 9999, 5000)
        assert (res.found, res.completed, res.instances_checked, res.nodes_explored) == (
            None, True, 1, 10000)

    @pytest.mark.parametrize("m,n,cells,square", [(3, 3, 6, True), (3, 4, 6, False),
                                                  (2, 5, 8, False)])
    def test_pattern_generators_are_symmetries(self, m, n, cells, square):
        transposed = False
        for coords, moves in rooklink.oracle._patterns(m, n, cells, square):
            assert coords == sorted(coords) and len(coords) == cells
            # same[i][j]: whether cells i and j share a row, and a column
            same = [[(a[0] == b[0], a[1] == b[1]) for b in coords] for a in coords]
            for g, inv in moves:
                assert sorted(g) == list(range(cells)) != list(g)
                assert [g[i] for i in inv] == list(range(cells))
                image = [[same[g[i]][g[j]] for j in range(cells)] for i in range(cells)]
                if image != same:
                    assert image == [[pair[::-1] for pair in row] for row in same]
                    transposed = True
        assert transposed == square

    def test_one_row_verdict_is_unchanged(self):
        res = find_infeasible_pairing(0, 5, 3, exhaustive=True)
        assert (res.found, res.completed, res.instances_checked, res.nodes_explored) == (
            None, True, 1, 6)

    def test_four_by_five_is_four_linked(self):
        # one pair above the bound on an odd-sum board, yet every pairing
        # routes: the complete sweep of all 5,617 orbits finds none
        res = find_infeasible_pairing(3, 4, 4)
        assert res.completed and res.found is None
        assert res.instances_checked == 5_617


@st.composite
def small_problems(draw):
    d1 = draw(st.integers(0, 2))
    d2 = draw(st.integers(0, 2))
    grid = ProductGraph(d1, d2)
    verts = sorted(grid.subgrid().vertices())
    k = draw(st.integers(0, min(2, len(verts) // 2)))
    terms = draw(st.permutations(verts))[: 2 * k]
    pairs = tuple((terms[2 * i], terms[2 * i + 1]) for i in range(k))
    return LinkageProblem(grid, pairs)


@settings(deadline=None, max_examples=80)
@given(small_problems())
def test_exhaustive_solve_agrees_with_its_witness(p):
    verdict = exhaustive_solve(p)
    if verdict.feasible:
        assert verify(p, verdict.witness).ok
    else:
        assert verdict.witness is None


@st.composite
def above_bound_problems(draw):
    # one or two pairs past the bound, as many as the board's cells allow
    d1 = draw(st.integers(1, 3))
    d2 = draw(st.integers(1, 3))
    grid = ProductGraph(d1, d2)
    verts = sorted(grid.subgrid().vertices())
    k = min(max_guaranteed_pairs(d1, d2) + draw(st.integers(1, 2)), len(verts) // 2)
    terms = draw(st.permutations(verts))[: 2 * k]
    return LinkageProblem(grid, tuple((terms[2 * i], terms[2 * i + 1]) for i in range(k)))


@settings(deadline=None, max_examples=100)
@given(above_bound_problems())
def test_independent_decider_agrees_with_exhaustive_solve(p):
    # brute_linkable shares no code with the oracle: no cut, no pair order
    verdict = exhaustive_solve(p)
    assert verdict.feasible is brute_linkable(p)
