import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rooklink import (LinkageProblem, ProblemContractError, ProductGraph,
                      SolverInvariantError, Vertex, all_pairings,
                      bridge_candidates, bridge_path, cyclic_dual_params,
                      doubled_row_matching, drain_block, exhaustive_solve,
                      max_guaranteed_pairs, random_pairing, render_trace,
                      replay, solve, verify)
import rooklink.menger
import rooklink.solver
from rooklink.solver import LinePairStep, TransposeStep, TwoColumnStep, TwoRowsStep

from helpers import routing_margin_holds

V = Vertex


def problem(d1, d2, *pairs):
    return LinkageProblem(ProductGraph(d1, d2),
                          tuple((V(*s), V(*t)) for s, t in pairs))


def _no_flow(*args, **kwargs):
    raise AssertionError("the solver called the max-flow engine")


def solve_and_check(p):
    link, trace = solve(p)
    report = verify(p, link)
    assert report.ok, report.reason
    assert replay(p, trace) == link
    return link, trace


class TestSingleRowBase:
    def test_direct_edges(self):
        p = problem(0, 3, ((0, 0), (0, 1)), ((0, 2), (0, 3)))
        link, _ = solve_and_check(p)
        assert link.paths == ((V(0, 0), V(0, 1)), (V(0, 2), V(0, 3)))

    def test_crossing_pairs_do_not_collide(self):
        p = problem(0, 4, ((0, 0), (0, 2)), ((0, 1), (0, 3)))
        link, _ = solve_and_check(p)
        assert link.paths == ((V(0, 0), V(0, 2)), (V(0, 1), V(0, 3)))

    def test_single_pair(self):
        p = problem(0, 1, ((0, 0), (0, 1)))
        link, _ = solve_and_check(p)
        assert link.paths == ((V(0, 0), V(0, 1)),)


class TestTwoRowBase:
    def test_single_pair_across_rows(self):
        p = problem(1, 2, ((0, 0), (1, 1)))
        link, _ = solve_and_check(p)
        assert exhaustive_solve(p).feasible

    def test_terminals_already_in_target_row(self):
        p = problem(1, 4, ((1, 0), (1, 1)), ((1, 2), (1, 3)))
        link, _ = solve_and_check(p)
        assert all(len(path) == 2 for path in link.paths)

    def test_interleaved_pairs_in_one_row(self):
        p = problem(1, 4, ((0, 0), (0, 2)), ((0, 1), (0, 3)))
        solve_and_check(p)
        assert exhaustive_solve(p).feasible

    def test_four_cycle(self):
        p = problem(1, 1, ((0, 0), (1, 1)))
        solve_and_check(p)

    def test_doubled_column_detours_through_an_empty_column(self, monkeypatch):
        # (0, 0) cannot step down onto (1, 0), so it walks along the top row
        # to the empty column 3 and down it, with no flow call
        monkeypatch.setattr(rooklink.solver, "disjoint_paths", _no_flow)
        p = problem(1, 3, ((0, 0), (1, 1)), ((1, 0), (0, 2)))
        link, trace = solve_and_check(p)
        assert isinstance(trace.steps[0], TwoRowsStep)
        assert link.paths == ((V(0, 0), V(0, 3), V(1, 3), V(1, 1)),
                              (V(1, 0), V(1, 2), V(0, 2)))

    def test_two_cell_column_is_an_edge(self):
        # a 2 x 1 board is a clique on two cells and links its one pair
        link, _ = solve_and_check(problem(1, 0, ((0, 0), (1, 0))))
        assert link.paths == ((V(0, 0), V(1, 0)),)


class TestPairInColumn:
    def test_empty_column_rest(self):
        p = problem(2, 2, ((0, 0), (2, 0)), ((1, 1), (0, 2)))
        link, trace = solve_and_check(p)
        assert link.paths[0] == (V(0, 0), V(2, 0))
        step = trace.steps[0]
        assert isinstance(step, LinePairStep) and step.moved == ()

    def test_one_terminal_evacuated(self):
        p = problem(2, 3, ((0, 0), (1, 0)), ((2, 0), (0, 3)))
        link, trace = solve_and_check(p)
        step = trace.steps[0]
        assert isinstance(step, LinePairStep)
        assert step.moved == (V(2, 0),)
        assert link.paths[0] == (V(0, 0), V(1, 0))

    def test_margin_instance(self):
        # free space in the rest of the grid beats the terminals competing for it
        assert (2 + 1) * 2 > 2 + 1 + 2 + 1 - 3

    def test_pair_in_row_is_transposed(self):
        p = problem(2, 3, ((0, 0), (0, 3)), ((1, 1), (2, 2)))
        solve_and_check(p)

    def test_movers_hop_across_their_rows(self):
        # every mover's row has a free cell outside the column, so each one
        # steps straight across its row to the first such cell
        p = problem(4, 4, ((0, 0), (3, 0)), ((1, 0), (2, 3)), ((2, 0), (0, 4)),
                    ((4, 0), (1, 1)))
        _, trace = solve_and_check(p)
        step = trace.steps[0]
        assert isinstance(step, LinePairStep)
        assert step.moved == (V(1, 0), V(2, 0), V(4, 0))
        stubs = {stub[0]: stub for pair in step.stubs.values() for stub in pair if stub}
        assert set(stubs) == set(step.moved)
        for x in step.moved:
            assert len(stubs[x]) == 2 and stubs[x][1][0] == x[0]
        assert stubs[V(1, 0)] == (V(1, 0), V(1, 2))  # (1, 1) holds a terminal

    def test_full_row_detours_through_a_spare_row(self, monkeypatch):
        # the mover (2, 0) finds row 2 full outside column 0, so it steps
        # down the column into spare row 3 and across it, with no flow call
        monkeypatch.setattr(rooklink.solver, "disjoint_paths", _no_flow)
        p = problem(4, 2, ((0, 0), (1, 0)), ((2, 0), (2, 1)), ((2, 2), (4, 1)))
        _, trace = solve_and_check(p)
        step = trace.steps[0]
        assert isinstance(step, LinePairStep) and step.moved == (V(2, 0),)
        assert step.stubs[1][0] == (V(2, 0), V(3, 0), V(3, 1))


class TestBridge:
    def test_candidate_count(self):
        cands = bridge_candidates((0, 1, 2), (0, 1), V(1, 0), V(2, 1))
        assert len(cands) == 3

    @pytest.mark.parametrize("s, t", [((1, 0), (2, 0)), ((1, 0), (1, 1)), ((1, 0), (2, 3))])
    def test_bad_endpoints_are_an_internal_error(self, s, t):
        with pytest.raises(SolverInvariantError):
            bridge_candidates((0, 1, 2), (0, 1), V(*s), V(*t))

    def test_shortest_candidate_preferred(self):
        path, bend = bridge_path((0, 1, 2, 3), (0, 1), V(1, 0), V(2, 1), set())
        assert path == [V(1, 0), V(1, 1), V(2, 1)]
        assert bend == 1

    def test_blockers_force_detour_row(self):
        occupied = {V(1, 0), V(2, 1), V(1, 1), V(2, 0)}
        path, bend = bridge_path((0, 1, 2, 3), (0, 1), V(1, 0), V(2, 1), occupied)
        assert path == [V(1, 0), V(0, 0), V(0, 1), V(2, 1)]
        assert bend == 0

    def test_all_candidates_blocked_panics(self):
        occupied = {V(0, 0), V(1, 1), V(0, 1), V(1, 0)}
        with pytest.raises(SolverInvariantError):
            bridge_path((0, 1), (0, 1), V(0, 0), V(1, 1), occupied)


class TestDoubledRowMatching:
    def test_lowest_label_assignment(self):
        occupied = {V(1, 0), V(1, 1), V(2, 0), V(2, 1)}
        m = doubled_row_matching((1, 2, 3, 4), (0, 1), (2, 3), occupied, set())
        assert m == {1: 3, 2: 4}

    def test_no_doubled_rows(self):
        occupied = {V(1, 0), V(3, 1)}
        assert doubled_row_matching((1, 2, 3), (0, 1), (2, 3), occupied, set()) == {}

    def test_counting_bound(self):
        # four plain terminals on four rows leave exactly two spare rows
        occupied = {V(1, 0), V(1, 1), V(2, 0), V(2, 1)}
        m = doubled_row_matching((1, 2, 3, 4), (0, 1), (2, 3), occupied, set())
        assert len(m) == 2

    def test_anchor_rows_are_spare(self):
        anchors = {V(3, 0)}
        occupied = {V(1, 0), V(1, 1), V(3, 0)}
        m = doubled_row_matching((1, 2, 3), (0, 1), (2, 3), occupied, anchors)
        assert m == {1: 2}


class TestDrainBlock:
    def test_single_terminal_crosses_directly(self):
        occupied = {V(2, 0)}
        out = drain_block((1, 2, 3), (0, 1), (2, 3, 4), occupied, set())
        assert out == {V(2, 0): [V(2, 0), V(2, 2)]}

    def test_doubled_row_detours_through_spare_row(self):
        occupied = {V(2, 0), V(2, 1)}
        out = drain_block((1, 2, 3), (0, 1), (2, 3), occupied, set())
        assert out[V(2, 0)] == [V(2, 0), V(1, 0), V(1, 2)]
        assert out[V(2, 1)] == [V(2, 1), V(2, 2)]

    def test_endpoints_land_in_distinct_rows(self):
        # one- and two-column blocks; up to two destination rows are full,
        # which sends their lone terminals through spare rows as well
        rng = random.Random(11)
        rows = (0, 1, 2, 3, 4, 5)
        dest_cols = (2, 3, 4)
        for _ in range(300):
            block_cols = rng.choice(((0, 1), (0,)))
            cells = [V(r, c) for r in rows for c in block_cols]
            block = set(rng.sample(cells, rng.randint(1, len(rows))))
            full = set(rng.sample(rows, rng.randint(0, 2)))
            occupied = block | {V(r, c) for r in full for c in dest_cols}
            per_row = [sum(1 for x in block if x[0] == r) for r in rows]
            needy = sum(1 for r, n in zip(rows, per_row) if n == 2 or (n == 1 and r in full))
            spare = sum(1 for r, n in zip(rows, per_row) if n == 0 and r not in full)
            # a doubled row sends one terminal straight across, so its own
            # destination row must have room
            stuck = any(n == 2 and r in full for r, n in zip(rows, per_row))
            if stuck or needy > spare:
                with pytest.raises(SolverInvariantError):
                    drain_block(rows, block_cols, dest_cols, occupied, set())
                continue
            out = drain_block(rows, block_cols, dest_cols, occupied, set())
            assert set(out) == block
            ends = [p[-1] for p in out.values()]
            assert len({e[0] for e in ends}) == len(ends)
            used = set()
            for x, path in out.items():
                assert path[0] == x and path[-1][1] in dest_cols
                for u, w in zip(path, path[1:]):
                    assert u[0] == w[0] or u[1] == w[1]
                for v in path[1:]:
                    assert v not in occupied, "path passes through a terminal"
                    assert v not in used, "paths collide"
                    used.add(v)


class TestTwoColumnCase:
    def test_block_holds_only_the_bridged_pair(self):
        p = problem(2, 3, ((0, 0), (1, 1)), ((2, 2), (0, 3)))
        link, trace = solve_and_check(p)
        step = trace.steps[0]
        assert isinstance(step, TwoColumnStep)
        assert step.slack == 2

    def test_one_extra_terminal_escapes(self):
        p = problem(2, 3, ((1, 0), (2, 1)), ((0, 0), (1, 3)))
        link, trace = solve_and_check(p)
        step = trace.steps[0]
        assert isinstance(step, TwoColumnStep)
        assert step.slack == 1

    def test_adjacent_second_pair_goes_through_line_case(self):
        # the same-row pair takes priority and is routed as a direct edge
        p = problem(2, 3, ((1, 0), (2, 1)), ((0, 0), (0, 3)))
        link, trace = solve_and_check(p)
        assert isinstance(trace.steps[0], TransposeStep)

    def test_margin_instance(self):
        assert (2 - 1) * (2 - 1) > 2 - 1 + 2 - 3

    def test_lone_plain_terminal_takes_the_general_path(self):
        # the block holds the bridged pair and one plain terminal, (0, 0),
        # on row 0, which is full outside the block: it moves into the low
        # block first and is then drained, with no separate escape route
        p = problem(5, 3, ((1, 0), (2, 1)), ((0, 0), (2, 2)),
                    ((0, 2), (3, 3)), ((0, 3), (4, 2)))
        _, trace = solve_and_check(p)
        step = trace.steps[0]
        assert isinstance(step, TwoColumnStep) and step.into_block == 1
        assert step.top_rows == (0, 1)

    def test_saturated_row_terminal_pushed_down_its_column(self):
        # one row of the wide side is fully occupied, so the block terminal
        # sharing that row steps down its column before the block is drained
        p = problem(4, 2, ((1, 0), (2, 1)), ((4, 0), (0, 1)), ((3, 0), (4, 2)))
        link, trace = solve_and_check(p)
        step = trace.steps[0]
        assert isinstance(step, TwoColumnStep)
        assert step.slack == 1
        assert step.pushes == {V(4, 0): "down"}
        assert step.matching == {0: 2}

    def test_packed_column_sends_its_last_mover_across(self, monkeypatch):
        # rows 2 and 4 are full outside the block; (2, 1) takes column 1's
        # last free low cell, so (4, 1) steps across its row to (4, 0) and
        # down column 0 to its lowest free low cell, with no flow call
        monkeypatch.setattr(rooklink.solver, "disjoint_paths", _no_flow)
        p = problem(4, 2, ((0, 0), (1, 1)), ((2, 1), (4, 2)), ((2, 2), (4, 1)))
        link, trace = solve_and_check(p)
        step = trace.steps[0]
        assert isinstance(step, TwoColumnStep) and step.slack == 2
        assert step.top_rows == (0, 2, 4)
        assert step.pushes == {V(2, 1): "down", V(4, 1): "across"}
        assert step.stubs[2][1] == (V(4, 1), V(4, 0), V(1, 0), V(1, 2))
        assert link.paths[2] == (V(2, 2), V(1, 2), V(1, 0), V(4, 0), V(4, 1))

    def test_relocation_needs_no_flow_and_crosses_as_counted(self, monkeypatch):
        # the counting argument at the relocation's invariant error: a
        # mover crosses only when the bridge bends through an anchor's row
        # (three cells), and then it is the step's only crossing
        monkeypatch.setattr(rooklink.solver, "disjoint_paths", _no_flow)
        monkeypatch.setattr(rooklink.menger, "disjoint_paths", _no_flow)
        rng = random.Random(808)
        crowded = 0
        for _ in range(3000):
            d1, d2 = rng.randint(2, 10), rng.randint(2, 10)
            grid = ProductGraph(d1, d2)
            terms = sorted(rng.sample(sorted(grid.subgrid().vertices()),
                                      2 * max_guaranteed_pairs(d1, d2)))
            p = LinkageProblem(grid, tuple(random_pairing(terms, rng)))
            _, trace = solve_and_check(p)
            for step in trace.steps:
                if not isinstance(step, TwoColumnStep) or not step.pushes:
                    continue
                crowded += step.slack >= 2
                across = list(step.pushes.values()).count("across")
                assert across <= 1 and (across == 0 or len(step.bridge) == 3), step
        assert crowded > 0

    def test_column_overflow_transposes(self):
        # five terminals crowd the chosen pair's two columns
        p = problem(2, 4, ((0, 0), (1, 1)), ((1, 0), (2, 1)), ((2, 0), (0, 4)))
        link, trace = solve_and_check(p)
        kinds = [type(s).__name__ for s in trace.steps]
        assert kinds[0] == "TransposeStep"
        assert kinds[1] == "TwoColumnStep"


class TestCountingGuard:
    def test_holds_on_small_values(self):
        for x in range(2, 30):
            for y in range(2, 30):
                assert routing_margin_holds(x, y)

    def test_tightest_case(self):
        assert routing_margin_holds(2, 2)


class TestCyclicDualParams:
    def test_even_dimension(self):
        assert cyclic_dual_params(4) == (2, 2)

    def test_odd_dimension(self):
        assert cyclic_dual_params(5) == (2, 3)

    def test_smallest(self):
        assert cyclic_dual_params(2) == (1, 1)

    def test_below_range(self):
        with pytest.raises(ProblemContractError):
            cyclic_dual_params(1)


class TestContract:
    def test_too_many_pairs_rejected(self):
        p = problem(1, 1, ((0, 0), (1, 1)), ((0, 1), (1, 0)))
        with pytest.raises(ProblemContractError):
            solve(p)

    def test_duplicate_terminal_rejected(self):
        with pytest.raises(ProblemContractError):
            problem(2, 2, ((0, 0), (1, 1)), ((0, 0), (2, 2)))

    def test_out_of_range_terminal_rejected(self):
        with pytest.raises(ProblemContractError):
            problem(1, 1, ((0, 0), (5, 5)))

    def test_empty_problem_gives_empty_linkage(self):
        link, trace = solve(problem(2, 2))
        assert link.paths == ()
        assert trace.steps == ()


class TestSweeps:
    def test_oracle_confirms_and_solver_routes_2x2(self):
        p = problem(2, 2, ((0, 0), (2, 0)), ((1, 1), (0, 2)))
        assert exhaustive_solve(p).feasible
        solve_and_check(p)

    def test_full_sweep_2_3_at_bound(self):
        grid = ProductGraph(2, 3)
        verts = sorted(grid.subgrid().vertices())
        count = 0
        for tset in itertools.combinations(verts, 4):
            for pairing in all_pairings(tset):
                p = LinkageProblem(grid, tuple(pairing))
                link, _ = solve(p)
                assert verify(p, link).ok
                count += 1
        assert count == 495 * 3

    def test_fewer_pairs_never_fail(self):
        rng = random.Random(9)
        # a single row is a clique: the 1x4 board links 2 pairs, not 1
        for d1, d2, bound in [(2, 2, 2), (2, 3, 2), (3, 3, 3), (2, 4, 3), (0, 3, 2)]:
            grid = ProductGraph(d1, d2)
            assert LinkageProblem(grid, ()).guaranteed_bound == bound
            verts = sorted(grid.subgrid().vertices())
            for k in range(0, bound + 1):
                for _ in range(10):
                    terms = sorted(rng.sample(verts, 2 * k))
                    p = LinkageProblem(grid, tuple(random_pairing(terms, rng)))
                    solve_and_check(p)

    def test_recursion_reduces_dimensions(self):
        p = problem(3, 3, ((0, 0), (1, 1)), ((1, 0), (2, 2)), ((2, 0), (3, 3)))
        _, trace = solve_and_check(p)
        assert trace.depth >= 2

    def test_problem_on_a_sparse_subgrid(self):
        from rooklink import Subgrid
        sub = Subgrid(ProductGraph(5, 6), (0, 2, 5), (1, 3, 4, 6))
        p = LinkageProblem(sub, ((V(0, 1), V(5, 3)), (V(2, 4), V(0, 6))))
        solve_and_check(p)


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_large_solve_needs_no_deep_stack():
    # 150 pairs on a 151 x 151 board take over a hundred case steps; the
    # solver loops over them, so its stack depth does not grow with them
    rng = random.Random(151)
    grid = ProductGraph(150, 150)
    terms = sorted(rng.sample(sorted(grid.subgrid().vertices()), 300))
    p = LinkageProblem(grid, tuple(random_pairing(terms, rng)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        link, trace = solve(p)
    finally:
        sys.setrecursionlimit(limit)
    assert trace.depth > 100
    assert verify(p, link).ok
    assert replay(p, trace) == link


class TestDeterminism:
    def test_identical_runs(self):
        p = problem(3, 4, ((0, 0), (1, 1)), ((2, 2), (3, 3)), ((0, 4), (3, 0)))
        link1, trace1 = solve(p)
        link2, trace2 = solve(p)
        assert link1 == link2
        assert render_trace(trace1) == render_trace(trace2)

    def test_trace_replay_on_random_instances(self):
        rng = random.Random(17)
        for _ in range(60):
            d1 = rng.randint(2, 6)
            d2 = rng.randint(2, 6)
            k = max_guaranteed_pairs(d1, d2)
            grid = ProductGraph(d1, d2)
            terms = sorted(rng.sample(sorted(grid.subgrid().vertices()), 2 * k))
            p = LinkageProblem(grid, tuple(random_pairing(terms, rng)))
            link, trace = solve(p)
            assert replay(p, trace) == link


@st.composite
def bounded_problems(draw):
    d1 = draw(st.integers(0, 5))
    d2 = draw(st.integers(0, 5))
    bound = max_guaranteed_pairs(d1, d2)
    grid = ProductGraph(d1, d2)
    verts = sorted(grid.subgrid().vertices())
    k = draw(st.integers(0, bound))
    terms = draw(st.permutations(verts))[: 2 * k]
    pairs = tuple((terms[2 * i], terms[2 * i + 1]) for i in range(k))
    return LinkageProblem(grid, pairs)


@settings(deadline=None, max_examples=150)
@given(bounded_problems())
def test_solver_output_is_always_valid(p):
    link, trace = solve(p)
    assert verify(p, link).ok
    assert replay(p, trace) == link
