import dataclasses
import hashlib
import itertools
import random
import statistics
import sys
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rooklink import (LinkageProblem, ProblemContractError, ProductGraph,
                      SolverInvariantError, Subgrid, Vertex, all_pairings,
                      cyclic_dual_params, exhaustive_solve,
                      max_guaranteed_pairs, parse_instance, parse_linkage,
                      random_pairing, render_trace, replay, serialize_instance,
                      serialize_linkage, solve, verify)
import rooklink.oracle
import rooklink.solver
from rooklink.grid import flip
from rooklink.solver import (LinePairStep, SingleRowStep, SolverTrace, TransposeStep,
                             TwoColumnStep, TwoRowsStep, _Board, _finish, _next_step,
                             bridge_path, drain_block)

import helpers
from helpers import detours, routing_margin_holds

V = Vertex


def problem(d1, d2, *pairs):
    return LinkageProblem(ProductGraph(d1, d2),
                          tuple((V(*s), V(*t)) for s, t in pairs))


def unpaired(*cells):
    """drain_block's map for terminals with no partner's column to prefer:
    each maps to its own cell, whose column is a block column."""
    return {v: v for v in cells}


@pytest.fixture
def no_flow(monkeypatch):
    """Fail on any max-flow call: the one flow network left is the tests'
    helpers._FlowNet, and the package defines none (test_api pins that)."""
    def refuse(*args, **kwargs):
        raise AssertionError("the solver called the max-flow engine")
    monkeypatch.setattr(helpers, "_FlowNet", refuse)


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

    def test_doubled_column_detours_through_an_empty_column(self, no_flow):
        # (0, 0) cannot step down onto (1, 0), so it walks along the top row
        # to the empty column 3 and down it, with no flow call
        p = problem(1, 3, ((0, 0), (1, 1)), ((1, 0), (0, 2)))
        link, trace = solve_and_check(p)
        assert isinstance(trace.steps[0], TwoRowsStep)
        assert link.paths == ((V(0, 0), V(0, 3), V(1, 3), V(1, 1)),
                              (V(1, 0), V(1, 2), V(0, 2)))

    def test_top_row_pair_is_an_edge(self):
        # both terminals of pair 0 sit in the top row, so they stay there
        # as one edge while (0, 1) steps down its column past them
        p = problem(1, 3, ((0, 0), (0, 2)), ((0, 1), (1, 3)))
        link, trace = solve_and_check(p)
        assert isinstance(trace.steps[0], TwoRowsStep)
        assert link.paths == ((V(0, 0), V(0, 2)), (V(0, 1), V(1, 1), V(1, 3)))

    def test_two_cell_column_is_an_edge(self):
        # a 2 x 1 board is a clique on two cells and links its one pair
        link, _ = solve_and_check(problem(1, 0, ((0, 0), (1, 0))))
        assert link.paths == ((V(0, 0), V(1, 0)),)


# three movers of column 0 hop across their rows into their partners' columns
MOVERS = (((0, 0), (3, 0)), ((1, 0), (2, 3)), ((2, 0), (0, 4)), ((4, 0), (1, 1)))


class TestPairInColumn:
    def test_empty_column_rest(self):
        p = problem(2, 2, ((0, 0), (2, 0)), ((1, 1), (0, 2)))
        link, trace = solve_and_check(p)
        assert link.paths[0] == (V(0, 0), V(2, 0))
        step = trace.steps[0]
        assert isinstance(step, LinePairStep) and step.moves == ()

    def test_one_terminal_evacuated(self):
        # pair 1's s, (2, 0), hops across its row into its partner's column
        p = problem(2, 3, ((0, 0), (1, 0)), ((2, 0), (0, 3)))
        link, trace = solve_and_check(p)
        step = trace.steps[0]
        assert isinstance(step, LinePairStep)
        assert step.moves == ((1, 0, (V(2, 0), V(2, 3))),)
        assert link.paths[0] == (V(0, 0), V(1, 0))

    def test_margin_instance(self):
        # free space in the rest of the grid beats the terminals competing for it
        assert (2 + 1) * 2 > 2 + 1 + 2 + 1 - 3

    def test_pair_in_row_is_transposed(self):
        p = problem(2, 3, ((0, 0), (0, 3)), ((1, 1), (2, 2)))
        solve_and_check(p)

    def test_movers_hop_across_their_rows(self):
        # every mover's row is free in its partner's column, so each one
        # steps straight across its row into that column, and the next two
        # steps route the pairs it leaves sharing a column as single edges
        p = problem(4, 4, *MOVERS)
        link, trace = solve_and_check(p)
        step = trace.steps[0]
        assert isinstance(step, LinePairStep)
        assert step.moves == ((1, 0, (V(1, 0), V(1, 3))), (2, 0, (V(2, 0), V(2, 4))),
                              (3, 0, (V(4, 0), V(4, 1))))
        for later, column in zip(trace.steps[1:3], (3, 4)):
            assert isinstance(later, LinePairStep)
            assert later.bridge[0][1] == column and later.moves == ()
        assert link.paths[1] == (V(1, 0), V(1, 3), V(2, 3))
        assert link.paths[2] == (V(2, 0), V(2, 4), V(0, 4))

    def test_pairs_inside_the_column_are_routed_in_one_step(self):
        # column 0 holds the routed pair, two more pairs and (6, 0): the
        # step routes all three pairs as edges and moves only (6, 0), which
        # hops into its partner's column
        p = problem(6, 3, ((0, 0), (1, 0)), ((2, 0), (3, 0)), ((4, 0), (5, 0)),
                    ((6, 0), (2, 3)))
        link, trace = solve_and_check(p)
        step = trace.steps[0]
        assert isinstance(step, LinePairStep) and step.pair == 0
        assert step.edges == ((1, (V(2, 0), V(3, 0))), (2, (V(4, 0), V(5, 0))))
        assert step.moves == ((3, 0, (V(6, 0), V(6, 3))),)
        assert link.paths[:3] == ((V(0, 0), V(1, 0)), (V(2, 0), V(3, 0)), (V(4, 0), V(5, 0)))
        assert render_trace(trace).splitlines()[0] == (
            "step 1: pair-in-column pair=1 column=0 bridge=(0,0)(1,0)"
            " edges=2:(2,0)(3,0),3:(4,0)(5,0) moved=1 staying=1")

    def test_full_row_detours_through_a_spare_row(self, no_flow):
        # the mover (2, 0) finds row 2 full outside column 0, so it steps
        # down the column into spare row 3 and across it, with no flow call
        p = problem(4, 2, ((0, 0), (1, 0)), ((2, 0), (2, 1)), ((2, 2), (4, 1)))
        _, trace = solve_and_check(p)
        step = trace.steps[0]
        assert isinstance(step, LinePairStep)
        assert step.moves == ((1, 0, (V(2, 0), V(3, 0), V(3, 1))),)

    def test_failure_carries_the_steps_before_it(self, monkeypatch):
        # each of the first three steps drains its column once; a failure
        # in the second one's drain leaves the first step in the trace
        p = problem(4, 4, *MOVERS)
        _, trace = solve(p)
        real, calls = drain_block, []

        def fail_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise SolverInvariantError("injected")
            return real(*args)

        monkeypatch.setattr(rooklink.solver, "drain_block", fail_second)
        with pytest.raises(SolverInvariantError, match="injected") as info:
            solve(p)
        assert info.value.trace.steps == trace.steps[:1]


class TestBridge:
    def test_candidate_count(self):
        # three rows give three candidates, each taken once those before
        # it are blocked; with all three blocked none is left
        s, t = V(1, 0), V(2, 1)
        blocked, bends = set(), []
        for _ in range(3):
            path = bridge_path((0, 1, 2), s, t, blocked)
            bends.append(path[-2][0])
            blocked.add(path[1])
        assert bends == [1, 2, 0]
        with pytest.raises(SolverInvariantError):
            bridge_path((0, 1, 2), s, t, blocked)

    @pytest.mark.parametrize("rows, s, t", [((0, 1, 2), (1, 0), (2, 1)),
                                            ((0, 2, 5, 7), (7, 4), (2, 1)),
                                            ((3, 4, 6, 8, 9), (3, 0), (9, 5))])
    def test_bend_row_meets_the_block_only_at_ends_or_interior(self, rows, s, t):
        # on every candidate, in the order tried, so no plain block
        # terminal can sit on the bend row of the bridge the solver takes
        blocked = set()
        for _ in rows:
            path = bridge_path(rows, s, t, blocked)
            bend = path[-2][0]
            assert {(bend, s[1]), (bend, t[1])} <= {s, t, *path[1:-1]}
            blocked.add(path[1])
        with pytest.raises(SolverInvariantError):
            bridge_path(rows, s, t, blocked)

    @pytest.mark.parametrize("s, t", [((1, 0), (2, 0)), ((1, 0), (1, 1))])
    def test_bad_endpoints_are_an_internal_error(self, s, t):
        with pytest.raises(SolverInvariantError):
            bridge_path((0, 1, 2), V(*s), V(*t), set())

    def test_shortest_candidate_preferred(self):
        path = bridge_path((0, 1, 2, 3), V(1, 0), V(2, 1), set())
        assert path == [V(1, 0), V(1, 1), V(2, 1)]
        assert path[-2][0] == 1

    def test_blockers_force_detour_row(self):
        occupied = {V(1, 0), V(2, 1), V(1, 1), V(2, 0)}
        path = bridge_path((0, 1, 2, 3), V(1, 0), V(2, 1), occupied)
        assert path == [V(1, 0), V(0, 0), V(0, 1), V(2, 1)]
        assert path[-2][0] == 0

    def test_all_candidates_blocked_panics(self):
        occupied = {V(0, 0), V(1, 1), V(0, 1), V(1, 0)}
        with pytest.raises(SolverInvariantError):
            bridge_path((0, 1), V(0, 0), V(1, 1), occupied)


class TestDoubledRowMatching:
    # the matching drain_block's detours hold, read off its paths
    def test_lowest_label_assignment(self):
        occupied = unpaired(V(1, 0), V(1, 1), V(2, 0), V(2, 1))
        m = detours(drain_block((1, 2, 3, 4), (0, 1), (2, 3), occupied, set(occupied)))
        assert m == {1: 3, 2: 4}

    def test_no_doubled_rows(self):
        occupied = unpaired(V(1, 0), V(3, 1))
        assert detours(drain_block((1, 2, 3), (0, 1), (2, 3), occupied, set(occupied))) == {}

    def test_counting_bound(self):
        # four plain terminals on four rows leave exactly two spare rows
        occupied = unpaired(V(1, 0), V(1, 1), V(2, 0), V(2, 1))
        m = detours(drain_block((1, 2, 3, 4), (0, 1), (2, 3), occupied, set(occupied)))
        assert len(m) == 2
        # a third doubled row would outnumber them
        occupied.update(unpaired(V(3, 0), V(3, 1)))
        with pytest.raises(SolverInvariantError):
            drain_block((1, 2, 3, 4), (0, 1), (2, 3), occupied, set(occupied))

    def test_anchor_rows_are_spare(self):
        anchors = {V(3, 0)}
        occupied = unpaired(V(1, 0), V(1, 1), V(3, 0))
        m = detours(drain_block((1, 2, 3), (0, 1), (2, 3), occupied, set(occupied) - anchors))
        assert m == {1: 2}


class TestDrainBlock:
    def test_single_terminal_crosses_directly(self):
        out = drain_block((1, 2, 3), (0, 1), (2, 3, 4), unpaired(V(2, 0)), {V(2, 0)})
        assert out == {V(2, 0): [V(2, 0), V(2, 2)]}

    def test_doubled_row_detours_through_spare_row(self):
        occupied = unpaired(V(2, 0), V(2, 1))
        out = drain_block((1, 2, 3), (0, 1), (2, 3), occupied, set(occupied))
        assert out[V(2, 0)] == [V(2, 0), V(1, 0), V(1, 2)]
        assert out[V(2, 1)] == [V(2, 1), V(2, 2)]

    def test_passed_spare_is_never_offered_again(self):
        # (0, 0) faces a full destination row, and the anchor (1, 0) takes
        # spare row 1's entry in its column, so row 0 passes row 1 over
        # for row 2; the doubled row 3 could enter row 1 down column 1,
        # but row 1 is not offered again, and row 3 takes row 4
        occupied = unpaired(V(0, 0), V(0, 2), V(1, 0), V(3, 0), V(3, 1))
        plain = {V(0, 0), V(3, 0), V(3, 1)}
        out = drain_block(range(5), (0, 1), (2,), occupied, plain)
        assert detours(out) == {0: 2, 3: 4}
        assert out == {V(0, 0): [V(0, 0), V(2, 0), V(2, 2)],
                       V(3, 0): [V(3, 0), V(4, 0), V(4, 2)], V(3, 1): [V(3, 1), V(3, 2)]}
        # with row 4 gone, row 3 finds no spare row left
        with pytest.raises(SolverInvariantError):
            drain_block(range(4), (0, 1), (2,), occupied, plain)

    @pytest.mark.parametrize("anchor_col", [0, 1])
    def test_doubled_row_takes_the_first_spare(self, anchor_col):
        # the first spare row holds an anchor in one block column, so the
        # doubled row goes down the other one into it
        occupied = unpaired(V(0, 0), V(0, 1), V(1, anchor_col))
        out = drain_block((0, 1, 2), (0, 1), (2,), occupied, {V(0, 0), V(0, 1)})
        down, stays = V(0, 1 - anchor_col), V(0, anchor_col)
        assert detours(out) == {0: 1}
        assert out == {down: [down, V(1, 1 - anchor_col), V(1, 2)], stays: [stays, V(0, 2)]}

    def test_partner_column_first_on_a_straight_hop(self):
        # (2, 0)'s partner sits in column 3, so it lands in (2, 3) while
        # that cell is free; taken, or outside the destination columns, it
        # falls back to the row's first free cell
        out = drain_block((1, 2, 3), (0, 1), (2, 3, 4), {V(2, 0): V(5, 3)}, {V(2, 0)})
        assert out == {V(2, 0): [V(2, 0), V(2, 3)]}
        for taken, partner in ((unpaired(V(2, 3)), V(5, 3)), ({}, V(5, 1)), ({}, V(5, 7))):
            occupied = {V(2, 0): partner, **taken}
            out = drain_block((1, 2, 3), (0, 1), (2, 3, 4), occupied, {V(2, 0)})
            assert out == {V(2, 0): [V(2, 0), V(2, 2)]}

    def test_partner_column_first_on_a_spare_row_detour(self):
        # the doubled row sends (2, 0) through spare row 1 into its
        # partner's column 3, and (2, 1) straight into its partner's column
        # 4; with (1, 3) taken the detour ends on row 1's first free cell
        partner = {V(2, 0): V(0, 3), V(2, 1): V(0, 4)}
        out = drain_block((1, 2, 3), (0, 1), (2, 3, 4), partner, set(partner))
        assert out == {V(2, 0): [V(2, 0), V(1, 0), V(1, 3)], V(2, 1): [V(2, 1), V(2, 4)]}
        out = drain_block((1, 2, 3), (0, 1), (2, 3, 4), {**partner, **unpaired(V(1, 3))},
                             set(partner))
        assert out == {V(2, 0): [V(2, 0), V(1, 0), V(1, 2)], V(2, 1): [V(2, 1), V(2, 4)]}

    def test_endpoints_land_in_distinct_rows(self):
        # one- and two-column blocks; up to two destination rows are full,
        # which sends their lone terminals through spare rows as well; with
        # partners given, each path ends in its partner's column when that
        # cell is a free destination cell
        rng = random.Random(11)
        rows = (0, 1, 2, 3, 4, 5)
        dest_cols = (2, 3, 4)
        for _ in range(300):
            block_cols = rng.choice(((0, 1), (0,)))
            cells = [V(r, c) for r in rows for c in block_cols]
            block = set(rng.sample(cells, rng.randint(1, len(rows))))
            full = set(rng.sample(rows, rng.randint(0, 2)))
            occupied = unpaired(*block, *(V(r, c) for r in full for c in dest_cols))
            per_row = [sum(1 for x in block if x[0] == r) for r in rows]
            needy = sum(1 for r, n in zip(rows, per_row) if n == 2 or (n == 1 and r in full))
            spare = sum(1 for r, n in zip(rows, per_row) if n == 0 and r not in full)
            # a doubled row sends one terminal straight across, so its own
            # destination row must have room
            stuck = any(n == 2 and r in full for r, n in zip(rows, per_row))
            partner = rng.choice((None, {x: V(9, rng.randint(0, 5)) for x in block}))
            occupied.update(partner or {})
            if stuck or needy > spare:
                with pytest.raises(SolverInvariantError):
                    drain_block(rows, block_cols, dest_cols, occupied, block)
                continue
            out = drain_block(rows, block_cols, dest_cols, occupied, block)
            assert set(out) == block
            ends = [p[-1] for p in out.values()]
            assert len({e[0] for e in ends}) == len(ends)
            used = set()
            for x, path in out.items():
                assert path[0] == x and path[-1][1] in dest_cols
                r, c = path[-1]
                if partner is not None and c != partner[x][1]:
                    assert partner[x][1] not in dest_cols or (r, partner[x][1]) in occupied
                for u, w in zip(path, path[1:]):
                    assert u[0] == w[0] or u[1] == w[1]
                for v in path[1:]:
                    assert v not in occupied, "path passes through a terminal"
                    assert v not in used, "paths collide"
                    used.add(v)


class TestFinish:
    # a hand-made step routes pair 1 and moves pair 0, (0, 0) -> (4, 1):
    # its s to (0, 3) and its t to (4, 3)
    MOVE_S = (0, 0, (V(0, 0), V(0, 3)))
    MOVE_T = (0, 1, (V(4, 1), V(4, 3)))

    @staticmethod
    def finish(later, *moves):
        acc = {0: later}
        _finish(LinePairStep(1, (V(1, 2), V(3, 2)), 0, moves, ()), acc, tuple)
        return acc

    def test_moves_wrap_an_inner_path_from_s_to_t(self):
        acc = self.finish((V(0, 3), V(4, 3)), self.MOVE_S, self.MOVE_T)
        assert acc == {0: [V(0, 0), V(0, 3), V(4, 3), V(4, 1)], 1: (V(1, 2), V(3, 2))}

    def test_moves_of_one_side_are_undone_last_first(self):
        acc = self.finish((V(2, 3), V(4, 3)), self.MOVE_S, (0, 0, (V(0, 3), V(2, 3))))
        assert acc[0] == [V(0, 0), V(0, 3), V(2, 3), V(4, 3)]

    @pytest.mark.parametrize("moves", [(MOVE_S, MOVE_T), (MOVE_S,), (MOVE_T,)],
                             ids=["s-and-t", "s-only", "t-only"])
    def test_inner_path_from_t_to_s_is_an_internal_error(self, moves):
        # every step keeps each pair's (s, t) order, so a reversed inner
        # path is a bug, not something to turn around
        with pytest.raises(SolverInvariantError, match="does not meet"):
            self.finish((V(4, 3), V(0, 3)), *moves)

    def test_replay_refuses_a_tampered_trace(self):
        # the first step moves pair 1's s to (1, 3), and the next step
        # routes pair 1 from there; logged as a t move, or with pair 1's
        # step dropped, the move meets no later path
        p = problem(4, 4, *MOVERS)
        _, trace = solve(p)
        first, *rest = trace.steps
        as_t = dataclasses.replace(first, moves=((1, 1, first.moves[0][2]), *first.moves[1:]))
        for steps, message in (((as_t, *rest), "does not meet"),
                               ((first, *rest[1:]), "pair 1 missing")):
            with pytest.raises(SolverInvariantError, match=message):
                replay(p, dataclasses.replace(trace, steps=steps))


def pushes(step):
    """A two-column step's pushes, each mover's start cell and how it went:
    down its own block column (two cells) or across to the other (three)."""
    cols = (step.bridge[0][1], step.bridge[-1][1])
    return {path[0]: "down" if len(path) == 2 else "across"
            for _, _, path in step.moves if path[-1][1] in cols}


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
        assert isinstance(step, TwoColumnStep) and pushes(step) == {V(0, 0): "down"}
        assert step.top_rows == (0, 1)
        assert step.moves == ((1, 0, (V(0, 0), V(2, 0))), (1, 0, (V(2, 0), V(2, 3))))

    def test_saturated_row_terminal_pushed_down_its_column(self):
        # one row of the wide side is fully occupied, so the block terminal
        # sharing that row steps down its column before the block is drained
        p = problem(4, 2, ((1, 0), (2, 1)), ((4, 0), (0, 1)), ((3, 0), (4, 2)))
        link, trace = solve_and_check(p)
        step = trace.steps[0]
        assert isinstance(step, TwoColumnStep)
        assert step.slack == 1
        assert pushes(step) == {V(4, 0): "down"}
        assert detours({path[0]: path for _, _, path in step.moves}) == {0: 2}
        assert step.moves[1] == (1, 0, (V(0, 0), V(2, 0), V(2, 2)))

    def test_packed_column_sends_its_last_mover_across(self, no_flow):
        # rows 2 and 4 are full outside the block; (2, 1) takes column 1's
        # last free low cell, so (4, 1) steps across its row to (4, 0) and
        # down column 0 to its lowest free low cell, with no flow call
        p = problem(4, 2, ((0, 0), (1, 1)), ((2, 1), (4, 2)), ((2, 2), (4, 1)))
        link, trace = solve_and_check(p)
        step = trace.steps[0]
        assert isinstance(step, TwoColumnStep) and step.slack == 2
        assert step.top_rows == (0, 2, 4)
        assert pushes(step) == {V(2, 1): "down", V(4, 1): "across"}
        assert [m for m in step.moves if m[0] == 2] == [(2, 1, (V(4, 1), V(4, 0), V(1, 0))),
                                                        (2, 1, (V(1, 0), V(1, 2)))]
        assert link.paths[2] == (V(2, 2), V(1, 2), V(1, 0), V(4, 0), V(4, 1))

    def test_relocation_needs_no_flow_and_crosses_as_counted(self, no_flow):
        # the counting argument at the relocation's invariant error: a
        # mover crosses only when the bridge bends through an anchor's row
        # (three cells), and then it is the step's only crossing
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
                if not isinstance(step, TwoColumnStep) or not pushes(step):
                    continue
                crowded += step.slack >= 2
                across = list(pushes(step).values()).count("across")
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

    # a float or bool coordinate would reach solve's output as a line such
    # as "path 1: (1.0,2) (1.0,0) (0,0)", which parse_linkage cannot read
    # back; the C-level Vertex constructor checks no length
    @pytest.mark.parametrize("terminal", [
        (1.0, 2), (True, 2), (1, False), V(1.0, 2), (1, 2, 3), (1,), "12", 5, None,
    ], ids=["float", "bool", "bool-col", "float-vertex", "3-tuple", "1-tuple", "str",
            "int", "none"])
    def test_terminal_is_two_integer_coordinates(self, terminal):
        with pytest.raises(ProblemContractError, match="not two integer coordinates"):
            LinkageProblem(ProductGraph(3, 3), ((terminal, (0, 0)),))

    @pytest.mark.parametrize("pair", [((0, 0), (1, 1), (2, 2)), ((0, 0),), 5],
                             ids=["three-terminals", "one-terminal", "bare-int"])
    def test_pair_is_two_terminals(self, pair):
        with pytest.raises(ProblemContractError, match="every pair must be two terminals"):
            LinkageProblem(ProductGraph(3, 3), (pair,))

    def test_index_coordinates_become_ints(self):
        class Label:
            def __init__(self, n):
                self.n = n

            def __index__(self):
                return self.n

        p = LinkageProblem(ProductGraph(3, 3), (((Label(1), Label(2)), V(0, 0)),))
        assert p.pairs == ((V(1, 2), V(0, 0)),)
        assert all(type(v) is Vertex and type(v[0]) is type(v[1]) is int for v in p.pairs[0])
        link, _ = solve(p)
        assert parse_linkage(serialize_linkage(link.paths)) == [list(link.paths[0])]

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


def test_large_solve_keeps_paths_short():
    # drained terminals land in their partners' columns, so most pairs are
    # routed as one edge after a hop or two; sent to the first free cell
    # instead, they give a median path of 35 cells on this board
    p = _bounded(random.Random(0), 200, 200, 200)
    link, _ = solve(p)
    assert verify(p, link).ok
    assert statistics.median(len(path) for path in link.paths) <= 5


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


def _bounded(rng, d1, d2, k):
    grid = ProductGraph(d1, d2)
    terms = sorted(rng.sample(sorted(grid.subgrid().vertices()), 2 * k))
    return LinkageProblem(grid, tuple(random_pairing(terms, rng)))


class TestPinnedOutput:
    def test_seeded_mix_matches_recorded_digest(self):
        # linkages and traces of a seeded mix at the bound, hashed; the
        # digest was recorded when a line-pair step began to route every
        # pair inside its column
        rng = random.Random(4242)
        problems = []
        for _ in range(2000):
            d1, d2 = rng.randint(2, 8), rng.randint(2, 8)
            problems.append(_bounded(rng, d1, d2, max_guaranteed_pairs(d1, d2)))
        problems += [_bounded(rng, d, d, d) for d in (60, 100)]
        digest = hashlib.sha256()
        for p in problems:
            link, trace = solve(p)
            digest.update(serialize_linkage(link.paths).encode())
            digest.update(render_trace(trace).encode())
        assert digest.hexdigest() == (
            "2cebf124a67e253b39d867f21a91b50dae13d452a65caa1528dbe8598bf003f9")

    def test_large_boards_match_recorded_digest(self):
        # boards past the seeded mix: two squares, two thin strips of
        # either orientation and a subgrid with gaps in its labels, all at
        # the bound; the digest was recorded when a line-pair step began to
        # route every pair inside its column
        rng = random.Random(2718)
        problems = [_bounded(rng, d1, d2, (d1 + d2) // 2)
                    for d1, d2 in ((200, 200), (300, 300), (20, 300), (300, 20))]
        sub = Subgrid(ProductGraph(90, 120), tuple(range(0, 91, 2)), tuple(range(1, 121, 3)))
        terms = rng.sample(sorted(sub.vertices()), 2 * max_guaranteed_pairs(45, 39))
        problems.append(LinkageProblem(sub, tuple(random_pairing(sorted(terms), rng))))
        digest = hashlib.sha256()
        for p in problems:
            link, trace = solve(p)
            digest.update(serialize_linkage(link.paths).encode())
            digest.update(render_trace(trace).encode())
        assert digest.hexdigest() == (
            "f551ca4cac1ab97908600178a4dffa650a0894d97ab71e2a2f6f24cbb468682d")

    @pytest.mark.parametrize("pairs, first_line", [
        # TestTwoColumnCase's packed-column board: an across push
        ((((0, 0), (1, 1)), ((2, 1), (4, 2)), ((2, 2), (4, 1))),
         "step 1: two-columns pair=1 cols=(0, 1) slack=2 bend-row=0 bridge=(0,0)(0,1)(1,1)"
         " top-rows=(0, 2, 4) into-block=2 in-block=0 pushes=(2, 1):down,(4, 1):across"
         " matching=-"),
        # its saturated-row board: a down push and a drain that matches a row
        ((((1, 0), (2, 1)), ((4, 0), (0, 1)), ((3, 0), (4, 2))),
         "step 1: two-columns pair=1 cols=(0, 1) slack=1 bend-row=1 bridge=(1,0)(1,1)(2,1)"
         " top-rows=(1, 4) into-block=1 in-block=2 pushes=(4, 0):down matching=0->2"),
    ], ids=["across-push", "matched-row"])
    def test_two_column_trace_lines_are_pinned(self, pairs, first_line):
        # recorded while the step record still stored its pushes, bend row
        # and columns; render_trace now reads them off the bridge and the log
        _, trace = solve(problem(4, 2, *pairs))
        assert render_trace(trace).splitlines() == [
            first_line, "step 2: transpose reason=narrow-side-first",
            "step 3: single-row row=2 pairs=2"]

    def test_matching_lists_its_rows_in_numeric_order(self):
        # the 203rd board of a seeded draw at the bound, (15, 4): two rows
        # detour, and row 13 follows row 6, as a string sort would not have
        # it.  Recorded while the step record still stored its matching
        rng = random.Random(11)
        for _ in range(203):
            d1, d2 = rng.randint(2, 30), rng.randint(2, 30)
            p = rooklink.oracle.random_problem(ProductGraph(d1, d2), (d1 + d2) // 2, rng)
        assert (d1, d2) == (15, 4)
        assert render_trace(solve_and_check(p)[1]).splitlines()[0] == (
            "step 1: two-columns pair=1 cols=(2, 3) slack=11 bend-row=2 bridge=(2,2)(2,3)(7,3)"
            " top-rows=(2,) into-block=0 in-block=4 pushes=- matching=6->0,13->1")

    def test_row_filled_by_earlier_moves_reads_as_full(self):
        # step 1 moves (6, 2) to (6, 5), and steps 1 and 2 move (5, 2) on to
        # (5, 5), so at step 3 rows 5 and 6 are full outside block columns 6
        # and 7 only through those moves: the row index kept by relocate
        # marks them as top rows and pushes their column-6 terminals down.
        # Recorded while the step still scanned every row against every
        # column outside the block
        pairs = (((0, 2), (4, 1)), ((1, 2), (6, 0)), ((3, 6), (5, 7)), ((5, 2), (6, 4)),
                 ((5, 3), (6, 6)), ((5, 4), (6, 2)), ((5, 6), (6, 3)))
        _, trace = solve_and_check(problem(7, 7, *pairs))
        ends = [path[-1] for step in trace.steps[:2] for _, _, path in step.moves]
        assert {(5, 5), (6, 5)} <= set(ends)
        assert render_trace(trace).splitlines()[2] == (
            "step 3: two-columns pair=3 cols=(6, 7) slack=5 bend-row=3 bridge=(3,6)(3,7)(5,7)"
            " top-rows=(3, 5, 6) into-block=2 in-block=0 pushes=(5, 6):down,(6, 6):down"
            " matching=-")

    @pytest.mark.parametrize("d1, d2, seed", [(2, 3, 1), (5, 4, 2), (8, 8, 3), (100, 100, 4)])
    def test_paths_hold_vertices_only(self, d1, d2, seed, monkeypatch):
        # the case steps route on plain (r, c) tuples; a tuple that leaked
        # into a path would print as (1, 2) where a Vertex prints (1,2).
        # Every Vertex is built by grid's C-level constructor, which never
        # runs Vertex.__new__, so each call below still works with it broken
        def broken(*args):
            raise AssertionError("Vertex.__new__ called")

        monkeypatch.setattr(Vertex, "__new__", broken)
        rooklink.oracle._board.cache_clear()  # so exhaustive_solve builds its table here
        p = _bounded(random.Random(seed), d1, d2, max_guaranteed_pairs(d1, d2))
        sub = p.subgrid
        link, trace = solve(p)
        parsed = parse_instance(serialize_instance(p))
        assert parsed == p
        cells = [list(sub.vertices())]
        cells += parsed.pairs
        cells += parse_linkage(serialize_linkage(link.paths))
        linkages = [link, replay(p, trace)]
        if d1 + d2 <= 9:
            linkages.append(exhaustive_solve(p).witness)
        cells += [path for linkage in linkages for path in linkage.paths]
        assert all(type(v) is Vertex for path in cells for v in path)


@st.composite
def bounded_problems(draw, at_bound=False):
    d1 = draw(st.integers(0, 5))
    d2 = draw(st.integers(0, 5))
    bound = max_guaranteed_pairs(d1, d2)
    grid = ProductGraph(d1, d2)
    verts = sorted(grid.subgrid().vertices())
    k = bound if at_bound else draw(st.integers(0, bound))
    terms = draw(st.permutations(verts))[: 2 * k]
    pairs = tuple((terms[2 * i], terms[2 * i + 1]) for i in range(k))
    return LinkageProblem(grid, pairs)


@settings(deadline=None, max_examples=150)
@given(bounded_problems())
def test_solver_output_is_always_valid(p):
    link, trace = solve(p)
    assert verify(p, link).ok
    assert replay(p, trace) == link


@settings(deadline=None, max_examples=150)
@given(bounded_problems(at_bound=True))
def test_each_move_starts_where_its_terminal_stands(p):
    # within a step, a move of a (pair, side) starts at that terminal's
    # cell before the step or where its previous move ended; a step's cells
    # are in the board's orientation, so a transpose mirrors every terminal
    link, trace = solve(p)
    at = {i: list(pair) for i, pair in enumerate(p.pairs)}
    for step in trace.steps:
        if isinstance(step, TransposeStep):
            at = {i: [flip(v) for v in pair] for i, pair in at.items()}
        elif isinstance(step, (LinePairStep, TwoColumnStep)):
            for idx, side, path in step.moves:
                assert path[0] == at[idx][side]
                at[idx][side] = path[-1]
            assert at.pop(step.pair) == [step.bridge[0], step.bridge[-1]]
            for idx, edge in getattr(step, "edges", ()):
                assert at.pop(idx) == list(edge)
    assert replay(p, trace) == link


def check_two_column_records(p) -> tuple[int, int, int]:
    """Assert the facts render_trace derives a two-column step's fields from;
    returns the counts of two-column steps, pushes and detours seen.

    Every move starts in a block column, off the bend row.  The pushes,
    the moves that end in one, come first, each from a top row to a low
    row in 2 or 3 cells.  The drain moves walk each plain block terminal
    out once, a pushed one after its push, and the 3-cell ones are the
    matched rows, each going down its own column, which the line's
    matching lists.  A matched row is a doubled row: two drain moves
    start on it.
    """
    link, trace = solve(p)
    seen = [0, 0, 0]
    for step, line in zip(trace.steps, render_trace(trace).splitlines()):
        if not isinstance(step, TwoColumnStep):
            continue
        cols = (step.bridge[0][1], step.bridge[-1][1])
        assert all(path[0][1] in cols and path[0][0] != step.bridge[-2][0]
                   for _, _, path in step.moves)
        in_block = [path[-1][1] in cols for _, _, path in step.moves]
        assert in_block == sorted(in_block, reverse=True), "a push after a drain move"
        pushed = [move for move, inside in zip(step.moves, in_block) if inside]
        drains = [move for move, inside in zip(step.moves, in_block) if not inside]
        for _, _, path in pushed:
            assert len(path) in (2, 3)
            assert path[0][0] in step.top_rows and path[-1][0] not in step.top_rows
        assert all(len(path) in (2, 3) for _, _, path in drains)
        drained = {(idx, side) for idx, side, _ in drains}
        assert len(drained) == len(drains)
        assert {(idx, side) for idx, side, _ in pushed} <= drained
        matched = detours({path[0]: path for _, _, path in drains})
        shown = ",".join(f"{r}->{spare}" for r, spare in sorted(matched.items())) or "-"
        assert line.endswith(f" matching={shown}")
        assert all(path[1][1] == path[0][1] for _, _, path in drains if len(path) == 3)
        starts = Counter(path[0][0] for _, _, path in drains)
        assert all(starts[r] == 2 for r in matched)
        seen[0] += 1
        seen[1] += len(pushed)
        seen[2] += len(matched)
    assert replay(p, trace) == link
    return tuple(seen)


@settings(deadline=None, max_examples=150)
@given(bounded_problems(at_bound=True))
def test_two_column_records_hold_what_the_trace_derives(p):
    check_two_column_records(p)


def test_two_column_records_hold_on_seeded_boards():
    # a 31 x 31 board at the bound takes a two-column step on about half
    # the seeds, and a push on almost none, so small boards supply those
    rng = random.Random(31)
    large = [check_two_column_records(_bounded(rng, 30, 30, 30)) for _ in range(40)]
    small = []
    for _ in range(300):
        d1, d2 = rng.randint(2, 6), rng.randint(2, 6)
        small.append(check_two_column_records(_bounded(rng, d1, d2, max_guaranteed_pairs(d1, d2))))
    steps, _, matched = map(sum, zip(*large))
    assert steps > 0 and matched > 0
    assert min(map(sum, zip(*small))) > 0


def check_line_pair_records(p) -> int:
    """Assert that each line-pair step's edges are pairs inside its column
    that no move of the step and no later step names, and that each 3-cell
    move goes down its own column; returns the count of edges."""
    link, trace = solve(p)
    edges = 0
    for n, step in enumerate(trace.steps):
        if not isinstance(step, LinePairStep):
            continue
        column = step.bridge[0][1]
        routed = {step.pair, *(idx for idx, _ in step.edges)}
        assert [idx for idx, _ in step.edges] == sorted(routed - {step.pair})
        assert all(v[1] == column for _, edge in step.edges for v in edge)
        assert not routed & {idx for idx, _, _ in step.moves}
        assert all(path[1][1] == path[0][1] for _, _, path in step.moves if len(path) == 3)
        for later in trace.steps[n + 1:]:
            named = {idx for idx, _, _ in getattr(later, "moves", ())}
            named |= {getattr(later, "pair", None), *getattr(later, "paths", {})}
            named |= {idx for idx, _ in getattr(later, "edges", ())}
            assert not routed & named, (step, later)
        edges += len(step.edges)
    assert replay(p, trace) == link
    return edges


def test_line_pair_records_hold_on_seeded_boards():
    # a 31 x 31 board at the bound routes many pairs as edges of a column
    rng = random.Random(37)
    large = [check_line_pair_records(_bounded(rng, 30, 30, 30)) for _ in range(20)]
    for _ in range(300):
        d1, d2 = rng.randint(2, 6), rng.randint(2, 6)
        check_line_pair_records(_bounded(rng, d1, d2, max_guaranteed_pairs(d1, d2)))
    assert min(large) > 0


def check_board_indexes(p) -> Counter:
    """Step p's board as solve does and, after every step, compare its
    indexes with a fresh rebuild from its live pairs; returns the counts of
    the step kinds taken."""
    sub = p.subgrid
    board, steps = _Board(sub.rows, sub.cols, p.pairs), []
    while board.pairs:
        steps.append(_next_step(board, steps))
        if isinstance(steps[-1], (SingleRowStep, TwoRowsStep)):
            break
        occupied = {v: w for s, t in board.pairs.values() for v, w in ((s, t), (t, s))}
        assert board.occupied == occupied
        # deletions keep the active lines ascending and a transpose swaps them
        assert list(board.rows) == sorted(board.rows) and list(board.cols) == sorted(board.cols)
        assert board.idx_of == {v: i for i, pair in board.pairs.items() for v in pair}
        by_row, by_col = defaultdict(set), defaultdict(set)
        for r, c in occupied:
            assert r in board.rows and c in board.cols
            by_row[r].add(c)
            by_col[c].add(r)
        assert {r: cs for r, cs in board.by_row.items() if cs} == by_row
        assert {c: rs for c, rs in board.by_col.items() if rs} == by_col
        aligned = {i for i, (s, t) in board.pairs.items() if s[0] == t[0] or s[1] == t[1]}
        assert aligned <= set(board.aligned)
    assert SolverTrace(tuple(steps)) == solve(p)[1]
    return Counter(type(step).__name__ for step in steps)


def test_board_indexes_match_a_fresh_rebuild_after_every_step():
    # relocate, route and transpose keep the indexes; squares at the bound
    # and a small mix that takes transposes and two-column steps
    rng = random.Random(53)
    kinds = Counter()
    for d, count in ((30, 6), (100, 2)):
        for _ in range(count):
            kinds += check_board_indexes(_bounded(rng, d, d, d))
    for _ in range(300):
        d1, d2 = rng.randint(2, 8), rng.randint(2, 8)
        kinds += check_board_indexes(_bounded(rng, d1, d2, max_guaranteed_pairs(d1, d2)))
    assert min(kinds[name] for name in ("TransposeStep", "TwoColumnStep", "LinePairStep")) > 0


class _KeyedIndex(defaultdict):
    """A line index that answers lookups by key and refuses every walk."""

    def _refuse(self, *args):
        raise AssertionError("a step walked a whole line index")

    __iter__ = items = keys = values = _refuse


def test_steps_read_the_line_indexes_by_key_only(monkeypatch):
    # a step reads the lines it touches, never every row: with both line
    # indexes refusing walks, seeded boards that take two-column steps
    # route as before
    rng = random.Random(71)
    problems = [_bounded(rng, 30, 30, 30) for _ in range(4)]
    for _ in range(200):
        d1, d2 = rng.randint(2, 8), rng.randint(2, 8)
        problems.append(_bounded(rng, d1, d2, max_guaranteed_pairs(d1, d2)))
    expected = [solve(p) for p in problems]
    monkeypatch.setattr(rooklink.solver, "defaultdict", _KeyedIndex)
    assert [solve(p) for p in problems] == expected
    assert sum(isinstance(step, TwoColumnStep) for _, trace in expected for step in trace.steps) > 0
