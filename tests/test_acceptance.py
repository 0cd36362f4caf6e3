"""Acceptance suite: one test per criterion, one printed line per verdict."""

import itertools
import random
import time

import pytest

from rooklink import (LinkageProblem, ProductGraph, SolverInvariantError,
                      Vertex, all_pairings, connectivity, exhaustive_solve,
                      find_infeasible_pairing, max_guaranteed_pairs,
                      random_pairing, render_trace, replay,
                      serialize_linkage, solve, verify)
from rooklink.cli import main
from rooklink.solver import drain_block

from helpers import brute_linkable, detours, routing_margin_holds

V = Vertex


def _announce(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


def _all_instances(d1, d2, k):
    grid = ProductGraph(d1, d2)
    verts = sorted(grid.subgrid().vertices())
    for tset in itertools.combinations(verts, 2 * k):
        for pairing in all_pairings(tset):
            yield LinkageProblem(grid, tuple(pairing))


def test_criterion_1_exhaustive_theorem_check(capsys):
    total = 0
    for d1 in range(0, 7):
        for d2 in range(0, 7 - d1):
            k = max_guaranteed_pairs(d1, d2)
            if k == 0:
                continue
            for p in _all_instances(d1, d2, k):
                total += 1
                link, _ = solve(p)
                report = verify(p, link)
                assert report.ok, f"({d1},{d2}) {p.pairs}: {report.reason}"
    _announce(capsys, f"ACCEPTANCE 1 PASS: exhaustive d1+d2<=6 sweep,"
                      f" {total} instances all verifier-valid")


def test_criterion_2_randomized_theorem_check(capsys):
    rng = random.Random(2024)
    started = time.perf_counter()
    for _ in range(10_000):
        d1 = rng.randint(2, 8)
        d2 = rng.randint(2, 8)
        k = max_guaranteed_pairs(d1, d2)
        grid = ProductGraph(d1, d2)
        terms = sorted(rng.sample(sorted(grid.subgrid().vertices()), 2 * k))
        p = LinkageProblem(grid, tuple(random_pairing(terms, rng)))
        link, _ = solve(p)
        report = verify(p, link)
        assert report.ok, f"({d1},{d2}) {p.pairs}: {report.reason}"
    elapsed = time.perf_counter() - started
    _announce(capsys, f"ACCEPTANCE 2 PASS: 10000 random instances, 2<=d<=8,"
                      f" all verifier-valid in {elapsed:.1f}s")


def test_criterion_3_oracle_agreement(capsys):
    total = 0
    for d1 in range(0, 6):
        for d2 in range(0, 6 - d1):
            k = max_guaranteed_pairs(d1, d2)
            if k == 0:
                continue
            for p in _all_instances(d1, d2, k):
                total += 1
                verdict = exhaustive_solve(p)
                assert verdict.feasible, f"oracle disputes feasibility: {p.pairs}"
                link, _ = solve(p)
                assert verify(p, link).ok
    _announce(capsys, f"ACCEPTANCE 3 PASS: oracle agrees on all {total}"
                      f" instances of the d1+d2<=5 sweep")


def test_criterion_4_connectivity(capsys):
    for d1 in range(1, 5):
        for d2 in range(1, 5):
            value = connectivity(ProductGraph(d1, d2).subgrid())
            assert value == d1 + d2, f"({d1},{d2}): got {value}"
    _announce(capsys, "ACCEPTANCE 4 PASS: connectivity equals d1+d2"
                      " for all 1<=d1,d2<=4")


def test_criterion_5_sharpness(capsys):
    for d1, d2 in [(1, 2), (1, 4), (2, 1), (2, 3)]:
        k = (d1 + d2 + 1) // 2
        res = find_infeasible_pairing(d1, d2, k)
        assert res.completed, f"({d1},{d2}) search did not complete"
        assert res.found is not None, f"({d1},{d2}) no infeasible pairing found"
        check = exhaustive_solve(res.found)
        assert check.feasible is False
        assert not brute_linkable(res.found), "the independent decider links it"
    _announce(capsys, "ACCEPTANCE 5 PASS: certified infeasible pairings at"
                      " k=floor((d1+d2+1)/2) for (1,2),(1,4),(2,1),(2,3)")


def test_criterion_5_optional_long_sharpness(capsys):
    res = find_infeasible_pairing(2, 5, 4)
    assert res.completed and res.found is not None
    assert exhaustive_solve(res.found).feasible is False
    assert not brute_linkable(res.found), "the independent decider links it"
    _announce(capsys, "ACCEPTANCE 5 (optional) PASS: (2,5) infeasible pairing found")


def test_criterion_6_counting_guards(capsys):
    for x in range(2, 101):
        for y in range(2, 101):
            assert routing_margin_holds(x, y), (x, y)

    rng = random.Random(66)
    rows_pool = list(range(1, 9))
    dest_cols = (2, 3, 4)
    drains = 0
    for _ in range(1000):
        height = rng.randint(2, 8)
        rows = tuple(sorted(rng.sample(rows_pool, height)))
        # a two-column block models the two-column case, whose destination
        # rows always have room; a one-column block models a line pair's
        # column (or the two-row base case), where destination rows may be
        # full and send their lone terminal through a spare row
        block_cols = rng.choice(((0, 1), (0,)))
        cells = [V(r, c) for r in rows for c in block_cols]
        # anchors model an already-routed pair on distinct rows
        anchors = set()
        n_anchors = rng.randint(0, 2)
        if n_anchors >= 1:
            anchors.add(V(rng.choice(rows), block_cols[0]))
        if n_anchors == 2:
            other_rows = [r for r in rows if V(r, block_cols[0]) not in anchors]
            anchors.add(V(rng.choice(other_rows), block_cols[-1]))
        pool = [v for v in cells if v not in anchors]
        plain = set(rng.sample(pool, rng.randint(0, min(height, len(pool)))))
        occupied = anchors | plain
        dest_terms = set()
        for r in rows:
            row_cells = [V(r, c) for c in dest_cols]
            if len(block_cols) == 2:
                n_dest = rng.randint(0, len(dest_cols) - 1)
            else:
                n_dest = rng.choice((0, 0, len(dest_cols)))
            dest_terms.update(rng.sample(row_cells, n_dest))
        # each terminal maps to its own cell: no partner's column to prefer
        full_occ = {v: v for v in occupied | dest_terms}
        full_rows = {r for r in rows if all(V(r, c) in dest_terms for c in dest_cols)}
        in_row = {r: sum(1 for c in block_cols if V(r, c) in plain) for r in rows}
        needy = {r for r in rows if in_row[r] == 2 or (in_row[r] == 1 and r in full_rows)}
        spare = {r for r in rows if in_row[r] == 0 and r not in full_rows
                 and any(V(r, c) not in occupied for c in block_cols)}
        if len(block_cols) == 1 and len(full_occ) <= height - 1 + len(dest_cols):
            # the counting argument of the line-pair and two-row cases
            assert len(needy) <= len(spare), "spare rows run out within the bound"
        if len(needy) > len(spare):
            with pytest.raises(SolverInvariantError):
                drain_block(rows, block_cols, dest_cols, full_occ, plain)
            continue
        out = drain_block(rows, block_cols, dest_cols, full_occ, plain)
        matching = detours(out)
        assert len(set(matching.values())) == len(matching), "matching not injective"
        assert set(matching) == needy and set(matching.values()) <= spare
        drains += 1
        assert set(out) == plain
        used = set()
        for x, path in out.items():
            assert path[0] == x and path[-1][1] in dest_cols
            for u, w in zip(path, path[1:]):
                assert u[0] == w[0] or u[1] == w[1]
            for v in path[1:]:
                assert v not in full_occ, "route passes through a terminal"
                assert v not in used, "routes collide"
                used.add(v)
        assert len({p[-1][0] for p in out.values()}) == len(out)
    _announce(capsys, f"ACCEPTANCE 6 PASS: counting margin (x,y<=100), 1000 row"
                      f" matchings, and {drains} block drains all hold")


def test_criterion_7_large_instance_under_five_seconds(capsys):
    rng = random.Random(100)
    grid = ProductGraph(100, 100)
    terms = sorted(rng.sample(sorted(grid.subgrid().vertices()), 200))
    p = LinkageProblem(grid, tuple(random_pairing(terms, rng)))
    started = time.perf_counter()
    link, _ = solve(p)
    elapsed = time.perf_counter() - started
    assert verify(p, link).ok
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _announce(capsys, f"ACCEPTANCE 7 PASS: d1=d2=100, k=100 solved and verified"
                      f" in {elapsed:.2f}s")


def test_criterion_7_scenario_150_under_five_seconds(capsys):
    # the ROADMAP's 150x150 scenario at the same bound: 151 x 151, k=150
    rng = random.Random(150)
    grid = ProductGraph(150, 150)
    terms = sorted(rng.sample(sorted(grid.subgrid().vertices()), 300))
    p = LinkageProblem(grid, tuple(random_pairing(terms, rng)))
    started = time.perf_counter()
    link, _ = solve(p)
    elapsed = time.perf_counter() - started
    assert verify(p, link).ok
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _announce(capsys, f"ACCEPTANCE 7 (150x150) PASS: d1=d2=150, k=150 solved and"
                      f" verified in {elapsed:.2f}s")


def test_criterion_8_determinism(capsys):
    p = LinkageProblem(ProductGraph(4, 5), (
        (V(0, 0), V(1, 1)), (V(2, 2), V(3, 3)), (V(4, 4), V(0, 5)),
        (V(1, 0), V(4, 2))))
    link1, trace1 = solve(p)
    link2, trace2 = solve(p)
    assert serialize_linkage(link1.paths) == serialize_linkage(link2.paths)
    assert render_trace(trace1) == render_trace(trace2)
    assert replay(p, trace1) == link1

    main(["fuzz", "--count", "200", "--seed", "11"])
    first = capsys.readouterr().out
    main(["fuzz", "--count", "200", "--seed", "11"])
    second = capsys.readouterr().out
    assert first == second and "verifier-passes=200" in first
    _announce(capsys, "ACCEPTANCE 8 PASS: linkages, traces, and fuzz reports"
                      " byte-identical across runs")
