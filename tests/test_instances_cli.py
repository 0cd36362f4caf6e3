import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rooklink.cli
import rooklink.oracle
from helpers import brute_linkable, fake_pool
from rooklink import (InstanceFormatError, LinkageProblem, ProblemContractError, ProductGraph,
                      SolverInvariantError, SolverTrace, Subgrid, Verdict, Vertex, VerifyReport,
                      parse_instance, parse_linkage, render_trace, serialize_instance,
                      serialize_linkage)
from rooklink.cli import main
from rooklink.solver import TransposeStep

V = Vertex


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def refuse_board_tables(monkeypatch):
    def refused(rows, cols):
        raise AssertionError("the oracle's board table was built")

    monkeypatch.setattr(rooklink.oracle, "_board", refused)


def src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


class TestInstanceFormat:
    def test_parse_basic(self):
        p = parse_instance("# comment\ndims 2 3\npair 0 0 2 1\npair 1 2 0 3\n")
        assert p.subgrid.base == ProductGraph(2, 3)
        assert p.pairs == ((V(0, 0), V(2, 1)), (V(1, 2), V(0, 3)))

    def test_round_trip_identity(self):
        text = "dims 2 3\npair 0 0 2 1\npair 1 2 0 3\n"
        once = parse_instance(text)
        again = parse_instance(serialize_instance(once))
        assert once == again

    def test_proper_subgrid_has_no_instance_file(self):
        # "dims 3 3" would read back as the whole board, whose other cells
        # the problem leaves out
        sub = Subgrid(ProductGraph(3, 3), (0, 2), (1, 3))
        with pytest.raises(ProblemContractError):
            serialize_instance(LinkageProblem(sub, ((V(0, 1), V(2, 3)),)))
        whole = LinkageProblem(ProductGraph(3, 3).subgrid(), ((V(0, 1), V(2, 3)),))
        assert serialize_instance(whole) == "dims 3 3\npair 0 1 2 3\n"

    def test_missing_dims(self):
        with pytest.raises(InstanceFormatError, match="pair before dims"):
            parse_instance("pair 0 0 1 1\n")

    def test_unknown_directive(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("dims 1 1\nedge 0 0 1 1\n")

    def test_short_pair_line(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("dims 1 1\npair 0 0 1\n")

    def test_linkage_round_trip(self):
        paths = [[V(0, 0), V(0, 1)], [V(1, 2), V(1, 3), V(0, 3)]]
        assert parse_linkage(serialize_linkage(paths)) == paths

    def test_linkage_bad_numbering(self):
        with pytest.raises(InstanceFormatError):
            parse_linkage("path 2: (0,0) (0,1)\n")

    def test_linkage_garbage(self):
        with pytest.raises(InstanceFormatError):
            parse_linkage("path 1: (0,0) spam\n")

    def test_empty_linkage_round_trip(self):
        assert serialize_linkage([]) == ""
        assert parse_linkage("") == []


class TestCliSolve:
    def test_trivial_instance(self, tmp_path, capsys):
        inst = write(tmp_path, "a.txt", "dims 0 3\npair 0 0 0 1\n")
        assert main(["solve", inst]) == 0
        assert capsys.readouterr().out == "path 1: (0,0) (0,1)\n"

    def test_duplicate_terminal_exits_2(self, tmp_path, capsys):
        inst = write(tmp_path, "a.txt", "dims 2 2\npair 0 0 1 1\npair 0 0 2 2\n")
        assert main(["solve", inst]) == 2
        assert "distinct" in capsys.readouterr().err

    def test_k_above_bound_exits_2(self, tmp_path, capsys):
        inst = write(tmp_path, "a.txt",
                     "dims 1 2\npair 0 0 1 1\npair 0 1 1 2\n")
        assert main(["solve", inst]) == 2
        assert "oracle" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["solve", "/nonexistent/path.txt"]) == 2

    def test_impossible_board_is_refused_before_any_label(self, tmp_path, capsys, monkeypatch):
        def refused(self):
            raise AssertionError("the board's labels were built")

        monkeypatch.setattr(ProductGraph, "subgrid", refused)
        inst = write(tmp_path, "a.txt", "dims 100000000 3\npair 0 0 1 1\n")
        assert main(["solve", inst]) == 2
        assert capsys.readouterr().err == "error: board too large: d1 + d2 = 100000003 > 100000\n"

    def test_non_utf8_instance_is_an_input_error(self, tmp_path, capsys):
        # instances are UTF-8; a bad byte is the input's fault, not a bug
        inst = tmp_path / "a.txt"
        inst.write_bytes(b"dims 2 2\npair 0 0 1 1 \xff\n")
        assert main(["solve", str(inst)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_byte_order_mark_is_ignored(self, tmp_path, capsys):
        inst = tmp_path / "a.txt"
        inst.write_bytes(b"\xef\xbb\xbfdims 0 3\npair 0 0 0 1\n")
        assert main(["solve", str(inst)]) == 0
        assert capsys.readouterr().out == "path 1: (0,0) (0,1)\n"

    def test_trace_flag_appends_case_log(self, tmp_path, capsys):
        inst = write(tmp_path, "a.txt", "dims 2 3\npair 0 0 2 1\npair 1 2 0 3\n")
        assert main(["solve", inst, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "path 1:" in out and "step 1:" in out

    def test_trace_output_is_pinned(self, tmp_path, capsys):
        inst = write(tmp_path, "a.txt", "dims 5 3\npair 1 0 2 1\npair 0 0 2 2\n"
                                        "pair 0 2 3 3\npair 0 3 4 2\n")
        assert main(["solve", inst, "--trace"]) == 0
        assert capsys.readouterr().out == (
            "path 1: (1,0) (1,1) (2,1)\n"
            "path 2: (0,0) (2,0) (2,3) (5,3) (5,2) (2,2)\n"
            "path 3: (0,2) (1,2) (1,3) (3,3)\n"
            "path 4: (0,3) (4,3) (4,2)\n"
            "step 1: two-columns pair=1 cols=(0, 1) slack=4 bend-row=1"
            " bridge=(1,0)(1,1)(2,1) top-rows=(0, 1) into-block=1 in-block=0"
            " pushes=(0, 0):down matching=-\n"
            "step 2: transpose reason=narrow-side-first\n"
            "step 3: two-rows target-row=3 pairs=3\n")

    def test_internal_error_exits_4_with_its_trace(self, tmp_path, capsys, monkeypatch):
        def broken(problem):
            raise SolverInvariantError("boom", SolverTrace((TransposeStep("test"),)))

        monkeypatch.setattr(rooklink.cli, "solve", broken)
        inst = write(tmp_path, "a.txt", "dims 2 3\npair 0 0 2 1\n")
        assert main(["solve", inst]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: boom\nstep 1: transpose reason=test\n"

    def test_unverified_linkage_is_not_printed(self, tmp_path, capsys, monkeypatch):
        def refuse(problem, linkage):
            return VerifyReport(False, "paths 1 and 2 share (0,1)")

        monkeypatch.setattr(rooklink.cli, "verify", refuse)
        inst = write(tmp_path, "a.txt", "dims 2 3\npair 0 0 2 1\npair 1 2 0 3\n")
        assert main(["solve", inst, "--trace"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "internal error: solver output fails verify: paths 1 and 2 share (0,1)\nstep 1: ")

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # the reader of stdout is gone before anything is written, as when
        # `rooklink solve big.txt --trace | head -1` stops reading early
        inst = write(tmp_path, "a.txt", "dims 2 3\npair 0 0 2 1\npair 1 2 0 3\n")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "rooklink.cli", "solve", inst, "--trace"],
                stdout=write_end, stderr=subprocess.PIPE, env=src_env(), timeout=60)
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 141


class TestCliVerify:
    def test_round_trip(self, tmp_path, capsys):
        inst = write(tmp_path, "a.txt", "dims 2 3\npair 0 0 2 1\npair 1 2 0 3\n")
        assert main(["solve", inst]) == 0
        link = write(tmp_path, "a.out", capsys.readouterr().out)
        assert main(["verify", inst, link]) == 0
        assert capsys.readouterr().out == "pass\n"

    def test_corrupted_linkage_exits_1(self, tmp_path, capsys):
        inst = write(tmp_path, "a.txt", "dims 2 3\npair 0 0 2 1\npair 1 2 0 3\n")
        link = write(tmp_path, "a.out",
                     "path 1: (0,0) (1,1) (2,1)\npath 2: (1,2) (0,3)\n")
        assert main(["verify", inst, link]) == 1
        assert "adjacency" in capsys.readouterr().out

    def test_missing_linkage_exits_2(self, tmp_path):
        inst = write(tmp_path, "a.txt", "dims 2 3\npair 0 0 2 1\n")
        assert main(["verify", inst, str(tmp_path / "nope.out")]) == 2

    def test_non_utf8_linkage_is_an_input_error(self, tmp_path, capsys):
        inst = write(tmp_path, "a.txt", "dims 2 3\npair 0 0 2 1\n")
        link = tmp_path / "a.out"
        link.write_bytes(b"path 1: (0,0) (2,0) (2,1) \xff\n")
        assert main(["verify", inst, str(link)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_byte_order_mark_is_ignored(self, tmp_path, capsys):
        inst = write(tmp_path, "a.txt", "dims 2 3\npair 0 0 2 1\n")
        link = tmp_path / "a.out"
        link.write_bytes(b"\xef\xbb\xbfpath 1: (0,0) (2,0) (2,1)\n")
        assert main(["verify", inst, str(link)]) == 0
        assert capsys.readouterr().out == "pass\n"


INSTANCE = "dims 2 3\npair 0 0 2 1\n"


@pytest.mark.parametrize("argv, files, message", [
    (["solve", "a.txt"], {"a.txt": "dims 2 3\ndims 2 3\n"}, "line 2: duplicate dims line"),
    (["solve", "a.txt"], {"a.txt": "dims 2\n"}, "line 1: expected 'dims D1 D2'"),
    (["solve", "a.txt"], {"a.txt": "dims 2 x\n"}, "line 1: dims must be integers"),
    (["solve", "a.txt"], {"a.txt": "dims 2 3\npair 0 0 1 y\n"},
     "line 2: coordinates must be integers"),
    (["solve", "a.txt"], {"a.txt": ""}, "missing dims line"),
    (["solve", "a.txt"], {"a.txt": "dims -1 3\n"}, "dims must be nonnegative"),
    (["verify", "a.txt", "a.out"], {"a.txt": INSTANCE, "a.out": "path 0: (0,0) (2,0) (2,1)\n"},
     "line 1: bad or duplicate path number 0"),
    (["verify", "a.txt", "a.out"],
     {"a.txt": INSTANCE, "a.out": "path 1: (0,0) (2,0) (2,1)\npath 1: (0,0) (2,1)\n"},
     "line 2: bad or duplicate path number 1"),
    (["verify", "a.txt", "a.out"], {"a.txt": INSTANCE, "a.out": "path 1:\n"},
     "line 1: empty path"),
    (["fuzz", "--count", "1", "--d1-range", "3:2"], {}, "ranges must satisfy 0 <= MIN <= MAX"),
], ids=["duplicate-dims", "dims-arity", "dims-not-int", "coordinate-not-int", "empty-file",
        "negative-dims", "path-number-0", "duplicate-path-number", "empty-path", "reversed-range"])
def test_malformed_input_exits_2_with_its_message(tmp_path, capsys, argv, files, message):
    for name, text in files.items():
        write(tmp_path, name, text)
    assert main([str(tmp_path / arg) if arg in files else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


class TestCliOracle:
    def test_feasible(self, tmp_path, capsys):
        inst = write(tmp_path, "a.txt", "dims 2 2\npair 0 0 2 0\npair 1 1 0 2\n")
        assert main(["oracle", inst]) == 0
        assert "feasible" in capsys.readouterr().out

    def test_infeasible(self, tmp_path, capsys):
        # crossing pairing on the 2x3 grid, one pair count above the bound
        inst = write(tmp_path, "a.txt",
                     "dims 1 2\npair 0 0 1 1\npair 1 0 0 1\n")
        code = main(["oracle", inst])
        out = capsys.readouterr().out
        if code == 0:
            pytest.fail(f"expected infeasible, got: {out}")
        assert code == 1 and "infeasible" in out
        assert not brute_linkable(parse_instance(Path(inst).read_text()))

    def test_budget_indeterminate_exits_3(self, tmp_path, capsys):
        inst = write(tmp_path, "a.txt",
                     "dims 3 3\npair 0 0 1 1\npair 1 0 2 2\npair 2 0 3 3\n")
        assert main(["oracle", inst, "--budget", "2"]) == 3
        assert "indeterminate" in capsys.readouterr().out

    def test_negative_budget_exits_2(self, tmp_path, capsys):
        inst = write(tmp_path, "a.txt", "dims 1 1\npair 0 0 1 1\n")
        assert main(["oracle", inst, "--budget", "-1"]) == 2
        assert capsys.readouterr().err == "error: node budget must be non-negative, got -1\n"

    def test_default_budget_ends_a_long_search_in_exit_3(self, tmp_path, capsys, monkeypatch):
        # three pairs on a 10x10 board that the search leaves unsettled
        # after 20M nodes; with no --budget the default budget ends it,
        # and --budget still overrides the default
        monkeypatch.setattr(rooklink.cli, "ORACLE_NODE_BUDGET", 1000)
        inst = write(tmp_path, "a.txt", "dims 9 9\npair 0 0 9 9\npair 0 9 9 0\npair 5 5 4 4\n")
        assert main(["oracle", inst]) == 3
        assert capsys.readouterr().out == "indeterminate: node budget exhausted after 1001 nodes\n"
        assert main(["oracle", inst, "--budget", "5000"]) == 3
        assert capsys.readouterr().out == "indeterminate: node budget exhausted after 5001 nodes\n"

    def test_large_board_is_refused_before_any_table_is_built(self, tmp_path, capsys,
                                                              monkeypatch):
        refuse_board_tables(monkeypatch)
        inst = write(tmp_path, "a.txt", "dims 100 99\npair 0 0 100 99\n")
        assert main(["oracle", inst]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: board too large for oracle (10100 vertices > 10000)\n"

    def test_ten_thousand_vertices_pass_the_guard(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(rooklink.cli, "exhaustive_solve",
                            lambda problem, budget: Verdict(False, None, 0))
        inst = write(tmp_path, "a.txt", "dims 99 99\npair 0 0 99 99\n")
        assert main(["oracle", inst]) == 1
        assert capsys.readouterr().out == "infeasible (0 nodes)\n"

    def test_witness_failing_verify_is_not_printed(self, tmp_path, capsys, monkeypatch):
        # the oracle's witness passes the same gate as the solver's output
        monkeypatch.setattr(rooklink.cli, "verify",
                            lambda problem, linkage: VerifyReport(False, "path 1 is empty"))
        inst = write(tmp_path, "a.txt", "dims 2 2\npair 0 0 2 0\npair 1 1 0 2\n")
        assert main(["oracle", inst]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: oracle witness fails verify: path 1 is empty\n"

    def test_long_witness_needs_no_deep_recursion(self, tmp_path, capsys):
        # a single pair across a 40x40 board: the search snakes through
        # 1,561 cells, far deeper than the default recursion limit
        inst = write(tmp_path, "a.txt", "dims 39 39\npair 0 0 39 39\n")
        assert main(["oracle", inst]) == 0
        head, _, linkage = capsys.readouterr().out.partition("\n")
        assert head == "feasible (1561 nodes)"
        assert main(["verify", inst, write(tmp_path, "a.out", linkage)]) == 0


class TestCliConnectivity:
    @pytest.mark.parametrize("d1,d2,expected", [(2, 3, 5), (1, 1, 2), (0, 3, 3)])
    def test_values(self, capsys, d1, d2, expected):
        assert main(["connectivity", str(d1), str(d2)]) == 0
        assert capsys.readouterr().out.strip() == str(expected)

    @pytest.mark.parametrize("d1,d2,message", [
        (0, 0, "connectivity undefined on a single vertex"),
        (-1, 2, "dimensions must be nonnegative, got (-1, 2)"),
        (0, 100_001, "board too large: d1 + d2 = 100001 > 100000")])
    def test_bad_board_is_an_input_error(self, capsys, d1, d2, message):
        assert main(["connectivity", str(d1), str(d2)]) == 2
        assert capsys.readouterr().err.strip() == f"error: {message}"

    def test_stray_value_error_is_internal(self, capsys, monkeypatch):
        # a ValueError that no input check raised is a bug, not bad input
        def broken(sub):
            raise ValueError("boom")

        monkeypatch.setattr(rooklink.cli, "connectivity", broken)
        assert main(["connectivity", "2", "3"]) == 4
        assert capsys.readouterr().err == "internal error: boom\n"

    def test_large_board_is_refused_before_any_fan(self, capsys, monkeypatch):
        def refused(sub):
            raise AssertionError("connectivity ran past the size guard")

        monkeypatch.setattr(rooklink.cli, "connectivity", refused)
        assert main(["connectivity", "20", "20"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: board too large for connectivity (441 vertices > 400)\n"

    def test_four_hundred_vertices_pass_the_guard(self, capsys, monkeypatch):
        monkeypatch.setattr(rooklink.cli, "connectivity", lambda sub: sub.vertex_count)
        assert main(["connectivity", "19", "19"]) == 0
        assert capsys.readouterr().out == "400\n"

    @pytest.mark.parametrize("d1,d2,expected", [(1, 199, 200), (2, 132, 134)])
    def test_boards_at_the_guard_are_checked_in_full(self, capsys, d1, d2, expected):
        # the thinnest boards of at most 400 cells check the most fan paths
        assert main(["connectivity", str(d1), str(d2)]) == 0
        assert capsys.readouterr().out == f"{expected}\n"

    @pytest.mark.parametrize("d1,d2", [(0, 500), (500, 0)])
    def test_cliques_are_never_guarded(self, capsys, d1, d2):
        assert main(["connectivity", str(d1), str(d2)]) == 0
        assert capsys.readouterr().out == "500\n"


class TestCliSharpness:
    def test_counterexample_found(self, capsys):
        assert main(["sharpness", "1", "2", "--exhaustive"]) == 0
        out = capsys.readouterr().out
        assert "infeasible pairing found" in out
        assert "dims 1 2" in out

    def test_counterexample_on_the_three_row_family(self, capsys):
        assert main(["sharpness", "2", "3", "--exhaustive"]) == 0
        out = capsys.readouterr().out
        assert "infeasible pairing found" in out
        assert "dims 2 3" in out

    def test_none_at_the_guaranteed_bound(self, capsys):
        assert main(["sharpness", "2", "2", "--k", "2", "--exhaustive"]) == 0
        assert "none found: every pairing is feasible" in capsys.readouterr().out

    def test_default_k_is_one_above_the_bound_on_even_sums(self, capsys):
        assert main(["sharpness", "2", "2"]) == 0
        out = capsys.readouterr().out
        assert "3 pairs, 3 pairings checked, 23 nodes" in out
        assert "infeasible pairing found" in out

    def test_negative_pair_count_is_an_input_error(self, capsys):
        assert main(["sharpness", "2", "2", "--k", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.strip() == "error: pair count must be non-negative, got -1"

    @pytest.mark.parametrize("argv", [["1", "29", "--k", "15"], ["9", "9", "--k", "5"]])
    def test_forced_sweep_too_large_to_tabulate_exits_2(self, capsys, argv):
        # 29!! pairing flags, or 10! * 2^10 row-table entries: refused
        # before either table is allocated
        assert main(["sharpness", *argv, "--exhaustive"]) == 2
        err = capsys.readouterr().err
        assert err.strip() == "error: grid too large for an exhaustive linkedness sweep"

    @pytest.mark.parametrize("argv, line", [
        (["0", "15"], "grid 0 15, 8 pairs, 1 pairings checked, 16 nodes"),
        (["0", "30", "--k", "15", "--exhaustive"],
         "grid 0 30, 15 pairs, 1 pairings checked, 30 nodes"),
    ])
    def test_one_row_board_is_one_orbit(self, capsys, argv, line):
        # a single row is a clique, and all its pairings form one orbit, so
        # the sweep checks one pairing however many pairs the row holds
        assert main(["sharpness", *argv]) == 0
        out = capsys.readouterr().out
        assert line in out
        assert "none found: every pairing is feasible" in out

    def test_long_row_is_one_orbit_without_recursion(self, capsys):
        # 1,000 columns, past the recursion limit of a column-by-column
        # pattern search, which a one-row board never starts
        assert main(["sharpness", "0", "999", "--k", "500"]) == 0
        assert "grid 0 999, 500 pairs, 1 pairings checked, 1000 nodes" in capsys.readouterr().out

    def test_budget_exhaustion_exits_3(self, capsys):
        assert main(["sharpness", "2", "3", "--exhaustive", "--budget", "10"]) == 3
        assert "incomplete" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, n", [(["0", "20000", "--k", "1"], 20001),
                                         (["100", "99", "--budget", "10"], 10100)])
    def test_large_board_is_refused_before_any_table_is_built(self, capsys, monkeypatch,
                                                              argv, n):
        refuse_board_tables(monkeypatch)
        assert main(["sharpness", *argv]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: board too large for sharpness ({n} vertices > 10000)\n"

    @pytest.mark.parametrize("cores, sizes", [(2, [2]), (1, [])])
    def test_workers_are_capped_at_the_cores(self, capsys, monkeypatch, cores, sizes):
        assert main(["sharpness", "2", "4", "--k", "3"]) == 0
        serial = capsys.readouterr().out
        made = fake_pool(monkeypatch, cores)
        assert main(["sharpness", "2", "4", "--k", "3", "--workers", "100000"]) == 0
        assert capsys.readouterr().out == serial
        assert made == sizes

    def test_budget_and_workers_compose(self, capsys, monkeypatch):
        # a budgeted hunt runs in the pool and prints the serial stdout,
        # pinned where --budget kept the hunt in this process
        pinned = ("grid 2 4, 3 pairs, 97 pairings checked, 2001 nodes\n"
                  "none found: search incomplete (budget or sample exhausted)\n")
        argv = ["sharpness", "2", "4", "--k", "3", "--budget", "2000"]
        assert main(argv) == 3
        assert capsys.readouterr().out == pinned
        made = fake_pool(monkeypatch, 2)
        assert main([*argv, "--workers", "2"]) == 3
        assert capsys.readouterr().out == pinned
        assert made == [2]

    def test_witness_failing_verify_exits_4_with_nothing_printed(self, capsys, monkeypatch):
        monkeypatch.setattr(rooklink.oracle, "verify",
                            lambda problem, linkage: VerifyReport(False, "injected"))
        assert main(["sharpness", "2", "4", "--k", "3"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "internal error: oracle witness fails verify: injected\n"

    def test_default_budget_ends_a_long_hunt_in_exit_3(self, capsys, monkeypatch):
        # the 3,595-node sweep runs past a small default budget, which
        # --budget still overrides
        monkeypatch.setattr(rooklink.cli, "ORACLE_NODE_BUDGET", 1000)
        assert main(["sharpness", "2", "4", "--k", "3"]) == 3
        assert "none found: search incomplete" in capsys.readouterr().out
        assert main(["sharpness", "2", "4", "--k", "3", "--budget", "3595"]) == 0
        assert "none found: every pairing is feasible" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["sharpness", "1", "2", "--count", "-1"], "count must be non-negative, got -1"),
        (["sharpness", "2", "2", "--budget", "-1"], "node budget must be non-negative, got -1"),
        (["fuzz", "--count", "-5"], "count must be non-negative, got -5"),
        # a worker count below 1 once ran the hunt or campaign serially
        (["sharpness", "1", "2", "--k", "2", "--workers", "0"],
         "worker count must be at least 1, got 0"),
        (["fuzz", "--count", "3", "--workers", "-3"], "worker count must be at least 1, got -3"),
        (["sharpness", "1", "1", "--k", "3"], "not enough vertices for 2k terminals"),
    ])
    def test_negative_count_or_budget_exits_2(self, capsys, argv, message):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"


class TestCliFuzz:
    def test_all_pass(self, capsys):
        assert main(["fuzz", "--count", "25", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "verifier-passes=25" in out
        assert "solver-successes=25" in out

    def test_same_seed_same_report(self, capsys):
        main(["fuzz", "--count", "30", "--seed", "7"])
        first = capsys.readouterr().out
        main(["fuzz", "--count", "30", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second

    def test_zero_count(self, capsys):
        assert main(["fuzz", "--count", "0", "--seed", "1"]) == 0
        assert "instances=0" in capsys.readouterr().out

    def test_smaller_k_flag(self, capsys):
        assert main(["fuzz", "--count", "10", "--seed", "2", "--k", "1"]) == 0
        assert "verifier-passes=10" in capsys.readouterr().out

    def test_k_past_every_bound_changes_nothing(self, capsys):
        # --k only caps each board's pair count at its bound
        assert main(["fuzz", "--count", "20", "--seed", "3"]) == 0
        uncapped = capsys.readouterr().out
        assert main(["fuzz", "--count", "20", "--seed", "3", "--k", "99"]) == 0
        assert capsys.readouterr().out == uncapped

    def test_zero_k_takes_no_step(self, capsys):
        assert main(["fuzz", "--count", "10", "--seed", "2", "--k", "0"]) == 0
        out = capsys.readouterr().out
        assert "verifier-passes=10" in out and "max-trace-depth=0" in out

    def test_worker_pool_matches_sequential(self, capsys):
        main(["fuzz", "--count", "12", "--seed", "5"])
        sequential = capsys.readouterr().out
        main(["fuzz", "--count", "12", "--seed", "5", "--workers", "2"])
        parallel = capsys.readouterr().out
        assert sequential == parallel

    def test_solver_failure_is_written_out_and_the_campaign_goes_on(
            self, capsys, monkeypatch, tmp_path):
        # instance 3 fails inside the solver: the other eleven still run,
        # and the failing one is written out with its partial trace
        main(["fuzz", "--count", "12", "--seed", "5"])
        clean = capsys.readouterr().out
        real, seen = rooklink.cli.solve, []

        def flaky(problem):
            seen.append(problem)
            link, trace = real(problem)
            if len(seen) == 4:
                raise SolverInvariantError("injected", SolverTrace(trace.steps[:1]))
            return link, trace

        monkeypatch.setattr(rooklink.cli, "solve", flaky)
        monkeypatch.chdir(tmp_path)
        assert main(["fuzz", "--count", "12", "--seed", "5", "--workers", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == clean.replace("successes=12", "successes=11").replace(
            "passes=12", "passes=11")
        assert "instance 3; wrote fail-5-3.txt" in captured.err
        assert [f.name for f in tmp_path.iterdir()] == ["fail-5-3.txt"]
        text = (tmp_path / "fail-5-3.txt").read_text(encoding="utf-8")
        partial = render_trace(SolverTrace(real(seen[3])[1].steps[:1]))
        assert partial.startswith("step 1: ")
        assert text == serialize_instance(seen[3]) + f"# error: injected\n# {partial}\n"
        assert parse_instance(text) == seen[3]

    def test_linkage_failing_verify_is_written_out_like_a_solver_failure(
            self, capsys, monkeypatch, tmp_path):
        # instance 3's linkage fails the gate: one failure path, so it is
        # counted on both count lines and written out with its full trace
        main(["fuzz", "--count", "12", "--seed", "5"])
        clean = capsys.readouterr().out
        real, seen = rooklink.cli.verify, []

        def flaky(problem, linkage):
            seen.append(problem)
            if len(seen) == 4:
                return VerifyReport(False, "paths 1 and 2 share (0,1)")
            return real(problem, linkage)

        monkeypatch.setattr(rooklink.cli, "verify", flaky)
        monkeypatch.chdir(tmp_path)
        assert main(["fuzz", "--count", "12", "--seed", "5", "--workers", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == clean.replace("successes=12", "successes=11").replace(
            "passes=12", "passes=11")
        assert "instance 3; wrote fail-5-3.txt" in captured.err
        assert [f.name for f in tmp_path.iterdir()] == ["fail-5-3.txt"]
        text = (tmp_path / "fail-5-3.txt").read_text(encoding="utf-8")
        trace = render_trace(rooklink.cli.solve(seen[3])[1])
        assert trace.startswith("step 1: ")
        report = "".join(f"# {line}\n" for line in trace.splitlines())
        assert text == (serialize_instance(seen[3]) + "# error: solver output fails verify:"
                         " paths 1 and 2 share (0,1)\n" + report)
        assert parse_instance(text) == seen[3]

    @pytest.mark.parametrize("argv, digest", [
        (["--count", "200", "--seed", "11"],
         "bca9ec1f8d81eb44e616546a5ae71f645b3c173673c8a4b411d92d9744fb563a"),
        (["--count", "300", "--seed", "3", "--d1-range", "0:9"],
         "faf9b28cd02d44f57fae796ec482f7f2cf859de139137cc4d9d5514400bd8907"),
    ])
    def test_report_is_pinned(self, capsys, argv, digest):
        assert main(["fuzz", *argv]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("cores, sizes", [(2, [2]), (1, [])])
    def test_workers_are_capped_at_the_cores(self, capsys, monkeypatch, cores, sizes):
        main(["fuzz", "--count", "12", "--seed", "5"])
        serial = capsys.readouterr().out
        made = fake_pool(monkeypatch, cores)
        assert main(["fuzz", "--count", "12", "--seed", "5", "--workers", "100000"]) == 0
        assert capsys.readouterr().out == serial
        assert made == sizes

    def test_malformed_range_exits_2(self, capsys):
        assert main(["fuzz", "--count", "1", "--d1-range", "junk"]) == 2

    def test_board_past_the_cap_exits_2_before_any_draw(self, capsys, monkeypatch):
        def refused(grid, k, rng):
            raise AssertionError("an instance was drawn")

        monkeypatch.setattr(rooklink.cli, "random_problem", refused)
        assert main(["fuzz", "--count", "5", "--d1-range", "0:50000",
                     "--d2-range", "0:50001"]) == 2
        assert capsys.readouterr().err == "error: board too large: d1 + d2 = 100001 > 100000\n"

    def test_negative_pair_cap_exits_2(self, capsys):
        assert main(["fuzz", "--count", "1", "--k", "-1"]) == 2
        assert capsys.readouterr().err.strip() == "error: pair count must be non-negative, got -1"


class TestCliCyclicDual:
    @pytest.mark.parametrize("d,expected", [
        (4, "(2, 2, 2)"), (7, "(3, 4, 3)"), (2, "(1, 1, 1)")])
    def test_values(self, capsys, d, expected):
        assert main(["cyclic-dual", str(d)]) == 0
        assert capsys.readouterr().out.strip() == expected

    def test_below_range_exits_2(self, capsys):
        assert main(["cyclic-dual", "1"]) == 2

    def test_runs_as_a_module(self, capsys):
        # `python -m rooklink` is the same command line as `rooklink`
        assert main(["cyclic-dual", "5"]) == 0
        proc = subprocess.run([sys.executable, "-m", "rooklink", "cyclic-dual", "5"],
                              capture_output=True, text=True, env=src_env(), timeout=60)
        assert proc.returncode == 0
        assert proc.stdout == capsys.readouterr().out


def test_readme_states_the_limits():
    # each size guard and the default node budget, as the README writes them
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    prose = " ".join(readme.split())
    for cap in rooklink.cli.MAX_VERTICES.values():
        assert f"more than {cap:,} cells" in prose
    assert f"stop after {rooklink.cli.ORACLE_NODE_BUDGET:,} search nodes" in prose
