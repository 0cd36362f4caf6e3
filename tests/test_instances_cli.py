import os
import subprocess
import sys
from pathlib import Path

import pytest

import rooklink.cli
from rooklink import (InstanceFormatError, ProductGraph, SolverInvariantError,
                      SolverTrace, Vertex, parse_instance, parse_linkage,
                      serialize_instance, serialize_linkage)
from rooklink.cli import main
from rooklink.solver import TransposeStep

V = Vertex


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


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

    def test_missing_dims(self):
        with pytest.raises(InstanceFormatError):
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
            " pushes=(0, 0):down matching=\n"
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

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # the reader of stdout is gone before anything is written, as when
        # `rooklink solve big.txt --trace | head -1` stops reading early
        inst = write(tmp_path, "a.txt", "dims 2 3\npair 0 0 2 1\npair 1 2 0 3\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "rooklink.cli", "solve", inst, "--trace"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
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

    def test_budget_indeterminate_exits_3(self, tmp_path, capsys):
        inst = write(tmp_path, "a.txt",
                     "dims 3 3\npair 0 0 1 1\npair 1 0 2 2\npair 2 0 3 3\n")
        assert main(["oracle", inst, "--budget", "2"]) == 3
        assert "indeterminate" in capsys.readouterr().out


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
        (-1, 2, "dimensions must be nonnegative, got (-1, 2)")])
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

    @pytest.mark.parametrize("argv", [["0", "30", "--k", "15"], ["9", "9", "--k", "5"]])
    def test_forced_sweep_too_large_to_tabulate_exits_2(self, capsys, argv):
        # 29!! pairing flags, or 10! * 2^10 row-table entries: refused
        # before either table is allocated
        assert main(["sharpness", *argv, "--exhaustive"]) == 2
        err = capsys.readouterr().err
        assert err.strip() == "error: grid too large for an exhaustive linkedness sweep"

    def test_budget_exhaustion_exits_3(self, capsys):
        assert main(["sharpness", "2", "3", "--exhaustive", "--budget", "10"]) == 3
        assert "incomplete" in capsys.readouterr().out


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

    def test_worker_pool_matches_sequential(self, capsys):
        main(["fuzz", "--count", "12", "--seed", "5"])
        sequential = capsys.readouterr().out
        main(["fuzz", "--count", "12", "--seed", "5", "--workers", "2"])
        parallel = capsys.readouterr().out
        assert sequential == parallel

    def test_malformed_range_exits_2(self, capsys):
        assert main(["fuzz", "--count", "1", "--d1-range", "junk"]) == 2

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
