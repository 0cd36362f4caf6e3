"""Command-line front end.

Subcommands: solve, verify, oracle, connectivity, sharpness, fuzz,
cyclic-dual.  Exit codes are stable across commands: 0 success/pass;
1 verification failure or infeasible (fuzz: some instance failed to
solve or verify; the campaign still runs to the end); 2 input error
(InstanceFormatError or ProblemContractError, such as a board with
d1 + d2 > MAX_DIMENSION_SUM, a negative --k, --count or --budget, or a
--workers below 1); 3 indeterminate (a node budget ran out,
ORACLE_NODE_BUDGET by default, or a board past its command's size
guard in MAX_VERTICES, checked before any table is built); 4 internal
error (a SolverInvariantError, such as a linkage that fails _verified,
the gate every emitted linkage passes, or any other ValueError: a bug
either way); 141 when stdout's reader closed the pipe early (as if
killed by SIGPIPE).  Randomised commands are reproducible from their
seed, and --workers is capped at the machine's cores; timing goes to
stderr, so stdout stays byte-identical across runs and worker counts.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

from .grid import ProductGraph
from .instances import (InstanceFormatError, parse_instance, parse_linkage,
                        serialize_instance, serialize_linkage)
from .menger import connectivity
from .oracle import exhaustive_solve, find_infeasible_pairing, judged, random_problem, verify
from .problem import Linkage, LinkageProblem, ProblemContractError, max_guaranteed_pairs
from .solver import SolverInvariantError, cyclic_dual_params, render_trace, solve

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INDETERMINATE = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for `yes | head -1`
# oracle's and sharpness's default: 4.5-6.2 s for `sharpness 2 7 --exhaustive` on a 2-vCPU
# Xeon VM, but 34-36 s for `sharpness 1 4999`: pending_ok's BFS is not charged to it
ORACLE_NODE_BUDGET = 10_000_000
MAX_VERTICES = {"connectivity": 400,  # about (d1 + d2)^3: 50-55 ms at 20 x 20
                "oracle": 10_000,  # the oracle's board table: 30-44 MB at 100 x 100
                "sharpness": 10_000}  # the same table, shared by the hunt's instances


def _refuse(command: str, n: int) -> int:
    """A board past its command's size guard: say so, and exit indeterminate."""
    print(f"error: board too large for {command} ({n} vertices > {MAX_VERTICES[command]})",
          file=sys.stderr)
    return EXIT_INDETERMINATE


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is dropped
            return fh.read()
    except OSError as err:
        raise InstanceFormatError(f"cannot read {path}: {err.strerror}") from None
    except UnicodeDecodeError as err:  # a ValueError, which main would call a bug
        raise InstanceFormatError(f"{path} is not UTF-8: {err.reason} at byte {err.start}") from None


def _verified(problem: LinkageProblem, linkage: Linkage, what: str, trace=None) -> None:
    """The gate before any linkage is emitted: SolverInvariantError unless verify passes it."""
    report = verify(problem, linkage)
    if not report.ok:
        raise SolverInvariantError(f"{what} fails verify: {report.reason}", trace)


def _cmd_solve(args) -> int:
    problem = parse_instance(_read(args.instance))
    linkage, trace = solve(problem)
    _verified(problem, linkage, "solver output", trace)
    sys.stdout.write(serialize_linkage(linkage.paths))
    if args.trace:
        print(render_trace(trace))
    return EXIT_OK


def _cmd_verify(args) -> int:
    problem = parse_instance(_read(args.instance))
    paths = parse_linkage(_read(args.linkage))
    report = verify(problem, Linkage(tuple(tuple(p) for p in paths)))
    if report.ok:
        print("pass")
        return EXIT_OK
    print(f"fail: {report.reason}")
    return EXIT_FAIL


def _cmd_oracle(args) -> int:
    problem = parse_instance(_read(args.instance))
    n = problem.subgrid.vertex_count
    if n > MAX_VERTICES["oracle"]:
        return _refuse("oracle", n)
    verdict = exhaustive_solve(problem, args.budget)
    if verdict.indeterminate:
        print(f"indeterminate: node budget exhausted after {verdict.nodes_explored} nodes")
        return EXIT_INDETERMINATE
    if verdict.feasible:
        _verified(problem, verdict.witness, "oracle witness")
        print(f"feasible ({verdict.nodes_explored} nodes)")
        sys.stdout.write(serialize_linkage(verdict.witness.paths))
        return EXIT_OK
    print(f"infeasible ({verdict.nodes_explored} nodes)")
    return EXIT_FAIL


def _cmd_connectivity(args) -> int:
    grid = ProductGraph(args.d1, args.d2)
    n = grid.vertex_count
    if grid.d1 and grid.d2 and n > MAX_VERTICES["connectivity"]:  # cliques need no fans
        return _refuse("connectivity", n)
    print(connectivity(grid.subgrid()))
    return EXIT_OK


def _cmd_sharpness(args) -> int:
    n = ProductGraph(args.d1, args.d2).vertex_count
    if n > MAX_VERTICES["sharpness"]:
        return _refuse("sharpness", n)
    k = args.k if args.k is not None else max_guaranteed_pairs(args.d1, args.d2) + 1
    result = find_infeasible_pairing(
        args.d1, args.d2, k,
        node_budget=args.budget, seed=args.seed, count=args.count,
        exhaustive=True if args.exhaustive else None, workers=args.workers)
    print(f"grid {args.d1} {args.d2}, {k} pairs, "
          f"{result.instances_checked} pairings checked, {result.nodes_explored} nodes")
    if result.found is not None:
        print("infeasible pairing found:")
        sys.stdout.write(serialize_instance(result.found))
        return EXIT_OK
    if result.completed:
        print("none found: every pairing is feasible (search completed)")
        return EXIT_OK
    print("none found: search incomplete (budget or sample exhausted)")
    return EXIT_INDETERMINATE


def _fuzz_one(problem: LinkageProblem):
    """(trace depth, None) for a verified linkage, else (0, the error and trace as comments)."""
    try:
        linkage, trace = solve(problem)
        _verified(problem, linkage, "solver output", trace)
    except SolverInvariantError as err:
        lines = [f"error: {err}"] + render_trace(err.trace).splitlines()
        return 0, "".join(f"# {line}\n" for line in lines)
    return trace.depth, None


def _cmd_fuzz(args) -> int:
    try:
        lo1, hi1 = (int(x) for x in args.d1_range.split(":"))
        lo2, hi2 = (int(x) for x in args.d2_range.split(":"))
    except ValueError:
        raise InstanceFormatError("ranges must look like MIN:MAX") from None
    if not (0 <= lo1 <= hi1 and 0 <= lo2 <= hi2):
        raise InstanceFormatError("ranges must satisfy 0 <= MIN <= MAX")
    ProductGraph(hi1, hi2)  # the largest board is refused before any instance runs
    rng = random.Random(args.seed)

    def problems():
        for _ in range(args.count):
            grid = ProductGraph(rng.randint(lo1, hi1), rng.randint(lo2, hi2))
            k = max_guaranteed_pairs(grid.d1, grid.d2)
            yield random_problem(grid, k if args.k is None else min(k, args.k), rng)

    passed = max_depth = 0
    started = time.perf_counter()
    outcomes = judged(_fuzz_one, problems(), args.workers)
    for i, (problem, (depth, failure)) in enumerate(outcomes):
        passed += failure is None
        max_depth = max(max_depth, depth)
        if failure is not None:
            # an instance file that `rooklink solve` reads back as it is
            name = f"fail-{args.seed}-{i}.txt"
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(serialize_instance(problem) + failure)
            print(f"solver failed on instance {i}; wrote {name}", file=sys.stderr)
    elapsed = time.perf_counter() - started
    print("fuzz-report")
    print(f"seed={args.seed}")
    print(f"d1-range={lo1}:{hi1}")
    print(f"d2-range={lo2}:{hi2}")
    print(f"instances={args.count}")
    print(f"solver-successes={passed}")
    print(f"verifier-passes={passed}")
    print(f"max-trace-depth={max_depth}")
    print(f"elapsed={elapsed:.2f}s", file=sys.stderr)
    return EXIT_OK if passed == args.count else EXIT_FAIL


def _cmd_cyclic_dual(args) -> int:
    d1, d2 = cyclic_dual_params(args.d)
    print(f"({d1}, {d2}, {max_guaranteed_pairs(d1, d2)})")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rooklink",
        description="Disjoint-path routing and linkedness checks on rook's graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="route an instance constructively")
    p.add_argument("instance")
    p.add_argument("--trace", action="store_true", help="append the case log")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("verify", help="check a linkage file against an instance")
    p.add_argument("instance")
    p.add_argument("linkage")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive feasibility search")
    p.add_argument("instance")
    p.add_argument("--budget", type=int, default=ORACLE_NODE_BUDGET,
                   help="search node budget (default %(default)s)")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("connectivity", help="vertex connectivity of the full grid")
    p.add_argument("d1", type=int)
    p.add_argument("d2", type=int)
    p.set_defaults(fn=_cmd_connectivity)

    p = sub.add_parser("sharpness", help="hunt for an infeasible pairing above the bound")
    p.add_argument("d1", type=int)
    p.add_argument("d2", type=int)
    p.add_argument("--k", type=int, default=None,
                   help="pair count (default: one above the guaranteed bound)")
    p.add_argument("--exhaustive", action="store_true", help="force the full sweep")
    p.add_argument("--budget", type=int, default=ORACLE_NODE_BUDGET,
                   help="search node budget for the whole hunt (default %(default)s)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1000, help="sample size in random mode")
    p.add_argument("--workers", type=int, default=1,
                   help="processes for the hunt, at most the cores")
    p.set_defaults(fn=_cmd_sharpness)

    p = sub.add_parser("fuzz", help="seeded random solve+verify campaign; writes"
                       " fail-SEED-I.txt for each instance I that fails solve or verify")
    p.add_argument("--d1-range", default="2:6")
    p.add_argument("--d2-range", default="2:6")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=None, help="cap the pair count below the bound")
    p.add_argument("--workers", type=int, default=1, help="processes, at most the cores")
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser("cyclic-dual", help="grid parameters for the dual of a cyclic polytope")
    p.add_argument("d", type=int)
    p.set_defaults(fn=_cmd_cyclic_dual)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # the one check of every count option: --workers is at least 1, the rest non-negative
        for option, what, least in (("k", "pair count", 0), ("count", "count", 0),
                                    ("budget", "node budget", 0), ("workers", "worker count", 1)):
            value = getattr(args, option, None)
            if value is not None and value < least:
                rule = f"at least {least}" if least else "non-negative"
                raise ProblemContractError(f"{what} must be {rule}, got {value}")
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away (e.g. `| head -1`); point stdout at devnull
        # so the interpreter's final flush has nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (InstanceFormatError, ProblemContractError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (SolverInvariantError, ValueError) as err:
        print(f"internal error: {err}", file=sys.stderr)
        trace = getattr(err, "trace", None)
        if trace is not None:
            print(render_trace(trace), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
