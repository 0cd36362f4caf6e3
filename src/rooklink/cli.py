"""Command-line front end.

Subcommands: solve, verify, oracle, connectivity, sharpness, fuzz,
cyclic-dual.  Exit codes are stable across commands: 0 success/pass,
1 verification failure or infeasible, 2 input error (an
InstanceFormatError or a ProblemContractError), 3 indeterminate,
4 internal error (a SolverInvariantError, reported on stderr with the
solver's trace, or any other ValueError: either way a bug), and 141
when the reader of stdout closed the pipe early (as if killed by
SIGPIPE; nothing more is printed).  Randomised commands are
reproducible from their seed; timing is printed to stderr so stdout
stays byte-identical across runs.
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
from .oracle import exhaustive_solve, find_infeasible_pairing, random_pairing, verify
from .problem import Linkage, LinkageProblem, ProblemContractError, max_guaranteed_pairs
from .solver import SolverInvariantError, cyclic_dual_params, render_trace, solve

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INDETERMINATE = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for `yes | head -1`


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise InstanceFormatError(f"cannot read {path}: {err.strerror}") from None


def _cmd_solve(args) -> int:
    linkage, trace = solve(parse_instance(_read(args.instance)))
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
    verdict = exhaustive_solve(problem, args.budget)
    if verdict.indeterminate:
        print(f"indeterminate: node budget exhausted after {verdict.nodes_explored} nodes")
        return EXIT_INDETERMINATE
    if verdict.feasible:
        print(f"feasible ({verdict.nodes_explored} nodes)")
        sys.stdout.write(serialize_linkage(verdict.witness.paths))
        return EXIT_OK
    print(f"infeasible ({verdict.nodes_explored} nodes)")
    return EXIT_FAIL


def _cmd_connectivity(args) -> int:
    grid = ProductGraph(args.d1, args.d2)
    print(connectivity(grid.subgrid()))
    return EXIT_OK


def _cmd_sharpness(args) -> int:
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
    linkage, trace = solve(problem)
    return verify(problem, linkage).ok, trace.depth


def _cmd_fuzz(args) -> int:
    try:
        lo1, hi1 = (int(x) for x in args.d1_range.split(":"))
        lo2, hi2 = (int(x) for x in args.d2_range.split(":"))
    except ValueError:
        raise InstanceFormatError("ranges must look like MIN:MAX") from None
    if not (0 <= lo1 <= hi1 and 0 <= lo2 <= hi2):
        raise InstanceFormatError("ranges must satisfy 0 <= MIN <= MAX")
    if args.k is not None and args.k < 0:
        raise ProblemContractError(f"pair count must be non-negative, got {args.k}")
    rng = random.Random(args.seed)
    problems = []
    for _ in range(args.count):
        d1 = rng.randint(lo1, hi1)
        d2 = rng.randint(lo2, hi2)
        k = max_guaranteed_pairs(d1, d2)
        if args.k is not None:
            k = min(k, args.k)
        grid = ProductGraph(d1, d2)
        terminals = sorted(rng.sample(sorted(grid.vertices()), 2 * k))
        problems.append(LinkageProblem(grid, tuple(random_pairing(terminals, rng))))
    started = time.perf_counter()
    if args.workers > 1 and problems:
        from multiprocessing import Pool

        with Pool(args.workers) as pool:
            outcomes = pool.map(_fuzz_one, problems)
    else:
        outcomes = [_fuzz_one(p) for p in problems]
    elapsed = time.perf_counter() - started
    solved = len(outcomes)
    verified = sum(1 for ok, _ in outcomes if ok)
    max_depth = max((depth for _, depth in outcomes), default=0)
    print("fuzz-report")
    print(f"seed={args.seed}")
    print(f"d1-range={lo1}:{hi1}")
    print(f"d2-range={lo2}:{hi2}")
    print(f"instances={len(problems)}")
    print(f"solver-successes={solved}")
    print(f"verifier-passes={verified}")
    print(f"max-trace-depth={max_depth}")
    print(f"elapsed={elapsed:.2f}s", file=sys.stderr)
    return EXIT_OK if verified == len(problems) else EXIT_FAIL


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
    p.add_argument("--budget", type=int, default=None, help="search node budget")
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
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1000, help="sample size in random mode")
    p.add_argument("--workers", type=int, default=1,
                   help="processes for the exhaustive sweep (ignored with --budget)")
    p.set_defaults(fn=_cmd_sharpness)

    p = sub.add_parser("fuzz", help="seeded random solve+verify campaign")
    p.add_argument("--d1-range", default="2:6")
    p.add_argument("--d2-range", default="2:6")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=None, help="cap the pair count below the bound")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser("cyclic-dual", help="grid parameters for the dual of a cyclic polytope")
    p.add_argument("d", type=int)
    p.set_defaults(fn=_cmd_cyclic_dual)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
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
