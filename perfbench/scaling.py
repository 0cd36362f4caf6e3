"""Informational scaling report for square solves; not gated.

    python3 perfbench/scaling.py [--seed N]

For each n, one seeded pairing of k = n pairs on the (n+1) x (n+1) board
(d1 = d2 = n, the bound) is solved untraced for the time, in reference
seconds like every benchmark time (see run.SpeedClock), then traced for
the share of solve time spent in menger.disjoint_paths.  The exponent
column is the local growth rate log(t2/t1) / log(n2/n1).
Writes perfbench/results/scaling-seed<N>.json with the usual header.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SIZES = (25, 50, 100, 150)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = ap.parse_args(argv)
    mods = run.import_program()

    runs = []
    ok = True
    with run.SpeedClock() as clock:
        for n in SIZES:
            problem = workloads.random_problem(mods, random.Random(f"scaling/{args.seed}/{n}"), n, n, n)
            start = perf_counter()
            linkage, _ = mods.solver.solve(problem)
            end = perf_counter()
            ok = ok and mods.oracle.verify(problem, linkage).ok
            rec = tracing.Recorder()
            with tracing.traced(mods, rec):
                mods.solver.solve(problem)
            runs.append((n, start, end, rec))
    rows = []
    for n, start, end, rec in runs:
        layers = tracing.summarize(rec, clock.span)
        rows.append({"n": n, "solve_s": clock.span(start, end), "raw_solve_s": end - start,
                     "traced_solve_s": layers["solver.solve.s"],
                     "menger.disjoint_paths.share": layers["menger.disjoint_paths.share"],
                     "menger.disjoint_paths.calls": layers["menger.disjoint_paths.calls"]})

    print(f"{'n':>5} {'solve_s':>9} {'dp share':>9} {'dp calls':>9} {'exponent':>9}")
    for prev, row in zip([None] + rows, rows):
        row["exponent"] = None if prev is None else (
            math.log(row["solve_s"] / prev["solve_s"]) / math.log(row["n"] / prev["n"]))
        print(f"{row['n']:5d} {row['solve_s']:9.3f} {row['menger.disjoint_paths.share']:9.3f}"
              f" {row['menger.disjoint_paths.calls']:9d} {row['exponent'] or '':>9.4}")
    overhead = sum(r["traced_solve_s"] - r["solve_s"] for r in rows)
    header = run.result_header("scaling", args.seed, 1, overhead)
    run.RESULTS.mkdir(exist_ok=True)
    with open(run.RESULTS / f"scaling-seed{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"header": header, "verified": ok, "sizes": rows}, fh, indent=1)
    if not ok:
        print("error: a linkage failed verify", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
