"""Run every workload for BENCHMARK.json's run_seconds, each in a fresh
process, and print every end-to-end metric by name with its unit.

    python3 perfbench/suite.py                # seed 0
    python3 perfbench/suite.py --seeds 0-9    # plus median and spread per metric

With more than one seed it also prints, per metric, the median over the
runs and the spread (distance between the first and third quartile, as a
share of the median) next to the metric's bound from BENCHMARK.json.
Exits 1 if any run failed a check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    extras = json.loads((HERE / "results" / f"{workload}-seed{seed}-trace0.json").read_text())
    return line, extras["end_to_end"]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in workloads.NAMES:
        values: dict[str, list[float]] = {}
        for seed in _seeds(args.seeds):
            line, extras = run_one(workload, seed, bench["run_seconds"])
            ok = ok and line["correct"]
            shown = {n: (m["value"], m["unit"]) for n, m in line["metrics"].items()}
            shown["failure_ratio"] = (extras["failure_ratio"], "ratio")
            for name, unit in (("latency_p99_ms", "ms"), ("raw_wall_s", "s"), ("raw_latency_p50_ms", "ms")):
                if name in extras:
                    shown[name] = (extras[name], unit)
            print(f"{workload} seed={seed} attempted={line['attempted']} failed={line['failed']}"
                  f" samples={extras['samples']} rounds={extras['rounds']}")
            for name, (value, unit) in shown.items():
                print(f"  {name:16s} {value:12.6g} {unit}")
                values.setdefault(name, []).append(value)
        if len(_seeds(args.seeds)) > 1:
            print(f"{workload}: median, spread (IQR/median) and bound over {len(_seeds(args.seeds))} seeds")
            for name, vals in values.items():
                mid = median(vals)
                q1, _, q3 = quantiles(vals, n=4)
                spread = (q3 - q1) / mid if mid else 0.0
                bound = bounds.get(name)
                note = "" if bound is None else f"bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
                print(f"  {name:16s} median {mid:12.6g}  spread {spread:7.4f}  {note}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
