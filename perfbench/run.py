"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``, never from an installed copy.  Set-up (import plus input
generation from the seed) is repeated for SETUP_SECONDS and its median
reported.  Rounds, each running every request of the workload once,
repeat while another one fits in the requested seconds.  Every output is
checked; a failed check counts against the run, which then exits 1.
Times are reported in reference seconds (see SpeedClock), raw wall-clock
figures beside them in the result file.

With --trace 0 the last line carries the end-to-end metrics, from plain
rounds.  With --trace 1 plain and traced rounds alternate and the last
line carries the per-layer metrics (see tracing.py); the difference
between the two kinds of round is the tracing overhead.  Either way a
result file with a header goes to perfbench/results/.

Exit codes: 0 every check passed, 1 some check failed, 2 the program
could not be imported.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import signal
import subprocess
import sys
import traceback
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "latency_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_SECONDS = 1.5  # set-up repeats for this long, and at least SETUP_MIN_REPEATS times
SETUP_MIN_REPEATS = 5
MODULES = ("grid", "problem", "instances", "menger", "oracle", "solver")
DEFAULT_SEED = 0

REF_GRAPH_NODES = 1 << 17
REF_VISITS = 3_000
REF_DICT_UPDATES = 2_000
REF_NOMINAL_S = 0.0015
SAMPLE_PERIOD_S = 0.1


class ProgramMissing(Exception):
    pass


def _reference_graph() -> array:
    """Four random out-neighbours per node, stored flat: 2 MB, more than a
    core's L2 cache, like the program's larger flow networks."""
    rng = random.Random(5)
    return array("i", (rng.randrange(REF_GRAPH_NODES) for _ in range(4 * REF_GRAPH_NODES)))


def _visit(adj: array, seen: set[int], u: int, depth: int) -> None:
    seen.add(u)
    if depth:
        for w in adj[4 * u:4 * u + 4]:
            if w not in seen:
                _visit(adj, seen, w, depth - 1)


def _reference_work(adj: array, start: int) -> None:
    """Fixed work shaped like the program's hot code: a recursive search
    with a visited set over adjacency lists, then tuple-keyed dictionary
    updates.  Calls, sets and dicts are what the program spends its time
    on, so this slows down with it when the machine does.  Successive
    samples start at different nodes, so they touch memory out of cache
    as the program does."""
    seen: set[int] = set()
    while len(seen) < REF_VISITS:
        _visit(adj, seen, start, 6)
        start = (start + 7919) % REF_GRAPH_NODES
    counts: dict = {}
    for i in range(REF_DICT_UPDATES):
        key = i % 101, i % 7
        counts[key] = counts.get(key, 0) + 1


class SpeedClock:
    """Maps perf_counter readings to reference seconds.

    On a shared virtual machine the CPU can change speed by up to 2x
    within seconds, which swamps any change to the program.  While the clock is
    active, a timer signal runs a fixed reference loop every
    SAMPLE_PERIOD_S; between two samples the program's elapsed time is
    scaled by REF_NOMINAL_S over the local median of the reference
    loop's duration, and the samples themselves count as no time.  A
    reference second is thus a second at the speed where the loop takes
    REF_NOMINAL_S.  With no samples the clock reads plain seconds.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._virtual: list[float] = []
        self._factor: list[float] = []

    def sample(self, *_signal_args) -> None:
        if len(self.starts) > len(self.ends):
            return  # a timer signal landed inside a sample
        self.starts.append(perf_counter())
        _reference_work(self._graph, len(self.starts) * 7919 % REF_GRAPH_NODES)
        self.ends.append(perf_counter())

    def __enter__(self) -> "SpeedClock":
        self._graph = _reference_graph()
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        self._fit()

    def _fit(self) -> None:
        refs = [e - s for s, e in zip(self.starts, self.ends)]
        self._factor = [REF_NOMINAL_S / median(refs[max(0, k - 1):k + 3])
                        for k in range(len(refs) - 1)]
        self._virtual = [0.0]
        for k, f in enumerate(self._factor):
            self._virtual.append(self._virtual[-1] + (self.starts[k + 1] - self.ends[k]) * f)

    def at(self, t: float) -> float:
        if not self._factor:
            return t
        k = min(max(bisect_right(self.ends, t) - 1, 0), len(self._factor) - 1)
        gap = t - self.ends[k]
        if k + 1 < len(self.starts):
            gap = min(gap, self.starts[k + 1] - self.ends[k])
        return self._virtual[k] + gap * self._factor[k]

    def span(self, start: float, end: float) -> float:
        return self.at(end) - self.at(start)


def import_program() -> SimpleNamespace:
    """A fresh import of the program from this checkout's src/."""
    for name in [n for n in sys.modules if n == "rooklink" or n.startswith("rooklink.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        mods = SimpleNamespace(**{n: importlib.import_module("rooklink." + n) for n in MODULES})
    except ImportError as err:
        raise ProgramMissing(str(err)) from None
    if not Path(mods.grid.__file__).resolve().is_relative_to(src):
        raise ProgramMissing(f"rooklink imported from {mods.grid.__file__}, not from {src}")
    return mods


def set_up(name: str, seed: int):
    spans = []
    while len(spans) < SETUP_MIN_REPEATS or spans[-1][1] - spans[0][0] < SETUP_SECONDS:
        gc.collect()  # the last set-up's modules are garbage; do not time their collection
        start = perf_counter()
        mods = import_program()
        workload = workloads.build(name, mods, seed)
        spans.append((start, perf_counter()))
    return mods, workload, spans


@dataclass
class Round:
    """Raw perf_counter readings of one round; a SpeedClock converts them."""

    start: float
    end: float
    stamps: list[tuple[float, float]]
    failures: list[tuple[str, str]]
    recorder: tracing.Recorder | None = None


def run_round(workload, rec=None) -> Round:
    stamps = []
    failures = []
    start = perf_counter()
    for i, (label, request) in enumerate(workload.requests):
        if rec is not None:
            rec.request = i
        t0 = perf_counter()
        try:
            reason = request()
        except Exception:  # a raising request is a failed request, never a lost one
            reason = traceback.format_exc()
        stamps.append((t0, perf_counter()))
        if reason is not None:
            failures.append((label, reason))
    return Round(start, perf_counter(), stamps, failures)


def traced_round(workload, mods) -> Round:
    rec = tracing.Recorder()
    with tracing.traced(mods, rec):
        rnd = run_round(workload, rec)
    rnd.recorder = rec
    return rnd


def measure(workload, mods, seconds: float, trace: bool) -> list[Round]:
    """Rounds while another one fits in `seconds`: at least one, or with
    tracing at least one plain and one traced, alternating."""
    rounds = []
    start = perf_counter()
    while True:
        began = perf_counter()
        traced = trace and len(rounds) % 2
        rounds.append(traced_round(workload, mods) if traced else run_round(workload))
        now = perf_counter()
        if now - start + (now - began) > seconds and (not trace or len(rounds) >= 2):
            return rounds


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _commit() -> str:
    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def result_header(workload: str, seed: int, trace: int, overhead_s: float | None) -> dict:
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "commit": _commit(), "workload": workload, "seed": seed, "trace": trace,
            "tracing_overhead_s": overhead_s}


def end_to_end(rounds, setup_s: float, clock: SpeedClock) -> tuple[dict, dict]:
    """Gated metrics from plain rounds, plus the informational extras."""
    plain = [r for r in rounds if r.recorder is None]
    lat = sorted(clock.span(a, b) for r in plain for a, b in r.stamps)
    metrics = {
        "wall_s": median(clock.span(r.start, r.end) for r in plain),
        "latency_p50_ms": median(lat) * 1e3,
        "peak_rss_mb": _peak_rss_mb(),
        "setup_s": setup_s,
    }
    attempted = sum(len(r.stamps) for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    extras = {"failure_ratio": failed / attempted, "samples": len(lat), "rounds": len(plain),
              "raw_wall_s": median(r.end - r.start for r in plain),
              "raw_latency_p50_ms": median(b - a for r in plain for a, b in r.stamps) * 1e3,
              "reference_samples": len(clock.starts)}
    if len(lat) >= 1000:  # at least ten samples beyond p99
        extras["latency_p99_ms"] = quantiles(lat, n=100, method="inclusive")[98] * 1e3
    return metrics, extras


def per_layer(rounds, wall_s: float, clock: SpeedClock) -> tuple[dict, bool]:
    """Counts from the first traced round (checked equal in every traced
    round) and medians of the times over traced rounds."""
    traced_rounds = [r for r in rounds if r.recorder is not None]
    traced = [tracing.summarize(r.recorder, clock.span) for r in traced_rounds]
    first = traced[0]
    repeat = all(t[n] == first[n] for t in traced for n in tracing.COUNTS)
    layers = {n: first[n] for n in tracing.COUNTS}
    for name in tracing.TIMES:
        if not name.startswith("trace."):
            layers[name] = median(t[name] for t in traced)
    layers["trace.wall_s"] = median(clock.span(r.start, r.end) for r in traced_rounds)
    layers["trace.overhead_s"] = layers["trace.wall_s"] - wall_s
    return layers, repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="input seed (default 0; seed 9173 is held out for confirming claims)")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        with SpeedClock() as clock:
            mods, workload, setup_spans = set_up(args.workload, args.seed)
            rounds = measure(workload, mods, args.seconds, bool(args.trace))
    except ProgramMissing as err:
        print(f"error: cannot import the program: {err}", file=sys.stderr)
        return 2
    setup_s = median(clock.span(a, b) for a, b in setup_spans)
    metrics, extras = end_to_end(rounds, setup_s, clock)
    attempted = sum(len(r.stamps) for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    correct = not failures

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    result = {"header": result_header(args.workload, args.seed, args.trace, None),
              "end_to_end": {**metrics, **extras}}
    result["header"].update(seconds=args.seconds, inputs_digest=workload.digest)
    if args.trace:
        layers, repeat = per_layer(rounds, metrics["wall_s"], clock)
        correct = correct and repeat
        result["header"]["tracing_overhead_s"] = layers["trace.overhead_s"]
        result["per_layer"] = layers
        result["fingerprint"] = {"inputs_digest": workload.digest,
                                 **{n: layers[n] for n in tracing.COUNTS}}
        if not repeat:
            print("error: traced rounds disagree on exact counts", file=sys.stderr)
        first_traced = next(r.recorder for r in rounds if r.recorder is not None)
        tracing.write_spans(first_traced, RESULTS / f"{stem}-spans.tsv", clock.at)
        shown = {n: (layers[n], unit) for n, (unit, _) in tracing.PER_LAYER.items()}
    else:
        shown = {n: (metrics[n], unit) for n, unit in END_TO_END.items()}
    result["failures"] = [{"request": label, "reason": reason} for label, reason in failures[:50]]
    with open(RESULTS / f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    for label, reason in failures[:10]:
        print(f"FAILED {args.workload} {label}: {reason.strip()}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} rounds={len(rounds)}"
          f" attempted={attempted} failed={len(failures)}")
    units = {**END_TO_END, "failure_ratio": "ratio", "samples": "count", "rounds": "count",
             "latency_p99_ms": "ms", "reference_samples": "count",
             "raw_wall_s": "s", "raw_latency_p50_ms": "ms"}
    for name, value in {**metrics, **extras}.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in shown.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
