"""Self-tests of the benchmark: run with `python3 -m pytest perfbench`.

The fingerprint test builds every workload twice from one seed and runs
one traced round of each, so it takes about as long as two rounds of
every workload (a minute or more at today's speed).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_lists_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]} == tracing.PER_LAYER


def _fingerprint(name: str, seed: int) -> dict:
    mods = run.import_program()
    workload = workloads.build(name, mods, seed)
    rnd = run.traced_round(workload, mods)
    assert rnd.failures == []
    layers = tracing.summarize(rnd.recorder)
    return {"inputs_digest": workload.digest, **{n: layers[n] for n in tracing.COUNTS}}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_counts_repeat_for_a_seed(name):
    first = _fingerprint(name, 3)
    assert first == _fingerprint(name, 3)
    calls = {"large-solve": "solver.solve.calls", "small-campaign": "solver.solve.calls",
             "oracle-sweep": "oracle.exhaustive_solve.calls",
             "connectivity": "menger.connectivity.calls"}[name]
    assert first[calls] > 0


def test_inputs_depend_on_the_seed():
    mods = run.import_program()
    for name in workloads.NAMES:
        assert workloads.build(name, mods, 0).digest != workloads.build(name, mods, 1).digest


def test_speed_clock_scales_time_between_samples():
    clock = run.SpeedClock()
    clock.starts = [0.0, 1.0, 2.0]
    clock.ends = [t + 2 * run.REF_NOMINAL_S for t in clock.starts]  # half speed
    clock._fit()
    assert clock.span(0.5, 0.75) == pytest.approx(0.125)
    # the sample in [1.0, 1.008] counts as no time
    assert clock.span(0.5, 1.5) == pytest.approx(0.25 + (1.5 - clock.ends[1]) / 2)


@pytest.fixture(scope="module")
def plain_and_doubled():
    """Alternating rounds of 400 small-campaign requests, as they are and
    with every request run twice, under one SpeedClock."""
    mods = run.import_program()
    workload = workloads.build("small-campaign", mods, 0)
    workload.requests = workload.requests[:400]
    twice = lambda request: lambda: request() or request()  # noqa: E731
    doubled = workloads.Workload([(label, twice(r)) for label, r in workload.requests], workload.digest)
    plain, extra = [], []
    with run.SpeedClock() as clock:
        for _ in range(5):
            plain.append(run.run_round(workload))
            extra.append(run.run_round(doubled))
    assert not any(r.failures for r in plain + extra)
    return clock, plain, extra


def test_speed_clock_shows_injected_work_at_its_size(plain_and_doubled):
    """The reference loop shares the program's process; doubling the
    program's work must still double the gated times, within half their
    bound (measured: 1.85-2.06x on a busy machine)."""
    clock, plain, extra = plain_and_doubled
    base, _ = run.end_to_end(plain, 1.0, clock)
    more, _ = run.end_to_end(extra, 1.0, clock)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    for name in ("wall_s", "latency_p50_ms"):
        assert more[name] / base[name] == pytest.approx(2, rel=bounds[name] / 2)


def test_reference_seconds_differ_from_raw_only_by_loop_speed(plain_and_doubled):
    """wall_s is raw_wall_s rescaled by the reference loop's speed, so on a
    quiet machine, where the loop takes REF_NOMINAL_S, the two agree.  The
    rescaling is local, so a machine whose speed drifts during the rounds
    moves the ratio away from the run's median loop speed by up to ~20%."""
    clock, plain, _ = plain_and_doubled
    metrics, extras = run.end_to_end(plain, 1.0, clock)
    loop_s = median(e - s for s, e in zip(clock.starts, clock.ends))
    assert metrics["wall_s"] / extras["raw_wall_s"] == pytest.approx(run.REF_NOMINAL_S / loop_s, rel=0.25)


def test_failed_check_is_counted():
    mods = run.import_program()
    workload = workloads.build("connectivity", mods, 0)
    real = mods.menger.connectivity
    mods.menger.connectivity = lambda sub: real(sub) + 1
    try:
        rnd = run.run_round(workload)
    finally:
        mods.menger.connectivity = real
    assert len(rnd.failures) == len(workload.requests)
    _, extras = run.end_to_end([rnd], 0.0, run.SpeedClock())
    assert extras["failure_ratio"] == 1.0


def test_raising_request_is_counted():
    workload = workloads.Workload([("ok", lambda: None), ("boom", lambda: 1 // 0)], "")
    rnd = run.run_round(workload)
    assert [label for label, _ in rnd.failures] == ["boom"]
    assert "ZeroDivisionError" in rnd.failures[0][1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "connectivity", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
