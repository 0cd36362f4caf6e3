"""Spans and counts at the program's module boundaries, taken from outside.

A traced round replaces the public functions below at the module
attribute their caller looks up (``rooklink.solver.disjoint_paths`` is
the name the solver calls, ``rooklink.oracle.exhaustive_solve`` the
name the sweep calls) and restores them afterwards.  Spans stay in
memory as (name, start, end, parent, request) and are summarised per
round; counts are gathered from arguments and results at the same
boundaries.  Untraced rounds never see a wrapper.
"""

from __future__ import annotations

import inspect
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

STEP_KINDS = {
    "LinePairStep": "line_pair",
    "TwoColumnStep": "two_columns",
    "TwoRowsStep": "two_rows",
    "SingleRowStep": "single_row",
    "TransposeStep": "transpose",
}

# name -> (unit, better).  COUNTS are exact (counts and a ratio of counts)
# and repeat for a given seed; TIMES are times or ratios of times.
COUNTS = {
    "menger.disjoint_paths.calls": ("count", "lower"),
    "menger.disjoint_paths.active_vertices": ("count", "lower"),
    "menger.disjoint_paths.paths": ("count", "lower"),
    "menger.connectivity.calls": ("count", "lower"),
    "solver.solve.calls": ("count", "lower"),
    **{f"solver.steps.{kind}": ("count", "lower") for kind in STEP_KINDS.values()},
    "solver.trace_depth.max": ("count", "lower"),
    "oracle.exhaustive_solve.calls": ("count", "lower"),
    "oracle.exhaustive_solve.nodes": ("count", "lower"),
    "oracle.exhaustive_solve.useful_ratio": ("ratio", "higher"),
    "oracle.sweep.calls": ("count", "lower"),
    "oracle.sweep.instances_checked": ("count", "lower"),
    "oracle.verdicts.feasible": ("count", "higher"),
    "oracle.verdicts.infeasible": ("count", "higher"),
    "oracle.verdicts.indeterminate": ("count", "lower"),
    "oracle.verify.calls": ("count", "lower"),
}
TIMES = {
    "menger.disjoint_paths.s": ("s", "lower"),
    "menger.disjoint_paths.share": ("ratio", "lower"),
    "menger.connectivity.s": ("s", "lower"),
    "solver.solve.s": ("s", "lower"),
    "solver.self_s": ("s", "lower"),
    "oracle.exhaustive_solve.s": ("s", "lower"),
    "oracle.exhaustive_solve.nodes_per_s": ("1/s", "higher"),
    "oracle.sweep.s": ("s", "lower"),
    "oracle.sweep.self_s": ("s", "lower"),
    "oracle.verify.s": ("s", "lower"),
    "instances.parse_instance.s": ("s", "lower"),
    "instances.serialize_linkage.s": ("s", "lower"),
    "instances.parse_linkage.s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
PER_LAYER = {**COUNTS, **TIMES}


class Recorder:
    """In-memory spans of one round plus the counts taken beside them."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, request]
        self.counts: Counter = Counter()
        self.request = -1
        self._open: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self._open.append(idx)
        self.spans.append([name, perf_counter(), 0.0, parent, self.request])
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._open.pop()


def _solve_counts(rec, args, kwargs, result):
    _, trace = result
    for step in trace.steps:
        rec.counts["solver.steps." + STEP_KINDS[type(step).__name__]] += 1
    depth = rec.counts["solver.trace_depth.max"]
    rec.counts["solver.trace_depth.max"] = max(depth, trace.depth)


def _paths_counts(signature):
    def count(rec, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        sub = bound.arguments["s"]
        forbidden = {v for v in bound.arguments["forbidden"] if sub.contains(v)}
        # computed from the arguments, not read from the flow network
        rec.counts["menger.disjoint_paths.active_vertices"] += sub.vertex_count - len(forbidden)
        rec.counts["menger.disjoint_paths.paths"] += 0 if result is None else len(result)
    return count


def _verdict_counts(rec, args, kwargs, verdict):
    rec.counts["oracle.exhaustive_solve.nodes"] += verdict.nodes_explored
    kind = "indeterminate" if verdict.indeterminate else (
        "feasible" if verdict.feasible else "infeasible")
    rec.counts["oracle.verdicts." + kind] += 1
    if verdict.feasible:
        rec.counts["witness_vertices"] += sum(len(p) for p in verdict.witness.paths)


def _sweep_counts(rec, args, kwargs, result):
    rec.counts["oracle.sweep.instances_checked"] += result.instances_checked


# (module, attribute, span name, count hook factory)
HOOKS = (
    ("solver", "solve", "solver.solve", lambda fn: _solve_counts),
    ("solver", "disjoint_paths", "menger.disjoint_paths",
     lambda fn: _paths_counts(inspect.signature(fn))),
    ("menger", "connectivity", "menger.connectivity", None),
    ("oracle", "verify", "oracle.verify", None),
    ("oracle", "exhaustive_solve", "oracle.exhaustive_solve", lambda fn: _verdict_counts),
    ("oracle", "find_infeasible_pairing", "oracle.sweep", lambda fn: _sweep_counts),
    ("instances", "parse_instance", "instances.parse_instance", None),
    ("instances", "serialize_linkage", "instances.serialize_linkage", None),
    ("instances", "parse_linkage", "instances.parse_linkage", None),
)


def _wrap(fn, name, hook, rec):
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result
    return wrapper


@contextmanager
def traced(modules, rec: Recorder):
    """Wrap every hooked function for the duration of the block."""
    saved = []
    try:
        for mod_name, attr, name, make_hook in HOOKS:
            mod = getattr(modules, mod_name)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, _wrap(fn, name, make_hook and make_hook(fn), rec))
        yield rec
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def summarize(rec: Recorder, span=lambda start, end: end - start) -> dict[str, float]:
    """Per-layer metrics of one round, except the trace.* ones; `span`
    turns a pair of perf_counter readings into a duration."""
    durations = [span(start, end) for _, start, end, _, _ in rec.spans]
    child = [0.0] * len(durations)
    for (_, _, _, parent, _), d in zip(rec.spans, durations):
        if parent >= 0:
            child[parent] += d
    calls: Counter = Counter()
    total: Counter = Counter()
    own: Counter = Counter()
    for (name, _, _, _, _), d, c in zip(rec.spans, durations, child):
        calls[name] += 1
        total[name] += d
        own[name] += d - c
    out = {name: 0 for name in COUNTS}
    out.update({name: 0.0 for name in TIMES})
    for name in ("menger.disjoint_paths", "menger.connectivity", "solver.solve",
                 "oracle.exhaustive_solve", "oracle.sweep", "oracle.verify"):
        out[name + ".calls"] = calls[name]
        out[name + ".s"] = total[name]
    for name in ("parse_instance", "serialize_linkage", "parse_linkage"):
        out[f"instances.{name}.s"] = total["instances." + name]
    for name, value in rec.counts.items():
        if name in out:
            out[name] = value
    out["solver.self_s"] = own["solver.solve"]
    out["oracle.sweep.self_s"] = own["oracle.sweep"]
    if total["solver.solve"]:
        out["menger.disjoint_paths.share"] = total["menger.disjoint_paths"] / total["solver.solve"]
    nodes = rec.counts["oracle.exhaustive_solve.nodes"]
    if nodes:
        out["oracle.exhaustive_solve.useful_ratio"] = rec.counts["witness_vertices"] / nodes
        out["oracle.exhaustive_solve.nodes_per_s"] = nodes / total["oracle.exhaustive_solve"]
    return out


def write_spans(rec: Recorder, path, at=lambda t: t) -> None:
    """One line per span, times from the first span's start; `at` maps a
    perf_counter reading onto the clock the metrics use."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name\tstart_s\tend_s\tparent\trequest\n")
        t0 = at(rec.spans[0][1]) if rec.spans else 0.0
        for name, start, end, parent, request in rec.spans:
            fh.write(f"{name}\t{at(start) - t0:.9f}\t{at(end) - t0:.9f}\t{parent}\t{request}\n")
