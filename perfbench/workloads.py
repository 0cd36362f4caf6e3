"""Seeded inputs and checked requests for the four benchmark workloads.

A workload is a list of requests built from the seed; one round runs
every request once.  Each request calls the program through its module
attributes (``solver.solve``, ``oracle.verify``, ...), looked up at call
time, so a traced round can wrap those attributes from outside.  A
request returns None when every output it produced checked out, and a
reason string otherwise.

Only the generated inputs reach the program: the seed is consumed here.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

# large-solve: the 101 x 101 board at the bound, k = 100.  Solve cost varies
# by ~20% between random pairings; eight per round keep the round's cost
# within ~11% (IQR) between seeds, fit a round (~12 s at today's ~1.5 s per
# solve) in one run, and still give a measurable round after a ~30x faster
# router.
LARGE_D = 100
LARGE_POOL = 8

# small-campaign: acceptance criterion 2's mix, 2 <= d1, d2 <= 8 at the bound.
SMALL_RANGE = (2, 8)
SMALL_COUNT = 2000

# oracle-sweep: one complete linkedness sweep at the bound, hunts one pair
# above the bound in the narrow families, and dense feasible probes.  Probe
# cost is heavy-tailed (a few take 100x the median), so the probes' total
# varies by ~20% between seeds; 400 of them keep that total small beside
# the fixed sweep while still giving a steady median.
SWEEP = (2, 4, 3)
HUNTS = ((2, 3), (1, 6), (2, 5))
PROBE_GRID = (4, 4)
PROBE_K = 5
PROBE_COUNT = 400

# connectivity: full grids up to (8, 8), drawn as label subsets of a
# larger base so the seed changes the input but not the amount of work.
CONN_BASE = 11
CONN_SHAPES = ((2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (7, 7), (8, 8),
               (2, 8), (3, 7), (4, 6))

NAMES = ("large-solve", "small-campaign", "oracle-sweep", "connectivity")


@dataclass
class Workload:
    requests: list[tuple[str, Callable[[], str | None]]]  # (label, request)
    digest: str  # of the generated inputs


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def random_problem(m, rng: random.Random, d1: int, d2: int, k: int):
    grid = m.grid.ProductGraph(d1, d2)
    terms = sorted(rng.sample(sorted(grid.vertices()), 2 * k))
    return m.problem.LinkageProblem(grid, tuple(m.oracle.random_pairing(terms, rng)))


def _checked_witness(m, problem, verdict) -> str | None:
    if verdict.indeterminate:
        return "oracle verdict indeterminate"
    if verdict.feasible:
        report = m.oracle.verify(problem, verdict.witness)
        if not report.ok:
            return f"oracle witness fails verify: {report.reason}"
    return None


def _large_solve(m, rng):
    problems = [random_problem(m, rng, LARGE_D, LARGE_D, LARGE_D) for _ in range(LARGE_POOL)]

    def request(problem):
        def run():
            linkage, _ = m.solver.solve(problem)
            report = m.oracle.verify(problem, linkage)
            return None if report.ok else f"verify: {report.reason}"
        return run

    requests = [(f"instance {i}", request(p)) for i, p in enumerate(problems)]
    return requests, [m.instances.serialize_instance(p) for p in problems]


def _small_campaign(m, rng):
    texts = []
    lo, hi = SMALL_RANGE
    for _ in range(SMALL_COUNT):
        d1, d2 = rng.randint(lo, hi), rng.randint(lo, hi)
        problem = random_problem(m, rng, d1, d2, m.problem.max_guaranteed_pairs(d1, d2))
        texts.append(m.instances.serialize_instance(problem))

    def request(text):
        # the CLI's solve-then-verify pipeline, through the text formats
        def run():
            problem = m.instances.parse_instance(text)
            linkage, _ = m.solver.solve(problem)
            paths = m.instances.parse_linkage(m.instances.serialize_linkage(linkage.paths))
            report = m.oracle.verify(problem, m.problem.Linkage(tuple(tuple(p) for p in paths)))
            return None if report.ok else f"verify: {report.reason}"
        return run

    return [(f"instance {i}", request(t)) for i, t in enumerate(texts)], texts


def _oracle_sweep(m, rng):
    d1, d2 = PROBE_GRID
    probes = [random_problem(m, rng, d1, d2, PROBE_K) for _ in range(PROBE_COUNT)]

    def sweep():
        result = m.oracle.find_infeasible_pairing(*SWEEP, workers=1)
        if not result.completed:
            return "linkedness sweep did not complete"
        if result.found is not None:
            return "linkedness sweep found an infeasible pairing at the bound"
        return None

    def hunt(d1, d2):
        def run():
            result = m.oracle.find_infeasible_pairing(d1, d2, (d1 + d2 + 1) // 2, workers=1)
            if not result.completed or result.found is None:
                return "hunt ended without an infeasible pairing"
            if m.oracle.exhaustive_solve(result.found).feasible is not False:
                return "hunt's pairing is not re-certified infeasible"
            return None
        return run

    def probe(problem):
        return lambda: _checked_witness(m, problem, m.oracle.exhaustive_solve(problem))

    # half the probes run before the sweep and half after, so their median
    # latency is not read from a single stretch of the round
    probe_requests = [(f"probe {i}", probe(p)) for i, p in enumerate(probes)]
    half = len(probe_requests) // 2
    requests = probe_requests[:half] + [(f"sweep {SWEEP}", sweep)]
    requests += [(f"hunt {h}", hunt(*h)) for h in HUNTS]
    requests += probe_requests[half:]
    texts = [repr((SWEEP, HUNTS))] + [m.instances.serialize_instance(p) for p in probes]
    return requests, texts


def _connectivity(m, rng):
    base = m.grid.ProductGraph(CONN_BASE, CONN_BASE)
    labels = range(CONN_BASE + 1)
    shapes = list(CONN_SHAPES)
    rng.shuffle(shapes)
    subgrids = [m.grid.Subgrid(base, tuple(rng.sample(labels, d1 + 1)), tuple(rng.sample(labels, d2 + 1)))
                for d1, d2 in shapes]

    def request(sub):
        def run():
            kappa = m.menger.connectivity(sub)
            expected = (sub.n_rows - 1) + (sub.n_cols - 1)
            return None if kappa == expected else f"connectivity {kappa}, expected {expected}"
        return run

    requests = [(f"subgrid {s.rows}x{s.cols}", request(s)) for s in subgrids]
    return requests, [repr((s.rows, s.cols)) for s in subgrids]


_BUILDERS = {
    "large-solve": _large_solve,
    "small-campaign": _small_campaign,
    "oracle-sweep": _oracle_sweep,
    "connectivity": _connectivity,
}


def build(name: str, modules, seed: int) -> Workload:
    """Generate the workload's inputs from the seed; ``modules`` holds the
    program's modules as attributes (grid, problem, instances, menger,
    oracle, solver)."""
    requests, texts = _BUILDERS[name](modules, random.Random(f"{name}/{seed}"))
    return Workload(requests, _digest(texts))
