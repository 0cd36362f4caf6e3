"""Ground truth independent of the constructive solver.

verify checks a claimed linkage against first principles (endpoints,
adjacency, simplicity, disjointness, activity) and reports the first
violation it finds.  exhaustive_solve is a complete backtracking search
for a linkage, with visited-set pruning and a reachability cut; it is
the oracle the solver is cross-checked against.  find_infeasible_pairing
is the one sweep engine: it feeds a stream of instances (the corner-fixed
enumeration or a seeded sample) to exhaustive_solve under one node
budget and stops at the first certified infeasible pairing; is_k_linked
is a thin wrapper over it.  Nothing here imports the solver or the flow
engine.
"""

from __future__ import annotations

from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import combinations, islice
import random

from .grid import ProductGraph, Subgrid, Vertex
from .problem import Linkage, LinkageProblem


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Verdict:
    """Outcome of an exhaustive search.

    feasible is None when the node budget ran out before the search
    finished; an exhausted budget is never reported as infeasible.
    """

    feasible: bool | None
    witness: Linkage | None
    nodes_explored: int

    @property
    def indeterminate(self) -> bool:
        return self.feasible is None


@dataclass(frozen=True)
class SharpnessResult:
    """Outcome of a hunt for an infeasible pairing."""

    found: LinkageProblem | None
    completed: bool
    instances_checked: int
    nodes_explored: int


class _Budget(Exception):
    pass


def verify(problem: LinkageProblem, linkage: Linkage) -> VerifyReport:
    """Check a linkage against the problem; names the first violation."""
    sub = problem.subgrid
    pairs = problem.pairs
    paths = linkage.paths
    if len(paths) != len(pairs):
        return VerifyReport(False, f"path count: expected {len(pairs)}, got {len(paths)}")
    for i, (pair, path) in enumerate(zip(pairs, paths), start=1):
        if not path:
            return VerifyReport(False, f"path {i} is empty")
        if {path[0], path[-1]} != set(pair):
            return VerifyReport(False, f"endpoints: path {i} does not join its pair")
        for v in path:
            if not sub.contains(v):
                return VerifyReport(False, f"activity: path {i} uses inactive vertex {tuple(v)}")
        for u, v in zip(path, path[1:]):
            if u == v or (u[0] != v[0] and u[1] != v[1]):
                return VerifyReport(False, f"adjacency: path {i} step {tuple(u)} -> {tuple(v)}")
        if len(set(path)) != len(path):
            return VerifyReport(False, f"simplicity: path {i} repeats a vertex")
    seen: dict[Vertex, int] = {}
    for i, path in enumerate(paths, start=1):
        for v in path:
            if v in seen:
                return VerifyReport(False, f"disjointness: vertex {tuple(v)} on paths {seen[v]} and {i}")
            seen[v] = i
    return VerifyReport(True)


def _route_score(sub: Subgrid, s: Vertex, t: Vertex, terminals: set[Vertex]) -> int:
    """Crude count of short internally-disjoint s-t routes (fail-first key)."""
    score = 0
    if s != t and (s[0] == t[0] or s[1] == t[1]):
        score += 1
    for w in sub.neighbors(s):
        if w != t and w in sub.neighbors(t) and w not in terminals:
            score += 1
    return score


def exhaustive_solve(problem: LinkageProblem, node_budget: int | None = None) -> Verdict:
    """Backtracking search for a linkage; complete on small grids.

    Paths are grown one vertex at a time in fixed pair order (hardest
    pair first), with terminals of other pairs excluded and a
    reachability cut: every pending pair must stay connected in what is
    left of the grid.
    """
    sub = problem.subgrid
    pairs = list(problem.pairs)
    k = len(pairs)
    if k == 0:
        return Verdict(True, Linkage(()), 0)
    terminals = {v for pair in pairs for v in pair}
    order = sorted(range(k), key=lambda i: (_route_score(sub, *pairs[i], terminals), i))
    neighbor_cache = {v: sorted(sub.neighbors(v)) for v in sub.vertices()}
    nodes = 0
    used: set[Vertex] = set()
    solution: dict[int, list[Vertex]] = {}

    def reachable(a: Vertex, b: Vertex, blocked: set[Vertex]) -> bool:
        if a == b:
            return True
        seen = {a}
        queue = deque([a])
        while queue:
            u = queue.popleft()
            for w in neighbor_cache[u]:
                if w == b:
                    return True
                if w not in seen and w not in blocked:
                    seen.add(w)
                    queue.append(w)
        return False

    def pending_ok(pos: int) -> bool:
        for j in order[pos:]:
            sj, tj = pairs[j]
            blocked = used | (terminals - {sj, tj})
            if not reachable(sj, tj, blocked):
                return False
        return True

    def grow(pos: int, path: list[Vertex]) -> bool:
        nonlocal nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise _Budget
        idx = order[pos]
        target = pairs[idx][1]
        head = path[-1]
        if head == target:
            solution[idx] = list(path)
            if pos + 1 == k:
                return True
            if pending_ok(pos + 1) and start(pos + 1):
                return True
            del solution[idx]
            return False
        for w in neighbor_cache[head]:
            if w in used:
                continue
            if w in terminals and w != target:
                continue
            used.add(w)
            path.append(w)
            ok = grow(pos, path)
            path.pop()
            used.remove(w)
            if ok:
                return True
        return False

    def start(pos: int) -> bool:
        s = pairs[order[pos]][0]
        used.add(s)
        ok = grow(pos, [s])
        used.remove(s)
        return ok

    try:
        if pending_ok(0) and start(0):
            witness = Linkage(tuple(tuple(solution[i]) for i in range(k)))
            return Verdict(True, witness, nodes)
        return Verdict(False, None, nodes)
    except _Budget:
        return Verdict(None, None, nodes)


def all_pairings(items):
    """Yield every pairing (perfect matching) of the items, deterministically."""
    items = list(items)
    if not items:
        yield []
        return
    first = items[0]
    rest = items[1:]
    for i, other in enumerate(rest):
        head = (first, other)
        for tail in all_pairings(rest[:i] + rest[i + 1:]):
            yield [head] + tail


def random_pairing(items, rng: random.Random):
    """Uniformly random pairing of an even number of items."""
    items = list(items)
    if len(items) % 2:
        raise ValueError("cannot pair an odd number of items")
    out = []
    while items:
        first = items.pop(0)
        j = rng.randrange(len(items))
        out.append((first, items.pop(j)))
    return out


def _sweepable(grid: ProductGraph, k: int) -> bool:
    """Whether the exhaustive sweep for k pairs is small enough to run."""
    return grid.vertex_count <= 16 or 2 * k <= 6


def _checked_grid(d1: int, d2: int, k: int) -> ProductGraph:
    grid = ProductGraph(d1, d2)
    if 2 * k > grid.vertex_count:
        raise ValueError("not enough vertices for 2k terminals")
    return grid


def _corner_instances(grid: ProductGraph, k: int):
    """Every pairing of every 2k-set that contains the corner (0, 0).

    Restricting to sets through the lexicographically smallest vertex is
    sound for linkedness sweeps: row and column permutations act
    transitively on vertices and preserve linkages, so every terminal
    set is equivalent to one through the corner.
    """
    verts = sorted(grid.vertices())
    for rest in combinations(verts[1:], 2 * k - 1):
        for pairing in all_pairings((verts[0],) + rest):
            yield LinkageProblem(grid, tuple(pairing))


def _sampled_instances(grid: ProductGraph, k: int, seed: int, count: int):
    """count seeded draws: a random 2k-set, then a random pairing of it."""
    rng = random.Random(seed)
    verts = sorted(grid.vertices())
    for _ in range(count):
        terminal_set = sorted(rng.sample(verts, 2 * k))
        yield LinkageProblem(grid, tuple(random_pairing(terminal_set, rng)))


def _probe(problem: LinkageProblem) -> Verdict:
    """Pool worker: the verdict without its witness, which need not travel."""
    verdict = exhaustive_solve(problem)
    return Verdict(verdict.feasible, None, verdict.nodes_explored)


def _chunks(iterable, size: int):
    it = iter(iterable)
    return iter(lambda: list(islice(it, size)), [])


def find_infeasible_pairing(d1: int, d2: int, k: int,
                            node_budget: int | None = None,
                            seed: int = 0, count: int = 1000,
                            exhaustive: bool | None = None,
                            workers: int = 1) -> SharpnessResult:
    """Hunt for a pairing of 2k terminals that admits no linkage.

    This is the one sweep engine.  Its instances are either every
    pairing through the corner vertex (exhaustive; the default when the
    grid is small enough) or count seeded random pairings.  Each goes to
    exhaustive_solve, its nodes are charged to node_budget (one budget
    for the whole sweep), and the hunt stops at the first instance
    certified infeasible by a completed search.  The result says whether
    the hunt itself was complete: completed=True with no find means the
    grid really is k-linked; an exhausted budget or a random sample that
    came up empty proves nothing.

    With workers > 1 and no budget, instances are judged chunkwise by a
    process pool and merged in instance order, so the pairing found
    never depends on scheduling; a node budget keeps the sweep in this
    process because budget accounting is inherently ordered.
    """
    grid = _checked_grid(d1, d2, k)
    if k == 0:
        return SharpnessResult(None, True, 0, 0)
    if exhaustive is None:
        exhaustive = _sweepable(grid, k)
    source = (_corner_instances(grid, k) if exhaustive
              else _sampled_instances(grid, k, seed, count))
    parallel = workers > 1 and node_budget is None
    if parallel:
        from multiprocessing import Pool
    spent = 0
    checked = 0
    with Pool(workers) if parallel else nullcontext() as pool:
        for chunk in _chunks(source, 64 * workers if parallel else 1):
            if parallel:
                verdicts = pool.map(_probe, chunk)
            else:
                remaining = None if node_budget is None else node_budget - spent
                if remaining is not None and remaining <= 0:
                    return SharpnessResult(None, False, checked, spent)
                verdicts = [exhaustive_solve(chunk[0], remaining)]
            for problem, verdict in zip(chunk, verdicts):
                spent += verdict.nodes_explored
                checked += 1
                if verdict.indeterminate:
                    return SharpnessResult(None, False, checked, spent)
                if not verdict.feasible:
                    return SharpnessResult(problem, True, checked, spent)
    return SharpnessResult(None, exhaustive, checked, spent)


def is_k_linked(d1: int, d2: int, k: int, mode: str = "exhaustive",
                seed: int = 0, count: int = 1000,
                node_budget: int | None = None) -> tuple[bool, LinkageProblem | None]:
    """Decide (exhaustively) or probe (sampled) whether the grid is k-linked.

    A thin wrapper over find_infeasible_pairing.  Exhaustive mode sweeps
    every 2k-set through the corner vertex and every pairing; it refuses
    grids that are too large for that sweep, and a node_budget too small
    to finish it.  Sampled mode draws seeded random instances and can
    only ever find counterexamples, never certify linkedness.
    node_budget bounds the nodes of the whole sweep, not of each
    instance.
    """
    grid = _checked_grid(d1, d2, k)
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    exhaustive = mode == "exhaustive"
    if exhaustive and not _sweepable(grid, k):
        raise ValueError("grid too large for an exhaustive linkedness sweep")
    result = find_infeasible_pairing(d1, d2, k, node_budget, seed, count, exhaustive)
    if exhaustive and not result.completed:
        raise ValueError("node budget too small for exhaustive mode")
    return result.found is None, result.found
