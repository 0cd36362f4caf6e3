"""Ground truth independent of the constructive solver.

verify checks a claimed linkage against first principles (endpoints,
adjacency, simplicity, disjointness, activity) and reports the first
violation it finds.  exhaustive_solve is a complete backtracking search
for a linkage, with visited-set pruning and a reachability cut; it is
the oracle the solver is cross-checked against.  Each board is compiled
once into a cached table (vertices in lexicographic order, neighbour
sets as int bitmasks), and the search is an iterative depth-first
search over that table, so witness length is not bounded by the
recursion limit.  find_infeasible_pairing
is the one sweep engine: it feeds a stream of instances (the corner-fixed
enumeration or a seeded sample) to exhaustive_solve under one node
budget and stops at the first certified infeasible pairing; is_k_linked
is a thin wrapper over it.  Nothing here imports the solver or the flow
engine.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
import random

from .grid import ProductGraph, Vertex
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


@lru_cache(maxsize=64)
def _board(rows: tuple[int, ...], cols: tuple[int, ...]):
    """The board table of one label set, built once and shared.

    Vertices are listed in lexicographic order; vertex i's neighbours are
    the set bits of masks[i], so walking them from the lowest bit up
    visits them in that same order.
    """
    verts = tuple(Vertex(r, c) for r in rows for c in cols)
    index = {v: i for i, v in enumerate(verts)}
    row_masks = {r: sum(1 << index[Vertex(r, c)] for c in cols) for r in rows}
    col_masks = {c: sum(1 << index[Vertex(r, c)] for r in rows) for c in cols}
    masks = tuple((row_masks[r] | col_masks[c]) ^ (1 << i) for i, (r, c) in enumerate(verts))
    return verts, index, masks


def exhaustive_solve(problem: LinkageProblem, node_budget: int | None = None) -> Verdict:
    """Backtracking search for a linkage; complete on small grids.

    Paths are grown one vertex at a time in fixed pair order (hardest
    pair first: fewest short routes), with terminals of other pairs
    excluded and a reachability cut: every pending pair must stay
    connected in what is left of the grid.  The search runs on the
    board's cached table (_board): vertices are indices, vertex sets
    are int bitmasks, and the depth-first search keeps its own stack,
    so path length is not limited by the recursion limit.  Neighbours
    are tried in lexicographic order; nodes_explored counts every
    vertex the search appends to a path, pair starts included.
    """
    pairs = problem.pairs
    k = len(pairs)
    if k == 0:
        return Verdict(True, Linkage(()), 0)
    sub = problem.subgrid
    verts, index, masks = _board(sub.rows, sub.cols)
    ends = [(index[s], index[t]) for s, t in pairs]
    terminals = 0
    for s, t in ends:
        terminals |= 1 << s | 1 << t

    def route_score(i: int) -> int:
        s, t = ends[i]
        return (masks[s] >> t & 1) + (masks[s] & masks[t] & ~terminals).bit_count()

    order = sorted(range(k), key=route_score)  # stable: ties keep pair order
    src = [ends[i][0] for i in order]
    dst = [ends[i][1] for i in order]

    def pending_ok(pos: int, used: int) -> bool:
        for s, t in zip(src[pos:], dst[pos:]):
            goal = 1 << t
            seen = frontier = 1 << s
            closed = used | (terminals ^ goal)  # s is closed too, but already seen
            while frontier:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    reach |= masks[low.bit_length() - 1]
                    frontier ^= low
                if reach & goal:
                    break
                frontier = reach & ~(closed | seen)
                seen |= frontier
            else:
                return False
        return True

    if not pending_ok(0, 0):
        return Verdict(False, None, 0)
    nodes = 0
    used = 0
    path: list[int] = []  # every path so far, back to back, in search order
    untried: list[int] = []  # per path vertex: neighbours still to try
    pos = 0
    v = src[0]
    while True:
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            return Verdict(None, None, nodes)
        used |= 1 << v
        path.append(v)
        if v != dst[pos]:
            untried.append(masks[v] & ~(used | (terminals ^ 1 << dst[pos])))
        elif pos + 1 == k:
            break
        else:
            untried.append(0)
            if pending_ok(pos + 1, used):
                pos += 1
                v = src[pos]
                continue
        # backtrack to the deepest vertex with a neighbour left to try;
        # undoing a pair's start resumes the previous pair at its target,
        # which has none, so the search unwinds into that pair's path
        while not untried[-1]:
            untried.pop()
            u = path.pop()
            used ^= 1 << u
            if u == src[pos]:
                if pos == 0:
                    return Verdict(False, None, nodes)
                pos -= 1
        low = untried[-1] & -untried[-1]
        untried[-1] ^= low
        v = low.bit_length() - 1
    paths: list[tuple[Vertex, ...]] = [()] * k
    cut = 0
    for i, t in zip(order, dst):
        end = path.index(t, cut) + 1
        paths[i] = tuple(verts[u] for u in path[cut:end])
        cut = end
    return Verdict(True, Linkage(tuple(paths)), nodes)


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
