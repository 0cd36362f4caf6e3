"""Ground truth independent of the constructive solver.

verify checks a claimed linkage against first principles (endpoints,
adjacency, simplicity, disjointness, activity) and reports the first
violation it finds.  exhaustive_solve is a complete backtracking search
for a linkage, with visited-set pruning and a reachability cut; it is
the oracle the solver is cross-checked against.  Each board is compiled
once into a cached table (vertices in lexicographic order, neighbour
sets as int bitmasks), and the search is an iterative depth-first
search over that table, so witness length is not bounded by the
recursion limit.  find_infeasible_pairing is the one sweep engine: it
feeds a stream of instances to exhaustive_solve under one node budget,
verifies each feasible witness, and stops at the first certified
infeasible pairing.  The exhaustive stream holds one pairing per orbit
of the board's symmetries (row and column permutations, and
transposition on square boards); the other is a seeded sample of
random_problem draws.  judged, the one worker pool, streams both this
sweep and the CLI's fuzz campaign.  Nothing here imports the solver or
menger.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, islice, permutations, product
from math import comb, factorial, prod
import os
import random
import sys

from .grid import ProductGraph, Vertex, _vertex, flip
from .problem import Linkage, LinkageProblem, ProblemContractError


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
    """Check a linkage against the problem; names the first violation.

    Each path is walked once against the subgrid's label sets; a path's
    endpoints rank first, then its activity, adjacency and simplicity, and
    disjointness is reported only once every path passes those."""
    sub, pairs, paths = problem.subgrid, problem.pairs, linkage.paths
    rows, cols = sub._row_set, sub._col_set  # the label sets, kept private to the package
    if len(paths) != len(pairs):
        return VerifyReport(False, f"path count: expected {len(pairs)}, got {len(paths)}")
    seen, clash = {}, None  # seen: each vertex's latest path
    for i, ((s, t), path) in enumerate(zip(pairs, paths), start=1):
        if not path:
            return VerifyReport(False, f"path {i} is empty")
        if not (path[0] == s and path[-1] == t or path[0] == t and path[-1] == s):
            return VerifyReport(False, f"endpoints: path {i} does not join its pair")
        step = repeat = u = None
        for v in path:
            if v[0] not in rows or v[1] not in cols:
                return VerifyReport(False, f"activity: path {i} uses inactive vertex {tuple(v)}")
            if u is not None and step is None and (u == v or u[0] != v[0] and u[1] != v[1]):
                step = f"adjacency: path {i} step {tuple(u)} -> {tuple(v)}"
            j = seen.get(v)
            if j == i:
                repeat = f"simplicity: path {i} repeats a vertex"
            elif j is not None and clash is None:
                clash = f"disjointness: vertex {tuple(v)} on paths {j} and {i}"
            seen[v], u = i, v
        if step or repeat:
            return VerifyReport(False, step or repeat)
    return VerifyReport(False, clash) if clash else VerifyReport(True)


@lru_cache(maxsize=64)
def _board(rows: tuple[int, ...], cols: tuple[int, ...]):
    """The board table of one label set, built once and shared.

    Vertices are listed in lexicographic order; vertex i's neighbours are
    the set bits of masks[i], so walking them from the lowest bit up
    visits them in that same order.
    """
    verts = tuple(map(_vertex, product(rows, cols)))
    index = {v: i for i, v in enumerate(verts)}
    row_masks = {r: sum(1 << index[r, c] for c in cols) for r in rows}
    col_masks = {c: sum(1 << index[r, c] for r in rows) for c in cols}
    masks = tuple((row_masks[r] | col_masks[c]) ^ (1 << i) for i, (r, c) in enumerate(verts))
    return verts, index, masks


def exhaustive_solve(problem: LinkageProblem, node_budget: int | None = None) -> Verdict:
    """Backtracking search for a linkage; complete on small grids.

    Paths are grown one vertex at a time in fixed pair order (hardest
    pair first: fewest short routes), with terminals of other pairs
    excluded and a reachability cut: every pending pair must stay
    connected in what is left of the grid.  The cut checks only pairs
    whose ends are not neighbours: the others always stay connected.
    The search runs on the board's cached table (_board): vertices are
    indices, vertex sets are int bitmasks, and the depth-first search is
    a loop: the last path vertex's neighbours still to try are a local,
    and a stack holds those of each vertex before it, so path length is
    not limited by the recursion limit.  Each pair's blocked terminals
    and the far pending pairs are built once per search.
    Neighbours are tried in lexicographic order; nodes_explored
    counts every vertex the search appends to a path, pair starts
    included.
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
    blocked = [terminals ^ 1 << t for t in dst]  # per pair: the terminals it may not enter
    # pending[pos]: the first pair from pos on whose ends are not neighbours
    # (the others stay connected: no path uses a terminal), as (start bit,
    # goal bit, closed base, the next such pair); each is built once
    pending, far = [None] * k, None
    for i in reversed(range(k)):
        if not masks[src[i]] >> dst[i] & 1:
            far = (1 << src[i], 1 << dst[i], blocked[i], far)
        pending[i] = far

    def pending_ok(far, used: int) -> bool:
        while far:
            frontier, goal, closed, far = far
            closed |= used  # closed holds seen too: the start, a terminal, is in it
            while frontier:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    reach |= masks[low.bit_length() - 1]
                    frontier ^= low
                if reach & goal:
                    break
                frontier = reach & ~closed
                closed |= frontier
            else:
                return False
        return True

    if not pending_ok(pending[0], 0):
        return Verdict(False, None, 0)
    limit = sys.maxsize if node_budget is None else node_budget  # maxsize: no search gets there
    nodes = 0
    used = 0
    path: list[int] = []  # every path so far, back to back, in search order
    stack: list[int] = []  # per path vertex: what the vertex before it has still to try
    cand = 0  # the last vertex's neighbours still to try
    pos = 0
    goal, block = dst[0], blocked[0]
    v = src[0]
    while True:
        nodes += 1
        if nodes > limit:
            return Verdict(None, None, nodes)
        used |= 1 << v
        path.append(v)
        stack.append(cand)
        if v != goal:
            cand = masks[v] & ~(used | block)
        elif pos + 1 == k:
            break
        else:
            cand = 0
            if pending_ok(pending[pos + 1], used):
                pos += 1
                goal, block = dst[pos], blocked[pos]
                v = src[pos]
                continue
        # backtrack to the deepest vertex with a neighbour left to try;
        # undoing a pair's start resumes the previous pair at its target,
        # which has none, so the search unwinds into that pair's path
        while not cand:
            u = path.pop()
            used ^= 1 << u
            cand = stack.pop()
            if u == src[pos]:
                if pos == 0:
                    return Verdict(False, None, nodes)
                pos -= 1
                goal, block = dst[pos], blocked[pos]
        low = cand & -cand
        cand ^= low
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


_MAX_SWEEP_ORBITS = 5000
_MAX_SEARCH_VERTICES = 20
_MAX_SWEEP_TABLE = 1 << 22


def _sweep_board(grid: ProductGraph, k: int) -> tuple[int, int, bool]:
    """(m, n, square): the grid, short side first, cut to 2k x 2k, where
    every orbit of 2k terminals has a pairing (two of which the cut
    relates exactly when the grid does); square: the grid is square."""
    m, n = sorted((grid.n_rows, grid.n_cols))
    return min(m, 2 * k), min(n, 2 * k), m == n


def _sweep_mode(grid: ProductGraph, k: int) -> str:
    """One estimate on the board of _sweep_board: "refuse" if a table
    passes _MAX_SWEEP_TABLE entries (the (2k - 1)!! pairing flags of
    _orbit_instances or the m! 2^m of _row_tables, m <= 2k; both do
    before k is 12, so no big product is formed); else "sweep", the
    default, if the Burnside lower bound on the orbits (all pairings over
    the group order m! n!, times 2 if square) and the pairings walked per
    pattern (one pattern but a huge group on one row) are at most
    _MAX_SWEEP_ORBITS and, beyond three pairs, the grid has at most 20
    vertices (an orbit's search grows steeply with the grid: some on
    6 x 8 take millions of nodes); else "forced", run only when asked
    for.  One row is one orbit, which _orbit_instances yields untabled.
    """
    m, n, square = _sweep_board(grid, k)
    if m == 1:
        return "sweep"
    if k >= 12:
        return "refuse"
    walk = prod(range(1, 2 * k, 2))
    if max(walk, factorial(m) << m) > _MAX_SWEEP_TABLE:
        return "refuse"
    group = factorial(m) * factorial(n) * (2 if square else 1)
    if ((k <= 3 or grid.vertex_count <= _MAX_SEARCH_VERTICES)
            and walk <= _MAX_SWEEP_ORBITS
            and comb(m * n, 2 * k) * walk <= _MAX_SWEEP_ORBITS * group):
        return "sweep"
    return "forced"


def _row_tables(m: int):
    """Each row permutation of an m-row board, with its image of every column mask.

    Bit m-1-r of a column mask stands for row r.
    """
    return [(p, [sum(1 << m - 1 - p[r] for r in range(m) if mask >> m - 1 - r & 1)
                 for mask in range(1 << m)])
            for p in permutations(range(m))]


def _patterns(m: int, n: int, cells: int, square: bool):
    """Each m x n terminal pattern with `cells` cells, one per orbit,
    lazily, as (cells, moves): its cells and its stabiliser's generators.

    The orbits are those of row and column permutations, and of
    transposition if square (then m == n).  A pattern is the tuple of its
    n column masks in descending order, so a column permutation acts on
    it only through that sort.  The canonical pattern of an orbit is the
    largest tuple that a row permutation (after the transposition, if
    square) sorts to.  Candidates are the descending tuples with `cells`
    bits, and the canonicity test meets the fixers on its way: each row
    permutation p, after the transposition if flipped, whose image of the
    column masks sorts back to the pattern.  Every symmetry is a fixer
    followed by a permutation of equal columns, so the generators are one
    element per fixer and a swap and a cycle of each run of equal
    nonempty columns.  The cells are (row, column) pairs in lexicographic
    order, and each generator but the identity is a (g, g^-1) pair of
    permutations of their indices.
    """
    tables = _row_tables(m)

    def stabiliser(pattern):
        views = [(pattern, False)]
        if square:
            views.append((tuple(sum(1 << m - 1 - c for c, mask in enumerate(pattern)
                                    if mask >> m - 1 - r & 1) for r in range(m)), True))
        fixers = []
        for (view, flipped), (p, table) in product(views, tables):
            image = [table[mask] for mask in view]
            if (key := tuple(sorted(image, reverse=True))) > pattern:
                return None
            if key == pattern:
                fixers.append((p, flipped, image))
        coords = [(r, c) for r in range(m) for c in range(n) if pattern[c] >> m - 1 - r & 1]
        index = {cell: i for i, cell in enumerate(coords)}
        gens = set()
        start = 0
        for mask, run in groupby(pattern):
            end = start + len(list(run)) - 1
            if mask and end > start:
                for move in ({start: start + 1, start + 1: start},
                             {c: c + 1 if c < end else start for c in range(start, end + 1)}):
                    gens.add(tuple(index[r, move.get(c, c)] for r, c in coords))
            start = end + 1
        for p, flipped, image in fixers:
            # tau[c]: the pattern column that image column c sorts to
            tau = {c: i for i, c in enumerate(sorted(range(n), key=image.__getitem__, reverse=True))}
            gens.add(tuple(index[(p[c], tau[r]) if flipped else (p[r], tau[c])]
                           for r, c in coords))
        gens.discard(tuple(range(cells)))
        return coords, [(g, sorted(range(cells), key=g.__getitem__)) for g in gens]

    def grow(prefix, top, left):
        slots = n - len(prefix)
        if not slots:
            if found := stabiliser(prefix):
                yield found
            return
        for mask in range(top, -1, -1):
            bits = mask.bit_count()
            if bits <= left <= bits + (slots - 1) * m:
                yield from grow(prefix + (mask,), mask, left - bits)

    yield from grow((), (1 << m) - 1, cells)


def _pairing_rank(mate: list[int]) -> int:
    """The position of a pairing of range(len(mate)) in all_pairings
    order, where mate[i] is the partner of i."""
    rest = list(range(len(mate)))
    rank = 0
    while rest:
        first = rest.pop(0)
        i = rest.index(mate[first])
        rank = rank * len(rest) + i
        del rest[i]
    return rank


def _orbit_instances(grid: ProductGraph, k: int):
    """One pairing of 2k terminals per orbit of the board's symmetries, lazily.

    Row permutations, column permutations and, on a square board,
    transposition map linkages to linkages, so every pairing is
    feasible exactly when its orbit representative is.  Orbits are
    enumerated on the board of _sweep_board in two stages: each canonical
    terminal pattern with its stabiliser's generators (_patterns), then
    its pairings modulo that stabiliser, keeping the first pairing of each
    orbit in all_pairings order and marking the rest of that orbit seen.
    """
    flipped = grid.n_rows > grid.n_cols
    m, n, square = _sweep_board(grid, k)
    if m == 1:
        # one row, before any table: every permutation of its 2k cells is
        # a symmetry, so all (2k - 1)!! pairings are one orbit, and the
        # first in all_pairings order, cell 2i with cell 2i + 1, stands for it
        verts = [flip((0, c)) if flipped else (0, c) for c in range(2 * k)]
        yield LinkageProblem(grid, tuple(zip(verts[::2], verts[1::2])))
        return
    for cells, moves in _patterns(m, n, 2 * k, square):
        verts = [flip(cell) if flipped else cell for cell in cells]
        seen = bytearray(prod(range(1, 2 * k, 2)))  # one flag per pairing, by rank
        for rank, pairing in enumerate(all_pairings(range(2 * k))):
            if seen[rank]:
                continue
            seen[rank] = 1
            mate = [0] * (2 * k)
            for a, b in pairing:
                mate[a], mate[b] = b, a
            stack = [mate]
            while stack:
                mate = stack.pop()
                for g, inverse in moves:
                    image = [g[mate[a]] for a in inverse]
                    image_rank = _pairing_rank(image)
                    if not seen[image_rank]:
                        seen[image_rank] = 1
                        stack.append(image)
            yield LinkageProblem(grid, tuple((verts[a], verts[b]) for a, b in pairing))


def random_problem(grid: ProductGraph, k: int, rng: random.Random) -> LinkageProblem:
    """k pairs on the grid: a random 2k-set of its cells, drawn by row-major
    number so that no cell list is built, then a random pairing of it."""
    cells = sorted(rng.sample(range(grid.vertex_count), 2 * k))
    return LinkageProblem(grid, random_pairing([divmod(i, grid.n_cols) for i in cells], rng))


def judged(fn, source, workers: int = 1):
    """(item, fn(item)) for each item of source, lazily and in source order;
    with workers > 1 (capped at os.cpu_count()), a process pool runs fn,
    a module-level function, on chunks of 64 items per worker."""
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        yield from ((item, fn(item)) for item in source)
        return
    from multiprocessing import Pool

    items = iter(source)
    with Pool(workers) as pool:
        while chunk := list(islice(items, 64 * workers)):
            yield from zip(chunk, pool.map(fn, chunk))


def _judge(job) -> Verdict:
    """exhaustive_solve(*job), through the module global so a wrapper sees it."""
    return exhaustive_solve(*job)


def find_infeasible_pairing(d1: int, d2: int, k: int,
                            node_budget: int | None = None,
                            seed: int = 0, count: int = 1000,
                            exhaustive: bool | None = None,
                            workers: int = 1) -> SharpnessResult:
    """Hunt for a pairing of 2k terminals that admits no linkage.

    Its instances are one pairing per symmetry orbit (exhaustive; the
    default where _sweep_mode says "sweep") or count seeded
    random_problem draws, and instances_checked counts them; a forced
    sweep that _sweep_mode refuses raises ProblemContractError.  judged
    sends each instance, over `workers` processes, to exhaustive_solve
    under one node_budget for the whole hunt, and the hunt stops at the
    first instance certified infeasible.  completed=True with no find
    means the grid really is k-linked; an exhausted budget or an empty
    sample proves nothing.  Each instance is charged only what the ones
    before it left, so the result never depends on the worker count.
    Every feasible witness is checked by verify in this process, pooled
    or not; one that fails raises ValueError.
    """
    grid = ProductGraph(d1, d2)
    if k < 0:
        raise ProblemContractError(f"pair count must be non-negative, got {k}")
    if 2 * k > grid.vertex_count:
        raise ProblemContractError("not enough vertices for 2k terminals")
    if k == 0:
        return SharpnessResult(None, True, 0, 0)
    mode = _sweep_mode(grid, k)
    if exhaustive is None:
        exhaustive = mode == "sweep"
    if exhaustive and mode == "refuse":
        raise ProblemContractError("grid too large for an exhaustive linkedness sweep")
    rng = random.Random(seed)
    source = (_orbit_instances(grid, k) if exhaustive
              else (random_problem(grid, k, rng) for _ in range(count)))
    spent = checked = 0
    # each instance may spend the budget left when it is pulled: in order,
    # its true share; in a pooled chunk, at least that share
    jobs = ((p, None if node_budget is None else node_budget - spent) for p in source)
    for (problem, _), verdict in judged(_judge, jobs, workers):
        if node_budget is not None:
            if spent >= node_budget:  # spent, with an instance left
                return SharpnessResult(None, False, checked, spent)
            if verdict.nodes_explored > node_budget - spent:
                # past its share: held to it, the search stops one node over
                return SharpnessResult(None, False, checked + 1, node_budget + 1)
        spent += verdict.nodes_explored
        checked += 1
        if verdict.feasible is False:
            return SharpnessResult(problem, True, checked, spent)
        if verdict.feasible:
            report = verify(problem, verdict.witness)
            if not report.ok:  # a bug in the search, never a verdict
                raise ValueError(f"oracle witness fails verify: {report.reason}")
    return SharpnessResult(None, exhaustive, checked, spent)
