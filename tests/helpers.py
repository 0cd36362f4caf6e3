"""Shared test utilities: independent brute-force oracles and validators,
the neighbour query they walk, and a vertex-capacity max flow, the
reference that rooklink.connectivity's checked fans are compared with."""

from __future__ import annotations

from collections import deque
from functools import cache
from itertools import combinations, permutations, product

from rooklink import (InvalidVertexError, LinkageProblem, ProductGraph, Subgrid, Vertex,
                      all_pairings)
from rooklink.grid import _vertex


def routing_margin_holds(x: int, y: int) -> bool:
    """x * (y - 1) > x + y - 3; true for every x, y >= 2.

    The counting margin behind the solver's relocation steps: an
    x-by-(y-1) block has more entries than the terminals that could
    compete for them.  With x = d1', y = d2' it backs the two-column
    case's full-rows bound, argued in a comment at its check in
    rooklink.solver._case_two_columns.
    """
    return x * (y - 1) > x + y - 3


def detours(paths) -> dict[int, int]:
    """The row matching a drain_block result holds: each 3-cell path is a
    detour, from its terminal's row to the spare row of its second cell."""
    return {x[0]: p[1][0] for x, p in paths.items() if len(p) == 3}


def require(sub: Subgrid, v: Vertex) -> None:
    if not sub.contains(v):
        raise InvalidVertexError(f"vertex {tuple(v)} not active in subgrid")


def neighbors(sub: Subgrid, v: Vertex) -> set[Vertex]:
    """All active vertices adjacent to v; there are (rows-1)+(cols-1) of them."""
    require(sub, v)
    col = set(map(_vertex, product(sub.rows, (v[1],))))
    return col.symmetric_difference(map(_vertex, product((v[0],), sub.cols)))  # v is in both


def brute_ab_feasible(sub: Subgrid, a_set, b_set, forbidden, k: int) -> bool:
    """Exhaustive search: do k disjoint A-B paths exist?

    Independent of the flow engine: plain backtracking over simple paths
    that meet A only at their first vertex and B only at their last.
    """
    from itertools import combinations

    aset = set(a_set)
    bset = set(b_set)
    forb = set(forbidden)
    nbr = {v: sorted(neighbors(sub, v)) for v in sub.vertices()}

    def route(starts, i, used):
        if i == len(starts):
            return True
        a = starts[i]
        if a in used:
            return False
        if a in bset:
            used.add(a)
            ok = route(starts, i + 1, used)
            used.discard(a)
            return ok

        def extend(path):
            head = path[-1]
            for w in nbr[head]:
                if w in used or w in forb or w in aset or w in path:
                    continue
                if w in bset:
                    for v in path:
                        used.add(v)
                    used.add(w)
                    if route(starts, i + 1, used):
                        return True
                    used.discard(w)
                    for v in path:
                        used.discard(v)
                else:
                    path.append(w)
                    if extend(path):
                        return True
                    path.pop()
            return False

        return extend([a])

    for starts in combinations(sorted(aset), k):
        if route(list(starts), 0, set()):
            return True
    return False


def brute_linkable(problem: LinkageProblem) -> bool:
    """Independent decider: do the problem's pairs have disjoint paths?

    A memoised search over (pair, cell, used set) on neighbors():
    pair i's path grows from its s one free cell at a time until it
    steps onto its t, then pair i + 1 starts.  Terminals are used from
    the outset, so no path passes through another pair's terminal.  It
    has no reachability cut and no pair ordering, and it shares no code
    with rooklink.oracle, whose verdicts it re-checks on small boards.
    """
    sub, pairs = problem.subgrid, problem.pairs

    @cache
    def route(i: int, head: Vertex, used: frozenset) -> bool:
        t = pairs[i][1]
        if head == t:
            return i + 1 == len(pairs) or route(i + 1, pairs[i + 1][0], used)
        return any(route(i, w, used | {w}) for w in neighbors(sub, head)
                   if w == t or w not in used)

    return not pairs or route(0, pairs[0][0], frozenset(v for pair in pairs for v in pair))


def _reached(sub: Subgrid, alive, start) -> set:
    """The vertices of alive reachable from start inside alive."""
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for w in neighbors(sub, u):
            if w in alive and w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def brute_connectivity(sub: Subgrid) -> int:
    """Minimum vertex cut by direct enumeration of removal sets."""
    verts = sorted(sub.vertices())
    n = len(verts)
    for size in range(n - 1):
        for removal in combinations(verts, size):
            alive = {v for v in verts if v not in set(removal)}
            if len(alive) >= 2 and len(_reached(sub, alive, min(alive))) < len(alive):
                return size
    return n - 1


def brute_local_connectivity(sub: Subgrid, x, y) -> int:
    """Smallest set of vertices other than x, y that separates nonadjacent
    x and y, by direct enumeration of removal sets."""
    others = sorted(v for v in sub.vertices() if v not in (x, y))
    return next(size for size in range(len(others) + 1)
                for removal in combinations(others, size)
                if y not in _reached(sub, set(sub.vertices()) - set(removal), x))


class _FlowNet:
    """Residual network of unit arcs: arc i leaves ends[i] and enters
    ends[i ^ 1], so arc 2i runs forward and arc 2i+1 is its reverse.

    Node ids: 0 source, 1 sink, then v_in/v_out per active vertex in the
    order given (callers list them row-major), then row hubs, then column
    hubs.  That order and the order of `ends` (vertex splits, each
    vertex's hub arcs, A's source arcs, B's sink arcs) fix the arc ids,
    and with them which augmenting path each BFS finds.
    """

    def __init__(self, s: Subgrid, verts: list[Vertex], a_set, b_set) -> None:
        self.verts = verts
        vid = {v: 2 + 2 * i for i, v in enumerate(verts)}
        hub0 = 2 + 2 * len(verts)
        row_hub = {r: hub0 + i for i, r in enumerate(s.rows)}
        col_hub = {c: hub0 + len(s.rows) + i for i, c in enumerate(s.cols)}
        ends = list(range(2, hub0))  # v_in -> v_out for each vertex
        for (r, c), u in vid.items():
            for hub in (row_hub[r], col_hub[c]):
                ends += (u + 1, hub, hub, u)  # v_out -> hub, hub -> v_in
        for a in a_set:
            ends += (0, vid[a])
        for b in b_set:
            ends += (vid[b] + 1, 1)
        to = ends[:]
        to[::2], to[1::2] = ends[1::2], ends[::2]
        adj: list[list[int]] = [[] for _ in range(hub0 + len(s.rows) + len(s.cols))]
        for arc, tail in enumerate(ends):
            adj[tail].append(arc)
        self.to = to
        self.cap = bytearray(b"\x01\x00" * (len(ends) // 2))
        self.adj = adj
        self._parent = [-1] * len(adj)
        self._stamp = [0] * len(adj)
        self._round = 0

    def augment(self) -> bool:
        """One BFS augmentation (unit flow); False when the sink is cut off."""
        to = self.to
        cap = self.cap
        adj = self.adj
        parent = self._parent
        stamp = self._stamp
        self._round += 1
        rnd = self._round
        stamp[0] = rnd
        queue = deque((0,))
        pop = queue.popleft
        push = queue.append
        while queue:
            u = pop()
            for a in adj[u]:
                if cap[a]:
                    v = to[a]
                    if stamp[v] != rnd:
                        stamp[v] = rnd
                        parent[v] = a
                        if v == 1:
                            while v:
                                a = parent[v]
                                cap[a] -= 1
                                cap[a ^ 1] += 1
                                v = to[a ^ 1]
                            return True
                        push(v)
        return False

    def max_flow(self) -> int:
        """Augment until the sink is cut off; the flow value."""
        value = 0
        while self.augment():
            value += 1
        return value

    def extract(self, a_set, b_set) -> list[list[Vertex]]:
        """Decompose the flow into vertex walks, then trim to A-B paths."""
        verts = self.verts
        to = self.to
        cap = self.cap
        flow_out: dict[int, list[int]] = {}
        for a in range(0, len(to), 2):
            if cap[a] == 0:  # saturated forward arc
                u = to[a ^ 1]
                flow_out.setdefault(u, []).append(a)
        a_lookup = set(a_set)
        b_lookup = set(b_set)
        n_verts = len(verts)
        paths: list[list[Vertex]] = []
        for arc in flow_out.get(0, []):
            walk: list[Vertex] = []
            node = to[arc]
            while node != 1:
                i = node - 2
                if 0 <= i < 2 * n_verts:
                    v = verts[i >> 1]
                    if not walk or walk[-1] != v:
                        walk.append(v)
                node = to[flow_out[node].pop(0)]
            # keep the suffix from the last A vertex, then cut at the first B vertex
            last_a = max(i for i, v in enumerate(walk) if v in a_lookup)
            walk = walk[last_a:]
            first_b = min(i for i, v in enumerate(walk) if v in b_lookup)
            paths.append(walk[: first_b + 1])
        paths.sort(key=lambda p: p[0])
        return paths


def disjoint_paths(s: Subgrid, a_set, b_set, forbidden=(),
                   k: int | None = None) -> list[list[Vertex]] | None:
    """k pairwise vertex-disjoint A-B paths avoiding forbidden vertices.

    A unit-capacity max flow over the vertex-split network (each active
    vertex v is an arc v_in -> v_out), with each row and column clique
    wired through one hub node, so a line of m cells adds O(m) arcs.
    Each path meets A only at its first vertex and B only at its last
    (a vertex in both A and B is a one-vertex path).  Returns None when fewer than k disjoint paths exist (the max-flow
    value is below k); that is a normal outcome, not an error.  When the
    flow supports more than k paths, the k whose A-endpoints are
    lexicographically smallest are returned, sorted by that endpoint.
    """
    a_sorted = sorted(set(a_set))
    b_sorted = sorted(set(b_set))
    if k is None:
        k = len(a_sorted)
    if k < 0 or k > min(len(a_sorted), len(b_sorted)):
        raise ValueError(f"k={k} exceeds min(|A|,|B|)={min(len(a_sorted), len(b_sorted))}")
    forb = set(forbidden)
    for v in a_sorted + b_sorted:
        require(s, v)
        if v in forb:
            raise ValueError(f"endpoint {tuple(v)} is forbidden")
    net = _FlowNet(s, [v for v in s.vertices() if v not in forb], a_sorted, b_sorted)
    net.max_flow()
    paths = net.extract(a_sorted, b_sorted)
    if len(paths) < k:
        return None
    return paths[:k]


def all_pairs_connectivity(sub: Subgrid) -> int:
    """Reference kappa: the least local connectivity over every
    nonadjacent pair, each counted with disjoint_paths (the most
    N(u)-N(v) paths that avoid u and v)."""
    n = sub.vertex_count
    if sub.n_rows == 1 or sub.n_cols == 1:
        return n - 1
    verts = sorted(sub.vertices())
    best = n - 1
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            if u[0] == v[0] or u[1] == v[1]:
                continue
            a_set, b_set = neighbors(sub, u), neighbors(sub, v)
            local = min(len(a_set), len(b_set))
            while disjoint_paths(sub, a_set, b_set, {u, v}, local) is None:
                local -= 1
            best = min(best, local)
    return best


def check_ab_system(sub: Subgrid, paths, a_set, b_set, forbidden=()):
    """Assert the structural contract of a disjoint A-B path system."""
    aset = set(a_set)
    bset = set(b_set)
    forb = set(forbidden)
    seen: set[Vertex] = set()
    for path in paths:
        assert path, "empty path"
        assert path[0] in aset, f"path start {path[0]} not in A"
        assert path[-1] in bset, f"path end {path[-1]} not in B"
        assert len(set(path)) == len(path), "path repeats a vertex"
        for v in path:
            assert sub.contains(v), f"{v} inactive"
            assert v not in forb, f"{v} forbidden"
            assert v not in seen, f"{v} on two paths"
            seen.add(v)
        for u, v in zip(path, path[1:]):
            assert v in neighbors(sub, u), f"non-edge {u} -> {v}"
        for v in path[1:]:
            assert v not in aset, f"path meets A at interior vertex {v}"
        for v in path[:-1]:
            assert v not in bset, f"path meets B before its end at {v}"


def corner_instances(grid: ProductGraph, k: int):
    """Reference sweep source: every pairing of every 2k-set through (0, 0).

    Restricting to sets through the lexicographically smallest vertex is
    sound for linkedness sweeps: row and column permutations act
    transitively on vertices and preserve linkages, so every terminal
    set is equivalent to one through the corner.
    """
    verts = sorted(grid.vertices())
    for rest in combinations(verts[1:], 2 * k - 1):
        for pairing in all_pairings((verts[0],) + rest):
            yield LinkageProblem(grid, tuple(pairing))


def symmetry_tables(grid: ProductGraph):
    """Every symmetry of the board as a table on pairs of cells.

    The symmetries are the row-and-column permutations and, on a square
    board, each of them after a transposition; the identity comes first.
    A cell is r * n_cols + c, an ordered pair of cells (a, b) is
    a * V + b with V the cell count, and a table maps a pair to its
    image's code min * V + max, so both orders of a pair map alike.
    """
    rows, cols = grid.n_rows, grid.n_cols
    size = grid.vertex_count
    tables = []
    for rp in permutations(range(rows)):
        for cp in permutations(range(cols)):
            maps = [[rp[r] * cols + cp[c] for r in range(rows) for c in range(cols)]]
            if rows == cols:
                maps.append([rp[c] * cols + cp[r] for r in range(rows) for c in range(cols)])
            tables += [[min(g[a], g[b]) * size + max(g[a], g[b])
                        for a in range(size) for b in range(size)] for g in maps]
    return tables


def pairing_images(pairs, grid: ProductGraph, tables):
    """Yield the pairing's image under each table, as a sorted tuple of
    pair codes; equal tuples are equal pairings."""
    cols, size = grid.n_cols, grid.vertex_count
    codes = [(s[0] * cols + s[1]) * size + t[0] * cols + t[1] for s, t in pairs]
    for table in tables:
        yield tuple(sorted([table[c] for c in codes]))


def brute_orbit_count(grid: ProductGraph, k: int) -> int:
    """Orbits of 2k-terminal pairings under the board's symmetries: the
    number of distinct least images, over the whole group, of the corner
    pairings (every orbit has one)."""
    tables = symmetry_tables(grid)
    return len({min(pairing_images(p.pairs, grid, tables))
                for p in corner_instances(grid, k)})


def fake_pool(monkeypatch, cores: int) -> list[int]:
    """Make os.cpu_count() report `cores` and swap multiprocessing.Pool for
    an in-process stand-in, so no process starts; returns the list of the
    pool sizes asked for, which grows as pools are made."""
    import multiprocessing
    import os

    sizes: list[int] = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    return sizes
