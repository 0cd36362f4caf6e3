"""Vertex-disjoint path systems and vertex connectivity on subgrids.

disjoint_paths is a unit-capacity maximum flow over the vertex-split
network: each active vertex v becomes v_in -> v_out with capacity one.
Row and column cliques are wired through per-row / per-column hub nodes,
so a clique of size m contributes O(m) arcs instead of O(m^2); that is
what keeps 100x100 grids fast.  Augmenting paths are found breadth-first
over a fixed arc order, so results are deterministic.

Extracted flow paths are normalised into A-B paths: each returned path
meets A only at its first vertex and B only at its last one (a vertex in
both A and B yields a single-vertex path).  Only tests call this engine:
connectivity checks one explicit fan of paths per pair, with no flow.
"""

from __future__ import annotations

from collections import deque

from .grid import ProblemContractError, Subgrid, Vertex


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

    Returns None when fewer than k disjoint paths exist (the max-flow
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
        s.require(v)
        if v in forb:
            raise ValueError(f"endpoint {tuple(v)} is forbidden")
    net = _FlowNet(s, [v for v in s.vertices() if v not in forb], a_sorted, b_sorted)
    net.max_flow()
    paths = net.extract(a_sorted, b_sorted)
    if len(paths) < k:
        return None
    return paths[:k]


def connectivity(s: Subgrid) -> int:
    """Vertex connectivity of the induced graph.

    A single active row or column is complete: |V| - 1.  Otherwise kappa
    is the least number of internally disjoint u-v paths over nonadjacent
    pairs u, v, and by Esfahanian and Hakimi (Networks 14, 1984) two
    families of pairs suffice, for any fixed vertex v (here the first
    one).  Take a minimum cut S.  If v is not in S, S separates v from a
    vertex u of another component, and u is not adjacent to v.  If v is
    in S, v has a neighbour in every component of G - S (else S - v would
    cut), so S separates two nonadjacent neighbours of v; on a rook's
    graph those are one in v's row and one in v's column.  Each of those
    2(m-1)(n-1) pairs on m x n gets _fan's m + n - 2 paths, checked by
    _check_fan, which shares no code with it; no vertex has more neighbours.
    """
    n = s.vertex_count
    if n < 2:
        raise ProblemContractError("connectivity undefined on a single vertex")
    if s.n_rows == 1 or s.n_cols == 1:
        return n - 1
    r0, c0 = s.rows[0], s.cols[0]
    degree = s.n_rows + s.n_cols - 2
    for r in s.rows[1:]:
        for c in s.cols[1:]:
            for x, y in (((r0, c0), (r, c)), ((r0, c), (r, c0))):
                _check_fan(s, x, y, _fan(s, x, y), degree)
    return degree


def _fan(s: Subgrid, x, y) -> list[list[tuple[int, int]]]:
    """The m + n - 2 internally disjoint x-y paths, x and y on no common
    line: one corner each way, then one along each other row and column."""
    (xr, xc), (yr, yc) = x, y
    return ([[x, (xr, yc), y], [x, (yr, xc), y]]
            + [[x, (r, xc), (r, yc), y] for r in s.rows if r != xr and r != yr]
            + [[x, (xr, c), (yr, c), y] for c in s.cols if c != xc and c != yc])


def _check_fan(s: Subgrid, x, y, paths, k: int) -> None:
    """Raise ValueError unless paths are k internally disjoint x-y paths of s."""
    inner = [v for p in paths for v in p[1:-1]]
    if len(paths) != k or len(set(inner)) != len(inner) or x in inner or y in inner:
        raise ValueError(f"fan {x}-{y}: {len(paths)} paths, not {k} internally disjoint ones")
    for p in paths:
        if len(p) < 2 or p[0] != x or p[-1] != y or not all(map(s.contains, p)) or not all(
                (u[0] == v[0]) != (u[1] == v[1]) for u, v in zip(p, p[1:])):
            raise ValueError(f"fan {x}-{y}: {p} is not an x-y path of the subgrid")
