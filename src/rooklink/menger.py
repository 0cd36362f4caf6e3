"""Vertex-disjoint path systems and vertex connectivity on subgrids.

disjoint_paths is a unit-capacity maximum flow over the vertex-split
network: each active vertex v becomes v_in -> v_out with capacity one.
Row and column cliques are wired through per-row / per-column hub nodes,
so a clique of size m contributes O(m) arcs instead of O(m^2); that is
what keeps 100x100 grids fast.  Augmenting paths are found breadth-first
over a fixed arc order, so results are deterministic; a pre-pass takes
the ones through at most one hub, which the BFS would find first, faster.

Extracted flow paths are normalised into A-B paths: each returned path
meets A only at its first vertex and B only at its last one (a vertex in
both A and B yields a single-vertex path).

connectivity only counts: it runs 2(m-1)(n-1) local flows on an m x n
subgrid (Esfahanian-Hakimi), each capped at the best value so far, on one
network re-armed per pair, and extracts no paths.
"""

from __future__ import annotations

from collections import deque

from .grid import ProblemContractError, Subgrid, Vertex


class _FlowNet:
    """Residual network of unit arcs: arc i leaves ends[i] and enters
    ends[i ^ 1], so arc 2i runs forward and arc 2i+1 is its reverse.

    Node ids: 0 source, 1 sink, then v_in = 2 + 2i and v_out = 3 + 2i for
    the i-th active vertex given (callers list them row-major), then row
    hubs, then column hubs.  That order and the order of `ends` (splits,
    v's being arc v_in - 2; hub arcs per vertex; A's source arcs; B's sink
    arcs) fix the arc ids, and with them which augmenting path BFS finds.
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

    def max_flow(self, cap: int | None = None) -> int:
        """Augment until the sink is cut off or the flow value reaches cap.

        First saturate, in source-arc order, the augmenting paths through no
        hub (a vertex in A and B alone), then those through one (a_out ->
        hub -> b_in): the paths the BFS would find first, in its order."""
        to, c, adj = self.to, self.cap, self.adj
        ends = {to[r] - 1: r ^ 1 for r in adj[1] if c[r ^ 1]}  # b_in -> its open sink arc
        value = 0
        for a0 in [arc for arc in adj[0] if to[arc] in ends] + adj[0]:  # A and B first
            a = to[a0]
            if value == cap:
                return value
            if not (c[a0] and c[a - 2]):  # a closed source arc, or a already carries flow
                continue
            path = (a0, a - 2, ends[a]) if a in ends else next(
                ((a0, a - 2, h, b, to[b] - 2, ends[to[b]]) for h in adj[a + 1] if c[h]
                 for b in adj[to[h]] if to[b] in ends and c[to[b] - 2]), None)
            if path:
                for arc in path:
                    c[arc] -= 1
                    c[arc ^ 1] += 1
                value += 1
        while value != cap and self.augment():
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
    graph those are one in v's row and one in v's column.  That is
    2(m-1)(n-1) local flows on m x n.  Each stops once it reaches the best
    value so far, which starts at the degree (no noncomplete graph is
    more connected than that).  Full grids with both dimensions positive
    come out to exactly d1 + d2.  The flows share one network, re-armed
    per pair by _local_flows; on full grids max_flow's pre-pass alone
    reaches the cap, with no BFS.
    """
    n = s.vertex_count
    if n < 2:
        raise ProblemContractError("connectivity undefined on a single vertex")
    if s.n_rows == 1 or s.n_cols == 1:
        return n - 1
    r0, c0 = s.rows[0], s.cols[0]
    best = s.n_rows + s.n_cols - 2
    for net in _local_flows(s, (pair for r in s.rows[1:] for c in s.cols[1:]
                                for pair in (((r0, c0), (r, c)), ((r0, c), (r, c0))))):
        best = net.max_flow(best)
    return best


def _local_flows(s: Subgrid, pairs):
    """Yield one network over every cell, re-armed for each pair (x, y): no
    flow, the splits of x and y closed, and the source arcs open at N(x) only
    and the sink arcs at N(y) only (every cell is in A and B at build)."""
    cells = list(s.vertices())
    at = {v: i for i, v in enumerate(cells)}
    net = _FlowNet(s, cells, cells, cells)
    cap, sources, sinks = net.cap, net.adj[0], net.adj[1]
    blank = cap[:-4 * len(cells)] + bytes(4 * len(cells))  # source and sink arcs come last
    for x, y in pairs:
        cap[:] = blank
        cap[2 * at[x]] = cap[2 * at[y]] = 0
        for v in s.neighbors(x):
            cap[sources[at[v]]] = 1
        for v in s.neighbors(y):
            cap[sinks[at[v]] ^ 1] = 1
        yield net
