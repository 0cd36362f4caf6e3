"""Vertex-disjoint path systems and vertex connectivity on subgrids.

disjoint_paths is a unit-capacity maximum flow over the vertex-split
network: each active vertex v becomes v_in -> v_out with capacity one.
Row and column cliques are wired through per-row / per-column hub nodes,
so a clique of size m contributes O(m) arcs instead of O(m^2); that is
what keeps 100x100 grids fast.  Augmenting paths are found breadth-first
over a fixed arc order, so results are deterministic.

Extracted flow paths are normalised into A-B paths: each returned path
meets A only at its first vertex and B only at its last one (a vertex in
both A and B yields a single-vertex path).
"""

from __future__ import annotations

from collections import deque

from .grid import ProblemContractError, Subgrid, Vertex


class _FlowNet:
    """Residual network; arc 2i is a unit forward arc, 2i+1 its reverse.

    Node ids: 0 source, 1 sink, then v_in/v_out per active vertex in
    lexicographic order, then row hubs, then column hubs.
    """

    def __init__(self, s: Subgrid, active: set[Vertex], a_set, b_set) -> None:
        verts = sorted(active)
        self.verts = verts
        n_verts = len(verts)
        vid = {v: 2 + 2 * i for i, v in enumerate(verts)}
        self.vid = vid
        nxt = 2 + 2 * n_verts
        row_hub = {}
        for r in s.rows:
            row_hub[r] = nxt
            nxt += 1
        col_hub = {}
        for c in s.cols:
            col_hub[c] = nxt
            nxt += 1
        self.n = nxt
        to: list[int] = []
        adj: list[list[int]] = [[] for _ in range(nxt)]
        app = to.append
        m = 0
        for i in range(n_verts):
            vin = 2 + 2 * i
            app(vin + 1)
            app(vin)
            adj[vin].append(m)
            adj[vin + 1].append(m + 1)
            m += 2
        for i, v in enumerate(verts):
            vin = 2 + 2 * i
            vout = vin + 1
            a_out = adj[vout]
            a_in = adj[vin]
            for hub in (row_hub[v[0]], col_hub[v[1]]):
                a_hub = adj[hub]
                app(hub)
                app(vout)
                a_out.append(m)
                a_hub.append(m + 1)
                app(vin)
                app(hub)
                a_hub.append(m + 2)
                a_in.append(m + 3)
                m += 4
        src = adj[0]
        for a in a_set:
            u = vid[a]
            app(u)
            app(0)
            src.append(m)
            adj[u].append(m + 1)
            m += 2
        snk = adj[1]
        for b in b_set:
            u = vid[b] + 1
            app(1)
            app(u)
            adj[u].append(m)
            snk.append(m + 1)
            m += 2
        self.to = to
        self.cap = bytearray(b"\x01\x00" * (m // 2))
        self.adj = adj
        self._parent = [-1] * nxt
        self._stamp = [0] * nxt
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


def _max_path_system(s: Subgrid, a_set, b_set, forbidden) -> list[list[Vertex]]:
    forb = set(forbidden)
    active = {v for v in s.vertices() if v not in forb}
    a_sorted = sorted(set(a_set))
    b_sorted = sorted(set(b_set))
    for v in a_sorted + b_sorted:
        s.require(v)
        if v in forb:
            raise ValueError(f"endpoint {tuple(v)} is forbidden")
    net = _FlowNet(s, active, a_sorted, b_sorted)
    net.max_flow()
    return net.extract(a_sorted, b_sorted)


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
    paths = _max_path_system(s, a_sorted, b_sorted, forbidden)
    if len(paths) < k:
        return None
    return paths[:k]


def connectivity(s: Subgrid) -> int:
    """Vertex connectivity of the induced graph.

    Complete graphs (a single active row or column) have connectivity
    |V| - 1; otherwise this is the minimum over nonadjacent pairs u, v of
    the maximum number of internally disjoint u-v paths.  Full grids with
    both dimensions positive come out to exactly d1 + d2.
    """
    n = s.vertex_count
    if n < 2:
        raise ProblemContractError("connectivity undefined on a single vertex")
    if s.n_rows == 1 or s.n_cols == 1:
        return n - 1
    verts = sorted(s.vertices())
    best = n - 1
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            if u[0] == v[0] or u[1] == v[1]:
                continue
            local = len(_max_path_system(s, s.neighbors(u), s.neighbors(v), {u, v}))
            if local < best:
                best = local
    return best
