"""Shared test utilities: independent brute-force oracles and validators."""

from __future__ import annotations

from itertools import combinations, permutations

from rooklink import LinkageProblem, ProductGraph, Subgrid, Vertex, all_pairings


def routing_margin_holds(x: int, y: int) -> bool:
    """x * (y - 1) > x + y - 3; true for every x, y >= 2.

    The counting margin behind the solver's relocation steps: an
    x-by-(y-1) block has more entries than the terminals that could
    compete for them.  With x = d1', y = d2' it backs the two-column
    case's full-rows bound, argued in a comment at its check in
    rooklink.solver._case_two_columns.
    """
    return x * (y - 1) > x + y - 3


def brute_ab_feasible(sub: Subgrid, a_set, b_set, forbidden, k: int) -> bool:
    """Exhaustive search: do k disjoint A-B paths exist?

    Independent of the flow engine: plain backtracking over simple paths
    that meet A only at their first vertex and B only at their last.
    """
    from itertools import combinations

    aset = set(a_set)
    bset = set(b_set)
    forb = set(forbidden)
    nbr = {v: sorted(sub.neighbors(v)) for v in sub.vertices()}

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


def brute_connectivity(sub: Subgrid) -> int:
    """Minimum vertex cut by direct enumeration of removal sets."""
    verts = sorted(sub.vertices())
    n = len(verts)

    def connected(alive) -> bool:
        alive = set(alive)
        start = next(iter(sorted(alive)))
        seen = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for w in sub.neighbors(u):
                if w in alive and w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == len(alive)

    for size in range(n - 1):
        for removal in combinations(verts, size):
            alive = [v for v in verts if v not in set(removal)]
            if len(alive) >= 2 and not connected(alive):
                return size
    return n - 1


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
            assert sub.adjacent(u, v), f"non-edge {u} -> {v}"
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
