"""Vertex connectivity of subgrids, from explicit fans of disjoint paths.

For each pair of cells whose local connectivity bounds kappa,
connectivity builds a fan of internally disjoint paths (_fan) and checks
it with _check_fan, which shares no code with _fan.  The package has no
max-flow engine.
"""

from __future__ import annotations

from .grid import ProblemContractError, Subgrid


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
