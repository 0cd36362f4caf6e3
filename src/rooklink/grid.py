"""Grid model of the Cartesian product of two complete graphs.

K^{d1+1} x K^{d2+1} is the rook's graph on a (d1+1) x (d2+1) board:
vertices are board cells and two cells are adjacent exactly when they
share a row or a column.  Every row and every column induces a clique,
and every vertex of the full grid has degree d1 + d2.

Subgrids are induced subgraphs described by active row/column label
sets.  Vertices always keep their ambient coordinates, so a path found
inside a subgrid is valid verbatim in every enclosing grid; adjacency is
computed from coordinates and never stored as an edge list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple


class Vertex(NamedTuple):
    row: int
    col: int

    def __repr__(self) -> str:
        return f"({self.row},{self.col})"


def flip(v: Vertex) -> Vertex:
    """Mirror a vertex across the main diagonal (row/column swap)."""
    return Vertex(v[1], v[0])


class ProblemContractError(ValueError):
    """The input violates a documented precondition."""


class InvalidVertexError(ValueError):
    """A coordinate lies outside the (sub)grid it was used with."""


class EmptySubgridError(ValueError):
    """A subgrid would have no active rows or no active columns."""


@dataclass(frozen=True)
class ProductGraph:
    """The full grid with rows 0..d1 and columns 0..d2."""

    d1: int
    d2: int

    def __post_init__(self) -> None:
        if self.d1 < 0 or self.d2 < 0:
            raise ProblemContractError(
                f"dimensions must be nonnegative, got ({self.d1}, {self.d2})")

    @property
    def n_rows(self) -> int:
        return self.d1 + 1

    @property
    def n_cols(self) -> int:
        return self.d2 + 1

    @property
    def vertex_count(self) -> int:
        return self.n_rows * self.n_cols

    def contains(self, v: Vertex) -> bool:
        return 0 <= v[0] <= self.d1 and 0 <= v[1] <= self.d2

    def require(self, v: Vertex) -> None:
        if not self.contains(v):
            raise InvalidVertexError(f"vertex {tuple(v)} outside grid ({self.d1}, {self.d2})")

    def vertices(self) -> Iterator[Vertex]:
        for r in range(self.n_rows):
            for c in range(self.n_cols):
                yield Vertex(r, c)

    def adjacent(self, u: Vertex, v: Vertex) -> bool:
        """True iff u != v and u, v share a row or a column."""
        self.require(u)
        self.require(v)
        return u != v and (u[0] == v[0] or u[1] == v[1])

    @lru_cache(maxsize=64)
    def subgrid(self) -> "Subgrid":
        """The whole grid as a Subgrid, built once per board size and shared."""
        return Subgrid(self, tuple(range(self.n_rows)), tuple(range(self.n_cols)))


@dataclass(frozen=True)
class Subgrid:
    """Induced subgraph on a set of active rows and columns.

    The induced graph is itself a product of two complete graphs, on
    len(rows) x len(cols) vertices.  Labels are ambient: a subgrid never
    renumbers anything.
    """

    base: ProductGraph
    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = tuple(sorted(set(self.rows)))
        cols = tuple(sorted(set(self.cols)))
        if not rows or not cols:
            raise EmptySubgridError("a subgrid needs at least one row and one column")
        if rows[0] < 0 or rows[-1] > self.base.d1 or cols[0] < 0 or cols[-1] > self.base.d2:
            raise InvalidVertexError(f"labels {rows}x{cols} outside base grid")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_row_set", frozenset(rows))
        object.__setattr__(self, "_col_set", frozenset(cols))

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.cols)

    @property
    def vertex_count(self) -> int:
        return self.n_rows * self.n_cols

    def contains(self, v: Vertex) -> bool:
        return v[0] in self._row_set and v[1] in self._col_set

    def require(self, v: Vertex) -> None:
        if not self.contains(v):
            raise InvalidVertexError(f"vertex {tuple(v)} not active in subgrid")

    def vertices(self) -> Iterator[Vertex]:
        for r in self.rows:
            for c in self.cols:
                yield Vertex(r, c)

    def adjacent(self, u: Vertex, v: Vertex) -> bool:
        self.require(u)
        self.require(v)
        return u != v and (u[0] == v[0] or u[1] == v[1])

    def neighbors(self, v: Vertex) -> set[Vertex]:
        """All active vertices adjacent to v; there are (rows-1)+(cols-1) of them."""
        self.require(v)
        out = {Vertex(r, v[1]) for r in self.rows if r != v[0]}
        out.update(Vertex(v[0], c) for c in self.cols if c != v[1])
        return out
