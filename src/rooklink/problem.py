"""Linkage problems and their solutions.

A problem is a grid (or subgrid) together with k unordered pairs of
distinct terminals; a linkage is one pairwise vertex-disjoint path per
pair.  Structural validity (distinct, in-bounds terminals) is enforced
here; whether k is small enough for the constructive solver is that
solver's precondition, because the oracle deliberately also works on
problems above the guaranteed bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grid import ProblemContractError, ProductGraph, Subgrid, Vertex


def max_guaranteed_pairs(d1: int, d2: int) -> int:
    """Largest k for which every pairing of 2k terminals is routable."""
    return (d1 + d2) // 2


@dataclass(frozen=True)
class LinkageProblem:
    grid: ProductGraph | Subgrid
    pairs: tuple[tuple[Vertex, Vertex], ...]

    def __post_init__(self) -> None:
        pairs = tuple((Vertex(*s), Vertex(*t)) for s, t in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        sub = self.subgrid
        seen: set[Vertex] = set()
        for s, t in pairs:
            for v in (s, t):
                if not sub.contains(v):
                    raise ProblemContractError(f"terminal {tuple(v)} not active in the grid")
                if v in seen:
                    raise ProblemContractError("terminals not distinct")
                seen.add(v)

    @property
    def subgrid(self) -> Subgrid:
        if isinstance(self.grid, ProductGraph):
            return self.grid.subgrid()
        return self.grid

    @property
    def k(self) -> int:
        return len(self.pairs)

    @property
    def guaranteed_bound(self) -> int:
        """Largest pair count the constructive solver accepts here.

        This is max_guaranteed_pairs of the active dimensions, except that
        a single active row or column is a complete graph on n vertices
        and links any n // 2 pairs outright.
        """
        sub = self.subgrid
        if sub.n_rows == 1 or sub.n_cols == 1:
            return sub.vertex_count // 2
        return max_guaranteed_pairs(sub.n_rows - 1, sub.n_cols - 1)


@dataclass(frozen=True)
class Linkage:
    """One path per pair, in pair order; path i joins pair i."""

    paths: tuple[tuple[Vertex, ...], ...]

    @property
    def k(self) -> int:
        return len(self.paths)
