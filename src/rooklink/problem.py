"""Linkage problems and their solutions.

A problem is a grid (or subgrid) together with k unordered pairs of
distinct terminals; a linkage is one pairwise vertex-disjoint path per
pair.  Structural validity (distinct, in-bounds terminals of two int
coordinates each) is enforced here; whether k is small enough for the
constructive solver is that solver's precondition, because the oracle
deliberately also works on problems above the guaranteed bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from .grid import ProblemContractError, ProductGraph, Subgrid, Vertex, _vertex


def max_guaranteed_pairs(d1: int, d2: int) -> int:
    """The paper's bound: every pairing of this many pairs links (a clique may link more)."""
    return (d1 + d2) // 2


def _terminal(v) -> Vertex:
    """v as a Vertex of two ints: operator.index converts each coordinate,
    and anything else, bool included, raises ProblemContractError."""
    if type(v) is Vertex and type(v[0]) is int and type(v[1]) is int:
        return v
    try:
        r, c = v
        if type(r) is bool or type(c) is bool:
            raise TypeError
        return _vertex((index(r), index(c)))
    except (TypeError, ValueError):
        raise ProblemContractError(f"terminal {v!r} is not two integer coordinates") from None


@dataclass(frozen=True)
class LinkageProblem:
    grid: ProductGraph | Subgrid
    pairs: tuple[tuple[Vertex, Vertex], ...]

    def __post_init__(self) -> None:
        try:
            pairs = tuple((_terminal(s), _terminal(t)) for s, t in self.pairs)
        except ProblemContractError:  # a malformed terminal, named by _terminal
            raise
        except (TypeError, ValueError) as err:
            raise ProblemContractError(f"every pair must be two terminals ({err})") from None
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
