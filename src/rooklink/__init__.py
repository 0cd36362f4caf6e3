"""Vertex-disjoint path routing on rook's graphs.

The Cartesian product of two complete graphs K^{d1+1} x K^{d2+1} is the
rook's graph on a (d1+1) x (d2+1) board.  This package constructs, for
any k <= (d1 + d2) // 2 and any pairing of 2k distinct vertices, k
pairwise vertex-disjoint paths joining the pairs; it also ships an
independent exhaustive oracle, vertex connectivity checked on explicit
fans of disjoint paths, and a sharpness harness showing the bound on k
is tight.
"""

from .grid import EmptySubgridError, InvalidVertexError, ProductGraph, Subgrid, Vertex
from .instances import (InstanceFormatError, parse_instance, parse_linkage,
                        serialize_instance, serialize_linkage)
from .menger import connectivity
from .oracle import (SharpnessResult, Verdict, VerifyReport, all_pairings,
                     exhaustive_solve, find_infeasible_pairing, random_pairing,
                     verify)
from .problem import (Linkage, LinkageProblem, ProblemContractError,
                      max_guaranteed_pairs)
from .solver import (SolverInvariantError, SolverTrace, cyclic_dual_params,
                     render_trace, replay, solve)

__version__ = "0.1.0"

__all__ = [
    "EmptySubgridError", "InstanceFormatError", "InvalidVertexError",
    "Linkage", "LinkageProblem", "ProblemContractError",
    "ProductGraph", "SharpnessResult", "SolverInvariantError", "SolverTrace",
    "Subgrid", "Verdict", "Vertex", "VerifyReport", "all_pairings",
    "connectivity", "cyclic_dual_params", "exhaustive_solve",
    "find_infeasible_pairing", "max_guaranteed_pairs",
    "parse_instance", "parse_linkage", "random_pairing", "render_trace",
    "replay", "serialize_instance", "serialize_linkage", "solve", "verify",
]
