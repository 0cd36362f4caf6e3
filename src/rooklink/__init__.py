"""Vertex-disjoint path routing on rook's graphs.

The Cartesian product of two complete graphs K^{d1+1} x K^{d2+1} is the
rook's graph on a (d1+1) x (d2+1) board.  This package constructs, for
any k <= (d1 + d2) // 2 and any pairing of 2k distinct vertices, k
pairwise vertex-disjoint paths joining the pairs; it also ships an
independent exhaustive oracle, a Menger engine with connectivity
computation, and a sharpness harness showing the bound on k is tight.
"""

from .grid import (EmptySubgridError, InvalidVertexError, ProductGraph,
                   Subgrid, Vertex, flip)
from .instances import (InstanceFormatError, parse_instance, parse_linkage,
                        serialize_instance, serialize_linkage)
from .menger import connectivity, disjoint_paths
from .oracle import (SharpnessResult, Verdict, VerifyReport, all_pairings,
                     exhaustive_solve, find_infeasible_pairing, is_k_linked,
                     random_pairing, verify)
from .problem import (Linkage, LinkageProblem, ProblemContractError,
                      max_guaranteed_pairs)
from .solver import (SolverInvariantError, SolverTrace, bridge_candidates,
                     bridge_path, cyclic_dual_params, doubled_row_matching,
                     drain_block, render_trace, replay, routing_margin_holds,
                     solve)

__version__ = "0.1.0"

__all__ = [
    "EmptySubgridError", "InstanceFormatError", "InvalidVertexError",
    "Linkage", "LinkageProblem", "ProblemContractError",
    "ProductGraph", "SharpnessResult", "SolverInvariantError", "SolverTrace",
    "Subgrid", "Verdict", "Vertex", "VerifyReport", "all_pairings",
    "bridge_candidates", "bridge_path", "connectivity", "cyclic_dual_params",
    "disjoint_paths", "doubled_row_matching", "drain_block",
    "exhaustive_solve", "find_infeasible_pairing", "flip", "is_k_linked",
    "max_guaranteed_pairs", "parse_instance", "parse_linkage",
    "random_pairing", "render_trace", "replay", "routing_margin_holds",
    "serialize_instance", "serialize_linkage", "solve", "verify",
]
