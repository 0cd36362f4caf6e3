"""The package's public surface: what `from rooklink import *` exports.

Routing pieces the solver and the Menger engine use internally, and
that only tests call (drain_block, bridge_path, disjoint_paths), stay in
their modules; this pin keeps them from drifting back into the API.
"""

import rooklink

PUBLIC = {
    "EmptySubgridError", "InstanceFormatError", "InvalidVertexError",
    "Linkage", "LinkageProblem", "ProblemContractError",
    "ProductGraph", "SharpnessResult", "SolverInvariantError", "SolverTrace",
    "Subgrid", "Verdict", "Vertex", "VerifyReport", "all_pairings",
    "connectivity", "cyclic_dual_params", "exhaustive_solve",
    "find_infeasible_pairing", "flip", "is_k_linked", "max_guaranteed_pairs",
    "parse_instance", "parse_linkage", "random_pairing", "render_trace",
    "replay", "serialize_instance", "serialize_linkage", "solve", "verify",
}


def test_all_is_pinned():
    assert len(rooklink.__all__) == len(set(rooklink.__all__))
    assert set(rooklink.__all__) == PUBLIC


def test_every_exported_name_resolves():
    for name in rooklink.__all__:
        assert getattr(rooklink, name, None) is not None, name

