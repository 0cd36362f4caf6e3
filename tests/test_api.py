"""The package's public surface: what `from rooklink import *` exports.

Routing pieces the solver and the Menger engine use internally, and
that only tests call (drain_block, bridge_path, disjoint_paths), stay in
their modules; this pin keeps them from drifting back into the API.
The board's queries live on Subgrid alone, and both classes' members
are pinned so that a second copy of a query, or a query that only
tests call, cannot drift back either.  The solver's step records are
pinned field by field: perfbench maps the steps by class name, replay
reads pair, bridge and moves, and render_trace reads the rest; a field
that the bridge or the move log already holds is not stored.
"""

import dataclasses

import rooklink
import rooklink.solver

PUBLIC = {
    "EmptySubgridError", "InstanceFormatError", "InvalidVertexError",
    "Linkage", "LinkageProblem", "ProblemContractError",
    "ProductGraph", "SharpnessResult", "SolverInvariantError", "SolverTrace",
    "Subgrid", "Verdict", "Vertex", "VerifyReport", "all_pairings",
    "connectivity", "cyclic_dual_params", "exhaustive_solve",
    "find_infeasible_pairing", "flip", "max_guaranteed_pairs",
    "parse_instance", "parse_linkage", "random_pairing", "render_trace",
    "replay", "serialize_instance", "serialize_linkage", "solve", "verify",
}


def test_all_is_pinned():
    assert len(rooklink.__all__) == len(set(rooklink.__all__))
    assert set(rooklink.__all__) == PUBLIC


PRODUCT_GRAPH = {"d1", "d2", "n_rows", "n_cols", "vertex_count", "vertices", "subgrid"}


def test_product_graph_members_are_pinned():
    members = {name for name in dir(rooklink.ProductGraph(2, 3)) if not name.startswith("_")}
    assert members == PRODUCT_GRAPH


SUBGRID = {"base", "rows", "cols", "n_rows", "n_cols", "vertex_count", "contains", "require",
           "vertices", "neighbors"}


def test_subgrid_members_are_pinned():
    members = {name for name in dir(rooklink.ProductGraph(2, 3).subgrid())
               if not name.startswith("_")}
    assert members == SUBGRID


STEP_FIELDS = {
    "TransposeStep": ("reason",),
    "SingleRowStep": ("row", "paths"),
    "TwoRowsStep": ("target_row", "paths"),
    "LinePairStep": ("pair", "bridge", "staying", "moves", "edges"),
    "TwoColumnStep": ("pair", "slack", "bridge", "top_rows", "moves"),
}


def test_step_record_fields_are_pinned():
    for name, fields in STEP_FIELDS.items():
        assert tuple(f.name for f in dataclasses.fields(getattr(rooklink.solver, name))) == fields


def test_every_exported_name_resolves():
    for name in rooklink.__all__:
        assert getattr(rooklink, name, None) is not None, name

