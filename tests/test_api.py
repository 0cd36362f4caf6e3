"""The package's public surface: what `from rooklink import *` exports.

Routing pieces the solver uses internally, and that tests also call
(drain_block, bridge_path), stay in their module; this pin keeps them
from drifting back into the API.  What only tests use lives in
tests/helpers.py: the neighbour query and the max flow that the
brute-force oracles and the connectivity cross-check run on.  The
board's queries live on Subgrid alone, and both classes' members are
pinned so that a second copy of a query, or a query that only tests
call, cannot drift back either.  The solver's step records are
pinned field by field: perfbench maps the steps by class name, replay
reads pair, bridge and moves, and render_trace reads the rest; a field
that the bridge or the move log already holds is not stored.
"""

import ast
import dataclasses
from pathlib import Path

import rooklink
import rooklink.solver

PUBLIC = {
    "EmptySubgridError", "InstanceFormatError", "InvalidVertexError",
    "Linkage", "LinkageProblem", "ProblemContractError",
    "ProductGraph", "SharpnessResult", "SolverInvariantError", "SolverTrace",
    "Subgrid", "Verdict", "Vertex", "VerifyReport", "all_pairings",
    "connectivity", "cyclic_dual_params", "exhaustive_solve",
    "find_infeasible_pairing", "max_guaranteed_pairs",
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


SUBGRID = {"base", "rows", "cols", "n_rows", "n_cols", "vertex_count", "contains", "vertices"}


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




def package_tree(module: str) -> ast.Module:
    return ast.parse(Path(rooklink.__file__).with_name(f"{module}.py").read_text(encoding="utf-8"))


def package_imports(module: str) -> set[str]:
    """The rooklink modules that a module's source imports, relatively or
    absolutely, at the top or inside a function."""
    names = set()
    for node in ast.walk(package_tree(module)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("rooklink" if node.level else "", node.module)))
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return {name.split(".")[1] for name in names if name.startswith("rooklink.")}


def test_module_import_boundaries():
    # the north star's property: every linkage and every connectivity bound
    # is checked by code that shares nothing with the code that built it
    assert package_imports("cli") >= {"menger", "oracle", "solver"}  # the scan sees imports
    assert package_imports("oracle") <= {"grid", "problem"}
    assert package_imports("menger") <= {"grid"}
    assert package_imports("solver") <= {"grid", "problem"}
    # connectivity is shown by checked fans and the solver routes by explicit
    # moves: no module defines a flow network; the tests keep their own
    modules = [path.stem for path in Path(rooklink.__file__).parent.glob("*.py")]
    assert {"cli", "grid", "menger", "oracle", "solver"} <= set(modules)
    defined = {node.name for module in modules for node in ast.walk(package_tree(module))
               if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert {"connectivity", "solve"} <= defined  # the scan sees definitions
    assert not defined & {"_FlowNet", "augment", "max_flow", "extract"}
