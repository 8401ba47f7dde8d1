"""The production modules never reach the test-only constructions.

``spinparity.verification`` imports from the production modules and never
the other way round, and each construction it holds is defined there alone.
"""

import ast
from pathlib import Path

import pytest

import spinparity
from spinparity import verification

SRC = Path(spinparity.__file__).resolve().parent
PRODUCTION = ("spinops", "oracles", "ensemble", "protocol", "cli", "reference")
MOVED = (
    "_HALF_SIGMA",
    "spin_operator",
    "basis_projector",
    "basis_projector_product",
    "coherence_order",
    "selective_phase_shift",
    "sign_oracle",
    "block_phase_shift",
    "Factor",
    "CompiledShift",
    "shift_unitary_compiled",
    "EXPANSION_QUBIT_CAP",
    "selective_conjugation_expansion",
    "oracle_conjugation_expansion",
    "_phase_projector_expansion",
    "oracle_evolution_expansion",
)


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(), filename=f"{module}.py")


def _defined(tree: ast.Module) -> set:
    """Names bound at module level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("module", PRODUCTION)
def test_production_module_does_not_import_verification(module):
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            assert "verification" not in (node.module or ""), f"{module}: from {node.module} import"
            assert all(a.name != "verification" for a in node.names), f"{module}: imports verification"
        elif isinstance(node, ast.Import):
            assert all("verification" not in a.name for a in node.names), f"{module}: imports verification"


@pytest.mark.parametrize("module", PRODUCTION)
def test_moved_names_not_defined_in_production_module(module):
    assert not _defined(_tree(module)) & set(MOVED)


def test_moved_names_defined_in_verification():
    assert set(MOVED) <= _defined(_tree("verification"))


@pytest.mark.parametrize("name", [n for n in MOVED if not n.startswith("_") and n != "EXPANSION_QUBIT_CAP"])
def test_package_reexports_moved_name(name):
    assert getattr(spinparity, name) is getattr(verification, name)
