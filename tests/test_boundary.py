"""The production modules never reach the test-only constructions.

``spinparity.verification`` imports from the production modules and never
the other way round, and each construction it holds is defined there alone.
Neither the package nor its console script loads it.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import spinparity

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


def test_cli_import_does_not_load_verification():
    # a fresh interpreter, since this one has loaded it for other tests
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import spinparity.cli; "
        "sys.exit('spinparity.verification' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", code, str(SRC.parent)]).returncode == 0
