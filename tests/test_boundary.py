"""The installed package holds only production code.

Every module under ``src/spinparity`` is a production module, and none of
them imports the test-only ``verification`` module, which lives beside the
tests and not in the package.  Every name a production module defines is
used by production code or by the benchmark.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import spinparity

SRC = Path(spinparity.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "bench"
PRODUCTION = tuple(sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__"))
# Production names that only the tests use, each with its reason.
UNUSED_ALLOWED = set()


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


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _members(tree: ast.Module) -> dict:
    """The names ``_defined`` finds, and each class's non-dunder methods as
    ``Class.method``, mapped to the name a use would spell."""
    members = {name: name for name in _defined(tree)}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    members[f"{node.name}.{item.name}"] = item.name
    return members


def _used(tree: ast.Module) -> set:
    """Names read, attributes reached and names imported anywhere in ``tree``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
    return used


@pytest.mark.parametrize("module", PRODUCTION)
def test_production_module_does_not_import_verification(module):
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            assert "verification" not in (node.module or ""), f"{module}: from {node.module} import"
            assert all(a.name != "verification" for a in node.names), f"{module}: imports verification"
        elif isinstance(node, ast.Import):
            assert all("verification" not in a.name for a in node.names), f"{module}: imports verification"


def test_package_has_no_verification_module():
    assert importlib.util.find_spec("spinparity.verification") is None


def test_every_production_name_is_used():
    # ``__init__.py`` is not read: a re-export is not a use
    trees = [_tree(module) for module in PRODUCTION]
    trees += [ast.parse(path.read_text(), filename=path.name) for path in sorted(BENCH.glob("*.py"))]
    used = set().union(*map(_used, trees))
    unused = [
        f"{module}.{member}"
        for module in PRODUCTION
        for member, name in _members(_tree(module)).items()
        if name not in used and name not in UNUSED_ALLOWED
    ]
    assert unused == []


def test_test_only_members_left_the_package():
    # the guard above cannot see ``values``, which the benchmark reads on dicts
    assert not hasattr(spinparity.PhaseFunction, "values")
    assert not hasattr(spinparity, "mark_count")
    assert not hasattr(spinparity, "projected_call_counts")

