"""The installed package holds only production code, and each engine keeps
to its own module.

Every module under ``src/spinparity`` is a production module, and none of
them imports the test-only ``verification`` module, which lives beside the
tests and not in the package.  Every name a production module defines is
used by production code or by the benchmark.  The solver's path and the
brute-force reference never import the dense engine or its worker threads,
and neither does importing the package for them.  Every name the benchmark
imports or binds from the package resolves.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import spinparity

SRC = Path(spinparity.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "bench"
PRODUCTION = tuple(sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__"))
# Production names that only the tests use, each with its reason.
UNUSED_ALLOWED = {
    # the pair engine's public single run, read as a SignalVector like the
    # dense ``ensemble.run_sequence``; the solver calls its kernel directly
    "pair_sequence",
}


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



def _imports(module: str) -> set:
    """The package modules that ``module`` imports, anywhere in its body."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("spinparity."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("spinparity."))
    return found & set(PRODUCTION)


def _closure(module: str) -> set:
    """Every package module that importing ``module`` loads through its own
    imports, directly or not."""
    seen, todo = set(), [module]
    while todo:
        for dep in _imports(todo.pop()) - seen:
            seen.add(dep)
            todo.append(dep)
    return seen


def test_import_walk_sees_the_dense_engine():
    # the walk finds real edges, so an empty closure below means something;
    # cli may reach the dense engine, since --bench runs it
    assert {"_workers", "oracles", "protocol", "spinops"} <= _closure("ensemble")
    assert "ensemble" in _closure("cli")


@pytest.mark.parametrize("module", ["oracles", "protocol", "reference", "spinops"])
def test_production_path_does_not_import_the_dense_engine(module):
    assert _closure(module) & {"ensemble", "_workers"} == set()


# ``dir(spinparity)`` after ``import spinparity`` when the package imported
# the dense engine eagerly, less the dunders every module has; every name
# must still resolve and still be listed.
_EAGER_DIR = (
    "DeviationState", "DiagonalUnitary", "IterationRecord", "PhaseFunction", "ReferenceReport",
    "RunTrace", "ShiftSpec", "SignalError", "SignalVector", "SpinSystem", "__version__",
    "_workers", "apply_pulse", "bit_sign_table", "brute_parity", "brute_shift_sums",
    "brute_shifted_signal", "brute_spin_sums", "conjugate", "ensemble", "evolved_purged_state",
    "gradient_filter", "initial_state", "oracles", "phase_oracle", "protocol", "read_signal",
    "reference", "reference_report", "run_sequence", "shift_unitary_direct", "solve_parity",
    "spinops", "zero_quantum_filter",
)

_FRESH_PROBE = """
import json, sys
{statement}
dense = sorted(m for m in ("spinparity.ensemble", "spinparity._workers") if m in sys.modules)
import spinparity
names = json.loads(sys.argv[1])
missing = [name for name in names if not hasattr(spinparity, name)]
unlisted = sorted(set(names) - set(dir(spinparity)))
print(json.dumps([dense, missing, unlisted]))
"""


@pytest.mark.parametrize("statement", [
    "from spinparity import solve_parity",
    "import spinparity.protocol",
    "import spinparity.cli",
])
def test_solver_import_leaves_the_dense_engine_unloaded(statement):
    # a fresh interpreter, since this one has loaded the dense engine
    out = subprocess.run(
        [sys.executable, "-c", _FRESH_PROBE.format(statement=statement), json.dumps(_EAGER_DIR)],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    dense, missing, unlisted = json.loads(out.stdout)
    assert dense == []
    assert missing == [] and unlisted == []
    # and the lazy names load it on use
    assert spinparity.run_sequence is spinparity.ensemble.run_sequence


def test_star_import_binds_every_public_name():
    names = {}
    exec("from spinparity import *", names)
    assert {name for name in _EAGER_DIR if not name.startswith("_")} <= set(names)


_MISSING = object()


def _bound(module: str, name: str):
    """What ``from module import name`` binds, or ``_MISSING``."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ImportError:
        return getattr(importlib.import_module(module), name, _MISSING)


def test_benchmark_bindings_resolve():
    # the tracer swaps these module attributes by name
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.BINDINGS
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in tracer.BINDINGS if not hasattr(module, attr)]
    assert missing == []


def test_benchmark_imports_resolve():
    # every ``from spinparity... import name`` in bench/, and every attribute
    # the benchmark reads off a package module bound that way
    checked, missing = 0, []
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spinparity":
                for alias in node.names:
                    checked += 1
                    obj = _bound(node.module, alias.name)
                    if obj is _MISSING:
                        missing.append(f"{path.name}: {node.module}.{alias.name}")
                    elif isinstance(obj, types.ModuleType):
                        modules[alias.asname or alias.name] = obj
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                checked += 1
                if not hasattr(modules[node.value.id], node.attr):
                    missing.append(f"{path.name}: {modules[node.value.id].__name__}.{node.attr}")
    assert checked >= 10
    assert missing == []
