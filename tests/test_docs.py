"""README guard: every backticked ``module.name`` it cites exists, and its
library example runs, so the README cannot name code that is gone."""

import importlib
import pkgutil
import re
from pathlib import Path

import spinparity

TESTS = Path(__file__).resolve().parent
README = (TESTS.parent / "README.md").read_text(encoding="utf-8")
MODULES = {m.name for m in pkgutil.iter_modules(spinparity.__path__)}
# the modules the tests import by bare name, such as ``verification``
TEST_MODULES = {p.stem for p in TESTS.glob("*.py") if p.stem != "conftest" and not p.stem.startswith("test_")}


def cited_names():
    """Backticked dotted names whose first part is the package, one of its
    modules or one of the tests' modules, e.g. `ensemble.run_sequence`,
    `spinparity.cli.main` or `verification.sign_oracle`."""
    names = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README)
    return sorted({x for x in names if x.split(".")[0] in MODULES | TEST_MODULES | {"spinparity"}})


def resolves(dotted):
    module, *attrs = dotted.split(".")
    if module not in TEST_MODULES:
        module, *attrs = dotted.removeprefix("spinparity.").split(".")
        module = f"spinparity.{module}"
    obj = importlib.import_module(module)
    try:
        for attr in attrs:
            obj = getattr(obj, attr)
    except AttributeError:
        return False
    return True


def test_every_cited_module_name_resolves():
    names = cited_names()
    assert len(names) >= 10  # the pattern still finds the README's references
    assert [x for x in names if not resolves(x)] == []


def test_library_example_runs(capsys):
    section = README.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    parity, uo_calls, _ = capsys.readouterr().out.split()
    assert parity in ("1", "-1")
    assert 1 <= int(uo_calls) <= 6
