"""README guard: every backticked ``module.name`` it cites exists, and its
library example runs, so the README cannot name code that is gone."""

import importlib
import pkgutil
import re
from pathlib import Path

import spinparity

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
MODULES = {m.name for m in pkgutil.iter_modules(spinparity.__path__)}


def cited_names():
    """Backticked dotted names whose first part is the package or one of its
    modules, e.g. `ensemble.run_sequence` or `spinparity.cli.main`."""
    names = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README)
    return sorted({x for x in names if x.split(".")[0] in MODULES | {"spinparity"}})


def resolves(dotted):
    parts = dotted.removeprefix("spinparity.").split(".")
    obj = importlib.import_module(f"spinparity.{parts[0]}")
    try:
        for attr in parts[1:]:
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
