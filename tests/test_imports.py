"""Every name a package module imports is used in that module or listed in
its ``__all__``, and every name in its ``__all__`` is defined there, so a
refactor can leave neither a dead import nor a stale export behind.
Standard library only: the module's source is parsed with ``ast`` and its
``__all__`` read from the imported module (the package's own is built at
import time).  The package's import and a bound rung also stay clear of the heavy scipy
submodules, which a fresh interpreter shows."""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "begrates"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def _imports(tree: ast.Module):
    """(bound name, line) of every import except ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _unused(tree: ast.Module, exported=()) -> list[tuple[str, int]]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in _imports(tree)
            if name not in used and name not in exported]


@pytest.mark.parametrize("stem", MODULES)
def test_no_unused_imports(stem):
    tree = ast.parse((SRC / f"{stem}.py").read_text())
    module = importlib.import_module("begrates" if stem == "__init__" else f"begrates.{stem}")
    unused = _unused(tree, set(getattr(module, "__all__", ())))
    assert not unused, f"{stem}.py imports names it never uses (name, line): {unused}"


def test_an_unused_import_is_caught():
    tree = ast.parse("import os.path\nfrom math import pi, tau as t\nprint(t)\n")
    assert _unused(tree) == [("os", 1), ("pi", 2)]
    assert _unused(tree, {"pi"}) == [("os", 1)]


def _undefined_exports(module) -> list[str]:
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


@pytest.mark.parametrize("stem", MODULES)
def test_every_export_is_defined(stem):
    module = importlib.import_module("begrates" if stem == "__init__" else f"begrates.{stem}")
    stale = _undefined_exports(module)
    assert not stale, f"{stem}.py lists names in __all__ that it does not define: {stale}"


def test_a_stale_export_is_caught():
    module = types.ModuleType("stale")
    module.__all__ = ["kept", "gone"]
    module.kept = 1
    assert _undefined_exports(module) == ["gone"]


_HEAVY = ("scipy.integrate", "scipy.special")
_IMPORT_PATH_PROBE = f"""
import json, sys
import begrates, begrates.cli
from begrates.rates import run_rung
run_rung(begrates.case_by_id("fixed-C"), 64, bound=True)
before = [m for m in {_HEAVY!r} if m in sys.modules]
begrates.exact.ndtr(0.0)
print(json.dumps([before, [m for m in {_HEAVY!r} if m in sys.modules]]))
"""


def test_import_and_a_bound_rung_load_no_heavy_scipy():
    # scipy.integrate is not used at all and scipy.special is imported on the
    # first ndtr or gammaln call; the last line checks that the probe sees it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", _IMPORT_PATH_PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    before, after = json.loads(run.stdout)
    assert before == []
    assert after == ["scipy.special"]
