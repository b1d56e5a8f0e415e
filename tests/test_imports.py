"""Every name a package module imports is used in that module or listed in
its ``__all__``, every name in its ``__all__`` is defined there, and every
private name a module defines at module level is read somewhere in the
package, so a refactor can leave neither a dead import, a stale export nor a
helper that only tests call behind, and every ``raise`` names a class of
``begrates.errors``.
Standard library only: the module's source is parsed with ``ast`` and its
``__all__`` read from the imported module (the package's own is built at
import time).  The package runs on numpy alone: a fresh interpreter that
walks every path of it in one process loads neither scipy, numpy.ma nor
numpy.polynomial, nor the process pool (concurrent.futures,
multiprocessing)."""

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


def _private_definitions(tree: ast.Module):
    """(name, line) of every private name bound by a module-level def, class
    or assignment; dunder names are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def _unread_private(trees: dict[str, ast.Module]) -> list[tuple[str, str, int]]:
    """(module, name, line) of every module-level private name that no module reads."""
    read = {node.id for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(stem, name, line) for stem, tree in trees.items()
            for name, line in _private_definitions(tree) if name not in read]


def test_every_private_name_is_read_in_the_package():
    trees = {stem: ast.parse((SRC / f"{stem}.py").read_text()) for stem in MODULES}
    unread = _unread_private(trees)
    assert not unread, f"private names the package never reads (module, name, line): {unread}"


def test_an_unread_private_name_is_caught():
    trees = {"a": ast.parse("_kept = 1\n_gone, __dunder__ = 2, 3\ndef _helper():\n"
                            "    return _kept\nclass _Cls: pass\n_elsewhere: int = 4\n"),
             "b": ast.parse("from a import _Cls, _elsewhere\nprint(_Cls, _elsewhere)\n")}
    assert _unread_private(trees) == [("a", "_gone", 2), ("a", "_helper", 3)]


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


def _foreign_raises(tree: ast.Module, allowed: set[str]) -> list[tuple[str, int]]:
    """(raised expression, line) of every raise that names no class in
    ``allowed``; a bare re-raise names none and passes."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id in allowed):
                out.append((ast.unparse(exc), node.lineno))
    return out


ERROR_CLASSES = {node.name for node in ast.parse((SRC / "errors.py").read_text()).body
                 if isinstance(node, ast.ClassDef)}


@pytest.mark.parametrize("stem", MODULES)
def test_every_raise_is_a_package_error(stem):
    # the CLI maps the package's errors, and only those, to exit codes 2 and 3
    foreign = _foreign_raises(ast.parse((SRC / f"{stem}.py").read_text()), ERROR_CLASSES)
    assert not foreign, f"{stem}.py raises outside begrates.errors (name, line): {foreign}"


def test_a_foreign_raise_is_caught():
    tree = ast.parse("try:\n    f()\nexcept OSError:\n    raise\n"
                     "raise ValidationError('bad') from None\nraise ValueError('x')\n"
                     "raise KeyError\n")
    assert _foreign_raises(tree, {"ValidationError"}) == [("ValueError", 6), ("KeyError", 7)]


_IMPORT_PATH_PROBE = """
import contextlib, io, json, sys
import begrates, begrates.cli
from begrates import exact, rates
A = begrates.ModelParams(1.0, 0.6)
case = begrates.case_by_id("fixed-C")
rates.run_rung(case, 64, bound=True)
rates.run_case(case, [64, 128, 256, 512])  # one rate-scan row
exact.hs_check(A, 64, 0.5)
exact.build_joint_law(A, 12).atoms()
begrates.run_chain(A, 10, 64, 8, 1)
exact.pair_covariance(A, 64)
with contextlib.redirect_stdout(io.StringIO()):
    for command in ("hs-check", "exact-law"):
        assert begrates.cli.main([command, "--n", "64", "--beta", "1", "--K", "0.6"]) == 0

def loaded():
    return sorted(m for m in sys.modules if m in ("numpy.ma", "numpy.polynomial")
                  or m.partition(".")[0] in ("scipy", "multiprocessing", "concurrent"))

before = loaded()
import scipy.special
print(json.dumps([before, "scipy.special" in loaded()]))
"""


def test_import_and_a_bound_rung_load_no_heavy_scipy():
    # neither these nor any other one-process path of the package loads
    # scipy, numpy.ma, numpy.polynomial or the process pool; the last import
    # checks that the probe sees a load
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", _IMPORT_PATH_PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    before, seen = json.loads(run.stdout)
    assert before == []
    assert seen
