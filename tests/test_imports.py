"""Every name a package module imports is used in that module or listed in
its ``__all__``, so a refactor cannot leave a dead import behind.  Standard
library only: the module's source is parsed with ``ast`` and its ``__all__``
read from the imported module (the package's own is built at import time)."""

import ast
import importlib
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
