"""Every name a module of the package imports is used by that module, and
every private name a module defines at its top level is read there."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ovoidlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def unread_private_names(source: str) -> list[str]:
    """Module-level functions, classes and constants named _x that no
    expression of the module reads."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            defined += [t.id for t in targets if isinstance(t, ast.Name)]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__")
            and name not in read]


def test_scanner_flags_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import os.path\nimport sys as system\n"
           "from json import dumps, loads\n"
           "def f(x: system.Any):\n    return os.path.join(loads(x))\n")
    assert unused_imports(src) == ["dumps"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_scanner_flags_an_unread_private_name():
    src = ("_USED = 1\n_LEFT: int = 2\n__all__ = ['f']\n"
           "class _Gone:\n    pass\n"
           "def _helper():\n    return _USED\n"
           "def f(x):\n    _local = x\n    return x\n"
           "def _orphan():\n    return _helper()\n")
    assert unread_private_names(src) == ["_LEFT", "_Gone", "_orphan"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_private_name(path):
    assert unread_private_names(path.read_text()) == []
