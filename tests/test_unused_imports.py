"""Every name that a module of the package, a test or a tool imports is
used by that file, every private name a module defines at its top level
is read there, and every public function, class and method is read by
the package, the benchmark or the acceptance tests."""

import ast
import re
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ovoidlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the tests and tools import only what they read as well
SCRIPTS = (sorted((ROOT / "tests").glob("*.py"))
           + sorted((ROOT / "tools").glob("*.py")))
# the code whose reads keep a public name: the package, the benchmark and
# the acceptance tests; the console entry points count as well
READERS = (sorted(PACKAGE.glob("*.py"))
           + sorted((ROOT / "perfbench").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])

# public names that only other tests read, each with a test that reads it
KEEP = {
    # the isotropy oracle of test_polar_map::assert_map_matches_oracles
    "SymplecticForm.eval",
    "FieldCtx.elements",    # test_gfield::test_distributivity_exhaustive
    "ExtFieldCtx.embed",    # test_gfield::test_subfield_embed_is_field_hom
}


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


def read_names(tree: ast.AST, strings: bool = False) -> Counter:
    """How often each name is read under tree: names and attributes
    loaded, and names imported from a module; with strings, also each
    part of a string constant that is a dotted name, as perfbench's
    TARGETS names the functions it wraps."""
    read = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read[node.id] += 1
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            read[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str) \
                and re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", node.value):
            read.update(node.value.split("."))
    return read


def unread_public_names(source: str, read: Counter) -> list[str]:
    """Public module-level functions and classes of source, and the
    public methods of those classes as Class.method, that nothing reads.
    read counts the names read by source and by every other reader; the
    reads inside a definition do not count for its own name."""
    defs = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                         if isinstance(sub, ast.FunctionDef)]
    unread = []
    for qualname, node in defs:
        name = node.name
        if not name.startswith("_") \
                and read[name] <= read_names(node)[name]:
            unread.append(qualname)
    return unread


@cache
def names_read_by_readers() -> Counter:
    read = Counter()
    for path in READERS:
        read += read_names(ast.parse(path.read_text()),
                           strings=path.parent.name == "perfbench")
    # [project.scripts] entries, module:function
    read.update(re.findall(r'=\s*"[\w.]+:(\w+)"',
                           (ROOT / "pyproject.toml").read_text()))
    return read


def test_scanner_flags_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import os.path\nimport sys as system\n"
           "from json import dumps, loads\n"
           "def f(x: system.Any):\n    return os.path.join(loads(x))\n")
    assert unused_imports(src) == ["dumps"]


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: p.name)
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


def test_scanner_flags_an_unread_public_name():
    src = ("class Used:\n    def run(self):\n        return 1\n"
           "    def _hidden(self):\n        pass\n"
           "    def idle(self):\n        return self.idle()\n"
           "def helper():\n    return Used().run()\n"
           "def alone(n):\n    return alone(n - 1)\n"
           "def imported():\n    pass\n"
           "def _private():\n    pass\n")
    reader = "from mod import helper, imported\nhelper()\n"
    read = read_names(ast.parse(src)) + read_names(ast.parse(reader))
    assert unread_public_names(src, read) == ["Used.idle", "alone"]
    # a benchmark wraps functions named by strings
    targets = ast.parse('TARGETS = (("span", "mod", "Used.idle"), "a b")\n')
    assert unread_public_names(src, read + read_names(targets)) \
        == ["Used.idle", "alone"]
    read += read_names(targets, strings=True)
    assert unread_public_names(src, read) == ["alone"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_a_reader_for_every_public_name(path):
    unread = unread_public_names(path.read_text(), names_read_by_readers())
    assert [name for name in unread if name not in KEEP] == []


def test_keep_lists_only_unread_names():
    unread = {name for path in MODULES for name in
              unread_public_names(path.read_text(), names_read_by_readers())}
    assert KEEP <= unread
