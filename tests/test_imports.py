"""Every import of a library module is used, and every definition is named.

A deletion that leaves its import behind fails here.  ``__init__.py`` is
skipped: its imports are the package's re-exports.  A function, method or
class of the library (dunders aside) that no code in ``src/``, ``tests/``
or ``perfbench/`` names, by a name, an attribute or an import, is dead and
fails too; a re-export in ``__init__.py`` counts, as public API.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "chowfan"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCANNED = [SRC / "*.py", ROOT / "tests" / "*.py", ROOT / "perfbench" / "*.py"]


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_detects_an_unused_import():
    tree = ast.parse("from .cones import Cone, zero_cone\nimport os\nx: Cone = zero_cone(2)\n")
    assert _unused_imports(tree) == [(2, "os")]


def _names(tree):
    """Every identifier ``tree`` names, as a name, an attribute or an import."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def _unnamed_definitions(tree, names):
    """``(line, name)`` of the definitions in ``tree`` missing from ``names``."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(
        (n.lineno, n.name)
        for n in ast.walk(tree)
        if isinstance(n, kinds)
        and not (n.name.startswith("__") and n.name.endswith("__"))
        and n.name not in names
    )


def test_every_definition_is_named():
    named = set()
    for pattern in SCANNED:
        for path in pattern.parent.glob(pattern.name):
            named |= _names(ast.parse(path.read_text()))
    dead = {
        path.name: _unnamed_definitions(ast.parse(path.read_text()), named)
        for path in sorted(SRC.glob("*.py"))
    }
    assert {k: v for k, v in dead.items() if v} == {}


def test_detects_an_unnamed_definition():
    lib = ast.parse(
        "class A:\n"
        "    def __repr__(self): return 'A'\n"
        "    def used(self): pass\n"
        "    def unused(self): pass\n"
        "def helper(): pass\n"
        "def orphan(): pass\n"
    )
    user = ast.parse("from lib import A, helper\nA().used()\nhelper()\n")
    assert _unnamed_definitions(lib, _names(lib) | _names(user)) == [(4, "unused"), (6, "orphan")]


def test_serialize_imports_nothing_from_family():
    """Fibers carry their gluing, so encoding computes no family fact."""
    tree = ast.parse((SRC / "serialize.py").read_text())
    modules = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    modules |= {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    assert not {m for m in modules if m and m.split(".")[-1] == "family"}
