"""Every module of the package uses every name it imports, and every
private helper the package defines is used somewhere in it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mvdlearn"

# (module, name) pairs imported on purpose without a use: the benchmark's
# span hooks wrap `entails` under this module's name
KEPT = {("oracles", "entails")}


def unused_imports(source: str) -> list:
    """Names bound by the module's import statements that no expression of
    the module reads, in the order they are imported."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


# the package's __init__ imports its public names in order to export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_modules_use_every_name_they_import(path):
    unused = unused_imports(path.read_text())
    kept = {name for module, name in KEPT if module == path.stem}
    # a kept name that the module came to use is no longer an exception
    assert kept <= set(unused)
    assert [name for name in unused if name not in kept] == []


def test_unused_import_check_sees_an_unused_name():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == ["os", "d"]
    assert unused_imports("from __future__ import annotations\nx: int = 1\n") == []


def unused_private_names(sources: list) -> list:
    """Private (single-underscore) functions, methods and classes defined in
    ``sources`` that no name, attribute or import in them refers to outside
    the helper's own definition, in definition order."""
    trees = [ast.parse(source) for source in sources]
    definitions = [
        node for tree in trees for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    ]
    inside = {}  # id of a node -> the names of the definitions enclosing it
    for definition in definitions:
        for node in ast.walk(definition):
            inside.setdefault(id(node), set()).add(definition.name)
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name not in inside.get(id(node), ()):
                used.add(name)
    return [d.name for d in definitions if d.name not in used]


def test_package_uses_every_private_helper_it_defines():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unused_private_names(sources) == []


def test_unused_private_check_sees_an_unused_helper():
    sources = [
        "def _used():\n    pass\n"
        "def _alone():\n    return _alone()\n"
        "class _Kept:\n    def _method(self):\n        return self._other()\n"
        "    def _other(self):\n        pass\n"
        "    def __repr__(self):\n        pass\n",
        "from a import _used\nx = _Kept()\n",
    ]
    # a reference from inside its own definition does not count
    assert unused_private_names(sources) == ["_alone", "_method"]
