"""Every name a module of the package imports is used in that module, and
every private module-level name is used somewhere in the package."""

import ast
import itertools
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ppric"


def _unused_imports(source: str, exported: bool) -> list[str]:
    """The names bound by the import statements of ``source`` that it never
    reads; with ``exported``, public names count as read (the package's
    ``__init__`` re-exports every public name in ``__all__``)."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``
            bound += [alias.asname or alias.name.partition(".")[0]
                      for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read
            and not (exported and not name.startswith("_"))]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_import(path):
    assert _unused_imports(path.read_text(),
                           path.name == "__init__.py") == []


def test_an_unused_import_is_caught():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\n"
              "from .words import _points, _count as count, BinaryWord\n"
              "print(sys.argv, count)\n")
    assert _unused_imports(source, False) == ["os", "_points", "BinaryWord"]
    assert _unused_imports(source, True) == ["_points"]


def _private_names(tree: ast.Module) -> list[str]:
    """The module-level functions, classes and assignments of ``tree`` whose
    names start with one underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.append(node.target.id)
    return [name for name in names
            if name.startswith("_") and not name.startswith("__")]


def _unreferenced(sources: list[str]) -> list[str]:
    """The private module-level names defined in ``sources`` that no name,
    attribute or import in them reads."""
    trees = [ast.parse(source) for source in sources]
    read = set()
    for node in itertools.chain.from_iterable(map(ast.walk, trees)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return [name for tree in trees for name in _private_names(tree)
            if name not in read]


def test_no_dead_private_helper():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert _unreferenced(sources) == []


def test_a_dead_private_helper_is_caught():
    sources = ["_LIMIT = 3\n_SEEN: set = set()\n"
               "def _dead(x):\n    return x\n"
               "def _used(x):\n    return x + _LIMIT\n"
               "class _Gone:\n    pass\n",
               "from .a import _used\n_SEEN2 = _used(1)\n"]
    assert _unreferenced(sources) == ["_SEEN", "_dead", "_Gone", "_SEEN2"]
