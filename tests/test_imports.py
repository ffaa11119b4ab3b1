"""Every name a module of the package imports is used in that module."""

import ast
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
