"""Every name a module under src/fmmkit imports is referenced in it.

A package __init__.py imports names to re-export them, so it is exempt.
"""

import ast
from pathlib import Path

import pytest

import fmmkit

PACKAGE = Path(fmmkit.__file__).parent
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each name bound by an import and never loaded."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in loaded]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nprint(np, d)\n"
    assert unused_imports(source) == [(1, "os"), (3, "c")]


def test_modules_found():
    names = {p.relative_to(PACKAGE).as_posix() for p in MODULES}
    assert {"algebra.py", "tensor.py", "search/als.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
