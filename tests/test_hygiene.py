"""Every name a module under src/fmmkit, tests or tools imports is
referenced in it, every module-level private (_name) function, class
or constant is referenced somewhere in the package, only matrices.py
names the shared zero ``ZERO``, only tensor.py names ``lcm``, and every
name the benchmark's tracer wraps exists.

A package __init__.py imports names to re-export them, so it is exempt
from the first check.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import fmmkit

PACKAGE = Path(fmmkit.__file__).parent
SOURCES = sorted(PACKAGE.rglob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
ROOT = Path(__file__).parent.parent
SCRIPTS = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("tools/*.py"))


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
    scripts = {p.relative_to(ROOT).as_posix() for p in SCRIPTS}
    assert {"tests/helpers.py", "tests/test_hygiene.py", "tools/make_bundled_data.py"} <= scripts


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports_in_tests_and_tools(path):
    assert unused_imports(path.read_text()) == []


def _private_definitions(tree):
    """(line, name) of each module-level private function, class or constant."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend((node.lineno, t.id) for t in targets if isinstance(t, ast.Name))
    return [(line, name) for line, name in out
            if name.startswith("_") and not name.startswith("__")]


def dead_private_names(sources):
    """(source index, line, name) of each module-level private definition
    that no source loads by name, as an attribute or through an import."""
    trees = [ast.parse(source) for source in sources]
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return [(i, line, name) for i, tree in enumerate(trees)
            for line, name in _private_definitions(tree) if name not in used]


def test_dead_private_names_are_found():
    sources = ["_A = 1\n_B = 2\n__all__ = []\n"
               "def _used():\n    return _A\n"
               "def _dead():\n    return _used()\n"
               "class _Gone:\n    pass\n",
               "from m import _B\nimport m\nm._kept\n",
               "def _kept():\n    pass\n"]
    assert dead_private_names(sources) == [(0, 6, "_dead"), (0, 8, "_Gone")]


def test_no_dead_private_names():
    dead = dead_private_names([p.read_text() for p in SOURCES])
    assert [(SOURCES[i].relative_to(PACKAGE).as_posix(), line, name)
            for i, line, name in dead] == []


def mentions(source, name):
    """Whether source names `name`: loads it, imports it or reads it as an
    attribute."""
    return any(isinstance(node, ast.Name) and node.id == name
               or isinstance(node, ast.Attribute) and node.attr == name
               or isinstance(node, ast.alias) and name in (node.name, node.asname)
               for node in ast.walk(ast.parse(source)))


def test_mentions_are_found():
    for source in ("from m import ZERO\n", "from m import Z as ZERO\n",
                   "import m\nm.ZERO\n", "x = ZERO\n"):
        assert mentions(source, "ZERO"), source
    assert not mentions("ZEROS = 1\nx = 'ZERO'\n", "ZERO")


def test_only_matrices_names_the_shared_zero():
    # a Matrix stores its nonzeros only, so no other module needs the zero
    # cells' identity
    assert [p.relative_to(PACKAGE).as_posix() for p in SOURCES
            if mentions(p.read_text(), "ZERO")] == ["matrices.py"]


def test_only_tensor_clears_denominators():
    # tensor._cleared is the one walk that turns a scheme's coefficients
    # into integers; the verifier and the evaluator both read it
    assert [p.relative_to(PACKAGE).as_posix() for p in SOURCES
            if mentions(p.read_text(), "lcm")] == ["tensor.py"]


def test_every_traced_name_resolves():
    # the tracer patches these names only in the traced benchmark run, so a
    # renamed one would break that run and nothing else
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = tracing.SPANNED + tracing.AGGREGATED
    assert names
    assert [(module, attr) for module, attr, _ in names
            if not hasattr(importlib.import_module(module), attr)] == []
