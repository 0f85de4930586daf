"""Every name a module under src/fmmkit, tests or tools imports is
referenced in it, every module-level private (_name) function, class
or constant is referenced somewhere in the package, only matrices.py
names the shared zero ``ZERO``, ``lcm`` is named only where a scheme's
coefficients, the evaluator's operands or a Laurent scalar are cleared,
every name the benchmark's tracer wraps exists, and every restart outcome
the search assigns is documented.

A package __init__.py imports names to re-export them, so it is exempt
from the first check.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import fmmkit
from fmmkit.search import RestartRecord

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


def names(node, name):
    """Whether the node loads `name`, imports it or reads it as an
    attribute."""
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.alias) and name in (node.name, node.asname))


def mentions(source, name):
    """Whether source names `name` anywhere."""
    return any(names(node, name) for node in ast.walk(ast.parse(source)))


def functions_mentioning(source, name):
    """Names of the functions (methods and nested ones too) whose body
    names `name`, in source order, led by "<module>" when a mention lies
    outside every function."""
    tree = ast.parse(source)
    hits = {id(node) for node in ast.walk(tree) if names(node, name)}
    found, inside = [], set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nodes = {id(node) for node in ast.walk(fn)}
            if hits & nodes:
                found.append((fn.lineno, fn.name))
            inside |= nodes
    return ["<module>"] * bool(hits - inside) + [fn for _, fn in sorted(found)]


def test_mentions_are_found():
    for source in ("from m import ZERO\n", "from m import Z as ZERO\n",
                   "import m\nm.ZERO\n", "x = ZERO\n"):
        assert mentions(source, "ZERO"), source
    assert not mentions("ZEROS = 1\nx = 'ZERO'\n", "ZERO")
    source = ("import math\nX = math.lcm(2, 3)\n\nclass C:\n    def f(self):\n"
              "        return lcm\n\ndef g():\n    def h():\n        return math.lcm\n"
              "    return h\n\ndef k():\n    return 1\n")
    assert functions_mentioning(source, "lcm") == ["<module>", "f", "g", "h"]


def test_only_matrices_names_the_shared_zero():
    # a Matrix stores its nonzeros only, so no other module needs the zero
    # cells' identity
    assert [p.relative_to(PACKAGE).as_posix() for p in SOURCES
            if mentions(p.read_text(), "ZERO")] == ["matrices.py"]


def test_only_tensor_clears_denominators():
    # tensor._cleared is the one walk that turns a scheme's coefficients
    # into integers; the verifier and the evaluator both read it.  The
    # only other lcms are the evaluator's clearing of its operands, row by
    # row of A and column by column of B, and a Laurent scalar's
    # denominator, the lcm of its coefficients'.
    assert [(p.relative_to(PACKAGE).as_posix(), name) for p in SOURCES
            for name in functions_mentioning(p.read_text(), "lcm")] == [
        ("evaluate.py", "_cleared_operand"), ("scalars.py", "denominator"),
        ("tensor.py", "_cleared")]


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


def assigned_outcomes(source):
    """The string constants source assigns to an ``outcome`` attribute or
    passes first to a call of a ``leave`` method, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Attribute) and t.attr == "outcome" for t in node.targets):
            value = node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "leave" and node.args):
            value = node.args[0]
        else:
            continue
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            found.append((value.lineno, value.value))
    return [value for _, value in sorted(found)]


def test_assigned_outcomes_are_found():
    source = ("d.outcome = 'a'\nd.outcome = None\nself.leave('b', r)\n"
              "outcome = 'c'\nleave('d')\nd.leave(x)\n")
    assert assigned_outcomes(source) == ["a", "b"]


def test_every_restart_outcome_is_documented():
    # a restart's outcome reaches users as RestartRecord.outcome and the
    # CLI's restart lines, so each value the search assigns must be named
    # where both are described
    outcomes = assigned_outcomes((PACKAGE / "search" / "als.py").read_text())
    assert {"converged", "stalled", "exhausted"} <= set(outcomes)
    search_paragraph, = [par for par in (ROOT / "README.md").read_text().split("\n\n")
                         if par.startswith("The search minimizes")]
    assert [o for o in outcomes if '"%s"' % o not in RestartRecord.__doc__] == []
    assert [o for o in outcomes if "`%s`" % o not in search_paragraph] == []
