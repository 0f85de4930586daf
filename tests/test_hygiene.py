"""Every name a module under src/fmmkit, tests or tools imports is
referenced in it, every module-level private (_name) function, class
or constant is referenced somewhere in the package, only matrices.py
names the shared zero ``ZERO``, ``lcm`` is named only where a scheme's
coefficients, the evaluator's operands or a Laurent scalar are cleared,
``exact_div`` only in the one elimination and the inverse, io.py's
``parse_scalar`` only in the file's scalar reader, only
``scalars.rational`` tests a value for a float, and the local number
conversions it replaced stay gone, a Matrix's
dense ``data`` only where a file or a repr reads it out, the tensor
parser and the clearing walk name no Matrix builder or nonzeros, no function in
algebra.py builds more than one tensor, the search names no dense
classical target, every name the benchmark's tracer wraps exists, every
restart outcome the search assigns is documented, and every upper-case
constant the README names in backticks is defined in the package.

A package __init__.py imports names to re-export them, so it is exempt
from the first check.
"""

import ast
import importlib.util
import re
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


def functions_with(source, hit):
    """Names of the functions (methods and nested ones too) whose body
    holds a node for which hit(node) holds, in source order, led by
    "<module>" when such a node lies outside every function."""
    tree = ast.parse(source)
    hits = {id(node) for node in ast.walk(tree) if hit(node)}
    found, inside = [], set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nodes = {id(node) for node in ast.walk(fn)}
            if hits & nodes:
                found.append((fn.lineno, fn.name))
            inside |= nodes
    return ["<module>"] * bool(hits - inside) + [fn for _, fn in sorted(found)]


def functions_mentioning(source, name):
    """Names of the functions whose body names `name`, as functions_with
    lists them."""
    return functions_with(source, lambda node: names(node, name))


def checks_for_float(node):
    """Whether node is an isinstance call whose classes name float,
    numbers.Real or numpy's floating."""
    return (isinstance(node, ast.Call) and names(node.func, "isinstance")
            and len(node.args) == 2
            and any(names(part, kind) for part in ast.walk(node.args[1])
                    for kind in ("float", "Real", "floating")))


def test_mentions_are_found():
    for source in ("from m import ZERO\n", "from m import Z as ZERO\n",
                   "import m\nm.ZERO\n", "x = ZERO\n"):
        assert mentions(source, "ZERO"), source
    assert not mentions("ZEROS = 1\nx = 'ZERO'\n", "ZERO")
    source = ("import math\nX = math.lcm(2, 3)\n\nclass C:\n    def f(self):\n"
              "        return lcm\n\ndef g():\n    def h():\n        return math.lcm\n"
              "    return h\n\ndef k():\n    return 1\n")
    assert functions_mentioning(source, "lcm") == ["<module>", "f", "g", "h"]


def test_float_tests_are_found():
    source = ("def f(x):\n    return isinstance(x, float)\n"
              "def g(x):\n    return isinstance(x, (int, numbers.Real))\n"
              "def h(x):\n    return float(x), isinstance(x, int)\n"
              "X = isinstance(1, np.floating)\n")
    assert functions_with(source, checks_for_float) == ["<module>", "f", "g"]


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


def test_only_the_elimination_divides_exactly():
    # one fraction-free elimination serves rank, determinant and inverse,
    # and the inverse divides its result by the last pivot; any other
    # exact_div would be a second elimination
    assert [(p.relative_to(PACKAGE).as_posix(), name) for p in SOURCES
            for name in functions_mentioning(p.read_text(), "exact_div")] == [
        ("matrices.py", "<module>"), ("matrices.py", "inverse"), ("matrices.py", "_eliminate")]


def test_only_read_outs_name_the_dense_rows():
    # a Matrix computes over its nonzeros, and so do pickling, the search's
    # snap and its float cast; its dense rows are a view for the matrix
    # writer and repr, and the constructor's argument.  A dense walk
    # anywhere else would show up here.
    assert [(p.relative_to(PACKAGE).as_posix(), name) for p in SOURCES
            for name in functions_mentioning(p.read_text(), "data")] == [
        ("io.py", "write_matrix"), ("matrices.py", "__new__"), ("matrices.py", "__repr__")]


def test_the_parser_and_the_clearing_walk_build_no_matrix():
    # io.parse_tensor fills a tensor's stored arrays and tensor._cleared
    # reads them: neither builds a Matrix (_sparse) or walks one's nonzeros
    for module, function in (("io.py", "parse_tensor"), ("tensor.py", "_cleared")):
        source = (PACKAGE / module).read_text()
        assert function in functions_with(source, lambda node: True)
        for name in ("_sparse", "nonzeros"):
            assert function not in functions_mentioning(source, name), (function, name)


def test_one_rule_settles_a_callers_numbers():
    # scalars.rational is the one place that refuses a float for an exact
    # value (and scalars.integral the one place that settles an integer);
    # a second float test would be a second rule, and the local copies the
    # two replaced must not come back
    assert [(p.relative_to(PACKAGE).as_posix(), name) for p in SOURCES
            for name in functions_with(p.read_text(), checks_for_float)] == [
        ("scalars.py", "rational")]
    gone = ("_exact", "_grid_value", "_integral")
    assert [(p.relative_to(PACKAGE).as_posix(), node.lineno) for p in SOURCES
            for node in ast.walk(ast.parse(p.read_text())) for name in gone
            if names(node, name) or getattr(node, "name", None) == name] == []


def test_only_the_scalar_reader_parses_file_tokens():
    # each file's reader parses a distinct token once and serves every
    # later occurrence from its table; a parse_scalar call anywhere else in
    # io.py (besides the import) would parse tokens past that table
    assert functions_mentioning((PACKAGE / "io.py").read_text(), "parse_scalar") == [
        "<module>", "_scalar_reader", "read"]


def constructions(source, name):
    """(function, count) of each function (methods and nested ones too)
    whose body calls `name` more than once, in source order."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            calls = sum(isinstance(node, ast.Call) and names(node.func, name)
                        for node in ast.walk(fn))
            if calls > 1:
                found.append((fn.lineno, fn.name, calls))
    return [(fn, calls) for _, fn, calls in sorted(found)]


def test_constructions_are_found():
    source = ("def f(t):\n    return FmmTensor(1) if t else tensor.FmmTensor(2)\n"
              "def g():\n    FmmTensor\n    return FmmTensor(3)\n"
              "def h():\n    def k():\n        return FmmTensor(4)\n    return k(), FmmTensor(5)\n")
    assert constructions(source, "FmmTensor") == [("f", 2), ("h", 2)]


def test_each_algebra_function_builds_one_tensor():
    # each construction builds and checks its result once; a chain of
    # tensors (a rotation step, then a transpose, then a copy) would build
    # and check every intermediate too
    assert constructions((PACKAGE / "algebra.py").read_text(), "FmmTensor") == []


def test_search_names_no_dense_target():
    # the ALS kernels read the classical tensor through its structure, one
    # matrix product per term; the dense builder lives in tests/helpers.py
    found = []
    for p in SOURCES:
        if p.relative_to(PACKAGE).parts[0] == "search":
            tree = ast.parse(p.read_text())
            found += [(p.name, node.lineno) for node in ast.walk(tree)
                      for name in ("classical_dense", "_target")
                      if names(node, name) or getattr(node, "name", None) == name]
    assert found == []


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


def test_readme_constants_are_defined():
    # the README names the search's limits and schedule constants; a
    # constant it names must still exist for a reader to set or look up
    named = set(re.findall(r"`([A-Z][A-Z0-9_]*)`", (ROOT / "README.md").read_text()))
    defined = {t.id for p in SOURCES for node in ast.parse(p.read_text()).body
               if isinstance(node, ast.Assign) for t in node.targets if isinstance(t, ast.Name)}
    assert named
    assert sorted(named - defined) == []
