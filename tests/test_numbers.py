"""The one rule for a number a caller passes in: scalars.rational for
every entry, scale factor, Laurent coefficient and snap-grid value, and
scalars.integral for every Laurent exponent, size, index and count.  An
exact value settles as it always did; a float, a fraction where an
integer belongs, or a non-number is refused with a ValueError that names
it."""

import runpy
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from fmmkit import cli
from fmmkit.algebra import BlockEmbedding, hopcroft_rank_bound, symmetry_apply
from fmmkit.matrices import Matrix
from fmmkit.scalars import Laurent, exact_div, integral, rational
from fmmkit.search import SearchConfig
from fmmkit.search.als import FactorSet, rationalize, snap_models
from fmmkit.tensor import RATIONAL, FmmTensor, classical_tensor, explain, verify_exact

STRASSEN = str(resources.files("fmmkit") / "data" / "strassen.fmm")
ZEROS = FactorSet(*(np.zeros((7, 4)),) * 3)
FLOAT_HINT = "; give an int, a Fraction or a string"


@pytest.mark.parametrize("call, message", [
    (lambda: Matrix([[np.float32(0.5)]]), "inexact float entry np.float32(0.5)" + FLOAT_HINT),
    (lambda: Matrix([[1]]).scale(np.float16(2)), "inexact float entry np.float16(2.0)" + FLOAT_HINT),
    (lambda: Matrix([["1/0"]]), "entry '1/0' is not a rational number"),
    (lambda: Matrix([["x"]]), "entry 'x' is not a rational number"),
    (lambda: Matrix([[None]]), "entry None is not a rational number"),
    (lambda: Matrix([[1j]]), "entry 1j is not a rational number"),
    (lambda: Matrix([[Decimal("NaN")]]), "entry Decimal('NaN') is not a rational number"),
    (lambda: Matrix([[1]]).scale("x"), "entry 'x' is not a rational number"),
    (lambda: Matrix([[Laurent({1: 0.1})]]), "inexact float Laurent coefficient 0.1" + FLOAT_HINT),
    (lambda: Laurent({1: 0.1}), "inexact float Laurent coefficient 0.1" + FLOAT_HINT),
    (lambda: Laurent({1: "1/0"}), "Laurent coefficient '1/0' is not a rational number"),
    (lambda: Laurent({1: None}), "Laurent coefficient None is not a rational number"),
    (lambda: Laurent({1: Laurent({1: 1})}),
     "Laurent coefficient Laurent({1: Fraction(1, 1)}) is not a rational number"),
    (lambda: Laurent({1.5: 1}), "Laurent exponent must be an integer, got 1.5"),
    (lambda: Laurent({"1": 1}), "Laurent exponent must be an integer, got '1'"),
    (lambda: exact_div(0.5, 1), "inexact float scalar 0.5" + FLOAT_HINT),
    (lambda: BlockEmbedding((0.5,), (0,), (0,)), "a_rows index must be an integer, got 0.5"),
    (lambda: BlockEmbedding((0,), (1.9,), (0,)), "a_cols index must be an integer, got 1.9"),
    (lambda: SearchConfig((2, 2, 2), 7, snap_grid=("1/0", 0)),
     "snap_grid value '1/0' is not a rational number"),
    (lambda: SearchConfig((2, 2, 2), 7, snap_grid=(0, 0.5)),
     "inexact float snap_grid value 0.5" + FLOAT_HINT),
    (lambda: snap_models(ZEROS, (None, 0)), "snap_grid value None is not a rational number"),
    (lambda: rationalize(ZEROS, (2, 2, 2), (None, 0)),
     "snap_grid value None is not a rational number"),
    (lambda: cli._parse_grid("0,1/0"), "--grid value '1/0' is not a rational number"),
    (lambda: cli._parse_grid("0,x"), "--grid value 'x' is not a rational number"),
], ids=["numpy float32", "scale by numpy float16", "zero denominator", "word", "None",
        "complex", "Decimal NaN", "scale by a word", "Laurent entry with a float",
        "float coefficient", "coefficient with a zero denominator", "None coefficient",
        "Laurent coefficient", "fractional exponent", "string exponent", "exact_div of a float",
        "fractional row index", "fractional column index", "grid zero denominator",
        "float grid value", "None grid value in snap_models", "None grid value in rationalize",
        "--grid zero denominator", "--grid word"])
def test_refused_numbers(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("x, value", [
    (3, Fraction(3)),
    (True, Fraction(1)),
    (np.int64(-3), Fraction(-3)),
    (Fraction(1, 10), Fraction(1, 10)),
    (Decimal("0.1"), Fraction(1, 10)),
    ("1/10", Fraction(1, 10)),
    (" -3/4 ", Fraction(-3, 4)),
], ids=["int", "bool", "numpy int", "Fraction", "Decimal", "string", "padded string"])
def test_exact_numbers_settle_to_one_fraction(x, value):
    settled = [rational(x, "entry"), Matrix([[x]])[0, 0], Matrix([[1]]).scale(x)[0, 0],
               Laurent({1: x}).terms[1]]
    settled += set(SearchConfig((1, 1, 1), 1, snap_grid=(0, x)).snap_grid) - {0}
    if isinstance(x, str):
        settled += set(cli._parse_grid("0,%s" % x)) - {0}
    assert settled == [value] * len(settled)
    # the numerator is a Python int, so no arithmetic wraps at 64 bits
    assert {(type(q), type(q.numerator)) for q in settled} == {(Fraction, int)}


def test_a_fraction_is_kept_as_it_is():
    q = Fraction(2, 3)
    assert rational(q, "entry") is q
    assert Laurent({1: q}).terms[1] is q
    assert Matrix([[q]])[0, 0] is q


def test_numpy_integers_do_not_wrap():
    big = np.int64(2**62)
    assert Matrix([[big]]).scale(4)[0, 0] == 2**64
    assert Laurent({1: big}) * 4 == Laurent({1: 2**64})


def test_laurent_entries_and_exponents_settle_as_before():
    e = Laurent({-1: Fraction(1, 2), 2: 3})
    assert Matrix([[e]])[0, 0] is e
    assert Matrix([[1]]).scale(e)[0, 0] == e
    for k in (2, np.int64(2), 2.0, Fraction(2)):
        x = Laurent({k: 3})
        assert x.terms == {2: Fraction(3)}
        assert [type(k) for k in x.terms] == [int]
    assert Laurent({np.int64(0): 5}) == Fraction(5)


def test_integral_keeps_an_int_and_refuses_the_rest():
    assert integral(7, "count") == 7
    assert integral(np.int64(7), "count") == 7
    assert type(integral(np.int64(7), "count")) is int
    for x in (7.5, float("inf"), float("nan"), "7", None, 1j):
        with pytest.raises(ValueError, match="count must be an integer, got "):
            integral(x, "count")


def _failing(t):
    P = t.terms[0].P
    return t.with_terms([t.terms[0]._replace(P=P.scale(2))] + list(t.terms[1:]))


# each entry point that takes a size, an index or a count, as a function
# of that one number, next to its result for the int 2
SIZE_TAKERS = {
    "FmmTensor dims": lambda v: FmmTensor((v, 2, 2), RATIONAL,
                                          classical_tensor((2, 2, 2)).terms).dims,
    "classical_tensor dims": lambda v: classical_tensor((v, 2, 2)),
    "Matrix.zeros rows": lambda v: Matrix.zeros(v, 2),
    "Matrix.identity size": lambda v: Matrix.identity(v),
    "Matrix.unit row": lambda v: Matrix.unit(3, 3, v, 0),
    "Matrix entry row": lambda v: Matrix([[1], [2], [3]])[v, 0],
    "symmetry_apply rotation": lambda v: symmetry_apply(classical_tensor((1, 2, 3)), v),
    "explain count": lambda v: explain(_failing(classical_tensor((2, 2, 2))),
                                       verify_exact(_failing(classical_tensor((2, 2, 2)))), v),
    "hopcroft_rank_bound m": lambda v: hopcroft_rank_bound(v, 2),
    "SearchConfig dims": lambda v: SearchConfig((v, 2, 2), 7).dims,
    "BlockEmbedding index": lambda v: BlockEmbedding((v,), (0,), (0,)),
    "Laurent exponent": lambda v: Laurent({v: 1}),
}


@pytest.mark.parametrize("value", [2.5, "2", None], ids=["fraction", "string", "None"])
@pytest.mark.parametrize("name", SIZE_TAKERS)
def test_sizes_must_be_integers(name, value):
    message = r"must be an integer, got %s$" % repr(value).replace(".", r"\.")
    with pytest.raises(ValueError, match=message):
        SIZE_TAKERS[name](value)


@pytest.mark.parametrize("name", SIZE_TAKERS)
def test_a_whole_float_size_settles_to_its_int(name):
    # repr tells 2.0 from 2, which == does not
    assert repr(SIZE_TAKERS[name](2.0)) == repr(SIZE_TAKERS[name](2))


def test_an_entry_is_looked_up_as_unit_places_it():
    # an index settles as Matrix.unit settles it; a negative one still
    # counts from the end and one out of range still raises IndexError
    m = Matrix([[1]])
    assert m[0.0, 0] == 1 == Matrix.unit(1, 1, 0.0, 0)[0, 0]
    assert m[np.int64(0), -1] == 1
    with pytest.raises(ValueError, match=r"^row must be an integer, got 0\.5$"):
        m[0.5, 0]
    with pytest.raises(IndexError):
        m[1.0, 0]


@pytest.mark.parametrize("call", [
    lambda dims: FmmTensor(dims, RATIONAL, classical_tensor((2, 2, 2)).terms),
    lambda dims: SearchConfig(dims, 4),
    lambda dims: classical_tensor(dims),
], ids=["FmmTensor", "SearchConfig", "classical_tensor"])
@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2, 2)])
def test_dims_must_be_three_values(call, dims):
    with pytest.raises(ValueError, match=r"^dims must be three integers, got "):
        call(dims)


def test_unlike_objects_are_not_equal_and_do_not_combine(strassen):
    x = Laurent({1: 1})
    for value in (x, Matrix([[1]]), strassen):
        assert value.__eq__("x") is NotImplemented
        assert value != "x"
    for op in ("__add__", "__sub__", "__mul__"):
        assert getattr(x, op)("x") is NotImplemented
    with pytest.raises(TypeError):
        x + "x"


def test_reprs():
    assert repr(Matrix([[1, 0], ["1/2", -1]])) == (
        "Matrix([[Fraction(1, 1), Fraction(0, 1)], [Fraction(1, 2), Fraction(-1, 1)]])")
    x = Laurent({-1: Fraction(1, 2), 1: 3})
    assert repr(x) == "Laurent({-1: Fraction(1, 2), 1: Fraction(3, 1)})"
    assert str(x) == "1/2*e^-1 + 3*e^1"


@pytest.mark.parametrize("module", ["fmmkit", "fmmkit.cli"])
def test_module_entry_points(module, monkeypatch, capsys):
    # python -m fmmkit and python -m fmmkit.cli run main() on sys.argv
    monkeypatch.setattr(sys, "argv", ["fmmkit", "verify", STRASSEN])
    with warnings.catch_warnings():
        # fmmkit.cli is imported already, which runpy warns of
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as exc:
            runpy.run_module(module, run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == "PASS 64/64 equations\n"
