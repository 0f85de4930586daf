"""Column-wise clearing and tensor construction against their references.

tensor._cleared builds its columns with passes over each slot's nonzeros
and splits each distinct scalar object once; helpers.reference_cleared is
the per-monomial walk it replaced.  FmmTensor looks for e-dependent
entries in one pass per tensor; helpers.reference_construction_error is
the term-by-term check it replaced, and the error raised must not change.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from fmmkit.algebra import embed_and_add, kronecker, mask_embedding
from fmmkit.matrices import Matrix
from fmmkit.scalars import Laurent
from fmmkit.tensor import LAURENT, RATIONAL, FmmTensor, Term, _cleared, classical_tensor

from helpers import reference_cleared, reference_construction_error


def as_monomials(cleared):
    """_cleared's columns in reference_cleared's form: (d, monomials) per
    slot, each entry a Python int."""
    return tuple((d, list(zip(*(column.tolist() for column in columns))))
                 for d, *columns in cleared)


def distinct_share(t):
    """(distinct value objects, nonzero entries) over t's factors."""
    values = [v for term in t.terms for f in term for _, _, v in f.nonzeros]
    return len({id(v) for v in values}), len(values)


def assert_cleared_matches_reference(t):
    got = _cleared(t)
    assert as_monomials(got) == reference_cleared(t)
    for d, *columns in got:
        assert type(d) is int
        assert all(column.dtype in (np.int64, np.intp, object) for column in columns)


def test_cleared_matches_the_reference_on_the_bundled_schemes(strassen, t58, teps):
    t100 = embed_and_add(teps, classical_tensor((3, 3, 5)), mask_embedding(teps))
    for t in (strassen, t58, teps, t100):
        assert_cleared_matches_reference(t)
    # a parsed scheme shares its value objects, so the split sees few
    distinct, total = distinct_share(t58)
    assert distinct < total


def test_cleared_matches_the_reference_on_fresh_value_objects(strassen, t58):
    # every kron entry is a new product object: no two entries share an id
    t = kronecker(t58, strassen)
    distinct, total = distinct_share(t)
    assert distinct == total
    assert_cleared_matches_reference(t)


def test_cleared_mixes_denominators_in_one_slot():
    # P's slot holds halves and thirds, in one factor and across terms
    half, third = Fraction(1, 2), Fraction(-2, 3)
    one = Matrix([[1, 0], [0, 1]])
    t = FmmTensor((2, 2, 2), RATIONAL, [
        Term(Matrix([[half, third], [0, 1]]), one, one),
        Term(Matrix([[0, 0], [Fraction(5, 3), 0]]), Matrix([[half, 0], [0, 0]]), one)])
    assert_cleared_matches_reference(t)
    assert [d for d, *_ in _cleared(t)] == [6, 2, 1]


def test_cleared_repeats_the_position_of_a_laurent_sum():
    # three exponents, one negative: three monomials at one position
    v = Laurent({-2: Fraction(1, 2), 0: 3, 5: Fraction(-2, 3)})
    one = Matrix([[1]])
    t = FmmTensor((1, 1, 1), LAURENT, [
        Term(Matrix([[v]]), one, one),
        Term(Matrix([[Laurent.monomial(Fraction(1, 4), 1)]]), Matrix([[v]]), one)])
    assert_cleared_matches_reference(t)
    d, *columns = _cleared(t)[0]
    assert (d, *(column.tolist() for column in columns)) == (
        12, [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [-2, 0, 5, 1], [6, 36, -8, 3])


def test_cleared_numerators_leave_int64_only_past_the_slot_norm():
    # both terms' P hold one value object a, split once: the slot's 1-norm
    # counts it twice, 2a, and that decides the numerators' width
    one = Matrix([[1]])
    for a, dtype in ((2**62 - 1, np.int64), (2**62, object)):
        shared = Matrix([[a]])
        t = FmmTensor((1, 1, 1), RATIONAL, [Term(shared, one, one), Term(shared, one, one)])
        assert_cleared_matches_reference(t)
        assert _cleared(t)[0][5].dtype == dtype


# -- construction -----------------------------------------------------------

DIMS = (2, 2, 2)
E = Laurent.monomial(1, 1)
UNIT = Matrix.unit(2, 2, 0, 0)
ZERO = Matrix.zeros(2, 2)
WITH_E = Matrix([[E, 0], [0, 1]])
TALL = Matrix.unit(3, 2, 0, 0)

POOL = {
    "good": Term(UNIT, UNIT, UNIT),
    "laurent": Term(UNIT, WITH_E, UNIT),
    "zero": Term(ZERO, UNIT, UNIT),
    "bad P": Term(TALL, UNIT, UNIT),
    "bad S": Term(UNIT, UNIT, TALL),
    "laurent and zero": Term(WITH_E, UNIT, ZERO),
    "laurent and bad Q": Term(WITH_E, TALL, UNIT),
}


def construction_error(mode, terms):
    try:
        FmmTensor(DIMS, mode, terms)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("names, want", [
    (("laurent", "good", "zero"), "e-dependent entry in a rational-mode tensor"),
    (("laurent", "bad P"), "e-dependent entry in a rational-mode tensor"),
    (("bad P", "laurent"), "term 1: P is 3x2, expected 2x2"),
    (("good", "zero", "laurent"), "term 2 has an all-zero factor"),
    (("laurent and zero",), "e-dependent entry in a rational-mode tensor"),
    (("good", "laurent and bad Q"), "term 2: Q is 3x2, expected 2x2"),
    (("laurent",), "e-dependent entry in a rational-mode tensor"),
    (("zero",), "term 1 has an all-zero factor"),
    (("good", "bad S"), "term 2: S is 3x2, expected 2x2"),
    ((), "a tensor needs at least one term"),
])
def test_construction_error_precedence(names, want):
    terms = [POOL[name] for name in names]
    assert construction_error(RATIONAL, terms) == want
    assert reference_construction_error(DIMS, RATIONAL, terms) == want


def test_construction_errors_match_the_term_by_term_reference():
    for mode in (RATIONAL, LAURENT):
        for names in itertools.product(POOL, repeat=3):
            terms = [POOL[name] for name in names]
            assert construction_error(mode, terms) == reference_construction_error(
                DIMS, mode, terms), (mode, names)
