import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from fmmkit.matrices import Matrix
from fmmkit.scalars import Laurent
from fmmkit.tensor import (
    LAURENT,
    RATIONAL,
    FmmTensor,
    Term,
    classical_map,
    classical_tensor,
    expand,
    residual_map,
    type_polynomial,
    verify_approximate,
    verify_exact,
)

from helpers import mutate_one_entry


def unit_term(dims, i, j, k):
    m, n, p = dims
    return Term(
        Matrix.unit(m, n, i, j),
        Matrix.unit(n, p, j, k),
        Matrix.unit(p, m, k, i),
    )


def test_constructor_validation():
    good = unit_term((2, 2, 2), 0, 0, 0)
    with pytest.raises(ValueError):
        FmmTensor((0, 2, 2), RATIONAL, [good])
    with pytest.raises(ValueError):
        FmmTensor((2, 2, 2), "complex", [good])
    with pytest.raises(ValueError):
        FmmTensor((2, 2, 2), RATIONAL, [])
    bad_shape = Term(Matrix.zeros(3, 2), Matrix.unit(2, 2, 0, 0), Matrix.unit(2, 2, 0, 0))
    with pytest.raises(ValueError):
        FmmTensor((2, 2, 2), RATIONAL, [bad_shape])
    zero_term = Term(Matrix.zeros(2, 2), Matrix.unit(2, 2, 0, 0), Matrix.unit(2, 2, 0, 0))
    with pytest.raises(ValueError):
        FmmTensor((2, 2, 2), RATIONAL, [zero_term])
    eps_entry = Matrix([[Laurent.monomial(1, 1), 0], [0, 0]])
    with pytest.raises(ValueError):
        FmmTensor((2, 2, 2), RATIONAL, [Term(eps_entry, Matrix.unit(2, 2, 0, 0), Matrix.unit(2, 2, 0, 0))])


def test_support_validation():
    term = unit_term((2, 2, 2), 0, 0, 0)
    with pytest.raises(ValueError):
        FmmTensor((2, 2, 2), RATIONAL, [term], support=[[True, True]])
    with pytest.raises(ValueError):
        FmmTensor((2, 2, 2), RATIONAL, [term], support=[[False, False], [False, False]])
    t = FmmTensor((2, 2, 2), RATIONAL, [term], support=[[True, False], [False, False]])
    assert t.support == ((True, False), (False, False))


def test_immutability_and_rank():
    t = classical_tensor((2, 2, 2))
    assert t.rank == 8
    with pytest.raises(AttributeError):
        t.terms = ()


def test_classical_tensor_verifies_exactly(strassen):
    for dims in ((1, 1, 1), (2, 2, 2), (2, 3, 4)):
        t = classical_tensor(dims)
        m, n, p = dims
        assert t.rank == m * n * p
        report = verify_exact(t)
        assert report.passed
        assert report.total_equations == (m * n * p) ** 2
        assert str(report) == "PASS %d/%d equations" % ((m * n * p) ** 2, (m * n * p) ** 2)
    assert verify_exact(strassen).passed


def test_expand_matches_classical_map():
    t = classical_tensor((2, 3, 2))
    assert expand(t) == classical_map(t.dims)
    assert residual_map(t) == {}


def test_masked_classical_tensor():
    support = [[True, False], [True, True]]
    t = classical_tensor((2, 2, 2), support=support)
    assert t.rank == 6  # one A entry masked away removes p terms
    assert verify_exact(t).passed
    assert classical_map(t.dims, t.support) == expand(t)


def test_verify_exact_rejects_laurent():
    term = unit_term((1, 1, 1), 0, 0, 0)
    t = FmmTensor((1, 1, 1), LAURENT, [term])
    with pytest.raises(ValueError):
        verify_exact(t)


def test_verify_exact_failure_details(strassen):
    rng = random.Random(5)
    bad = mutate_one_entry(strassen, rng)
    report = verify_exact(bad)
    assert not report.passed
    assert len(report.failing_equations) >= 1
    key, value = report.failing_equations[0]
    assert len(key) == 3 and value != 0
    assert str(report).startswith("FAIL ")


def test_verify_approximate_on_exact_scheme(strassen):
    report = verify_approximate(strassen)
    assert report.valid
    assert report.discrepancy_order == math.inf
    assert str(report) == "VALID discrepancy_order inf"


def test_verify_approximate_strict_and_scaled(teps):
    strict = verify_approximate(teps, mode="strict")
    assert strict.valid and strict.discrepancy_order == 1
    assert str(strict) == "VALID discrepancy_order 1"
    scaled = verify_approximate(teps, mode="scaled")
    assert scaled.valid and scaled.scaling == 0
    with pytest.raises(ValueError):
        verify_approximate(teps, mode="loose")


def test_verify_approximate_scaled_recovers_global_scaling(teps):
    e = Laurent.monomial(1, 1)
    scaled_terms = [Term(t.P.map(lambda x: x * e), t.Q, t.S) for t in teps.terms]
    t = teps.with_terms(scaled_terms)
    assert not verify_approximate(t, mode="strict").valid
    report = verify_approximate(t, mode="scaled")
    assert report.valid
    assert report.scaling == 1
    assert report.discrepancy_order == 1
    assert str(report) == "VALID discrepancy_order 1 scaling e^1"


def test_type_polynomial_examples(strassen):
    tp = type_polynomial(strassen)
    assert tp.as_dict() == {(2, 2, 2): 1, (1, 1, 1): 6}
    assert tp.total() == 7
    assert str(tp) == "X^2*Y^2*Z^2 + 6*X*Y*Z"
    classical = type_polynomial(classical_tensor((2, 2, 2)))
    assert classical.as_dict() == {(1, 1, 1): 8}
    assert str(classical) == "8*X*Y*Z"


def test_verify_approximate_same_for_a_laurent_copy(strassen, t58):
    broken = t58.with_terms(t58.terms[:-1])
    for t in (strassen, t58, broken):
        lifted = FmmTensor(t.dims, LAURENT, t.terms, t.support)
        for mode in ("strict", "scaled"):
            assert verify_approximate(t, mode) == verify_approximate(lifted, mode)
    assert not verify_approximate(broken).valid


def test_equality_and_as_laurent(strassen):
    assert strassen == strassen.with_terms(strassen.terms)
    lifted = FmmTensor(strassen.dims, LAURENT, strassen.terms)
    assert lifted.field_mode == LAURENT
    assert lifted != strassen
    assert verify_approximate(lifted).valid
    assert "FmmTensor(<2,2,2;7>" in repr(strassen)


def test_tensor_keeps_the_factors_it_is_given(strassen):
    t = FmmTensor(strassen.dims, strassen.field_mode, strassen.terms)
    for kept, given in zip(t.terms, strassen.terms):
        assert all(a is b for a, b in zip(kept, given))


def test_laurent_factor_in_a_rational_tensor_is_refused():
    one = Matrix([[1]])
    with pytest.raises(ValueError, match="^e-dependent entry in a rational-mode tensor$"):
        FmmTensor((1, 1, 1), RATIONAL, [Term(one, Matrix([[Laurent.monomial(1, 1)]]), one)])


def test_parsed_entries_are_fractions_or_laurents(strassen, t58, teps):
    for t in (strassen, t58, teps):
        for term in t.terms:
            for factor in term:
                assert all(type(x) in (Fraction, Laurent) for row in factor.data for x in row)


def test_copies_and_pickles_are_equal_and_immutable(strassen, teps):
    e = Laurent.monomial(1, 1)
    for obj in (e, Matrix([[e, 1], [0, Fraction(1, 2) * e]]), strassen, teps):
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj)
            assert twin == obj
            with pytest.raises(AttributeError):
                setattr(twin, type(obj).__slots__[0], None)
