"""The integer array expansion against the dict-walk reference in helpers.

expand, verify_exact and verify_approximate must agree with the reference
exactly, on both sides of the int64 bounds, with the path each case took
asserted."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmmkit.matrices import Matrix
from fmmkit.scalars import Laurent
from fmmkit.tensor import (
    LAURENT,
    RATIONAL,
    FmmTensor,
    Term,
    _key_dtype,
    classical_tensor,
    expand,
    verify_approximate,
    verify_exact,
)

from helpers import (
    rand_tensor,
    reference_expand,
    reference_verify_approximate,
    reference_verify_exact,
)


def assert_matches_reference(t):
    assert expand(t) == reference_expand(t)
    assert dict(expand(t)) == reference_expand(t)
    checks = [(verify_approximate, reference_verify_approximate, (mode,))
              for mode in ("strict", "scaled")]
    if t.field_mode == RATIONAL:
        checks.append((verify_exact, reference_verify_exact, ()))
    for fn, reference, args in checks:
        got, want = fn(t, *args), reference(t, *args)
        assert got == want
        assert (str(got), repr(got)) == (str(want), repr(want))


def replace_entry(t, index, value):
    """t with the first nonzero entry of term index's P set to value."""
    term = t.terms[index]
    i, j, _ = next(iter(term.P.nonzero_entries()))
    rows = [list(row) for row in term.P.data]
    rows[i][j] = value
    terms = list(t.terms)
    terms[index] = Term(Matrix(rows), term.Q, term.S)
    return t.with_terms(terms)


@st.composite
def tensors(draw):
    """Random tensors of dims <= 3 and rank <= 6: masked or not, with a
    term cancelled by its negation, on top of the classical terms, and
    with an entry whose numerator and denominator pass 2^40."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    t = rand_tensor(rng, max_dim=3, max_rank=4)
    terms = list(t.terms)
    if draw(st.booleans()):
        base = classical_tensor(t.dims, t.support)
        if base.rank <= 5:
            terms = list(base.terms)
    if draw(st.booleans()):
        victim = terms[rng.randrange(len(terms))]
        terms += [Term(-victim.P, victim.Q, victim.S)]
    if t.field_mode == LAURENT:
        # e^s on every factor moves every product by e^(3s), at times
        # wholly above the target's e^0, and gives the scaled check a
        # candidate
        e_s = Laurent.monomial(1, draw(st.integers(-2, 4)))
        terms = [Term(*(f.map(lambda x: x * e_s) for f in term)) for term in terms]
    t = FmmTensor(t.dims, t.field_mode, terms[:6], t.support)
    big = draw(st.booleans())
    if big:
        # an odd numerator over a power of two: coprime, so the numerator
        # of at least 2^63 survives and forces Python ints
        value = Fraction(2 * draw(st.integers(2**62, 2**70)) + 1,
                         2 ** draw(st.integers(40, 70)))
        if t.field_mode == LAURENT:
            value = Laurent.monomial(value, draw(st.integers(-2, 2)))
        t = replace_entry(t, rng.randrange(t.rank), value)
    return t, big


@settings(max_examples=300)
@given(tensors())
def test_expansion_and_reports_match_the_reference(case):
    t, big = case
    assert expand(t).num.dtype == (object if big else np.int64)
    assert expand(t).coord.dtype == np.int64
    assert_matches_reference(t)


def unit(value, mode=RATIONAL):
    one = Matrix([[1]])
    return FmmTensor((1, 1, 1), mode, [Term(Matrix([[value]]), one, one)])


def test_value_bound_sides():
    # <1,1,1;1> with P = a: common denominator 1, bound a + 1
    below, above = unit(2**63 - 2), unit(2**63 - 1)
    assert expand(below).num.dtype == np.int64
    assert expand(above).num.dtype == object
    for t in (below, above):
        assert_matches_reference(t)
    assert verify_exact(above).failing_equations == ((((0, 0), (0, 0), (0, 0)),
                                                      Fraction(2**63 - 2)),)


def test_value_bound_sides_with_slot_denominators():
    # <1,1,1;3> with terms (a/2, 1, 1), (1, 1/3, 1) and (1, 1/2, 1): P
    # clears by 2 and Q by 6, so the cleared terms are (a, 6, 1), (2, 2, 1)
    # and (2, 3, 1) and the bound is 6a + 4 + 6 + 12 (scale 2 * 6 * 1).
    # Clearing per term, over their lcm 6, would bound it by 3a + 11.
    def scheme(a):
        return FmmTensor((1, 1, 1), RATIONAL, [
            Term(Matrix([[Fraction(a, 2)]]), Matrix([[1]]), Matrix([[1]])),
            Term(Matrix([[1]]), Matrix([[Fraction(1, 3)]]), Matrix([[1]])),
            Term(Matrix([[1]]), Matrix([[Fraction(1, 2)]]), Matrix([[1]]))])

    a = (2**63 - 23) // 6
    a -= 1 - a % 2  # odd, so that a/2 keeps its denominator
    assert 6 * a + 22 < 2**63 <= 6 * (a + 2) + 22
    assert 3 * (a + 2) + 11 < 2**63
    for value, dtype in ((a, np.int64), (a + 2, object)):
        t = scheme(value)
        assert expand(t).num.dtype == dtype
        assert_matches_reference(t)
        assert verify_exact(t).failing_equations == ((((0, 0), (0, 0), (0, 0)),
                                                      Fraction(3 * value - 1, 6)),)


def test_key_bound_sides():
    # (mn)(np)(pm) = (mnp)^2; 1448^3 squared is just below 2^63
    assert (1448**3) ** 2 < 2**63 < (1449**3) ** 2
    assert _key_dtype((1448, 1448, 1448), 1) == np.int64
    assert _key_dtype((1449, 1448, 1448), 1) is object
    assert _key_dtype((1, 1, 1), 2**63 - 1) == np.int64
    assert _key_dtype((1, 1, 1), 2**63) is object
    assert _key_dtype((2, 2, 2), 2**57 - 1) == np.int64
    assert _key_dtype((2, 2, 2), 2**57) is object


def test_expansion_above_the_target_exponent():
    # every product at e^1 or e^2 while the strict target sits at e^0
    for value in (Laurent.monomial(1, 1), Laurent.monomial(3, 2), Laurent({1: 1, 2: -1})):
        assert_matches_reference(unit(value, LAURENT))
    t = unit(Laurent.monomial(1, 1), LAURENT)
    assert str(verify_approximate(t)) == "INVALID discrepancy_order 0"
    assert str(verify_approximate(t, "scaled")) == "VALID discrepancy_order inf scaling e^1"


def test_exponent_span_sides():
    # the exponent span is part of the key: e^k + 1 spans k + 1 exponents
    for k, dtype in ((2**62, np.int64), (2**63, object), (10**100, object)):
        t = unit(Laurent({k: 1, 0: 1}), LAURENT)
        assert expand(t).coord.dtype == dtype
        assert_matches_reference(t)


@pytest.mark.parametrize("key", [
    (0, 0), "abc", None, ((0, 0), (0, 0)), ((0, 0, 0), (0, 0), (0, 0)),
    ((2, 0), (0, 0), (0, 0)), ((0, 0), (0, 2), (0, 0)), ((0, 0), (0, 0), (0, -1)),
], ids=["pair", "string", "none", "two pairs", "triple in a pair", "i out of range",
        "k out of range", "negative i"])
def test_expansion_refuses_a_malformed_or_out_of_range_key(key):
    coefficients = expand(classical_tensor((2, 2, 2)))
    with pytest.raises(KeyError) as exc:
        coefficients[key]
    assert exc.value.args == (key,)
    assert key not in coefficients
