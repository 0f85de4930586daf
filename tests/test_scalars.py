import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmmkit.scalars import (
    Laurent,
    ScalarParseError,
    eps_power,
    exact_div,
    format_scalar,
    laurent_order,
    parse_scalar,
    value_at,
)


def test_construction_drops_zero_coefficients():
    x = Laurent({0: Fraction(0), 2: Fraction(3)})
    assert x.terms == {2: Fraction(3)}
    assert Laurent({1: Fraction(0)}) == Fraction(0)


def test_zero_identity_and_bool():
    assert not Laurent({})
    assert Laurent.monomial(1)
    assert Laurent({}) + Laurent({}) == Fraction(0)
    assert not Fraction(0)
    assert Fraction(1, 3)


def test_arithmetic_examples():
    a = Laurent({-1: Fraction(1), 0: Fraction(2)})
    b = Laurent({1: Fraction(3)})
    assert a + b == Laurent({-1: Fraction(1), 0: Fraction(2), 1: Fraction(3)})
    assert a - a == Fraction(0)
    assert a * b == Laurent({0: Fraction(3), 1: Fraction(6)})
    assert -a == Laurent({-1: Fraction(-1), 0: Fraction(-2)})
    assert 2 * a == a * 2 == Laurent({-1: Fraction(2), 0: Fraction(4)})
    assert a + Fraction(1, 2) == Laurent({-1: Fraction(1), 0: Fraction(5, 2)})


def test_mixed_rational_interop():
    assert Fraction(2, 3) == Laurent({0: Fraction(2, 3)})
    assert 5 == Laurent.monomial(5)
    x = Laurent.monomial(Fraction(1, 2), -2)
    assert x * Fraction(4) == Laurent.monomial(2, -2)


def test_order_and_max_exponent():
    x = Laurent({-3: Fraction(1), 4: Fraction(-1)})
    assert x.order() == -3
    assert max(x.terms) == 4
    assert laurent_order(Fraction(0)) == math.inf
    assert laurent_order(Fraction(7)) == 0
    assert laurent_order(Laurent({})) == math.inf


def test_queries():
    x = Laurent({0: Fraction(5), 2: Fraction(-1)})
    assert not x.is_monomial()
    assert Laurent.monomial(3, 9).is_monomial()


def test_numerator_over_denominator_as_for_a_fraction():
    # the denominator is the lcm of the coefficients' denominators, so the
    # numerator has integer coefficients
    x = Laurent({-1: Fraction(1, 6), 2: Fraction(-3, 4), 0: Fraction(5)})
    assert x.denominator == 12
    assert x.numerator == Laurent({-1: 2, 2: -9, 0: 60})
    assert x.numerator * Fraction(1, x.denominator) == x
    assert Laurent.monomial(7, 1).denominator == 1


def test_eps_power_overflows_to_a_signed_infinity():
    assert eps_power(0.5, -2) == 4.0
    assert eps_power(1e-200, -2) == math.inf
    assert eps_power(-1e-200, -3) == -math.inf
    assert eps_power(-1e-200, -2) == math.inf
    assert Laurent({-2: 1, 1: 3}).evaluate(1e-200) == math.inf


def test_shift_and_evaluate():
    x = Laurent({0: Fraction(1), 1: Fraction(2)})
    assert x * Laurent.monomial(1, 3) == Laurent({3: Fraction(1), 4: Fraction(2)})
    assert x.evaluate(0.5) == pytest.approx(2.0)
    assert Laurent.monomial(1, -1).evaluate(0.25) == pytest.approx(4.0)
    assert value_at(x, 0.5) == pytest.approx(2.0)
    assert value_at(Fraction(3, 4), 0.5) == 0.75


def test_exact_div():
    a = Laurent({0: Fraction(1), 1: Fraction(2), 2: Fraction(1)})  # (1+e)^2
    b = Laurent({0: Fraction(1), 1: Fraction(1)})
    assert exact_div(a, b) == b
    assert exact_div(Laurent.monomial(6, 3), Laurent.monomial(2, 5)) == Laurent.monomial(3, -2)
    assert exact_div(Fraction(0), b) == Fraction(0)
    with pytest.raises(ZeroDivisionError):
        exact_div(b, Fraction(0))
    with pytest.raises(ValueError):
        exact_div(b, a)


def test_immutability_and_hash():
    x = Laurent.monomial(1, 2)
    with pytest.raises(AttributeError):
        x.terms = {}
    assert hash(Laurent({0: Fraction(1)})) == hash(Laurent.monomial(1))
    assert hash(Laurent({2: Fraction(1)})) == hash(Laurent.monomial(1, 2))


def test_parse_format_examples():
    assert parse_scalar("1/2*e^-1 + -3*e^2") == Laurent({-1: Fraction(1, 2), 2: Fraction(-3)})
    assert parse_scalar("-7") == Laurent.monomial(-7)
    assert parse_scalar("0") == Fraction(0)
    assert format_scalar(Laurent({-1: Fraction(1, 2), 2: Fraction(-3)})) == "1/2*e^-1 + -3*e^2"
    assert format_scalar(Laurent({})) == "0"
    assert format_scalar(Fraction(-2, 3)) == "-2/3"
    assert format_scalar(Laurent.monomial(1, 1)) == "1*e^1"


def test_parse_rejects_malformed_input():
    for bad in ("", "e^2", "1//2", "1/0", "1 + ", "2*e^", "1 2"):
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)


def test_parse_rational_mode_rejects_epsilon():
    assert parse_scalar("3/4", laurent=False) == Fraction(3, 4)
    with pytest.raises(ScalarParseError):
        parse_scalar("1*e^1", laurent=False)


def _ref_sum(a, b, sign=1):
    out = dict(a)
    for k, q in b.items():
        out[k] = out.get(k, 0) + sign * q
    return {k: q for k, q in out.items() if q}


def _ref_product(a, b):
    out = {}
    for k1, q1 in a.items():
        for k2, q2 in b.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + q1 * q2
    return {k: q for k, q in out.items() if q}


def _assert_one_form(x, ref):
    """x is a Laurent exactly when ref, its coefficient map, has a
    nonzero e-power; otherwise x is the Fraction ref[0]."""
    if any(k != 0 for k in ref):
        assert isinstance(x, Laurent) and x.terms == ref
        assert hash(x) == hash(Laurent(ref))
    else:
        assert type(x) is Fraction and x == ref.get(0, 0)
        assert hash(x) == hash(Fraction(ref.get(0, 0)))


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=2**48 - 1))
def test_a_scalar_is_laurent_exactly_when_it_has_an_e_power(seed):
    # few exponents and unit coefficients, so that results often cancel
    # down to an e-free value
    rng = random.Random(seed)

    def operand():
        ref = {}
        for _ in range(rng.randint(0, 3)):
            k = rng.choice((-1, 0, 0, 1))
            ref[k] = ref.get(k, 0) + Fraction(rng.choice((-1, 1, 2)))
        ref = {k: q for k, q in ref.items() if q}
        value = Laurent(ref) if rng.random() < 0.7 else Fraction(ref.get(0, 0))
        if not isinstance(value, Laurent):
            ref = {0: value} if value else {}
        _assert_one_form(value, ref)
        return value, ref

    (a, ra), (b, rb) = operand(), operand()
    _assert_one_form(a + b, _ref_sum(ra, rb))
    _assert_one_form(a - b, _ref_sum(ra, rb, -1))
    _assert_one_form(-a, _ref_sum({}, ra, -1))
    product = _ref_product(ra, rb)
    _assert_one_form(a * b, product)
    if b:
        _assert_one_form(exact_div(a * b, b), ra)
    k = rng.randint(1, 2)
    _assert_one_form(a * Laurent.monomial(1, k) * Laurent.monomial(1, -k), ra)


def test_e_free_values_are_fractions(teps):
    for x in (parse_scalar("1*e^1 + -1*e^1"), Laurent({0: 3}), Laurent.monomial(3),
              Laurent.monomial(1, 1) * Laurent.monomial(1, -1)):
        assert type(x) is Fraction
    assert Laurent({0: 3}) == 3 and Laurent({}) == 0
    entries = [v for term in teps.terms for factor in term for row in factor.data for v in row]
    laurent = [v for v in entries if isinstance(v, Laurent)]
    assert laurent and all(any(k != 0 for k in v.terms) for v in laurent)
    assert all(type(v) is Fraction for v in entries if not isinstance(v, Laurent))
    assert any(v for v in entries if type(v) is Fraction)
