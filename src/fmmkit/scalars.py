"""Exact scalar arithmetic: rationals and Laurent polynomials in e.

Two scalar domains are used throughout the package:

* plain ``fractions.Fraction`` for exact rational work, and
* :class:`Laurent`, a finite sum  sum_k  q_k * e^k  with rational
  coefficients q_k and integer exponents k (negative powers allowed).

The zero Laurent scalar is the empty sum.  Every stored coefficient is
nonzero and exponents are unique, so equality is structural.
"""

import math
import re
from fractions import Fraction

INF = math.inf


def _as_coeff_map(value):
    """Coerce int/Fraction/Laurent to a {exponent: Fraction} map."""
    if isinstance(value, Laurent):
        return dict(value.terms)
    q = Fraction(value)
    return {0: q} if q else {}


class Laurent:
    """A Laurent polynomial in the parameter e over the rationals.

    Immutable.  ``terms`` maps integer exponents to nonzero Fraction
    coefficients; the empty map is zero.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        clean = {}
        for k, q in terms.items():
            q = Fraction(q)
            if q:
                clean[int(k)] = q
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Laurent scalars are immutable")

    @staticmethod
    def monomial(coeff, exponent=0):
        return Laurent({exponent: Fraction(coeff)})

    @staticmethod
    def from_rational(q):
        return Laurent({0: Fraction(q)})

    zero = None  # filled in after the class body

    # -- ring structure -------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Laurent):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == _as_coeff_map(other)
        return NotImplemented

    def __hash__(self):
        # Constants hash like their Fraction value so that equal scalars of
        # either domain collide (matrices of mixed provenance key dicts).
        if not self.terms:
            return hash(0)
        if len(self.terms) == 1 and 0 in self.terms:
            return hash(self.terms[0])
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, (Laurent, int, Fraction)):
            return NotImplemented
        out = dict(self.terms)
        for k, q in _as_coeff_map(other).items():
            s = out.get(k, 0) + q
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return Laurent(out)

    __radd__ = __add__

    def __neg__(self):
        return Laurent({k: -q for k, q in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (Laurent, int, Fraction)):
            return NotImplemented
        return self + (-other if isinstance(other, Laurent) else Laurent({0: -Fraction(other)}))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, (Laurent, int, Fraction)):
            return NotImplemented
        out = {}
        for k1, q1 in self.terms.items():
            for k2, q2 in _as_coeff_map(other).items():
                k = k1 + k2
                s = out.get(k, 0) + q1 * q2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return Laurent(out)

    __rmul__ = __mul__

    def __repr__(self):
        return "Laurent(%r)" % (self.terms,)

    def __str__(self):
        return format_scalar(self)

    # -- queries ---------------------------------------------------------

    def order(self):
        """Minimum exponent carrying a nonzero coefficient; +inf for zero."""
        return min(self.terms) if self.terms else INF

    def max_exponent(self):
        return max(self.terms) if self.terms else -INF

    def constant_part(self):
        """Coefficient of e^0."""
        return self.terms.get(0, Fraction(0))

    def coefficient(self, k):
        return self.terms.get(k, Fraction(0))

    def is_monomial(self):
        return len(self.terms) == 1

    def shift(self, k):
        """Multiply by e^k."""
        return Laurent({e + k: q for e, q in self.terms.items()})

    def evaluate(self, eps):
        """Numerical value at a concrete float eps (for error scans).

        A power of eps too large for a float counts as infinite, so the
        value is then inf or nan rather than an OverflowError.
        """
        total = 0.0
        for k, q in self.terms.items():
            try:
                power = eps**k
            except OverflowError:
                power = -INF if eps < 0 and k % 2 else INF
            total += float(q) * power
        return total

    def exact_div(self, other):
        """Exact division by another Laurent scalar.

        Raises ZeroDivisionError on a zero divisor and ValueError when the
        quotient is not itself a Laurent polynomial.
        """
        other = as_laurent(other)
        if not other:
            raise ZeroDivisionError("division by zero scalar")
        if not self:
            return Laurent.zero
        # Long division from the top exponent down over the stored terms;
        # every quotient exponent lies at or above order(self) - order(other).
        floor = self.order() - other.order()
        top = other.max_exponent()
        lead = other.terms[top]
        rem, quot = dict(self.terms), {}
        while rem:
            k = max(rem)
            if k - top < floor:
                raise ValueError("inexact Laurent division")
            c = rem[k] / lead
            quot[k - top] = c
            for e, d in other.terms.items():
                key = k - top + e
                s = rem.get(key, 0) - c * d
                if s:
                    rem[key] = s
                else:
                    rem.pop(key, None)
        return Laurent(quot)


Laurent.zero = Laurent({})


def as_laurent(value):
    """Lift int/Fraction to Laurent; pass Laurent through."""
    if isinstance(value, Laurent):
        return value
    return Laurent(_as_coeff_map(value))


def laurent_order(value):
    """Minimum e-exponent with nonzero coefficient; +inf for zero.

    Accepts plain rationals too (order 0 when nonzero).
    """
    return as_laurent(value).order()


def is_zero(value):
    if isinstance(value, Laurent):
        return not value.terms
    return value == 0


# -- parsing and formatting -----------------------------------------------
#
# Scalar token grammar (shared with the tensor file format):
#     scalar   = monomial ('+' monomial)*
#     monomial = rational ['*e^' integer]
#     rational = ['-'] digits ['/' digits]
# The unary minus binds to its monomial.  Whitespace around '+' is
# accepted; the canonical writer emits one space on each side.

_MONOMIAL_RE = re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?P<num>\d+)(?:/(?P<den>\d+))?"
    r"(?:\*e\^(?P<exp>[+-]?\d+))?\s*"
)


class ScalarParseError(ValueError):
    pass


def parse_scalar(text, laurent=True):
    """Parse one scalar token.

    Returns a Laurent scalar when ``laurent`` is true, otherwise a plain
    Fraction (and rejects any e-dependence).
    """
    src = text.strip()
    if not src:
        raise ScalarParseError("empty scalar token")
    terms = {}
    pos = 0
    first = True
    while pos < len(src):
        if not first:
            if src[pos] != "+":
                raise ScalarParseError(
                    "expected '+' between monomials in %r" % text
                )
            pos += 1
        m = _MONOMIAL_RE.match(src, pos)
        if not m or m.start() != pos:
            raise ScalarParseError("malformed monomial in %r near %r" % (text, src[pos:]))
        num = int(m.group("num"))
        den = int(m.group("den")) if m.group("den") else 1
        if den == 0:
            raise ScalarParseError("zero denominator in %r" % text)
        q = Fraction(num, den)
        if m.group("sign") == "-":
            q = -q
        k = int(m.group("exp")) if m.group("exp") else 0
        terms[k] = terms.get(k, Fraction(0)) + q
        pos = m.end()
        first = False
    value = Laurent(terms)
    if laurent:
        return value
    if any(k != 0 for k in value.terms):
        raise ScalarParseError("e-dependent scalar %r in rational mode" % text)
    return value.constant_part()


def format_rational(q):
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def format_scalar(value):
    """Canonical form: monomials in increasing exponent order, ' + ' joined."""
    if not isinstance(value, Laurent):
        return format_rational(value)
    if not value.terms:
        return "0"
    parts = []
    for k in sorted(value.terms):
        q = value.terms[k]
        if k == 0:
            parts.append(format_rational(q))
        else:
            parts.append("%s*e^%d" % (format_rational(q), k))
    return " + ".join(parts)
