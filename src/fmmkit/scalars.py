"""Exact scalar arithmetic: rationals and Laurent polynomials in e.

A scalar is a ``fractions.Fraction`` or a :class:`Laurent`, a finite
sum  sum_k  q_k * e^k  with nonzero rational coefficients q_k at unique
integer exponents k (negative powers allowed).  Each value has one form:
a scalar is a Laurent exactly when it has a nonzero e-power.  The
Laurent constructor returns a Fraction for any e-free value, so
``Laurent({0: 3})``, ``e * e^-1`` and every e-free arithmetic result are
Fractions, and a Fraction never equals a Laurent.
:func:`laurent_order`, :func:`value_at` and :func:`exact_div` accept
either form.
"""

import math
import re
from fractions import Fraction

INF = math.inf


def _as_coeff_map(value):
    """Coerce int/Fraction/Laurent to a {exponent: Fraction} map."""
    if isinstance(value, Laurent):
        return value.terms
    q = Fraction(value)
    return {0: q} if q else {}


class Laurent:
    """A Laurent polynomial in the parameter e over the rationals.

    Immutable.  ``terms`` maps integer exponents to nonzero Fraction
    coefficients, one at least at a nonzero exponent.
    """

    __slots__ = ("terms",)

    def __new__(cls, terms=None):
        clean = {}
        for k, q in (terms or {}).items():
            q = Fraction(q)
            if q:
                clean[int(k)] = q
        if not clean.keys() - {0}:
            return clean.get(0, Fraction(0))
        self = object.__new__(cls)
        object.__setattr__(self, "terms", clean)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Laurent scalars are immutable")

    def __reduce__(self):
        return (Laurent, (dict(self.terms),))

    @staticmethod
    def monomial(coeff, exponent=0):
        return Laurent({exponent: coeff})

    # -- ring structure -------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Laurent):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, (Laurent, int, Fraction)):
            return NotImplemented
        out = dict(self.terms)
        for k, q in _as_coeff_map(other).items():
            out[k] = out.get(k, 0) + q
        return Laurent(out)

    __radd__ = __add__

    def __neg__(self):
        return Laurent({k: -q for k, q in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (Laurent, int, Fraction)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, (Laurent, int, Fraction)):
            return NotImplemented
        out, other = {}, _as_coeff_map(other)
        for k1, q1 in self.terms.items():
            for k2, q2 in other.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + q1 * q2
        return Laurent(out)

    __rmul__ = __mul__

    def __repr__(self):
        return "Laurent(%r)" % (self.terms,)

    def __str__(self):
        return format_scalar(self)

    # -- queries ---------------------------------------------------------

    def order(self):
        """Minimum exponent carrying a nonzero coefficient."""
        return min(self.terms)

    def is_monomial(self):
        return len(self.terms) == 1

    @property
    def denominator(self):
        """The lcm of the coefficients' denominators, so that, as for a
        Fraction, the value is numerator / denominator."""
        return math.lcm(*(q.denominator for q in self.terms.values()))

    @property
    def numerator(self):
        """The value times its denominator: integer coefficients."""
        return self * self.denominator

    def evaluate(self, eps):
        """Numerical value at a concrete float eps.  An error scan
        (evaluate.epsilon_error_scan) computes the same value, bit for bit,
        as one array over its epsilons.

        A power of eps too large for a float counts as infinite, so the
        value is then inf or nan rather than an OverflowError.
        """
        total = 0.0
        for k, q in self.terms.items():
            total += float(q) * eps_power(eps, k)
        return total


def eps_power(eps, k):
    """eps**k for a float eps, a power too large for a float counting as
    infinite (signed as the power would be)."""
    try:
        return eps**k
    except OverflowError:
        return -INF if eps < 0 and k % 2 else INF


def laurent_order(value):
    """Minimum e-exponent with nonzero coefficient; +inf for zero."""
    if isinstance(value, Laurent):
        return value.order()
    return 0 if value else INF


def value_at(value, eps):
    """Numerical value of a scalar of either form at a float eps."""
    return value.evaluate(eps) if isinstance(value, Laurent) else float(value)


def exact_div(a, b):
    """Exact quotient a / b of two scalars of either form.

    Raises ZeroDivisionError on a zero divisor and ValueError when the
    quotient is not itself a Laurent polynomial.
    """
    if not b:
        raise ZeroDivisionError("division by zero scalar")
    if not a:
        return Fraction(0)
    # Long division from the top exponent down over the stored terms;
    # every quotient exponent lies at or above order(a) - order(b).
    num, den = _as_coeff_map(a), _as_coeff_map(b)
    floor = min(num) - min(den)
    top = max(den)
    lead = den[top]
    rem, quot = dict(num), {}
    while rem:
        k = max(rem)
        if k - top < floor:
            raise ValueError("inexact Laurent division")
        c = rem[k] / lead
        quot[k - top] = c
        for e, d in den.items():
            key = k - top + e
            s = rem.get(key, 0) - c * d
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return Laurent(quot)


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
    """Parse one scalar token; with ``laurent`` false any e-dependence
    is rejected."""
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
        try:
            num = int(m.group("num"))
            den = int(m.group("den")) if m.group("den") else 1
            k = int(m.group("exp")) if m.group("exp") else 0
        except ValueError as exc:
            # Python refuses to convert integers of more than 4300 digits
            raise ScalarParseError("numeral near %r: %s" % (src[pos:pos + 20], exc)) from None
        if den == 0:
            raise ScalarParseError("zero denominator in %r" % text)
        q = Fraction(num, den)
        if m.group("sign") == "-":
            q = -q
        terms[k] = terms.get(k, Fraction(0)) + q
        pos = m.end()
        first = False
    value = Laurent(terms)
    if not laurent and isinstance(value, Laurent):
        raise ScalarParseError("e-dependent scalar %r in rational mode" % text)
    return value


def format_rational(q):
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def format_scalar(value):
    """Canonical form: monomials in increasing exponent order, ' + ' joined."""
    if not isinstance(value, Laurent):
        return format_rational(value)
    parts = []
    for k in sorted(value.terms):
        q = value.terms[k]
        if k == 0:
            parts.append(format_rational(q))
        else:
            parts.append("%s*e^%d" % (format_rational(q), k))
    return " + ".join(parts)
