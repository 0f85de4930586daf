"""Shared randomized generators and mutation operators for the tests."""

import math
from fractions import Fraction

import numpy as np

from fmmkit.algebra import _check_unmasked, _joint_mode
from fmmkit.matrices import Matrix, _sparse
from fmmkit.scalars import Laurent, format_scalar, laurent_order
from fmmkit.tensor import (
    LAURENT,
    RATIONAL,
    ApproxReport,
    FmmTensor,
    Term,
    VerificationReport,
    _classical_coords,
    classical_map,
)


def laurent_copy(t):
    """t with every entry a Laurent scalar, mask kept."""
    return FmmTensor(t.dims, LAURENT, t.terms, t.support)


def rand_fraction(rng, zero_ok=True):
    num = rng.randint(-6, 6)
    while not zero_ok and num == 0:
        num = rng.randint(-6, 6)
    return Fraction(num, rng.choice((1, 1, 1, 2, 3, 4)))


def rand_laurent(rng, zero_ok=True):
    n = rng.randint(0 if zero_ok else 1, 2)
    terms = {}
    for _ in range(n):
        terms[rng.randint(-3, 3)] = rand_fraction(rng, zero_ok=False)
    value = Laurent(terms)
    while not zero_ok and not value:
        value = Laurent({rng.randint(-3, 3): rand_fraction(rng, zero_ok=False)})
    return value


def rand_scalar(rng, mode, zero_ok=True):
    if mode == LAURENT:
        return rand_laurent(rng, zero_ok=zero_ok)
    return rand_fraction(rng, zero_ok=zero_ok)


def rand_factor(rng, rows, cols, mode):
    """Random factor matrix, guaranteed nonzero."""
    data = [[rand_scalar(rng, mode) if rng.random() < 0.5 else 0 for _ in range(cols)] for _ in range(rows)]
    data[rng.randrange(rows)][rng.randrange(cols)] = rand_scalar(rng, mode, zero_ok=False)
    return Matrix(data)


def rand_tensor(rng, max_dim=3, max_rank=4, allow_support=True):
    m = rng.randint(1, max_dim)
    n = rng.randint(1, max_dim)
    p = rng.randint(1, max_dim)
    r = rng.randint(1, max_rank)
    mode = rng.choice((RATIONAL, LAURENT))
    support = None
    if allow_support and rng.random() < 0.3:
        support = [[rng.random() < 0.7 for _ in range(n)] for _ in range(m)]
        support[rng.randrange(m)][rng.randrange(n)] = True
    terms = [
        Term(
            rand_factor(rng, m, n, mode),
            rand_factor(rng, n, p, mode),
            rand_factor(rng, p, m, mode),
        )
        for _ in range(r)
    ]
    return FmmTensor((m, n, p), mode, terms, support=support)


def rand_invertible(rng, n):
    """Random invertible rational matrix built from triangular factors."""
    diag_pool = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-1, 2))
    low = [[Fraction(0)] * n for _ in range(n)]
    up = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        low[i][i] = rng.choice(diag_pool)
        up[i][i] = rng.choice(diag_pool)
        for j in range(i):
            if rng.random() < 0.5:
                low[i][j] = rand_fraction(rng)
            if rng.random() < 0.5:
                up[j][i] = rand_fraction(rng)
    perm = list(range(n))
    rng.shuffle(perm)
    pmat = [[Fraction(1) if j == perm[i] else Fraction(0) for j in range(n)] for i in range(n)]
    return Matrix(pmat) @ Matrix(low) @ Matrix(up)


def third_of_one_term(t, index):
    """t with term `index` (0-based) having its P factor scaled by 1/3."""
    terms = list(t.terms)
    terms[index] = terms[index]._replace(P=terms[index].P.scale(Fraction(1, 3)))
    return t.with_terms(terms)


def mutate_one_entry(t, rng):
    """Add a nonzero delta to a single factor entry.  For laurent tensors
    the delta's order is pushed low enough that the damage must show at
    discrepancy order <= 0, which approximate verification rejects."""
    i = rng.randrange(len(t.terms))
    term = t.terms[i]
    slot = rng.choice("PQS")
    factor = getattr(term, slot)
    r = rng.randrange(factor.rows)
    c = rng.randrange(factor.cols)
    if t.field_mode == RATIONAL:
        delta = rand_fraction(rng, zero_ok=False)
    else:
        others = [f for name, f in (("P", term.P), ("Q", term.Q), ("S", term.S)) if name != slot]
        floor = 0
        for f in others:
            orders = [laurent_order(v) for _, _, v in f.nonzero_entries()]
            floor += min(orders)
        delta = Laurent.monomial(rand_fraction(rng, zero_ok=False), -floor - rng.randint(0, 2))
    while True:
        new_factor = Matrix(
            [
                [
                    factor[(rr, cc)] + delta if (rr, cc) == (r, c) else factor[(rr, cc)]
                    for cc in range(factor.cols)
                ]
                for rr in range(factor.rows)
            ]
        )
        if new_factor:
            break
        delta = delta + delta  # doubling keeps the order, dodges cancellation
    new_term = Term(*(new_factor if name == slot else getattr(term, name) for name in "PQS"))
    terms = list(t.terms)
    terms[i] = new_term
    return t.with_terms(terms)


def fresh_copy(t):
    """t with every entry a new value object of its own, mask kept."""
    def copy(v):
        return Laurent(v.terms) if isinstance(v, Laurent) else Fraction(v.numerator, v.denominator)

    return t.with_terms([Term(*(_sparse(f.rows, f.cols, [(i, j, copy(v)) for i, j, v in f.nonzeros])
                                for f in term)) for term in t.terms])


def distinct_share(t):
    """(distinct value objects, nonzero entries) over t's factors."""
    values = [v for term in t.terms for f in term for _, _, v in f.nonzeros]
    return len({id(v) for v in values}), len(values)


# -- reference writing and composition ---------------------------------------

def reference_write_tensor(t):
    """io.write_tensor(t) as the dense writer that formats every cell."""
    out = ["fmm 1", "dims %d %d %d" % t.dims, "rank %d" % t.rank, "field %s" % t.field_mode]
    if t.support is not None:
        out.append("support")
        out += ["".join("1" if v else "0" for v in row) for row in t.support]
    for idx, term in enumerate(t.terms, start=1):
        out.append("term %d" % idx)
        for factor in term:
            out += [", ".join(map(format_scalar, row)) for row in factor.data]
            out.append("")
    out.pop()
    return "\n".join(out) + "\n"


def reference_kron(a, b):
    """a.kron(b) as the walk that forms a new product for every pair of
    nonzero entries."""
    rows, cols = b.rows, b.cols
    return _sparse(a.rows * rows, a.cols * cols,
                   sorted((i * rows + k, j * cols + l, x * y)
                          for i, j, x in a.nonzeros for k, l, y in b.nonzeros))


def reference_kronecker(t1, t2):
    """algebra.kronecker(t1, t2) built term pair by term pair with
    reference_kron."""
    _check_unmasked(t1, "kronecker")
    _check_unmasked(t2, "kronecker")
    dims = [x * y for x, y in zip(t1.dims, t2.dims)]
    return FmmTensor(dims, _joint_mode(t1, t2),
                     [Term(*map(reference_kron, a, b)) for a in t1.terms for b in t2.terms])


# -- reference clearing and construction ------------------------------------

def reference_cleared(t):
    """tensor._cleared(t) as the per-monomial walk that once built it: for
    each factor slot P, Q, S the pair (d, monomials), d the lcm of the
    slot's denominators and monomials the (term, i, j, k, c) of every
    nonzero monomial c/d * e^k, in term order and nonzeros order."""
    slots = []
    for factors in zip(*t.terms):
        monomials = [(term, i, j, k, q.numerator, q.denominator)
                     for term, factor in enumerate(factors) for i, j, v in factor.nonzeros
                     for k, q in (v.terms.items() if isinstance(v, Laurent) else ((0, v),))]
        d = math.lcm(*{den for *_, den in monomials})
        slots.append((d, [(term, i, j, k, num * (d // den))
                          for term, i, j, k, num, den in monomials]))
    return tuple(slots)


def reference_construction_error(dims, field_mode, terms):
    """The text of the ValueError FmmTensor raises for these terms, from
    the term-by-term checks it once made (shapes, then an e-dependent
    entry in rational mode, then an all-zero factor); None when every
    term passes."""
    m, n, p = dims
    for idx, (P, Q, S) in enumerate(terms, start=1):
        for name, f, shape in (("P", P, (m, n)), ("Q", Q, (n, p)), ("S", S, (p, m))):
            if (f.rows, f.cols) != shape:
                return "term %d: %s is %dx%d, expected %dx%d" % (idx, name, f.rows, f.cols, *shape)
        if field_mode == RATIONAL and not all(f.is_rational() for f in (P, Q, S)):
            return "e-dependent entry in a rational-mode tensor"
        if not (P and Q and S):
            return "term %d has an all-zero factor" % idx
    return None if terms else "a tensor needs at least one term"


# -- reference verification --------------------------------------------------
#
# The dict walk that expand and the two verifiers once ran, one exact
# product at a time in the tensor's own scalars.  Tests compare the array
# expansion and the reports against it.

def reference_expand(t):
    """Coefficient map of t as a dict of nonzero coefficients."""
    acc = {}
    for term in t.terms:
        p_entries = list(term.P.nonzero_entries())
        q_entries = list(term.Q.nonzero_entries())
        s_entries = list(term.S.nonzero_entries())
        for i, j, pv in p_entries:
            for j2, k, qv in q_entries:
                pq = pv * qv
                for k2, i2, sv in s_entries:
                    key = ((i, j), (j2, k), (k2, i2))
                    cur = acc.get(key)
                    val = pq * sv if cur is None else cur + pq * sv
                    if not val:
                        acc.pop(key, None)
                    else:
                        acc[key] = val
    return acc


def reference_residual_map(t, q=0, expansion=None):
    """reference_expand(t) - e^q * classical target, nonzero entries only."""
    delta = reference_expand(t) if expansion is None else dict(expansion)
    one = Laurent.monomial(1, q)
    for key in classical_map(t.dims, t.support):
        cur = delta.get(key)
        val = -one if cur is None else cur - one
        if not val:
            delta.pop(key, None)
        else:
            delta[key] = val
    return delta


def reference_verify_exact(t):
    failing = tuple(sorted(reference_residual_map(t).items()))
    return VerificationReport(not failing, failing, (t.dims.m * t.dims.n * t.dims.p) ** 2)


def reference_verify_approximate(t, mode="strict"):
    delta = reference_expand(t)

    def report_for(q):
        res = reference_residual_map(t, q, delta)
        if not res:
            return ApproxReport(True, math.inf, (), q)
        order = min(laurent_order(v) for v in res.values())
        blockers = tuple(sorted(key for key, v in res.items() if laurent_order(v) <= q))
        return ApproxReport(order - q >= 1, order - q, blockers, q)

    strict = report_for(0)
    if mode == "strict" or strict.valid:
        return strict
    key = next(iter(classical_map(t.dims, t.support)))
    q = laurent_order(delta.get(key, 0))
    if 1 <= q < math.inf:
        candidate = report_for(q)
        if candidate.valid:
            return candidate
    return strict


def classical_dense(dims):
    """Dense float classical tensor, axes ordered (m*n, n*p, p*m): the
    reference the search's structured kernels are checked against."""
    m, n, p = dims
    T = np.zeros((m * n, n * p, p * m))
    T.flat[_classical_coords(dims, None, np.intp)] = 1.0
    return T
