"""Shared randomized generators and mutation operators for the tests."""

import math
import operator
from fractions import Fraction

import numpy as np

from fmmkit.algebra import _check_unmasked, _joint_mode
from fmmkit.matrices import Matrix, _sparse
from fmmkit.scalars import Laurent, exact_div, format_scalar, laurent_order
from fmmkit.search.als import DEFAULT_GRID, FactorSet, _grid, _snap, _stacks
from fmmkit.tensor import (
    LAURENT,
    RATIONAL,
    ApproxReport,
    Dims,
    FmmTensor,
    Term,
    VerificationReport,
    _classical_coords,
    classical_map,
    verify_exact,
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


def rand_invertible(rng, n, mode=RATIONAL):
    """Random invertible matrix built from triangular factors.  In laurent
    mode the diagonal entries are monomials, units of the Laurent ring, so
    the inverse keeps Laurent entries."""
    diag_pool = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-1, 2))

    def diagonal():
        q = rng.choice(diag_pool)
        return Laurent.monomial(q, rng.randint(-2, 2)) if mode == LAURENT else q

    low = [[Fraction(0)] * n for _ in range(n)]
    up = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        low[i][i] = diagonal()
        up[i][i] = diagonal()
        for j in range(i):
            if rng.random() < 0.5:
                low[i][j] = rand_scalar(rng, mode)
            if rng.random() < 0.5:
                up[j][i] = rand_scalar(rng, mode)
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


# -- reference builders ------------------------------------------------------
#
# The symmetry images as the chain of tensors, and the search's float cast
# and snap as the dense walks over every cell, that they were once built by.

def reference_rotate_once(t):
    """(P,Q,S) -> (Q,S,P) on <n,p,m>, built and checked as a tensor."""
    m, n, p = t.dims
    return FmmTensor((n, p, m), t.field_mode, [Term(term.Q, term.S, term.P) for term in t.terms])


def reference_symmetry_apply(t, rotation=0, transpose=False):
    """algebra.symmetry_apply(t, rotation, transpose) as rotation
    reference_rotate_once steps, then a transposed tensor, and a copy for
    the identity: each one built and checked."""
    if rotation not in (0, 1, 2):
        raise ValueError("rotation must be 0, 1 or 2")
    if t.support is not None and (rotation != 0 or transpose):
        raise ValueError("symmetry_apply on a masked tensor must be the identity")
    out = t
    for _ in range(rotation):
        out = reference_rotate_once(out)
    if transpose:
        m, n, p = out.dims
        out = FmmTensor((m, p, n), out.field_mode,
                        [Term(term.S.transpose(), term.Q.transpose(), term.P.transpose())
                         for term in out.terms])
    if out is t:
        out = FmmTensor(t.dims, t.field_mode, list(t.terms), t.support)
    return out


def reference_factor_set(t):
    """als.factor_set_from_tensor(t) as the cast of every cell of the
    dense rows, a factor's rows flattened in order into its stack row."""
    if t.field_mode != RATIONAL:
        raise ValueError("only exact rational tensors cast to float factor stacks")
    return FactorSet(*(np.array([[float(v) for row in factor.data for v in row]
                                 for factor in factors])
                       for factors in zip(*t.terms)))


def reference_rationalize(f, dims, snap_grid=DEFAULT_GRID):
    """als.rationalize as the dense build: each stack row reshaped to its
    factor's rows, every cell snapped and each factor settled through
    Matrix(rows), zero cells included."""
    dims = Dims(*dims)
    f, = _stacks(dims, f)
    values, _, bounds = _grid(snap_grid)
    r = f.P.shape[0]
    stacks = [_snap(stack, bounds).reshape(r, a, -1) for stack, a in zip(f, dims)]
    terms = [Term(*(Matrix([[values[i] for i in row] for row in factor]) for factor in term))
             for term in zip(*(stack.tolist() for stack in stacks))]
    try:
        t = FmmTensor(dims, RATIONAL, terms)
    except ValueError:
        return None
    return t if verify_exact(t).passed else None


# -- reference arithmetic ----------------------------------------------------
#
# The dense walks Matrix's arithmetic once ran: every cell, zeros included,
# rebuilt through Matrix(data).

def _check_same_shape(a, b):
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch: %dx%d vs %dx%d" % (a.rows, a.cols, b.rows, b.cols))


def reference_add(a, b):
    """a + b, cell by cell."""
    _check_same_shape(a, b)
    return Matrix([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.data, b.data)])


def reference_sub(a, b):
    """a - b, cell by cell."""
    _check_same_shape(a, b)
    return Matrix([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a.data, b.data)])


def reference_matmul(a, b):
    """a @ b, each cell the sum over a row of a and a column of b."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch for product: %dx%d @ %dx%d"
                         % (a.rows, a.cols, b.rows, b.cols))
    cols = list(zip(*b.data))
    return Matrix([[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.data])


def reference_map(a, fn):
    """a.map(fn) with fn applied to every cell, zeros included; a.scale(s)
    and -a are the maps by s * x and -x."""
    return Matrix([[fn(x) for x in row] for row in a.data])


# -- reference elimination ---------------------------------------------------

def reference_eliminate(a, pivot_cols, jordan=False):
    """matrices._eliminate as the dense Bareiss elimination of the rows
    ``a`` (lists of every cell), in place.

    Column by column over the first ``pivot_cols`` columns, the first row
    at or below the current one with a nonzero entry is swapped up as the
    pivot.  Every other row below it (and above it too when ``jordan``)
    becomes (pivot * row - row[c] * pivot_row) / previous pivot; the
    division is exact because each entry is then a minor of the input.
    Only the columns right of the pivot are kept up to date.

    Returns (rank, last pivot, sign of the row permutation).  For a full
    rank square matrix the last pivot is the determinant up to that sign;
    after a Gauss-Jordan pass on [M | I] the right half is that pivot
    times the inverse.
    """
    rows, width = len(a), len(a[0])
    laurent = any(isinstance(x, Laurent) for row in a for x in row)
    div = exact_div if laurent else operator.truediv
    prev = Fraction(1)
    rank, sign = 0, 1
    for c in range(pivot_cols):
        if rank == rows:
            break
        p = next((r for r in range(rank, rows) if a[r][c]), None)
        if p is None:
            continue
        if p != rank:
            a[rank], a[p] = a[p], a[rank]
            sign = -sign
        prow = a[rank]
        piv = prow[c]
        others = range(rows) if jordan else range(rank + 1, rows)
        for i in others:
            row = a[i]
            f = row[c]
            if i == rank or (not f and piv == prev):
                continue
            for j in range(c + 1, width):
                row[j] = div(piv * row[j] - f * prow[j], prev)
        prev = piv
        rank += 1
    return rank, prev, sign


def reference_rank(m):
    """m.rank() by reference_eliminate over the dense rows."""
    return reference_eliminate([list(row) for row in m.data], m.cols)[0]


def reference_inverse(m):
    """m.inverse() by a dense Gauss-Jordan pass of reference_eliminate on
    [M | I], raising the ValueError texts Matrix.inverse raises."""
    n = m.rows
    a = [list(row + e) for row, e in zip(m.data, Matrix.identity(n).data)]
    rank, pivot, _ = reference_eliminate(a, n, jordan=True)
    if rank < n:
        raise ValueError("singular matrix")
    try:
        return Matrix([[exact_div(x, pivot) for x in row[n:]] for row in a])
    except ValueError:
        raise ValueError("inverse exists over Q(e) but leaves the Laurent scalars") from None


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


def argmin_snap(x, grid):
    """Each entry of the float array x snapped to the grid value at the
    least rounded distance |x - g|, the first in (|g|, g) order on a tie:
    an argmin reference, independent of the search's midpoint snap."""
    ordered = np.array([float(g) for g in sorted(grid, key=lambda g: (abs(g), g))])
    return ordered[np.abs(x[..., None] - ordered).argmin(axis=-1)]
