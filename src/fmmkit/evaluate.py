"""Run verified schemes as algorithms.

One evaluator runs every scheme.  It walks a schedule of schemes level by
level, breadth first: at each level it splits the current batch of A and
B operands into blocks, forms every term's linear combination of the A
blocks and of the B blocks over the whole batch, and passes the results
down as the next, rank-times larger batch.  Below the last level each
operand is a scalar, so all leaf products are taken in one elementwise
multiply; the products are then folded back up through the S factors.
An r1-term scheme over an r2-term scheme so forms r1*r2 leaf products,
and the counter advances by the number actually formed.

The evaluator works on numpy arrays of any dtype.  Exact runs have one
entry point, multiply_recursive: it runs object arrays of Fraction, and
only schedules whose every level passes verify_exact.  Only the first
level may carry a support mask, and A must then be zero in the blocks
the mask excludes (single entries for a one-level schedule).
epsilon_error_scan substitutes each epsilon into the nonzero Laurent
entries and runs the same evaluator on float64 arrays, then fits the
error decay slope.
"""

import math
from dataclasses import dataclass

import numpy as np

from .matrices import Matrix
from .scalars import value_at
from .tensor import RATIONAL, FmmTensor, UnverifiedSchemeError, verify_exact


class MultiplicationCounter:
    """Counts base scalar multiplications during evaluation."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def tick(self, k=1):
        self.count += k


def _compile(t):
    """dims plus, for each factor slot P, Q, S, every term's nonzero
    entries as (row, col, value) triples: each factor's Matrix.nonzeros."""
    return t.dims, tuple(tuple(factor.nonzeros for factor in slot) for slot in zip(*t.terms))


def _combine(blocks, factors):
    """blocks (K, a, b, X, Y) -> (K*r, X, Y): for each batch entry, one
    linear combination of its blocks per term.  Unit coefficients, the
    most common kind, skip their multiply (as in the fold below): on
    Fraction entries it would cost as much as the addition."""
    K, _, _, X, Y = blocks.shape
    out = np.empty((K, len(factors), X, Y), dtype=blocks.dtype)
    for term, entries in enumerate(factors):
        acc = None
        for i, j, v in entries:
            piece = blocks[:, i, j] if v == 1 else v * blocks[:, i, j]
            acc = piece if acc is None else acc + piece
        out[:, term] = acc
    return out.reshape(K * len(factors), X, Y)


def _evaluate(levels, A, B):
    """A @ B through a schedule of compiled levels, outer level first.

    A and B are 2-D arrays of the schedule's composite dimensions.
    Returns the product and the number of leaf products formed.
    """
    a, b = A[None], B[None]
    for (m, n, p), (P, Q, _) in levels:
        K, M, N = a.shape
        Mi, Ni, Pi = M // m, N // n, b.shape[2] // p
        a = _combine(a.reshape(K, m, Mi, n, Ni).transpose(0, 1, 3, 2, 4), P)
        b = _combine(b.reshape(K, n, Ni, p, Pi).transpose(0, 1, 3, 2, 4), Q)
    c = a * b
    leaves = c.shape[0]
    for (m, n, p), (_, _, S) in reversed(levels):
        r = len(S)
        K, Mi, Pi = c.shape[0] // r, c.shape[1], c.shape[2]
        c = c.reshape(K, r, Mi, Pi)
        out = np.zeros((K, m, p, Mi, Pi), dtype=c.dtype)
        for term, entries in enumerate(S):
            for k, i, s in entries:
                out[:, i, k] += c[:, term] if s == 1 else s * c[:, term]
        c = out.transpose(0, 1, 3, 2, 4).reshape(K, m * Mi, p * Pi)
    return c[0], leaves


def _require_verified(t, what):
    report = verify_exact(t)
    if not report.passed:
        raise UnverifiedSchemeError("%s fails verification: %s" % (what, report))


def _check_mask_zeros(t, A):
    """A, a 2-D array split into t's m x n grid of equal blocks, must
    vanish in every block t's support mask excludes (single entries when
    A has t's own A shape)."""
    bm, bn = A.shape[0] // t.dims.m, A.shape[1] // t.dims.n
    for r, c in t.masked_out():
        hits = np.argwhere(A[r * bm:(r + 1) * bm, c * bn:(c + 1) * bn])
        if len(hits):
            i, j = hits[0]
            raise ValueError("A[%d,%d] must be zero under the support mask"
                             % (r * bm + i, c * bn + j))


def _schedule_dims(levels):
    M = N = P = 1
    for t in levels:
        M *= t.dims.m
        N *= t.dims.n
        P *= t.dims.p
    return M, N, P


def _check_schedule(levels):
    """The levels as a list.  Each must be exact and pass verify_exact,
    and only the first may carry a support mask: inner levels multiply
    linear combinations of blocks, which no mask constrains.  A level
    equal to one verified already in this call is not verified again."""
    levels = list(levels)
    if not levels:
        raise ValueError("a schedule needs at least one scheme")
    verified = []
    for idx, t in enumerate(levels, start=1):
        if not isinstance(t, FmmTensor):
            raise ValueError("schedule level %d is not a tensor" % idx)
        if t.field_mode != RATIONAL:
            raise ValueError("schedule level %d must be exact" % idx)
        if idx > 1 and t.support is not None:
            raise ValueError("schedule level %d is masked; only level 1 may be" % idx)
        if t not in verified:
            _require_verified(t, "schedule level %d" % idx)
            verified.append(t)
    return levels


def multiply_recursive(levels, A, B, counter=None):
    """Blockwise product through a schedule of exact schemes.

    levels is any iterable of schemes, outer level first; every level
    must pass verify_exact.  A and B must have exactly the composite
    dimensions (componentwise products over the levels), and A must be
    zero in the blocks the first level's support mask excludes; the
    result equals A*B.  When a counter is supplied it advances by the
    leaf products formed, the product of the ranks.
    """
    levels = _check_schedule(levels)
    M, N, P = _schedule_dims(levels)
    if (A.rows, A.cols) != (M, N) or (B.rows, B.cols) != (N, P):
        raise ValueError("schedule computes <%d,%d,%d>; got A %dx%d, B %dx%d"
                         % (M, N, P, A.rows, A.cols, B.rows, B.cols))
    A = np.array(A.data, dtype=object)
    _check_mask_zeros(levels[0], A)
    C, leaves = _evaluate([_compile(t) for t in levels], A, np.array(B.data, dtype=object))
    if counter is not None:
        counter.tick(leaves)
    return Matrix(C.tolist())


def count_multiplications(levels):
    """Base scalar multiplications of the schedule: the product of ranks."""
    total = 1
    for t in _check_schedule(levels):
        total *= t.rank
    return total


@dataclass(frozen=True)
class ErrorScan:
    samples: tuple  # ((eps, relative_error), ...) eps strictly decreasing
    fitted_slope: object  # float, or None when under two usable samples

    def __str__(self):
        lines = ["eps %.3e  rel_error %.6e" % s for s in self.samples]
        slope = ("%.4f" % self.fitted_slope
                 if self.fitted_slope is not None else "undefined")
        lines.append("fitted slope %s" % slope)
        return "\n".join(lines)


def _level_at(level, eps):
    dims, factors = level
    return dims, tuple(
        [tuple((i, j, value_at(v, eps)) for i, j, v in entries) for entries in slot]
        for slot in factors)


def epsilon_error_scan(t, A, B, eps_values):
    """Relative error of the scheme at concrete epsilon values.

    For each eps the Laurent factors are evaluated numerically and the
    bilinear scheme applied to A and B; the sample records the Frobenius
    error relative to the true product.  The slope of log(error) against
    log(eps) is fitted over samples above 100x machine epsilon, where
    rounding noise does not drown the signal; for a valid scheme it
    approximates the discrepancy order.  Non-finite evaluations (the
    negative-power coefficients overflow for tiny eps) yield an inf
    sample that the fit ignores.
    """
    eps_values = [float(e) for e in eps_values]
    if not eps_values:
        raise ValueError("need at least one epsilon value")
    if not all(0 < e < math.inf for e in eps_values):
        raise ValueError("epsilon values must be positive and finite")
    if any(a <= b for a, b in zip(eps_values, eps_values[1:])):
        raise ValueError("epsilon values must be strictly decreasing")
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    m, n, p = t.dims
    if A.shape != (m, n) or B.shape != (n, p):
        raise ValueError("expected A %dx%d and B %dx%d" % (m, n, n, p))
    _check_mask_zeros(t, A)
    level = _compile(t)
    target = A @ B
    target_norm = float(np.linalg.norm(target))
    if target_norm == 0.0:
        target_norm = 1.0

    samples = []
    with np.errstate(over="ignore", invalid="ignore"):
        for eps in eps_values:
            C, _ = _evaluate([_level_at(level, eps)], A, B)
            err = float(np.linalg.norm(C - target)) / target_norm
            if not math.isfinite(err):
                err = math.inf
            samples.append((eps, err))

    floor = 100.0 * np.finfo(float).eps
    xs = [math.log(e) for e, r in samples if math.isfinite(r) and r > floor]
    ys = [math.log(r) for e, r in samples if math.isfinite(r) and r > floor]
    slope = None
    if len(xs) >= 2:
        slope = float(np.polyfit(xs, ys, 1)[0])
    return ErrorScan(tuple(samples), slope)
