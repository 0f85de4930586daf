"""Run verified schemes as algorithms.

One evaluator runs every scheme.  It walks a schedule of schemes level by
level, breadth first: at each level it splits the current batch of A and
B operands into blocks, forms every term's linear combination of the A
blocks and of the B blocks over the whole batch, and passes the results
down as the next, rank-times larger batch.  Below the last level each
operand is a scalar, so all leaf products are taken in one elementwise
multiply, and the same combination step folds them back up: a level's S
slot lists, for each output block, the terms that write it (_grouped).
An r1-term scheme over an r2-term scheme so forms r1*r2 leaf products,
and the counter advances by the number actually formed.

The evaluator works on numpy arrays of any dtype.  A coefficient of 1 or
-1 costs no multiply: its block is added, subtracted or negated.  Exact
runs have one entry point, multiply_recursive, which runs only schedules
whose every level passes verify_exact.  Every exact run reads each
level's P, Q and S coefficients as tensor._cleared gives them, integers
over one denominator per slot.  The operands are cleared outside the
algorithm, where diagonal scaling is exact: with A = diag(1/d) A' and
B = B' diag(1/e), d_i the lcm of row i's denominators in A and e_j that
of column j's in B, A @ B = diag(1/d) (A' @ B') diag(1/e).  So every run
computes scale * A' @ B' on integers, in int64 when max|A'| * max|B'|
times the product of the cleared coefficients' norms is below 2^63 (see
_level) and on Python ints otherwise, and divides each entry once,
exactly, by scale * d_i * e_j.  Laurent operands are cleared the same
way and run on object arrays.  Only the first level may carry a support
mask, and A must then be zero in the blocks the mask excludes (single
entries for a one-level schedule).
epsilon_error_scan runs all its epsilon values as one batch of the same
evaluator on float64 arrays, SCAN_CHUNK values per run: each Laurent
entry becomes an array of its values, one per epsilon, and each batch
entry reads its own.  It then fits the error decay slope.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .matrices import Matrix
from .scalars import Laurent, eps_power
from .tensor import RATIONAL, FmmTensor, UnverifiedSchemeError, _cleared, _width, verify_exact

# epsilon values per evaluator run of an error scan: a run's arrays grow
# with its batch, so a longer list runs in chunks of this many
SCAN_CHUNK = 64


class MultiplicationCounter:
    """Counts base scalar multiplications during evaluation."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def tick(self, k=1):
        self.count += k


def _combine(blocks, factors):
    """blocks (K, a, b, X, Y) -> (K*r, X, Y), r = len(factors): for each
    batch entry, one linear combination of its blocks per group of
    (i, j, coefficient) entries, and 0 for an empty group (a masked
    scheme leaves some output blocks untouched).  A coefficient is a
    scalar, or a float64 array of shape (K, 1, 1) that gives each batch
    entry its own (an error scan's Laurent entry at each epsilon).  A
    scalar coefficient of 1 or -1, the only kind in the bundled schemes,
    costs no multiply: its block is added or subtracted (negated when it
    is the group's first piece).  On Python ints a multiply costs about
    as much as an addition; on floats -x and a - x are bit-identical to
    (-1.0) * x and a + (-1.0) * x, so an array coefficient is always
    multiplied in."""
    K, _, _, X, Y = blocks.shape
    out = np.empty((K, len(factors), X, Y), dtype=blocks.dtype)
    for group, entries in enumerate(factors):
        acc = None
        for i, j, v in entries:
            x = blocks[:, i, j]
            if isinstance(v, np.ndarray):
                x, v = v * x, 1
            if acc is None:
                acc = x if v == 1 else -x if v == -1 else v * x
            elif v == 1:
                acc = acc + x
            elif v == -1:
                acc = acc - x
            else:
                acc = acc + v * x
        out[:, group] = 0 if acc is None else acc
    return out.reshape(K * len(factors), X, Y)


def _evaluate(levels, A, B):
    """A @ B through a schedule of _grouped levels, outer level first.

    A and B are arrays of the schedule's composite dimensions, (..., M, N)
    and (..., N, P), with the same leading batch axes; a 2-D pair is a
    batch of one.  Each batch entry is its own product, and a coefficient
    array (see _combine) gives each its own coefficient; its length is
    the batch's, so only a one-level schedule may carry one.  Returns the
    products, with A's leading axes, and the number of leaf products
    formed over the whole batch.
    """
    lead = A.shape[:-2]
    a, b = A.reshape(-1, *A.shape[-2:]), B.reshape(-1, *B.shape[-2:])
    for (m, n, p), (P, Q, _) in levels:
        K, M, N = a.shape
        Mi, Ni, Pi = M // m, N // n, b.shape[2] // p
        a = _combine(a.reshape(K, m, Mi, n, Ni).transpose(0, 1, 3, 2, 4), P)
        b = _combine(b.reshape(K, n, Ni, p, Pi).transpose(0, 1, 3, 2, 4), Q)
    c = a * b
    leaves = c.shape[0]
    for (m, n, p), (P, _, S) in reversed(levels):
        r = len(P)
        K, Mi, Pi = c.shape[0] // r, c.shape[1], c.shape[2]
        c = _combine(c.reshape(K, r, 1, Mi, Pi), S).reshape(K, m, p, Mi, Pi)
        c = c.transpose(0, 1, 3, 2, 4).reshape(K, m * Mi, p * Pi)
    return c.reshape(lead + c.shape[1:]), leaves


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
    equal to an earlier one is not verified again: the list holds that
    earlier level in its place, so equal levels are the same object."""
    levels = list(levels)
    if not levels:
        raise ValueError("a schedule needs at least one scheme")
    distinct = []
    for idx, t in enumerate(levels, start=1):
        if not isinstance(t, FmmTensor):
            raise ValueError("schedule level %d is not a tensor" % idx)
        if t.field_mode != RATIONAL:
            raise ValueError("schedule level %d must be exact" % idx)
        if idx > 1 and t.support is not None:
            raise ValueError("schedule level %d is masked; only level 1 may be" % idx)
        first = next((u for u in distinct if u == t), None)
        if first is None:
            _require_verified(t, "schedule level %d" % idx)
            distinct.append(t)
        else:
            levels[idx - 1] = first
    return levels


def _grouped(t, slots):
    """t as a level of the evaluator, (dims, (P, Q, S)), from its three
    slots' (term, row, col, value) entries in term order.  P and Q hold
    one group per term, its (row, col, value) entries; S holds one group
    per output block (i, k), at i * p + k, listing (term, 0, value) for
    each term whose S factor has value at (k, i), so _combine folds the
    products into the output blocks as it forms the operands' terms."""
    m, _, p = t.dims
    P, Q = (tuple([] for _ in range(t.rank)) for _ in range(2))
    S = tuple([] for _ in range(m * p))
    for groups, entries in zip((P, Q), slots):
        for term, i, j, v in entries:
            groups[term].append((i, j, v))
    for term, k, i, v in slots[2]:
        S[i * p + k].append((term, 0, v))
    return t.dims, (P, Q, S)


def _level(t):
    """t as the evaluator runs it, read from tensor._cleared: (level,
    scale, norm).  level is _grouped's, with the coefficients cleared to
    integers, so the level computes scale * A @ B, scale being the product
    of the slot denominators.

    norm is the product over the slots of the largest group's sum of
    |coefficient|, each raised to at least 1: a P or Q group is a term, an
    S group an output block.  For integer operands of magnitude at most a
    (A) and b (B), every partial sum of a combination at depth d is then
    at most a (or b) times the first d levels' P (or Q) norms, and every
    partial sum on the way back up at most the product of the leaves'
    bound and the S norms; so max(a, 1) * max(b, 1) times the levels'
    norms bounds the whole run.  Flooring at 1 covers the A-side and
    B-side combinations on their own (the plain product reads 0 when one
    operand is zero) and each cleared coefficient.
    """
    cleared = _cleared(t)
    level = _grouped(t, [list(zip(term.tolist(), row.tolist(), col.tolist(), num.tolist()))
                         for _, term, row, col, _, num in cleared])
    norm = math.prod(max(1, *(sum(abs(c) for *_, c in group) for group in groups))
                     for groups in level[1])
    return level, math.prod(slot[0] for slot in cleared), norm


def _cleared_operand(X, by_rows):
    """X's nonzeros with each row (by_rows) or column cleared of its
    denominators: ((rows, cols, values), d, top).  d[k] is the lcm of line
    k's denominators (a Laurent entry's is its coefficients' lcm), each
    value is its entry times its line's d, an integer or a Laurent with
    integer coefficients, and top is max(1, largest |value|), or None when
    X has a Laurent entry."""
    rows, cols, values = zip(*X.nonzeros) if X.nonzeros else ((),) * 3
    nums = [v.numerator for v in values]
    dens = [v.denominator for v in values]
    line = rows if by_rows else cols
    d = [1] * (X.rows if by_rows else X.cols)
    for k, den in zip(line, dens):
        if den != 1:
            d[k] = math.lcm(d[k], den)
    if max(d) > 1:
        nums = [num * (d[k] // den) for num, k, den in zip(nums, line, dens)]
    top = max([1, *map(abs, nums)]) if set(map(type, values)) <= {Fraction} else None
    return (rows, cols, nums), d, top


def _array(X, rows, cols, values, dtype):
    out = np.zeros((X.rows, X.cols), dtype=dtype)
    out[rows, cols] = values
    return out


def multiply_recursive(levels, A, B, counter=None):
    """Blockwise product through a schedule of exact schemes.

    levels is any iterable of schemes, outer level first; every level
    must pass verify_exact.  A and B must have exactly the composite
    dimensions (componentwise products over the levels), and A must be
    zero in the blocks the first level's support mask excludes; the
    result equals A*B.  When a counter is supplied it advances by the
    leaf products formed, the product of the ranks.

    Every run reads the levels' coefficients cleared to integers (see
    _level), clears each row of A and each column of B by the lcm of its
    denominators, and runs the cleared operands on integers: int64 when
    the bound on max|A'| * max|B'| is below 2^63 (tensor._width, the
    verifier's rule), Python ints otherwise, and object arrays when a
    Laurent entry is left.  Each result entry is divided once, exactly, by
    the cleared scale times its row's and its column's lcm.
    """
    levels = _check_schedule(levels)
    M, N, P = _schedule_dims(levels)
    if (A.rows, A.cols) != (M, N) or (B.rows, B.cols) != (N, P):
        raise ValueError("schedule computes <%d,%d,%d>; got A %dx%d, B %dx%d"
                         % (M, N, P, A.rows, A.cols, B.rows, B.cols))
    # _check_schedule gives equal levels as one object, cleared once
    built = {id(t): t for t in levels}
    built = {key: _level(t) for key, t in built.items()}
    compiled, scales, norms = zip(*(built[id(t)] for t in levels))
    scale = math.prod(scales)
    (a, d, top_a), (b, e, top_b) = _cleared_operand(A, True), _cleared_operand(B, False)
    dtype = (object if top_a is None or top_b is None
             else _width(top_a * top_b * math.prod(norms)))
    A, B = _array(A, *a, dtype), _array(B, *b, dtype)
    _check_mask_zeros(levels[0], A)
    C, leaves = _evaluate(compiled, A, B)
    if counter is not None:
        counter.tick(leaves)
    C = C.tolist()
    if scale * max(d) * max(e) != 1:
        C = [[Fraction(c, scale * di * ej) if not isinstance(c, Laurent)
              else c * Fraction(1, scale * di * ej) for c, ej in zip(row, e)]
             for row, di in zip(C, d)]
    return Matrix(C)


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


def _at_eps(level, eps_values):
    """level with float coefficients: each rational one as its float, and
    each Laurent one as a float64 array of shape (K, 1, 1), its values at
    the K eps_values.  Each distinct coefficient object is converted once;
    each distinct power of eps is taken once per eps, with eps_power, and
    each Laurent sums its terms in their order, so every value is
    Laurent.evaluate's bit for bit."""
    dims, slots = level
    # the level holds every coefficient, so its id names it for the whole call
    distinct = {id(v): v for groups in slots for entries in groups for _, _, v in entries}
    laurent = {key: v for key, v in distinct.items() if isinstance(v, Laurent)}
    powers = {k: np.array([eps_power(e, k) for e in eps_values])[:, None, None]
              for k in {k for v in laurent.values() for k in v.terms}}
    values = {key: float(v) for key, v in distinct.items() if key not in laurent}
    for key, v in laurent.items():
        values[key] = total = np.zeros((len(eps_values), 1, 1))
        for k, q in v.terms.items():
            total += float(q) * powers[k]
    return dims, tuple(tuple([(i, j, values[id(v)]) for i, j, v in entries]
                             for entries in groups) for groups in slots)


def epsilon_error_scan(t, A, B, eps_values):
    """Relative error of the scheme at concrete epsilon values.

    The scheme runs once per SCAN_CHUNK epsilon values, as one batch in
    which each eps has its own values of the Laurent entries (_at_eps)
    and its own product of A and B; the sample records the Frobenius
    error relative to the true product (relative to 1 when that is
    zero).  A sample does not depend on the chunk it runs in.  The slope
    of log(error) against log(eps) is fitted over samples above 100x
    machine epsilon, where rounding noise does not drown the signal; for
    a valid scheme it approximates the discrepancy order.  Non-finite
    evaluations (the negative-power coefficients overflow for tiny eps)
    yield an inf sample that the fit ignores.
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
    level = _grouped(t, [[(term, i, j, v) for term, factor in enumerate(slot)
                          for i, j, v in factor.nonzeros] for slot in zip(*t.terms)])
    target = A @ B
    target_norm = float(np.linalg.norm(target))
    if target_norm == 0.0:
        target_norm = 1.0

    samples = []
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(eps_values), SCAN_CHUNK):
            chunk = eps_values[start:start + SCAN_CHUNK]
            K = len(chunk)
            C, _ = _evaluate([_at_eps(level, chunk)], np.broadcast_to(A, (K, m, n)),
                             np.broadcast_to(B, (K, n, p)))
            for eps, c in zip(chunk, C):
                err = float(np.linalg.norm(c - target)) / target_norm
                samples.append((eps, err if math.isfinite(err) else math.inf))

    floor = 100.0 * np.finfo(float).eps
    xs = [math.log(e) for e, r in samples if math.isfinite(r) and r > floor]
    ys = [math.log(r) for e, r in samples if math.isfinite(r) and r > floor]
    slope = None
    if len(xs) >= 2:
        slope = float(np.polyfit(xs, ys, 1)[0])
    return ErrorScan(tuple(samples), slope)
