"""FMM tensor data model and verification.

A tensor here is a sum of rank-one terms P_i (x) Q_i (x) S_i describing a
bilinear matrix-product scheme for <m,n,p>: P_i is m x n, Q_i is n x p and
S_i is p x m (the output factor lives in the dual slot, so the scheme
computes C = sum <P_i,A> <Q_i,B> S_i^T).

A tensor stores one form.  For each slot P, Q and S it keeps int arrays
term, row, col and value over the slot's nonzero entries, in term order
and then each factor's row-major order (``entries``); value indexes one
tuple of the tensor's distinct value objects (``values``), each a
nonzero Fraction or Laurent.  io.parse_tensor fills the arrays straight
from its row tables (_from_arrays); a tensor built from terms takes
them from its factors' nonzeros, whose entries each Matrix settled when
it was built, telling the value objects apart by id once.  Either way
the constructor makes the same checks, with the same errors in the same
order.  ``terms`` is a read-only view: the Terms the tensor was built
from, or, for a tensor built from arrays, Terms of Matrix factors built
on first use (sharing the value objects) and then kept.  Equality
compares the arrays and each entry's value.

Verification expands the terms into the full (mn) x (np) x (pm) coefficient
array and compares it to the classical tensor

    sum_{i,j,k}  E_i^j (x) E_j^k (x) E_k^i

entrywise: equality of every coefficient is exactly the Brent system, one
cubic equation per coordinate, (mnp)^2 in total.  Approximate (laurent)
schemes pass when the difference vanishes at e -> 0, that is when every
residual coefficient has e-order >= 1.  Both checks subtract the same
classical target, scaled by e^q in approximate verification (q = 0 for
exact), from the expansion: a rational tensor's residual stays rational
under either check.  Every form of the classical tensor here comes from
one builder of its coordinates, _classical_coords; the search reads the
tensor only through its structure, one matrix product per term.

The expansion runs on integers.  _cleared, the one place a scheme's
denominators are cleared (the evaluator reads it too), reads the stored
arrays once per check, and the tensor keeps no cleared form between
checks: for each factor slot P, Q, S it takes the lcm d of the slot's
denominators and gives, as columns over every nonzero monomial
c/d * e^k, its term index, row, column, exponent k (0 in rational mode)
and integer numerator c.  Only the distinct values the slot uses, a
handful in a parsed scheme, are split into monomials in Python, each
once, and every entry gathers its value's monomials as an array slice.
With scale d_P * d_Q * d_S, scale times the expansion is a
sum of integer products p * q * s.  The products are formed as per-term
outer products of index arrays, sorted once by (coordinate, exponent)
key and summed with np.add.reduceat; the classical target, scale * e^q
at each classical coordinate, is subtracted the same way, and Python
scalars are built only for the nonzero coordinates left.

Nothing rounds.  Sums run in int64 only under a proven bound: every
partial sum is at most sum_i |P_i|_1 |Q_i|_1 |S_i|_1 + scale in
magnitude (1-norms over the cleared numerators), and that bound must be
below 2^63.  A slot's cleared numerators are int64 when its 1-norm is,
which that bound implies.  Keys are int64 only when (mn)(np)(pm) times
the exponent span is below 2^63.  Otherwise the same code runs on
object arrays of Python ints.
"""

import math
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from operator import attrgetter, floordiv, itemgetter, mul

import numpy as np

from .matrices import _sparse
from .scalars import Laurent, integral, laurent_order

RATIONAL = "rational"
LAURENT = "laurent"

Dims = namedtuple("Dims", ["m", "n", "p"])

Term = namedtuple("Term", ["P", "Q", "S"])

# one slot's nonzero entries: term index, row, column and index into values
Entries = namedtuple("Entries", ["term", "row", "col", "value"])


def _settled_dims(dims):
    """dims as Dims: exactly three values, each through scalars.integral
    and each positive, or a ValueError that names dims."""
    values = tuple(dims)
    if len(values) != 3:
        raise ValueError("dims must be three integers, got %r" % (dims,))
    settled = Dims(*(integral(d, "dims") for d in values))
    if min(settled) < 1:
        raise ValueError("dims must be positive, got %r" % (values,))
    return settled


class FmmTensor:
    """Immutable sum of rank-one terms with optional A-support mask.

    Stored as the nonzero entries of each slot P, Q, S (``entries``, one
    Entries of int arrays per slot) over one tuple of the tensor's
    distinct value objects (``values``); ``terms`` is a view of them.
    """

    __slots__ = ("dims", "field_mode", "rank", "values", "entries", "support", "_terms")

    def __init__(self, dims, field_mode, terms, support=None):
        dims = _settled_dims(dims)
        terms = [x if type(x) is Term else Term._make(x) for x in terms]
        # the first term with a factor of the wrong shape ends the stored
        # terms, and _store raises its error after checking those
        bad, error = len(terms), None
        for name, factors, want in zip("PQS", zip(*terms), _shapes(dims)):
            got = list(map(attrgetter("rows", "cols"), factors[:bad]))
            if got.count(want) != len(got):
                bad = next(k for k, shape in enumerate(got) if shape != want)
                error = "term %d: %s is %dx%d, expected %dx%d" % (bad + 1, name, *got[bad], *want)
        kept = tuple(terms[:bad])
        # every P factor's nonzeros in term order, then every Q's and S's
        nonzeros = [f.nonzeros for f in chain.from_iterable(zip(*kept))]
        counts = list(map(len, nonzeros))
        flat = list(chain.from_iterable(nonzeros))
        row, col = (np.fromiter(map(itemgetter(k), flat), np.intp, len(flat)) for k in (0, 1))
        # the distinct value objects, each read from the last entry that
        # holds it: the tensor holds each while it lives, so its id names it
        ids = np.fromiter(map(id, map(itemgetter(2), flat)), np.uintp, len(flat))
        distinct, which = np.unique(ids, return_inverse=True)
        last = np.zeros(len(distinct), np.intp)
        last[which] = np.arange(len(flat))
        rank = len(kept)
        columns = (np.repeat(np.tile(np.arange(rank), 3), counts), row, col,
                   which.astype(np.intp))
        ends = (0, sum(counts[:rank]), sum(counts[:2 * rank]), None)
        self._store(dims, field_mode, rank, tuple([flat[k][2] for k in last.tolist()]),
                    [Entries(*(c[lo:hi] for c in columns)) for lo, hi in zip(ends, ends[1:])],
                    support, error)
        object.__setattr__(self, "_terms", kept)

    def _store(self, dims, field_mode, rank, values, entries, support, error=None):
        """Check and keep the stored form of rank terms.  error is the
        error of the term after them when it was cut off (a factor of the
        wrong shape).  The errors are a term-by-term walk's, which stops at
        the first term with a wrong shape or an all-zero factor: an
        e-dependent entry of a rational-mode tensor in the terms walked
        comes first, then that term's error."""
        if field_mode not in (RATIONAL, LAURENT):
            raise ValueError("field_mode must be %r or %r" % (RATIONAL, LAURENT))
        empty = np.flatnonzero(np.logical_or.reduce(
            [np.bincount(e.term, minlength=rank) == 0 for e in entries]))
        checked = rank
        if len(empty):
            checked = int(empty[0]) + 1
            error = "term %d has an all-zero factor" % checked
        if field_mode == RATIONAL and any(issubclass(kind, Laurent)
                                          for kind in set(map(type, values))):
            laurent = np.fromiter((isinstance(v, Laurent) for v in values), bool, len(values))
            if any(laurent[e.value[e.term < checked]].any() for e in entries):
                raise ValueError("e-dependent entry in a rational-mode tensor")
        if error is not None:
            raise ValueError(error)
        if not rank:
            raise ValueError("a tensor needs at least one term")
        if support is not None:
            support = tuple(tuple(bool(v) for v in row) for row in support)
            if len(support) != dims.m or any(len(r) != dims.n for r in support):
                raise ValueError("support mask must be %dx%d" % (dims.m, dims.n))
            if not any(v for row in support for v in row):
                raise ValueError("support mask allows no entry")
        for e in entries:
            for column in e:
                column.flags.writeable = False
        for name, value in (("dims", dims), ("field_mode", field_mode), ("rank", rank),
                            ("values", values), ("entries", tuple(entries)),
                            ("support", support), ("_terms", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("tensors are immutable")

    def __reduce__(self):
        return (_from_arrays, (self.dims, self.field_mode, self.rank, self.values,
                               self.entries, self.support))

    @property
    def terms(self):
        """The terms as Term(P, Q, S) Matrix factors: those the tensor was
        built from, or, for a tensor built from arrays, built from the
        entries on first use (sharing the value objects) and then kept."""
        if self._terms is None:
            slots = []
            for (term, row, col, value), (rows, cols) in zip(self.entries, _shapes(self.dims)):
                nonzeros = tuple(zip(row.tolist(), col.tolist(),
                                     map(self.values.__getitem__, value.tolist())))
                ends = np.searchsorted(term, np.arange(self.rank + 1)).tolist()
                slots.append([_sparse(rows, cols, nonzeros[a:b]) for a, b in zip(ends, ends[1:])])
            object.__setattr__(self, "_terms", tuple(map(Term, *slots)))
        return self._terms

    def __eq__(self, other):
        if not isinstance(other, FmmTensor):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.field_mode == other.field_mode
            and self.rank == other.rank
            and self.support == other.support
            and all(np.array_equal(a.term, b.term) and np.array_equal(a.row, b.row)
                    and np.array_equal(a.col, b.col)
                    and list(map(self.values.__getitem__, a.value.tolist()))
                    == list(map(other.values.__getitem__, b.value.tolist()))
                    for a, b in zip(self.entries, other.entries))
        )

    def __repr__(self):
        return "FmmTensor(<%d,%d,%d;%d>, %s%s)" % (
            self.dims.m, self.dims.n, self.dims.p, self.rank, self.field_mode,
            ", masked" if self.support else "",
        )

    def masked_out(self):
        """The (row, col) positions of A the support mask excludes, in
        row-major order; none when the tensor is unmasked."""
        return tuple((r, c) for r, row in enumerate(self.support or ())
                     for c, allowed in enumerate(row) if not allowed)

    def with_terms(self, terms):
        return FmmTensor(self.dims, self.field_mode, terms, self.support)


def _shapes(dims):
    """The (rows, cols) of a <m,n,p> tensor's P, Q and S factors."""
    m, n, p = dims
    return (m, n), (n, p), (p, m)


def _from_arrays(dims, field_mode, rank, values, entries, support=None):
    """The tensor of rank terms whose slot P, Q and S nonzeros are the
    Entries entries over the value objects values, checked as FmmTensor
    checks its terms.  The caller keeps the stored form's invariant: each
    slot's int arrays in term order and then row-major, positions inside
    the slot's shape, and every value a nonzero Fraction or Laurent."""
    t = object.__new__(FmmTensor)
    t._store(_settled_dims(dims), field_mode, rank, tuple(values),
             [Entries(*map(np.asarray, e)) for e in entries], support)
    return t


def classical_tensor(dims, support=None):
    """The classical scheme: one term per allowed (i, j, k) product, in
    (i, j, k) order, each factor built from its single nonzero.

    With a support mask, (i, j) pairs outside the mask are dropped, giving
    the target tensor of a partial matrix product.
    """
    dims = _settled_dims(dims)
    m, n, p = dims
    one = Fraction(1)
    terms = [Term(_sparse(m, n, ((i, j, one),)), _sparse(n, p, ((j, k, one),)),
                  _sparse(p, m, ((k, i, one),)))
             for i in range(m) for j in range(n) if support is None or support[i][j]
             for k in range(p)]
    return FmmTensor(dims, RATIONAL, terms, support)


_INT64_LIMIT = 2**63


def _cleared(t):
    """t's factor coefficients as integers over one denominator per slot.

    For each factor slot P, Q, S the columns (d, term, row, col, exp, num):
    d is the lcm of the slot's denominators, and each nonzero monomial
    c/d * e^k at (row, col) of a factor gives its term index, row, column,
    exponent k (0 for a rational entry) and integer numerator c, in the
    stored entries' order.  The columns are arrays: term, row and col of
    indices, exp and num int64 when they fit (num when the slot's 1-norm
    does) and Python ints otherwise.  Only the distinct values the slot
    uses are split into their monomials, each once, and every entry
    gathers its value's monomials as an array slice.  The one place a
    scheme's denominators are cleared: the verifier and the evaluator both
    read it.
    """
    slots = []
    for term, row, col, value in t.entries:
        # the distinct values the slot uses, the uses of each, each entry's
        # index among them, and their monomials (k, q) with the cleared
        # numerators
        uses = np.bincount(value)
        used = np.flatnonzero(uses)
        which = (np.cumsum(uses > 0) - 1)[value]
        monomials = [v.terms.items() if isinstance(v, Laurent) else ((0, v),)
                     for v in map(t.values.__getitem__, used.tolist())]
        exps, qs = zip(*chain.from_iterable(monomials))
        dens = list(map(attrgetter("denominator"), qs))
        d = math.lcm(*set(dens))
        nums = list(map(mul, map(attrgetter("numerator"), qs), map(floordiv, repeat(d), dens)))
        # the slot's 1-norm counts a distinct monomial once per use
        size = np.fromiter(map(len, monomials), np.intp, len(monomials))
        norm = sum(map(mul, map(abs, nums), np.repeat(uses[used], size).tolist()))
        exp, num = _column(exps, max(map(abs, exps))), _column(nums, norm)
        if len(exps) > len(monomials):
            # each entry becomes the run of its value's monomials
            runs = size[which]
            which = np.repeat((np.cumsum(size) - size)[which], runs) + _within(runs)
            term, row, col = (np.repeat(x, runs) for x in (term, row, col))
        slots.append((d, term, row, col, exp[which], num[which]))
    return tuple(slots)


def _within(runs):
    """Each element's index within its run, for consecutive runs of the
    given lengths."""
    return np.arange(runs.sum()) - np.repeat(np.cumsum(runs) - runs, runs)


def _width(bound):
    """dtype for values at most `bound` in magnitude: int64 when bound is
    below 2^63, else object (Python ints)."""
    return np.int64 if bound < _INT64_LIMIT else object


def _column(values, bound):
    """The integers values, each at most `bound` in magnitude, as an array
    of dtype _width(bound)."""
    return np.fromiter(values, _width(bound), len(values))


def _key_dtype(dims, span):
    """dtype of the coordinate * span + exponent sort keys of a <m,n,p>
    expansion whose exponents span `span` values."""
    m, n, p = dims
    return _width(m * n * n * p * p * m * span)


def _coordinate(dims, key):
    """Flat coordinate of a ((i,j), (j',k), (k',i')) triple; KeyError when
    the triple is malformed or out of range."""
    m, n, p = dims
    try:
        (i, j), (j2, k), (k2, i2) = key
        inside = (0 <= i < m and 0 <= j < n and 0 <= j2 < n and 0 <= k < p
                  and 0 <= k2 < p and 0 <= i2 < m)
    except (TypeError, ValueError):
        inside = False
    if not inside:
        raise KeyError(key)
    return ((i * n + j) * (n * p) + j2 * p + k) * (p * m) + k2 * m + i2


def _triples(dims, coords):
    """Coordinate triples of flat coordinates, as Python ints."""
    m, n, p = dims
    out = []
    for c in coords.tolist():
        rest, s = divmod(c, p * m)
        a, b = divmod(rest, n * p)
        out.append((divmod(a, n), divmod(b, p), divmod(s, m)))
    return out


class CoefficientMap(Mapping):
    """Read-only sparse coefficient map: coordinate triple -> nonzero scalar.

    Backed by arrays sorted by (coordinate, exponent) with no zero entry:
    the coefficient of e^(lo + exp[x]) at flat coordinate coord[x] is
    num[x] / scale.  Each value is built when it is looked up.
    """

    __slots__ = ("dims", "coord", "exp", "num", "lo", "span", "scale", "_first")

    def __init__(self, dims, coord, exp, num, lo, span, scale):
        self.dims = dims
        self.coord, self.exp, self.num = coord, exp, num
        self.lo, self.span, self.scale = lo, span, scale
        self._first = _run_starts(coord)

    def __getitem__(self, key):
        c = _coordinate(self.dims, key)
        a, b = np.searchsorted(self.coord, [c, c + 1])
        if a == b:
            raise KeyError(key)
        return Laurent({self.lo + k: Fraction(v, self.scale)
                        for k, v in zip(self.exp[a:b].tolist(), self.num[a:b].tolist())})

    def __iter__(self):
        return iter(_triples(self.dims, self.coord[self._first]))

    def __len__(self):
        return len(self._first)


def _run_starts(a):
    """Indices at which a run of equal values starts in the sorted array a."""
    return np.flatnonzero(np.concatenate((np.ones(min(len(a), 1), dtype=bool),
                                          a[1:] != a[:-1])))


def _sum_by_key(key, num, span):
    """Sum the values of equal keys coordinate * span + exponent offset,
    dropping zero sums; returns the coord, exp and num arrays sorted by
    key.  The sums are exact, so the order within a key cannot matter and
    the sort need not be stable."""
    order = np.argsort(key)
    key = key[order]
    first = _run_starts(key)
    num = np.add.reduceat(num[order], first)
    key = key[first]
    nonzero = num != 0
    key, num = key[nonzero], num[nonzero]
    return key // span, key % span, num


def _products(t):
    """Every product of t's expansion, as arrays over the products: term
    index, key (flat coordinate * span + exponent offset from lo) and value
    times the scale; then lo, the exponent span and the scale."""
    m, n, p = t.dims
    # per slot: each term's monomial count and first monomial, and the
    # monomials' flat positions, exponents above the slot's lowest and
    # cleared numerators; and each term's cleared factor 1-norm, which
    # cannot wrap: the numerators are int64 only when the slot's 1-norm
    # fits.  The bound is at least every slot's 1-norm, so they are int64
    # whenever the bound allows int64 values.
    slots, norms, scale, lo, span = [], [], 1, 0, 1
    for (d, term, row, col, exp, num), cols in zip(_cleared(t), (n, p, m)):
        count = np.bincount(term, minlength=t.rank)
        first = np.cumsum(count) - count
        low, high = int(exp.min()), int(exp.max())
        exps = exp.astype(_width(max(-low, high, high - low))) - low
        slots.append((count, first, row * cols + col, exps, num))
        scale *= d
        lo += low
        span += high - low
        norms.append(np.add.reduceat(np.abs(num), first).tolist())
    bound = sum(map(math.prod, zip(*norms))) + scale
    counts = [slot[0] for slot in slots]
    per_term = counts[0] * counts[1] * counts[2]
    term = np.repeat(np.arange(t.rank), per_term)
    # a product's index within its term, read as mixed-radix digits: its
    # P monomial, Q monomial and S monomial
    rest = _within(per_term)
    radices = (counts[1] * counts[2], counts[2], np.ones_like(counts[2]))
    kd, vd = _key_dtype(t.dims, span), _width(bound)
    # key = ((posP * np + posQ) * pm + posS) * span + expP + expQ + expS,
    # summed one slot at a time from per-monomial parts
    strides = (n * p * p * m * span, p * m * span, span)
    key = np.zeros(len(term), dtype=kd)
    num = np.ones(len(term), dtype=vd)
    for (_, first, pos, exps, nums), radix, stride in zip(slots, radices, strides):
        pick, rest = np.divmod(rest, radix[term])
        pick += first[term]
        key += (pos.astype(kd) * stride + exps.astype(kd))[pick]
        num *= nums.astype(vd)[pick]
    return term, key, num, lo, span, scale


def expand(t):
    """Coefficient array of the tensor as a sparse map.

    Keys are ((i,j), (j',k), (k',i')) coordinate triples (0-based); values
    are the nonzero coefficients.  The result is a read-only
    :class:`CoefficientMap` over arrays: the sum_i nnz(P_i) nnz(Q_i)
    nnz(S_i) products (counting monomials for laurent entries) are formed
    from t's factors' nonzeros as integers over one denominator per slot,
    sorted once by (coordinate, exponent) and summed.  Values and keys are int64
    under the bounds in the module docstring and Python ints otherwise, so
    the map is exact either way.
    """
    key, num, lo, span, scale = _products(t)[1:]
    return CoefficientMap(t.dims, *_sum_by_key(key, num, span), lo, span, scale)


def _classical_coords(dims, support, dtype):
    """Flat coordinates of the classical tensor's nonzero coefficients, in
    (i, j, k) order, which is ascending, skipping the (i, j) the support
    mask excludes: each is the C-order index into the dense (mn, np, pm)
    array."""
    m, n, p = dims
    i, j, k = (x.ravel() for x in np.indices((m, n, p)))
    if support is not None:
        allowed = np.array(support, dtype=bool)[i, j]
        i, j, k = i[allowed], j[allowed], k[allowed]
    i, j, k = (x.astype(dtype) for x in (i, j, k))
    return ((i * n + j) * (n * p) + j * p + k) * (p * m) + k * m + i


def classical_map(dims, support=None):
    """Sparse coefficient map of the classical tensor (all coefficients 1),
    keyed in (i, j, k) order."""
    dims = Dims(*dims)
    return dict.fromkeys(_triples(dims, _classical_coords(dims, support, _key_dtype(dims, 1))),
                         Fraction(1))


def _residual(t, expansion, q):
    """expansion - e^q * classical target of t, as a CoefficientMap; the
    target is scaled into the expansion's integers."""
    lo = min(expansion.lo, q)
    span = max(expansion.lo + expansion.span, q + 1) - lo
    kd = _key_dtype(t.dims, span)
    target = _classical_coords(t.dims, t.support, kd)
    key = np.concatenate((expansion.coord.astype(kd) * span + expansion.exp.astype(kd)
                          + (expansion.lo - lo), target * span + (q - lo)))
    num = np.concatenate((expansion.num,
                          np.full(len(target), -expansion.scale, dtype=expansion.num.dtype)))
    return CoefficientMap(t.dims, *_sum_by_key(key, num, span), lo, span, expansion.scale)


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    failing_equations: tuple
    total_equations: int

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        ok = self.total_equations - len(self.failing_equations)
        return "%s %d/%d equations" % (status, ok, self.total_equations)


@dataclass(frozen=True)
class ApproxReport:
    valid: bool
    discrepancy_order: object  # int or +inf
    worst_negative_terms: tuple
    scaling: int = 0

    def __str__(self):
        status = "VALID" if self.valid else "INVALID"
        order = "inf" if self.discrepancy_order == math.inf else str(self.discrepancy_order)
        extra = " scaling e^%d" % self.scaling if self.scaling else ""
        return "%s discrepancy_order %s%s" % (status, order, extra)


class UnverifiedSchemeError(ValueError):
    """An exact scheme was asked to run but fails verify_exact."""


def verify_exact(t):
    """Check the full Brent system: expansion == classical, entrywise.

    Only rational-mode tensors may be verified exactly; laurent tensors go
    through :func:`verify_approximate`.
    """
    if t.field_mode != RATIONAL:
        raise ValueError("verify_exact needs a rational-mode tensor")
    delta = _residual(t, expand(t), 0)
    failing = tuple(zip(_triples(t.dims, delta.coord),
                        [Fraction(v, delta.scale) for v in delta.num.tolist()]))
    total = (t.dims.m * t.dims.n * t.dims.p) ** 2
    return VerificationReport(not failing, failing, total)


def verify_approximate(t, mode="strict"):
    """Check that the scheme converges to the classical product as e -> 0.

    Strict mode: every residual coefficient of expansion - classical must
    have e-order >= 1 (nothing survives at e = 0 and no negative powers
    blow up).  Scaled mode additionally looks for a q >= 1 such that
    expansion - e^q * classical has order >= q + 1, covering
    files normalized with a global e^q on the target; the reported
    discrepancy_order is then relative to the scaled target (order - q).

    The check is exact: a rational tensor's residual is exactly zero or
    e-free, so an exact scheme is a valid
    approximate scheme of discrepancy order +inf.
    """
    if mode not in ("strict", "scaled"):
        raise ValueError("mode must be 'strict' or 'scaled'")
    delta = expand(t)

    def report_for(q):
        res = _residual(t, delta, q)
        if not len(res):
            return ApproxReport(True, math.inf, (), q)
        # entries are sorted by coordinate, so the blockers' coordinates
        # come out sorted
        order = res.lo + int(res.exp.min())
        low = res.coord[res.exp <= q - res.lo]
        blockers = tuple(_triples(t.dims, low[_run_starts(low)]))
        return ApproxReport(order - q >= 1, order - q, blockers, q)

    strict = report_for(0)
    if mode == "strict" or strict.valid:
        return strict
    # a valid scaling q leaves e^q + O(e^(q+1)) at every classical
    # coordinate, so the expansion's order at any one of them is the only
    # candidate
    first = _classical_coords(t.dims, t.support, _key_dtype(t.dims, 1))[:1]
    q = laurent_order(delta.get(_triples(t.dims, first)[0], 0))
    if 1 <= q < math.inf:
        candidate = report_for(q)
        if candidate.valid:
            return candidate
    return strict


def explain(t, report, k):
    """The first k failing equations of a report on t, in report order.

    report is verify_exact(t) or verify_approximate(t, ...); for the latter
    the failing equations are its worst_negative_terms.  Each record is
    (coordinate triple, residual value, 1-based indices of the terms with
    a product at that coordinate, ascending).
    """
    k = integral(k, "k")
    if isinstance(report, VerificationReport):
        failing = report.failing_equations[:k]
    else:
        residual = _residual(t, expand(t), report.scaling)
        failing = [(key, residual[key]) for key in report.worst_negative_terms[:k]]
    if not failing:
        return ()
    wanted = [_coordinate(t.dims, key) for key, _ in failing]
    term, keys, _, _, span, _ = _products(t)
    coord = keys // span
    hit = np.isin(coord, wanted)
    touching = {}
    for c, i in zip(coord[hit].tolist(), term[hit].tolist()):
        touching.setdefault(c, set()).add(i + 1)
    return tuple((key, value, tuple(sorted(touching.get(c, ()))))
                 for (key, value), c in zip(failing, wanted))


@dataclass(frozen=True)
class TypePolynomial:
    """Multiset of factor-rank triples, encoded as (rP, rQ, rS) -> count."""
    monomials: tuple = field(default_factory=tuple)

    @staticmethod
    def from_counts(counts):
        return TypePolynomial(tuple(sorted(counts.items())))

    def as_dict(self):
        return dict(self.monomials)

    def total(self):
        """Sum of multiplicities (the tensor rank)."""
        return sum(c for _, c in self.monomials)

    def __str__(self):
        parts = []
        for (rp, rq, rs), count in sorted(
            self.monomials,
            key=lambda kv: (-(kv[0][0] + kv[0][1] + kv[0][2]), tuple(-x for x in kv[0])),
        ):
            factors = []
            for sym, r in (("X", rp), ("Y", rq), ("Z", rs)):
                if r == 1:
                    factors.append(sym)
                elif r > 1:
                    factors.append("%s^%d" % (sym, r))
            mono = "*".join(factors) if factors else "1"
            parts.append(mono if count == 1 else "%d*%s" % (count, mono))
        return " + ".join(parts) if parts else "0"


def type_polynomial(t):
    """Type invariant: the multiset of (rank P_i, rank Q_i, rank S_i)."""
    counts = {}
    for term in t.terms:
        key = (term.P.rank(), term.Q.rank(), term.S.rank())
        counts[key] = counts.get(key, 0) + 1
    return TypePolynomial.from_counts(counts)
