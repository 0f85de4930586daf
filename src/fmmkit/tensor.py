"""FMM tensor data model and verification.

A tensor here is a sum of rank-one terms P_i (x) Q_i (x) S_i describing a
bilinear matrix-product scheme for <m,n,p>: P_i is m x n, Q_i is n x p and
S_i is p x m (the output factor lives in the dual slot, so the scheme
computes C = sum <P_i,A> <Q_i,B> S_i^T).  A tensor keeps the factor
matrices it is given, whose entries each Matrix settled when it was built.

Verification expands the terms into the full (mn) x (np) x (pm) coefficient
array and compares it to the classical tensor

    sum_{i,j,k}  E_i^j (x) E_j^k (x) E_k^i

entrywise: equality of every coefficient is exactly the Brent system, one
cubic equation per coordinate, (mnp)^2 in total.  Approximate (laurent)
schemes pass when the difference vanishes at e -> 0, that is when every
residual coefficient has e-order >= 1.  Both checks subtract the same
classical target, scaled by e^q in approximate verification (q = 0 for
exact), from the expansion in the tensor's own scalars: a rational
tensor's residual stays rational under either check.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction

from .matrices import Matrix
from .scalars import Laurent, laurent_order

RATIONAL = "rational"
LAURENT = "laurent"

Dims = namedtuple("Dims", ["m", "n", "p"])

Term = namedtuple("Term", ["P", "Q", "S"])


class FmmTensor:
    """Immutable sum of rank-one terms with optional A-support mask."""

    __slots__ = ("dims", "field_mode", "terms", "support")

    def __init__(self, dims, field_mode, terms, support=None):
        dims = Dims(*dims)
        if min(dims) < 1:
            raise ValueError("dimensions must be positive")
        if field_mode not in (RATIONAL, LAURENT):
            raise ValueError("field_mode must be %r or %r" % (RATIONAL, LAURENT))
        kept = []
        for idx, term in enumerate(terms, start=1):
            P, Q, S = term
            if (P.rows, P.cols) != (dims.m, dims.n):
                raise ValueError("term %d: P is %dx%d, expected %dx%d"
                                 % (idx, P.rows, P.cols, dims.m, dims.n))
            if (Q.rows, Q.cols) != (dims.n, dims.p):
                raise ValueError("term %d: Q is %dx%d, expected %dx%d"
                                 % (idx, Q.rows, Q.cols, dims.n, dims.p))
            if (S.rows, S.cols) != (dims.p, dims.m):
                raise ValueError("term %d: S is %dx%d, expected %dx%d"
                                 % (idx, S.rows, S.cols, dims.p, dims.m))
            if field_mode == RATIONAL and not all(f.is_rational() for f in (P, Q, S)):
                raise ValueError("e-dependent entry in a rational-mode tensor")
            if not (P and Q and S):
                raise ValueError("term %d has an all-zero factor" % idx)
            kept.append(Term(P, Q, S))
        if not kept:
            raise ValueError("a tensor needs at least one term")
        if support is not None:
            support = tuple(tuple(bool(v) for v in row) for row in support)
            if len(support) != dims.m or any(len(r) != dims.n for r in support):
                raise ValueError("support mask must be %dx%d" % (dims.m, dims.n))
            if not any(v for row in support for v in row):
                raise ValueError("support mask allows no entry")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "field_mode", field_mode)
        object.__setattr__(self, "terms", tuple(kept))
        object.__setattr__(self, "support", support)

    def __setattr__(self, name, value):
        raise AttributeError("tensors are immutable")

    def __reduce__(self):
        return (FmmTensor, (self.dims, self.field_mode, self.terms, self.support))

    @property
    def rank(self):
        return len(self.terms)

    def __eq__(self, other):
        if not isinstance(other, FmmTensor):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.field_mode == other.field_mode
            and self.support == other.support
            and self.terms == other.terms
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


def classical_tensor(dims, support=None, field_mode=RATIONAL):
    """The classical scheme: one term per allowed (i, j, k) product.

    With a support mask, (i, j) pairs outside the mask are dropped, giving
    the target tensor of a partial matrix product.
    """
    dims = Dims(*dims)
    m, n, p = dims
    terms = [
        Term(Matrix.unit(m, n, i, j), Matrix.unit(n, p, j, k), Matrix.unit(p, m, k, i))
        for (i, j), (_, k), _ in classical_map(dims, support)
    ]
    return FmmTensor(dims, field_mode, terms, support)


def expand(t):
    """Coefficient array of the tensor as a sparse map.

    Keys are ((i,j), (j',k), (k',i')) coordinate triples (0-based); values
    are the nonzero coefficients.  One pass over the terms costs
    sum_i nnz(P_i) * nnz(Q_i) * nnz(S_i) exact multiplications.
    """
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


def classical_map(dims, support=None):
    """Sparse coefficient map of the classical tensor (all coefficients 1)."""
    dims = Dims(*dims)
    out = {}
    for i in range(dims.m):
        for j in range(dims.n):
            if support is not None and not support[i][j]:
                continue
            for k in range(dims.p):
                out[((i, j), (j, k), (k, i))] = Fraction(1)
    return out


def residual_map(t, q=0, expansion=None):
    """expand(t) - e^q * classical target, as a sparse map of nonzero
    residuals.  expansion, when given, is expand(t) computed once for
    several q; it is left unchanged."""
    delta = expand(t) if expansion is None else dict(expansion)
    one = Laurent.monomial(1, q)
    for key in classical_map(t.dims, t.support):
        cur = delta.get(key)
        val = -one if cur is None else cur - one
        if not val:
            delta.pop(key, None)
        else:
            delta[key] = val
    return delta


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
    delta = residual_map(t)
    failing = tuple(sorted((key, value) for key, value in delta.items()))
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

    The check runs in the tensor's own scalars: a rational tensor's
    residual is exactly zero or e-free, so an exact scheme is a valid
    approximate scheme of discrepancy order +inf.
    """
    if mode not in ("strict", "scaled"):
        raise ValueError("mode must be 'strict' or 'scaled'")
    delta = expand(t)

    def report_for(q):
        res = residual_map(t, q, delta)
        if not res:
            return ApproxReport(True, math.inf, (), q)
        order = min(laurent_order(v) for v in res.values())
        blockers = tuple(sorted(
            key for key, v in res.items() if laurent_order(v) <= q
        ))
        return ApproxReport(order - q >= 1, order - q, blockers, q)

    strict = report_for(0)
    if mode == "strict" or strict.valid:
        return strict
    # a valid scaling q leaves e^q + O(e^(q+1)) at every classical
    # coordinate, so the expansion's order at any one of them is the only
    # candidate
    key = next(iter(classical_map(t.dims, t.support)))
    q = laurent_order(delta.get(key, 0))
    if 1 <= q < math.inf:
        candidate = report_for(q)
        if candidate.valid:
            return candidate
    return strict


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
