"""Regularized alternating least squares search for multiplication schemes.

The search looks for rank-r float factor stacks whose rank-one expansion
matches the classical multiplication tensor of the requested dimensions,
pulling the iterate toward snap-grid models with a decaying ridge weight
so that a converged solution usually rounds to exact rational factors.

Factor stacks are plain float arrays: P is r x (m*n), Q is r x (n*p),
S is r x (p*m), each row the row-major vectorization of one factor.
"""

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..matrices import Matrix
from ..tensor import RATIONAL, Dims, FmmTensor, Term, classical_map, verify_exact
from . import kernels

FactorSet = namedtuple("FactorSet", ["P", "Q", "S"])

# beyond this many output coordinates (m*n*p) a desk run stops being
# interactive, so larger problems must opt in explicitly
DESK_LIMIT = 36

DEFAULT_GRID = (
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
)

# ridge jitter that stands in for lambda when it underflows the solver;
# keeps the normal matrix positive definite at lambda = 0
JITTER = 1e-12

# stagnation rule: if the residual has not dropped by STALL_DROP relative
# over the last STALL_WINDOW sweeps, reset lambda to lambda_init
STALL_WINDOW = 25
STALL_DROP = 1e-3


@dataclass(frozen=True)
class SearchConfig:
    dims: tuple
    rank: int
    lambda_init: float = 0.5
    lambda_decay: float = 0.99
    snap_grid: tuple = DEFAULT_GRID
    max_sweeps: int = 2000
    restarts: int = 1
    seed: int = 0
    tol: float = 1e-10
    allow_large: bool = False

    def __post_init__(self):
        dims = Dims(*(int(d) for d in self.dims))
        if any(d < 1 for d in dims):
            raise ValueError("dims must be positive, got %r" % (tuple(self.dims),))
        object.__setattr__(self, "dims", dims)
        if int(self.rank) < 1:
            raise ValueError("rank must be positive, got %r" % (self.rank,))
        object.__setattr__(self, "rank", int(self.rank))
        if not self.lambda_init > 0:
            raise ValueError("lambda_init must be > 0")
        if not 0 < self.lambda_decay < 1:
            raise ValueError("lambda_decay must lie strictly between 0 and 1")
        grid = tuple(sorted(set(Fraction(g) for g in self.snap_grid)))
        if Fraction(0) not in grid:
            raise ValueError("snap_grid must contain 0")
        object.__setattr__(self, "snap_grid", grid)
        if int(self.max_sweeps) < 1:
            raise ValueError("max_sweeps must be positive")
        object.__setattr__(self, "max_sweeps", int(self.max_sweeps))
        if int(self.restarts) < 1:
            raise ValueError("restarts must be positive")
        object.__setattr__(self, "restarts", int(self.restarts))
        object.__setattr__(self, "seed", int(self.seed))
        if not self.tol > 0:
            raise ValueError("tol must be > 0")


@dataclass(frozen=True)
class SearchResult:
    best_residual: float
    factors: object
    sweeps_used: int
    rationalized: object
    trace: tuple


def classical_dense(dims):
    """Dense float classical tensor, axes ordered (m*n, n*p, p*m)."""
    m, n, p = dims
    T = np.zeros((m * n, n * p, p * m))
    for (i, j), (_, k), _ in classical_map(dims):
        T[i * n + j, j * p + k, k * m + i] = 1.0
    return T


def _matricize(T):
    mn, np_, pm = T.shape
    T1 = np.ascontiguousarray(T.reshape(mn, np_ * pm))
    T2 = np.ascontiguousarray(T.transpose(1, 0, 2).reshape(np_, mn * pm))
    T3 = np.ascontiguousarray(T.transpose(2, 0, 1).reshape(pm, mn * np_))
    return T1, T2, T3


def _as_stack(x, rows, cols, name):
    arr = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if arr.shape != (rows, cols):
        raise ValueError(
            "%s stack must have shape (%d, %d), got %r" % (name, rows, cols, arr.shape)
        )
    return arr


def _check_factors(f, dims, rank=None):
    m, n, p = dims
    P = np.asarray(f.P, dtype=np.float64)
    r = P.shape[0] if P.ndim == 2 else -1
    if rank is not None:
        r = rank
    P = _as_stack(f.P, r, m * n, "P")
    Q = _as_stack(f.Q, r, n * p, "Q")
    S = _as_stack(f.S, r, p * m, "S")
    return FactorSet(P, Q, S)


def factor_set_from_tensor(t):
    """Cast an exact tensor's factors to float stacks (rational mode only)."""
    if t.field_mode != RATIONAL:
        raise ValueError("only exact rational tensors cast to float factor stacks")
    m, n, p = t.dims
    r = len(t.terms)
    P = np.zeros((r, m * n))
    Q = np.zeros((r, n * p))
    S = np.zeros((r, p * m))
    for idx, term in enumerate(t.terms):
        for i, j, v in term.P.nonzero_entries():
            P[idx, i * n + j] = float(v)
        for j, k, v in term.Q.nonzero_entries():
            Q[idx, j * p + k] = float(v)
        for k, i, v in term.S.nonzero_entries():
            S[idx, k * m + i] = float(v)
    return FactorSet(P, Q, S)


def brent_residual(f, dims):
    """Squared Frobenius distance from the stacks' expansion to the
    classical tensor of the given dimensions."""
    dims = Dims(*dims)
    f = _check_factors(f, dims)
    T = classical_dense(dims)
    return kernels.residual(f.P, f.Q, f.S, T)


def _grid_arrays(grid):
    # candidates ordered by (|g|, g) so argmin's first-match tie rule
    # prefers the smaller magnitude
    ordered = sorted(grid, key=lambda g: (abs(g), g))
    return ordered, np.array([float(g) for g in ordered])


def _snap_array(arr, grid_floats):
    dist = np.abs(arr[..., None] - grid_floats)
    idx = np.argmin(dist, axis=-1)
    return idx


def snap_models(f, grid=DEFAULT_GRID):
    """Nearest-grid-point model stacks for the proximal term.  Distance
    ties go to the candidate of smaller magnitude."""
    _, gf = _grid_arrays(grid)
    out = []
    for stack in f:
        idx = _snap_array(np.asarray(stack, dtype=np.float64), gf)
        out.append(gf[idx])
    return FactorSet(*out)


def _effective_lambda(lam):
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    return lam + JITTER if lam < JITTER else lam


def als_block_solve(f, models, lam, dims, slot):
    """Solve one factor stack (slot "P", "Q" or "S") against the other two
    at ridge weight lam, holding the rest of the factor set fixed."""
    dims = Dims(*dims)
    f = _check_factors(f, dims)
    models = _check_factors(models, dims, rank=f.P.shape[0])
    lam_eff = _effective_lambda(lam)
    T1, T2, T3 = _matricize(classical_dense(dims))
    P, Q, S = f
    if slot == "P":
        P = kernels.block_solve(Q, S, T1, lam_eff, models.P)
    elif slot == "Q":
        Q = kernels.block_solve(P, S, T2, lam_eff, models.Q)
    elif slot == "S":
        S = kernels.block_solve(P, Q, T3, lam_eff, models.S)
    else:
        raise ValueError("slot must be P, Q or S, got %r" % (slot,))
    return FactorSet(P, Q, S)


def als_objective(f, models, lam, dims):
    """Ridge objective the sweep minimizes block by block: brent residual
    plus lam times the squared distance of each stack from its model."""
    dims = Dims(*dims)
    f = _check_factors(f, dims)
    models = _check_factors(models, dims, rank=f.P.shape[0])
    prox = 0.0
    for stack, model in zip(f, models):
        d = stack - model
        prox += float((d * d).sum())
    return brent_residual(f, dims) + lam * prox


def _sweep(P, Q, S, mP, mQ, mS, T1, T2, T3, lam_eff):
    P = kernels.block_solve(Q, S, T1, lam_eff, mP)
    Q = kernels.block_solve(P, S, T2, lam_eff, mQ)
    S = kernels.block_solve(P, Q, T3, lam_eff, mS)
    return P, Q, S


def als_sweep(f, models, lam, dims):
    """One cyclic pass of block solves P, Q then S.  Each solve uses the
    stacks already updated earlier in the same pass.  lam below the solver
    jitter is bumped to JITTER so a lambda of exactly 0 stays solvable."""
    dims = Dims(*dims)
    f = _check_factors(f, dims)
    models = _check_factors(models, dims, rank=f.P.shape[0])
    lam_eff = _effective_lambda(lam)
    T1, T2, T3 = _matricize(classical_dense(dims))
    P, Q, S = _sweep(f.P, f.Q, f.S, models.P, models.Q, models.S, T1, T2, T3, lam_eff)
    return FactorSet(P, Q, S)


def rationalize(f, dims, snap_grid=DEFAULT_GRID):
    """Snap float stacks to the nearest grid rationals, rebuild an exact
    tensor and verify it.  Returns the tensor on success, None when the
    snapped factors fail verification or degenerate to a zero factor."""
    dims = Dims(*dims)
    f = _check_factors(f, dims)
    gr, gf = _grid_arrays(snap_grid)
    m, n, p = dims
    terms = []
    for row in range(f.P.shape[0]):
        mats = []
        for stack, rows, cols in ((f.P, m, n), (f.Q, n, p), (f.S, p, m)):
            idx = _snap_array(stack[row].reshape(rows, cols), gf)
            mats.append(Matrix([[gr[idx[i][j]] for j in range(cols)] for i in range(rows)]))
        terms.append(Term(*mats))
    try:
        t = FmmTensor(dims, RATIONAL, terms)
    except ValueError:
        return None
    report = verify_exact(t)
    return t if report.passed else None


_Restart = namedtuple("_Restart", ["best_res", "factors", "sweeps", "trace"])


def _run_restart(cfg, index, Tdense, T1, T2, T3, grid_floats):
    m, n, p = cfg.dims
    rank = cfg.rank
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, index))))
    # draw order P, Q, S is part of the reproducibility contract
    P = rng.uniform(-1.0, 1.0, (rank, m * n))
    Q = rng.uniform(-1.0, 1.0, (rank, n * p))
    S = rng.uniform(-1.0, 1.0, (rank, p * m))
    lam = cfg.lambda_init
    trace = []
    history = []
    best_res = math.inf
    best = FactorSet(P.copy(), Q.copy(), S.copy())
    prev_res = math.inf
    guard = 0
    sweeps = 0
    for sweep in range(1, cfg.max_sweeps + 1):
        mP = grid_floats[_snap_array(P, grid_floats)]
        mQ = grid_floats[_snap_array(Q, grid_floats)]
        mS = grid_floats[_snap_array(S, grid_floats)]
        lam_eff = _effective_lambda(lam)
        try:
            P, Q, S = _sweep(P, Q, S, mP, mQ, mS, T1, T2, T3, lam_eff)
        except np.linalg.LinAlgError:
            break
        res = kernels.residual(P, Q, S, Tdense)
        sweeps = sweep
        trace.append((sweep, res, lam_eff))
        if not math.isfinite(res):
            break
        if res < best_res:
            best_res = res
            best = FactorSet(P.copy(), Q.copy(), S.copy())
        if res < cfg.tol:
            break
        if res < prev_res:
            lam *= cfg.lambda_decay
        history.append(res)
        if sweep - guard > STALL_WINDOW:
            anchor = history[sweep - 1 - STALL_WINDOW]
            if not res < anchor * (1.0 - STALL_DROP):
                lam = cfg.lambda_init
                guard = sweep
        prev_res = res
    return _Restart(best_res, best, sweeps, tuple(trace))


def search(cfg, progress=None):
    """Run cfg.restarts independent regularized ALS descents and keep the
    best.  Every restart's best factors get a rationalization attempt, in
    ascending residual order with ties broken by restart index; the first
    attempt that verifies exactly is reported.  best_residual, factors,
    sweeps_used and trace always describe the lowest-residual restart.
    Fully deterministic for a given config.  progress, when
    given, is called with one summary line per finished restart."""
    m, n, p = cfg.dims
    if m * n * p > DESK_LIMIT:
        if not cfg.allow_large:
            raise ValueError(
                "output size %d exceeds the desk limit %d; set allow_large=True to proceed"
                % (m * n * p, DESK_LIMIT)
            )
        warnings.warn(
            "searching beyond the desk limit (%d > %d); expect long sweeps"
            % (m * n * p, DESK_LIMIT),
            stacklevel=2,
        )
    Tdense = classical_dense(cfg.dims)
    T1, T2, T3 = _matricize(Tdense)
    _, grid_floats = _grid_arrays(cfg.snap_grid)

    results = []
    for i in range(cfg.restarts):
        results.append(_run_restart(cfg, i, Tdense, T1, T2, T3, grid_floats))
        if progress is not None:
            progress(_summary_line(i, results[i], cfg))

    order = sorted(range(cfg.restarts), key=lambda i: (results[i].best_res, i))
    best_index = order[0]
    rationalized = None
    for i in order:
        t = rationalize(results[i].factors, cfg.dims, cfg.snap_grid)
        if t is not None:
            rationalized = t
            break
    chosen = results[best_index]
    return SearchResult(
        best_residual=chosen.best_res,
        factors=chosen.factors,
        sweeps_used=chosen.sweeps,
        rationalized=rationalized,
        trace=chosen.trace,
    )


def _summary_line(i, out, cfg):
    state = "converged" if out.best_res < cfg.tol else "stopped"
    return "restart %d %s residual %.6e after %d sweeps" % (
        i,
        state,
        out.best_res,
        out.sweeps,
    )
