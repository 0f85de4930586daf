"""Regularized alternating least squares search for multiplication schemes.

The search looks for rank-r float factor stacks whose rank-one expansion
matches the classical multiplication tensor of the requested dimensions,
pulling the iterate toward snap-grid models with a decaying ridge weight
so that a converged solution usually rounds to exact rational factors.

Factor stacks are plain float arrays: P is r x (m*n), Q is r x (n*p),
S is r x (p*m), each row the row-major vectorization of one factor.  The
restarts of a search run as one batch that stacks their factor stacks row
block by row block (see kernels); a restart's trace is the same bit for
bit in any batch, and alone.

The search and the public helpers (als_block_solve, als_sweep,
als_objective, brent_residual) share one target per dims (_target) and
one sweep; the helpers run as a batch of one restart, so they give the
search's numbers bit for bit.
"""

import functools
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..matrices import Matrix
from ..tensor import RATIONAL, Dims, FmmTensor, Term, _classical_coords, verify_exact
from . import kernels

FactorSet = namedtuple("FactorSet", ["P", "Q", "S"])

# beyond this many output coordinates (m*n*p) a desk run stops being
# interactive, so larger problems must opt in explicitly
DESK_LIMIT = 36

# beyond this many sweeps a restart's run time and trace (one entry per
# sweep) stop being desk-sized, so more must opt in explicitly too
SWEEP_LIMIT = 100_000

# a search holds each restart's factor stacks and trace until it returns,
# so beyond this many restarts, or this many times 2000 sweeps (the
# default max_sweeps) over all restarts, its memory stops being desk-sized
RESTART_LIMIT = 1000

DEFAULT_GRID = (Fraction(-1), Fraction(0), Fraction(1))

# ridge schedule: lambda starts at LAMBDA_INIT and shrinks by LAMBDA_DECAY
# after each sweep that lowers the residual; a restart converges once its
# residual falls below TOL
LAMBDA_INIT = 0.5
LAMBDA_DECAY = 0.99
TOL = 1e-10

# ridge jitter that stands in for lambda when it underflows the solver;
# keeps the normal matrix positive definite at lambda = 0
JITTER = 1e-12

# stagnation rule: if the residual has not dropped by STALL_DROP relative
# over the last STALL_WINDOW sweeps, reset lambda to LAMBDA_INIT; a restart
# stops, stalled on a plateau, at its PLATEAU_RESETS-th reset since its last
# new best residual.  At 4 or 5 resets, a few <2,2,2;7> restarts that go on
# to a verified scheme stalled first, and some searches found none
STALL_WINDOW = 25
STALL_DROP = 1e-3
PLATEAU_RESETS = 6

RestartRecord = namedtuple(
    "RestartRecord", ["outcome", "sweeps", "lambda_resets", "best_residual"])
RestartRecord.__doc__ = """How one restart ended.  outcome is "converged"
(residual below TOL), "stalled" (PLATEAU_RESETS lambda resets since its
last new best residual), "exhausted" (ran max_sweeps), "nonfinite"
(residual inf or nan), "singular" (a block solve raised LinAlgError) or
"collapsed" (every factor stack exactly zero, which every later sweep
keeps)."""


@dataclass(frozen=True)
class SearchConfig:
    dims: tuple
    rank: int
    snap_grid: tuple = DEFAULT_GRID
    max_sweeps: int = 2000
    restarts: int = 1
    seed: int = 0
    allow_large: bool = False

    def __post_init__(self):
        dims = Dims(*(int(d) for d in self.dims))
        if any(d < 1 for d in dims):
            raise ValueError("dims must be positive, got %r" % (tuple(self.dims),))
        object.__setattr__(self, "dims", dims)
        if int(self.rank) < 1:
            raise ValueError("rank must be positive, got %r" % (self.rank,))
        object.__setattr__(self, "rank", int(self.rank))
        # the classical scheme has rank m*n*p; above it, r x r Gram matrices only grow
        if self.rank > dims.m * dims.n * dims.p:
            raise ValueError("rank %d exceeds the classical rank %d of <%d,%d,%d>"
                             % ((self.rank, dims.m * dims.n * dims.p) + dims))
        try:
            grid = tuple(sorted(set(Fraction(g) for g in self.snap_grid)))
            for g in grid:
                float(g)  # the search snaps to the grid's floats
        except OverflowError:
            raise ValueError("snap_grid values must be finite floats") from None
        if Fraction(0) not in grid:
            raise ValueError("snap_grid must contain 0")
        object.__setattr__(self, "snap_grid", grid)
        object.__setattr__(self, "max_sweeps", int(self.max_sweeps))
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be positive")
        if self.max_sweeps > SWEEP_LIMIT and not self.allow_large:
            raise ValueError(
                "max_sweeps %d exceeds the sweep limit %d; set allow_large=True to proceed"
                % (self.max_sweeps, SWEEP_LIMIT))
        if int(self.restarts) < 1:
            raise ValueError("restarts must be positive")
        object.__setattr__(self, "restarts", int(self.restarts))
        if not self.allow_large:
            if self.restarts > RESTART_LIMIT:
                raise ValueError(
                    "restarts %d exceeds the restart limit %d; set allow_large=True to proceed"
                    % (self.restarts, RESTART_LIMIT))
            if self.restarts * self.max_sweeps > RESTART_LIMIT * 2000:
                raise ValueError(
                    "restarts * max_sweeps %d exceeds the restart limit's %d sweeps; "
                    "set allow_large=True to proceed"
                    % (self.restarts * self.max_sweeps, RESTART_LIMIT * 2000))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class SearchResult:
    best_residual: float
    factors: object
    sweeps_used: int
    rationalized: object
    trace: tuple
    restarts: tuple = ()


def classical_dense(dims):
    """Dense float classical tensor, axes ordered (m*n, n*p, p*m)."""
    m, n, p = dims
    T = np.zeros((m * n, n * p, p * m))
    T.flat[_classical_coords(dims, None, np.intp)] = 1.0
    return T


@functools.lru_cache(maxsize=8)
def _target(dims):
    """The classical tensor of dims matricized with the P, Q and S mode
    first in turn, as three read-only arrays built once per dims.  The
    first flattens to classical_dense(dims), so it is also the residual's
    target."""
    T = classical_dense(dims)
    target = tuple(T.transpose(axes).reshape(T.shape[axes[0]], -1)
                   for axes in ((0, 1, 2), (1, 0, 2), (2, 0, 1)))
    for Tmat in target:
        Tmat.flags.writeable = False
    return target


def _stacks(dims, *sets):
    """Each factor set as float64 stacks P, Q and S of shapes (r, m*n),
    (r, n*p) and (r, p*m), where r is the row count of the first set's P;
    ValueError on any other shape."""
    m, n, p = dims
    out = [FactorSet(*(np.ascontiguousarray(x, dtype=np.float64) for x in f)) for f in sets]
    r = out[0].P.shape[0] if out[0].P.ndim == 2 else -1
    for f in out:
        for name, stack, cols in zip("PQS", f, (m * n, n * p, p * m)):
            if stack.shape != (r, cols):
                raise ValueError("%s stack must have shape (%d, %d), got %r"
                                 % (name, r, cols, stack.shape))
    return out


def factor_set_from_tensor(t):
    """Cast an exact tensor's factors to float stacks (rational mode only)."""
    if t.field_mode != RATIONAL:
        raise ValueError("only exact rational tensors cast to float factor stacks")
    # a factor's rows, flattened in order, are its row of the stack
    return FactorSet(*(np.array([[float(v) for row in factor.data for v in row]
                                 for factor in factors])
                       for factors in zip(*t.terms)))


def brent_residual(f, dims):
    """Squared Frobenius distance from the stacks' expansion to the
    classical tensor of the given dimensions."""
    dims = Dims(*dims)
    f, = _stacks(dims, f)
    return float(kernels.residual(*f, _target(dims)[0], 1)[0])


def _grid_arrays(grid):
    # candidates ordered by (|g|, g) so argmin's first-match tie rule
    # prefers the smaller magnitude
    ordered = sorted(grid, key=lambda g: (abs(g), g))
    return ordered, np.array([float(g) for g in ordered])


def _snap(f, grid_floats):
    """Index of the nearest grid point for every entry of the stacks f, the
    first one on a tie: one concatenate and one argmin over P's entries,
    then Q's, then S's.  The grid axis comes first so that numpy's inner
    loops run along the entries."""
    return np.abs(np.concatenate(f, axis=None) - grid_floats[:, None]).argmin(axis=0)


def _split(flat, shapes):
    """flat, laid out as _snap lays out three stacks, cut into arrays of
    the given shapes."""
    a = math.prod(shapes[0])
    b = a + math.prod(shapes[1])
    return FactorSet(flat[:a].reshape(shapes[0]), flat[a:b].reshape(shapes[1]),
                     flat[b:].reshape(shapes[2]))


def snap_models(f, grid=DEFAULT_GRID):
    """Nearest-grid-point model stacks for the proximal term.  Distance
    ties go to the candidate of smaller magnitude."""
    _, gf = _grid_arrays(grid)
    f = [np.asarray(stack, dtype=np.float64) for stack in f]
    return _split(gf[_snap(f, gf)], [stack.shape for stack in f])


def _effective_lambda(lam):
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    return lam + JITTER if lam < JITTER else lam


def als_block_solve(f, models, lam, dims, slot):
    """Solve one factor stack (slot "P", "Q" or "S") against the other two
    at ridge weight lam, holding the rest of the factor set fixed.  lam
    below the solver jitter is bumped to JITTER so a lambda of exactly 0
    stays solvable."""
    if slot not in FactorSet._fields:
        raise ValueError("slot must be P, Q or S, got %r" % (slot,))
    dims = Dims(*dims)
    f, models = _stacks(dims, f, models)
    i = FactorSet._fields.index(slot)
    A, B = f[:i] + f[i + 1:]
    solved = kernels.block_solve(A, B, _target(dims)[i], np.array([_effective_lambda(lam)]),
                                 models[i], kernels.gram(A, 1), kernels.gram(B, 1))
    return f._replace(**{slot: solved})


def als_objective(f, models, lam, dims):
    """Ridge objective the sweep minimizes block by block: brent residual
    plus lam times the squared distance of each stack from its model."""
    dims = Dims(*dims)
    f, models = _stacks(dims, f, models)
    prox = 0.0
    for stack, model in zip(f, models):
        d = stack - model
        prox += float((d * d).sum())
    return float(kernels.residual(*f, _target(dims)[0], 1)[0]) + lam * prox


def _sweep(stacks, models, target, lam):
    """One cyclic pass of block solves on P, Q then S at the ridge weights
    lam, one per restart; each solve uses the stacks already updated
    earlier in the same pass.  S's Grams serve the P and Q solves and the
    new P's the Q and S solves, so a pass forms four Grams per restart."""
    k = len(lam)
    P, Q, S = stacks
    GS = kernels.gram(S, k)
    P = kernels.block_solve(Q, S, target[0], lam, models[0], kernels.gram(Q, k), GS)
    GP = kernels.gram(P, k)
    Q = kernels.block_solve(P, S, target[1], lam, models[1], GP, GS)
    S = kernels.block_solve(P, Q, target[2], lam, models[2], GP, kernels.gram(Q, k))
    return FactorSet(P, Q, S)


def als_sweep(f, models, lam, dims):
    """One cyclic pass of block solves on P, Q then S, as als_block_solve
    makes them: the search's own sweep, run as a batch of one."""
    dims = Dims(*dims)
    f, models = _stacks(dims, f, models)
    return _sweep(f, models, _target(dims), np.array([_effective_lambda(lam)]))


def rationalize(f, dims, snap_grid=DEFAULT_GRID):
    """Snap float stacks to the nearest grid rationals, rebuild an exact
    tensor and verify it.  Returns the tensor on success, None when the
    snapped factors fail verification or degenerate to a zero factor."""
    dims = Dims(*dims)
    f, = _stacks(dims, f)
    gr, gf = _grid_arrays(snap_grid)
    m, n, p = dims
    r = f.P.shape[0]
    # each stack row, reshaped, is one factor's grid indices
    stacks = _split(_snap(f, gf), ((r, m, n), (r, n, p), (r, p, m)))
    terms = [Term(*(Matrix([[gr[i] for i in row] for row in factor]) for factor in term))
             for term in zip(*(stack.tolist() for stack in stacks))]
    try:
        t = FmmTensor(dims, RATIONAL, terms)
    except ValueError:
        return None
    report = verify_exact(t)
    return t if report.passed else None


_Restart = namedtuple(
    "_Restart", ["best_res", "factors", "sweeps", "trace", "outcome", "resets"])


class _Descent:
    """Scalar state of one restart's descent.

    An improvement does not copy the restart's rows out of the batch: best_at
    keeps the batch stacks of the best sweep and the restart's first row in
    them, which no later sweep writes to, and settle() copies the rows once
    a sweep brings no improvement or the restart leaves.  So at most two
    sweeps' stacks stay referenced.

    plateau counts the lambda resets since the last new best residual."""

    __slots__ = ("lam", "lam_eff", "trace", "best_res", "best", "best_at",
                 "prev_res", "guard", "resets", "plateau", "outcome")

    def __init__(self, start):
        self.lam = LAMBDA_INIT
        self.lam_eff = _effective_lambda(LAMBDA_INIT)
        self.trace = []
        self.best_res = math.inf
        self.best = start
        self.best_at = None
        self.prev_res = math.inf
        self.guard = 0
        self.resets = 0
        self.plateau = 0
        self.outcome = None

    def leave(self, outcome, r):
        """End the restart with the given outcome; returns False."""
        self.outcome = outcome
        self.settle(r)
        return False

    def settle(self, r):
        if self.best_at is not None:
            (P, Q, S), row = self.best_at
            rows = slice(row, row + r)
            self.best = FactorSet(P[rows].copy(), Q[rows].copy(), S[rows].copy())
            self.best_at = None

    def step(self, sweep, res, stacks, row, r, volume):
        """Book sweep number sweep, run at ridge weight lam_eff, with
        residual res; this restart's r rows of the batch's stacks start at
        row, and volume is m*n*p.  Returns True while the restart goes
        on."""
        self.trace.append((sweep, res, self.lam_eff))
        if not math.isfinite(res):
            return self.leave("nonfinite", r)
        if res < self.best_res:
            self.best_res = res
            self.best_at = (stacks, row)
            self.plateau = 0
        elif self.best_at is not None:
            self.settle(r)
        if res < TOL:
            return self.leave("converged", r)
        # all-zero stacks are a fixed point of the sweep (Gram lambda*I,
        # zero right-hand side, zero snapped models); their residual is
        # exactly the m*n*p unit coefficients of the classical tensor
        if res == volume and not any(stack[row:row + r].any() for stack in stacks):
            return self.leave("collapsed", r)
        if res < self.prev_res:
            self.lam *= LAMBDA_DECAY
        if sweep - self.guard > STALL_WINDOW:
            anchor = self.trace[sweep - 1 - STALL_WINDOW][1]
            if not res < anchor * (1.0 - STALL_DROP):
                self.lam = LAMBDA_INIT
                self.guard = sweep
                self.resets += 1
                self.plateau += 1
                if self.plateau == PLATEAU_RESETS:
                    return self.leave("stalled", r)
        self.lam_eff = _effective_lambda(self.lam)
        self.prev_res = res
        return True


def _run_batch(cfg, indices, target, grid_floats):
    """Run the restarts numbered in indices as one batch; returns their
    _Restart records in the same order."""
    m, n, p = cfg.dims
    r = cfg.rank
    volume = m * n * p
    starts = []
    for i in indices:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, i))))
        # draw order P, Q, S is part of the reproducibility contract
        starts.append(FactorSet(rng.uniform(-1.0, 1.0, (r, m * n)),
                                rng.uniform(-1.0, 1.0, (r, n * p)),
                                rng.uniform(-1.0, 1.0, (r, p * m))))
    f = [np.concatenate(stacks) for stacks in zip(*starts)]
    runs = [_Descent(start) for start in starts]
    live = runs
    for sweep in range(1, cfg.max_sweeps + 1):
        # one snap over all three stacks, flattened so that each model
        # comes back as a contiguous block
        models = _split(grid_floats[_snap(f, grid_floats)], [s.shape for s in f])
        lam = np.array([d.lam_eff for d in live])
        try:
            stacks = _sweep(f, models, target, lam)
        except np.linalg.LinAlgError:
            # numpy raises for the whole stack: sweep the restarts one by
            # one and drop those that raise again, with their state from
            # before this sweep
            keep, parts = [], []
            for j, d in enumerate(live):
                rows = slice(j * r, j * r + r)
                try:
                    parts.append(_sweep([s[rows] for s in f], [s[rows] for s in models],
                                        target, lam[j:j + 1]))
                except np.linalg.LinAlgError:
                    d.leave("singular", r)
                    continue
                keep.append(j)
            if not keep:
                break
            live = [live[j] for j in keep]
            stacks = tuple(np.concatenate(s) for s in zip(*parts))
        res = kernels.residual(*stacks, target[0], len(live)).tolist()
        keep = [j for j, d in enumerate(live) if d.step(sweep, res[j], stacks, j * r, r, volume)]
        f = stacks
        if len(keep) < len(live):
            if not keep:
                break
            live = [live[j] for j in keep]
            rows = (np.array(keep)[:, None] * r + np.arange(r)).ravel()
            f = [s[rows] for s in f]
    else:
        for d in live:
            d.leave("exhausted", r)
    return [_Restart(d.best_res, d.best, len(d.trace), tuple(d.trace), d.outcome, d.resets)
            for d in runs]


def _run_restarts(cfg, progress=None):
    """Every restart's _Restart record, in index order, from one batch of
    all the restarts; progress gets their summary lines once it ends."""
    results = _run_batch(cfg, range(cfg.restarts), _target(cfg.dims),
                         _grid_arrays(cfg.snap_grid)[1])
    if progress is not None:
        for i, out in enumerate(results):
            progress("restart %d %s residual %.6e after %d sweeps" % (
                i, out.outcome, out.best_res, out.sweeps))
    return results


def search(cfg, progress=None):
    """Run cfg.restarts independent regularized ALS descents and keep the
    best.  Every restart's best factors get a rationalization attempt, in
    ascending residual order with ties broken by restart index; the first
    attempt that verifies exactly is reported.  best_residual, factors,
    sweeps_used and trace always describe the lowest-residual restart;
    restarts holds one RestartRecord per restart.  The restarts run as
    one batch, yet every restart's numbers are those of a serial run, so
    the result is fully deterministic for a given config.  progress, when
    given, is called with one summary line per finished restart, in
    restart order."""
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
    results = _run_restarts(cfg, progress)

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
        restarts=tuple(RestartRecord(out.outcome, out.sweeps, out.resets, out.best_res)
                       for out in results),
    )
