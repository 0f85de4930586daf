"""Regularized alternating least squares search for multiplication schemes.

The search looks for rank-r float factor stacks whose rank-one expansion
matches the classical multiplication tensor of the requested dimensions,
pulling the iterate toward snap-grid models with a decaying ridge weight
so that a converged solution usually rounds to exact rational factors.
A snap looks each entry of a stack up among the midpoints of the sorted
grid's neighbouring values, one stack at a time, so its memory grows
with the stack and not with the grid (see _snap).

Factor stacks are plain float arrays: P is r x (m*n), Q is r x (n*p),
S is r x (p*m), each row the row-major vectorization of one factor.
_descend runs restarts from given starts as one batch that stacks their
factor stacks row block by row block (see kernels); search draws the
starts per (seed, restart) with _starts.  A restart's trace is the same
bit for bit in any batch, and alone.  Each restart is one _Descent, the
record search builds its RestartRecord and line from once it leaves.

No step reads a dense target: a right-hand side is one matrix product
per term, and a sweep reads its residual from the Grams and products it
built (see kernels).  The search and the public helpers (als_block_solve,
als_sweep, als_objective, brent_residual) share these kernels and one
sweep; the helpers run as a batch of one restart, so they give the
search's numbers bit for bit.
"""

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..matrices import _sparse
from ..scalars import integral, rational
from ..tensor import RATIONAL, Dims, FmmTensor, Term, _settled_dims, verify_exact
from . import kernels

FactorSet = namedtuple("FactorSet", ["P", "Q", "S"])

# each slot with the two others in cyclic order, (i+1, i+2) mod 3: a solve
# for P reads Q and S, for Q it reads S and P, for S it reads P and Q
_CYCLE = tuple((i, (i + 1) % 3, (i + 2) % 3) for i in range(3))

# beyond this many output coordinates (m*n*p) a desk run stops being
# interactive, so larger problems must opt in explicitly.  75 admits the
# paper's <3,5,5>: one restart's sweep at <3,5,5;58> takes about 0.28 ms
# on a 2-core x86-64 machine, so 2,000 sweeps take 0.6 s
DESK_LIMIT = 75

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
# over the last STALL_WINDOW sweeps, reset lambda to LAMBDA_INIT.  A restart
# stops, stalled on a plateau, STALL_SWEEPS sweeps after its last new best
# residual.  The longest such gap measured in a <2,2,2;7> restart that went
# on to a verified scheme is 486 sweeps; at 400, some of those stalled first
STALL_WINDOW = 25
STALL_DROP = 1e-3
STALL_SWEEPS = 500

RestartRecord = namedtuple(
    "RestartRecord", ["outcome", "sweeps", "lambda_resets", "best_residual"])
RestartRecord.__doc__ = """How one restart ended.  outcome is "converged"
(residual below TOL), "stalled" (STALL_SWEEPS sweeps since its last new
best residual), "exhausted" (ran max_sweeps), "nonfinite"
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
        dims = _settled_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        volume = math.prod(dims)
        object.__setattr__(self, "rank", integral(self.rank, "rank"))
        if self.rank < 1:
            raise ValueError("rank must be positive, got %r" % (self.rank,))
        # the classical scheme has rank m*n*p; above it, r x r Gram matrices only grow
        if self.rank > volume:
            raise ValueError("rank %d exceeds the classical rank %d of <%d,%d,%d>"
                             % ((self.rank, volume) + dims))
        try:
            grid = tuple(sorted({rational(g, "snap_grid value") for g in self.snap_grid}))
            for g in grid:
                float(g)  # the search snaps to the grid's floats
        except OverflowError:
            raise ValueError("snap_grid values must be finite floats") from None
        if Fraction(0) not in grid:
            raise ValueError("snap_grid must contain 0")
        object.__setattr__(self, "snap_grid", grid)
        object.__setattr__(self, "max_sweeps", integral(self.max_sweeps, "max_sweeps"))
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be positive")
        if self.max_sweeps > SWEEP_LIMIT and not self.allow_large:
            raise ValueError(
                "max_sweeps %d exceeds the sweep limit %d; set allow_large=True to proceed"
                % (self.max_sweeps, SWEEP_LIMIT))
        object.__setattr__(self, "restarts", integral(self.restarts, "restarts"))
        if self.restarts < 1:
            raise ValueError("restarts must be positive")
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
        object.__setattr__(self, "seed", integral(self.seed, "seed"))
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if volume > DESK_LIMIT:
            if not self.allow_large:
                raise ValueError(
                    "output size %d exceeds the desk limit %d; set allow_large=True to proceed"
                    % (volume, DESK_LIMIT))
            # stacklevel 3 names the line that built the config
            warnings.warn("searching beyond the desk limit (%d > %d); expect long sweeps"
                          % (volume, DESK_LIMIT), stacklevel=3)


@dataclass(frozen=True)
class SearchResult:
    best_residual: float
    factors: object
    sweeps_used: int
    rationalized: object
    trace: tuple
    restarts: tuple = ()


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
    stacks = FactorSet(*(np.zeros((t.rank, f.rows * f.cols)) for f in t.terms[0]))
    for k, term in enumerate(t.terms):
        for stack, f in zip(stacks, term):
            for i, j, x in f.nonzeros:
                stack[k, i * f.cols + j] = x
    return stacks


def brent_residual(f, dims):
    """Squared Frobenius distance from the stacks' expansion to the
    classical tensor of the given dimensions, read as a sweep reads it."""
    dims = Dims(*dims)
    (P, Q, S), = _stacks(dims, f)
    G = kernels.gram(P, 1) * kernels.gram(Q, 1)
    G *= kernels.gram(S, 1)
    return float(kernels.residual(S, kernels.products(P, Q, dims.m), G, math.prod(dims))[0])


def _grid(grid):
    """The grid's values as Fractions in ascending order, their floats, and
    the bounds _snap sorts entries into: the midpoints of neighbouring
    floats, each negative one lowered by an ulp so that an entry on it is
    past it.  Values that share a float count once, as the one nearest 0."""
    nearest = {}
    for g in sorted((rational(g, "snap_grid value") for g in grid), key=abs):
        nearest.setdefault(float(g), g)
    floats = np.array(sorted(nearest))
    values = [nearest[x] for x in floats.tolist()]
    mids = (floats[:-1] + floats[1:]) / 2
    return values, floats, np.where(mids < 0, np.nextafter(mids, -np.inf), mids)


def _snap(x, bounds):
    """Index of the nearest grid value for every entry of the array x,
    given the bounds _grid makes: the number of bounds below the entry.
    An entry on a midpoint goes to the neighbour nearer 0, and an entry
    past an end of the grid, however far, to that end: +inf to the
    largest value, -inf to the smallest.  NaN goes to the largest."""
    return np.searchsorted(bounds, x)


def snap_models(f, grid=DEFAULT_GRID):
    """Nearest-grid-point model stacks for the proximal term, snapped as
    _snap snaps: distance ties go to the candidate nearer 0."""
    _, floats, bounds = _grid(grid)
    return FactorSet(*(floats[_snap(np.asarray(stack, dtype=np.float64), bounds)]
                       for stack in f))


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
    i, a, b = _CYCLE[FactorSet._fields.index(slot)]
    A, B = f[a], f[b]
    solved, _ = kernels.block_solve(A, B, models[i], np.array([_effective_lambda(lam)]),
                                    kernels.gram(A, 1), kernels.gram(B, 1), dims[a])
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
    return brent_residual(f, dims) + lam * prox


def _sweep(stacks, models, grams, lam, dims):
    """One cyclic pass of block solves on P, Q then S at the ridge weights
    lam, one per restart; each solve uses the stacks already updated
    earlier in the same pass, as als_block_solve reads them.  Takes and
    returns the Grams of Q and S, so a pass forms three Grams per
    restart, and returns the residuals."""
    k = len(lam)
    f = list(stacks)
    grams = [None, *grams]
    for i, a, b in _CYCLE:
        f[i], C = kernels.block_solve(f[a], f[b], models[i], lam, grams[a], grams[b], dims[a])
        grams[i] = kernels.gram(f[i], k)
    GP, GQ, GS = grams
    # no later pass reads GP, so it takes the Grams' elementwise product
    GP *= GQ
    GP *= GS
    return FactorSet(*f), (GQ, GS), kernels.residual(f[2], C, GP, math.prod(dims))


def als_sweep(f, models, lam, dims):
    """One cyclic pass of block solves on P, Q then S, as als_block_solve
    makes them: the search's own sweep, run as a batch of one."""
    dims = Dims(*dims)
    f, models = _stacks(dims, f, models)
    grams = (kernels.gram(f.Q, 1), kernels.gram(f.S, 1))
    return _sweep(f, models, grams, np.array([_effective_lambda(lam)]), dims)[0]


def rationalize(f, dims, snap_grid=DEFAULT_GRID):
    """Snap float stacks to the nearest grid rationals, rebuild an exact
    tensor and verify it.  Returns the tensor on success, None when the
    snapped factors fail verification or degenerate to a zero factor.
    Each factor is built from its entries that snap to a nonzero value."""
    dims = Dims(*dims)
    f, = _stacks(dims, f)
    values, _, bounds = _grid(snap_grid)
    nonzero = np.array(values, dtype=bool)
    slots = []
    # a stack row is one factor's cells, row-major (P m x n, Q n x p, S p x m),
    # so np.nonzero lists the nonzero cells term by term, each in row-major order
    for stack, (rows, cols) in zip(f, ((dims.m, dims.n), (dims.n, dims.p), (dims.p, dims.m))):
        snapped = _snap(stack, bounds)
        term, cell = np.nonzero(nonzero[snapped])
        nonzeros = list(zip(*(x.tolist() for x in np.divmod(cell, cols)),
                            map(values.__getitem__, snapped[term, cell].tolist())))
        ends = np.searchsorted(term, np.arange(len(stack) + 1)).tolist()
        slots.append([_sparse(rows, cols, nonzeros[a:b]) for a, b in zip(ends, ends[1:])])
    try:
        t = FmmTensor(dims, RATIONAL, list(map(Term, *slots)))
    except ValueError:
        return None
    return t if verify_exact(t).passed else None


class _Descent:
    """One restart's descent: its state while it runs and, once it leaves,
    the record search reads: outcome, best_res with its factors, resets,
    the trace of (sweep, residual, lambda) frozen to a tuple, and sweeps.

    An improvement does not copy the restart's rows out of the batch: best_at
    keeps the batch stacks of the best sweep and the restart's first row in
    them, which no later sweep writes to, and settle() copies the rows once
    a sweep brings no improvement or the restart leaves.  So at most two
    sweeps' stacks stay referenced.

    best_sweep is the sweep of the last new best residual."""

    __slots__ = ("lam", "lam_eff", "trace", "best_res", "factors", "best_at",
                 "prev_res", "guard", "resets", "best_sweep", "outcome")

    def __init__(self, start):
        self.lam = LAMBDA_INIT
        self.lam_eff = _effective_lambda(LAMBDA_INIT)
        self.trace = []
        self.best_res = math.inf
        self.factors = start
        self.best_at = None
        self.prev_res = math.inf
        self.guard = 0
        self.resets = 0
        self.best_sweep = 0
        self.outcome = None

    @property
    def sweeps(self):
        return len(self.trace)

    def leave(self, outcome, r):
        """End the restart with the given outcome; returns False."""
        self.outcome = outcome
        self.trace = tuple(self.trace)
        self.settle(r)
        return False

    def settle(self, r):
        if self.best_at is not None:
            (P, Q, S), row = self.best_at
            rows = slice(row, row + r)
            self.factors = FactorSet(P[rows].copy(), Q[rows].copy(), S[rows].copy())
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
            self.best_sweep = sweep
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
        if sweep - self.best_sweep == STALL_SWEEPS:
            return self.leave("stalled", r)
        self.lam_eff = _effective_lambda(self.lam)
        self.prev_res = res
        return True


def _starts(cfg, indices):
    """The uniform start of each restart numbered in indices, drawn from
    its own (seed, restart) stream."""
    m, n, p = cfg.dims
    rngs = (np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, i))))
            for i in indices)
    # draw order P, Q, S is part of the reproducibility contract
    return [FactorSet(*(rng.uniform(-1.0, 1.0, (cfg.rank, cols)) for cols in (m * n, n * p, p * m)))
            for rng in rngs]


def _descend(cfg, starts):
    """Run the given factor sets, all of one rank, as one batch of
    restarts; returns their left _Descents in the same order.  Reads only
    cfg's dims, max_sweeps and snap_grid."""
    starts = _stacks(cfg.dims, *starts)
    r = starts[0].P.shape[0]
    volume = math.prod(cfg.dims)
    _, grid_floats, bounds = _grid(cfg.snap_grid)
    f = [np.concatenate(stacks) for stacks in zip(*starts)]
    # the Grams of Q and S that the next sweep reads, one block per live restart
    grams = (kernels.gram(f[1], len(starts)), kernels.gram(f[2], len(starts)))
    runs = live = [_Descent(start) for start in starts]
    sweep = 1
    while live:
        models = [grid_floats[_snap(s, bounds)] for s in f]
        lam = np.array([d.lam_eff for d in live])
        try:
            f, grams, res = _sweep(f, models, grams, lam, cfg.dims)
        except np.linalg.LinAlgError:
            # numpy raises for the whole stack: sweep the restarts one by
            # one; those that raise again leave with their state from
            # before this sweep and the rest run it again, unless none
            # raised, when sweeping again would only raise again
            keep = []
            for j, d in enumerate(live):
                rows = slice(j * r, j * r + r)
                try:
                    _sweep([s[rows] for s in f], [s[rows] for s in models],
                           [G[j:j + 1] for G in grams], lam[j:j + 1], cfg.dims)
                    keep.append(j)
                except np.linalg.LinAlgError:
                    d.leave("singular", r)
            if len(keep) == len(live):
                raise
        else:
            res = res.tolist()
            keep = [j for j, d in enumerate(live)
                    if d.step(sweep, res[j], f, j * r, r, volume)
                    and (sweep < cfg.max_sweeps or d.leave("exhausted", r))]
            sweep += 1
        if len(keep) < len(live):
            live = [live[j] for j in keep]
            rows = (np.array(keep, dtype=np.intp)[:, None] * r + np.arange(r)).ravel()
            f = [s[rows] for s in f]
            grams = [G[keep] for G in grams]
    return runs


def search(cfg, progress=None):
    """Run cfg.restarts independent regularized ALS descents and keep the
    best.  Every restart's best factors get a rationalization attempt, in
    ascending residual order with ties broken by restart index; the first
    attempt that verifies exactly is reported.  best_residual, factors,
    sweeps_used and trace always describe the lowest-residual restart;
    restarts holds one RestartRecord per restart.  One batch runs from the
    starts _starts draws per (seed, restart), each restart's numbers those
    of a serial run, so the result is deterministic for a given config.
    progress, when given, is called once the batch ends with one line per
    restart, in restart order, rendered from its RestartRecord.  The size
    limits are SearchConfig's, checked when cfg was built."""
    runs = _descend(cfg, _starts(cfg, range(cfg.restarts)))
    records = tuple(RestartRecord(d.outcome, d.sweeps, d.resets, d.best_res) for d in runs)
    if progress is not None:
        for i, rec in enumerate(records):
            progress("restart %d %s residual %.6e after %d sweeps"
                     % (i, rec.outcome, rec.best_residual, rec.sweeps))
    order = sorted(range(cfg.restarts), key=lambda i: (records[i].best_residual, i))
    rationalized = None
    for i in order:
        rationalized = rationalize(runs[i].factors, cfg.dims, cfg.snap_grid)
        if rationalized is not None:
            break
    best = runs[order[0]]
    return SearchResult(best_residual=best.best_res, factors=best.factors,
                        sweeps_used=best.sweeps, rationalized=rationalized,
                        trace=best.trace, restarts=records)
