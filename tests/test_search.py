import hashlib
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fmmkit import cli
from fmmkit.search import (
    DESK_LIMIT,
    FactorSet,
    RESTART_LIMIT,
    RestartRecord,
    SearchConfig,
    SWEEP_LIMIT,
    SearchResult,
    als_block_solve,
    als_objective,
    als_sweep,
    brent_residual,
    factor_set_from_tensor,
    rationalize,
    search,
    snap_models,
)
from fmmkit.search import als, kernels
from fmmkit.tensor import LAURENT, FmmTensor, verify_exact
from helpers import argmin_snap, classical_dense


def test_classical_dense_layout():
    T = classical_dense((2, 2, 2))
    assert T.shape == (4, 4, 4)
    assert T.sum() == 8.0
    # entry for A[0,1]*B[1,0] landing in C[0,0]
    assert T[0 * 2 + 1, 1 * 2 + 0, 0 * 2 + 0] == 1.0
    assert T[0 * 2 + 1, 0 * 2 + 0, 0 * 2 + 0] == 0.0


def test_helpers_reproduce_a_one_restart_search():
    grid = (0, 1, -1)
    for dims, rank, seed in (((2, 2, 2), 7, 1), ((2, 2, 2), 6, 4), ((1, 2, 3), 5, 2),
                             ((2, 3, 2), 9, 8)):
        out = search(SearchConfig(dims, rank, seed=seed, restarts=1, max_sweeps=1,
                                  snap_grid=grid))
        m, n, p = dims
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0))))
        start = FactorSet(rng.uniform(-1.0, 1.0, (rank, m * n)),
                          rng.uniform(-1.0, 1.0, (rank, n * p)),
                          rng.uniform(-1.0, 1.0, (rank, p * m)))
        models = snap_models(start, grid)
        swept = als_sweep(start, models, als.LAMBDA_INIT, dims)
        assert brent_residual(swept, dims) == out.trace[0][1]
        assert _same_bits(swept, out.factors)
        solved = start
        for slot in "PQS":
            solved = als_block_solve(solved, models, als.LAMBDA_INIT, dims, slot)
        assert _same_bits(solved, swept)


def test_brent_residual_zero_stack_counts_targets():
    f = FactorSet(np.zeros((1, 4)), np.zeros((1, 4)), np.zeros((1, 4)))
    assert brent_residual(f, (2, 2, 2)) == 8.0
    g = FactorSet(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
    assert brent_residual(g, (1, 1, 1)) == 1.0


def test_brent_residual_exact_decomposition_is_float_zero(strassen, t58):
    for t in (strassen, t58):
        f = factor_set_from_tensor(t)
        assert brent_residual(f, t.dims) == 0.0


def test_factor_set_shapes(strassen):
    f = factor_set_from_tensor(strassen)
    assert f.P.shape == (7, 4)
    assert f.Q.shape == (7, 4)
    assert f.S.shape == (7, 4)
    with pytest.raises(ValueError):
        factor_set_from_tensor(FmmTensor(strassen.dims, LAURENT, strassen.terms))


def test_snap_models_tie_rules():
    f = FactorSet(
        np.array([[0.25, -0.75, 0.6, -0.2]]),
        np.array([[0.9, 0.1, -0.1, 0.0]]),
        np.array([[2.0, -2.0, 0.49, 0.51]]),
    )
    halves = (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1))
    snapped = snap_models(f, grid=halves)
    assert snapped.P.tolist() == [[0.0, -0.5, 0.5, 0.0]]
    assert snapped.Q.tolist() == [[1.0, 0.0, 0.0, 0.0]]
    assert snapped.S.tolist() == [[1.0, -1.0, 0.5, 0.5]]


def test_snap_models_custom_grid():
    f = FactorSet(np.array([[0.6]]), np.array([[0.6]]), np.array([[0.6]]))
    coarse = snap_models(f, grid=(Fraction(0), Fraction(1), Fraction(-1)))
    assert coarse.P.tolist() == [[1.0]]


# the grids the snap's edges are pinned on: 0, 1 and -1; the halves from
# -2 to 2; and one whose midpoints are not all floats
SNAP_GRIDS = ((0, 1, -1), tuple(Fraction(k, 2) for k in range(-4, 5)),
              (0, 1, -1, 3, Fraction(-1, 3)))


def _snapped(x, grid):
    stack = np.array([x], dtype=np.float64)
    return snap_models(FactorSet(stack, stack, stack), grid).P[0]


@pytest.mark.parametrize("grid", SNAP_GRIDS, ids=["unit", "halves", "thirds"])
def test_snap_matches_argmin_at_the_midpoints(grid):
    # each midpoint of neighbouring grid floats and one ulp either side of
    # it, and both zeros: a midpoint itself goes to the neighbour nearer 0
    floats = np.array(sorted(float(g) for g in grid))
    mids = (floats[:-1] + floats[1:]) / 2
    x = np.concatenate([[0.0, -0.0], mids, np.nextafter(mids, np.inf),
                        np.nextafter(mids, -np.inf)])
    got = _snapped(x, grid)
    assert got.tolist() == argmin_snap(x, grid).tolist()
    on_mid = got[2:2 + len(mids)]
    assert (np.abs(on_mid) == np.minimum(np.abs(floats[:-1]), np.abs(floats[1:]))).all()
    assert got[:2].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("grid", SNAP_GRIDS, ids=["unit", "halves", "thirds"])
def test_snap_sends_far_and_nonfinite_entries_to_an_end(grid):
    # every rounded distance ties at these entries, where an argmin took
    # the candidate nearest 0; the snap takes the end each one lies past,
    # and NaN to the largest value
    lo, hi = float(min(grid)), float(max(grid))
    x = np.array([np.inf, -np.inf, np.nan, 1e17, -1e17, 1e300, -1e300])
    assert _snapped(x, grid).tolist() == [hi, lo, hi, hi, lo, hi, lo]
    assert argmin_snap(x, grid).tolist() == [0.0] * len(x)


def test_grid_values_that_share_a_float_snap_as_the_one_nearest_0(strassen):
    # 1 + 10**-30 is 1.0 as a float: entries near +-1 snap to +-1 whichever
    # side of 1.0 they lie, so the noisy Strassen rationalizes back to itself
    f = factor_set_from_tensor(strassen)
    noisy = FactorSet(f.P + 1e-9, f.Q - 1e-9, f.S)
    near = Fraction(1) + Fraction(1, 10**30)
    grid = (0, 1, -1, near, -near)
    assert rationalize(noisy, strassen.dims, grid) == strassen
    assert snap_models(noisy, grid).P.tolist() == f.P.tolist()


def test_float_grid_values_are_refused(strassen):
    # 0.1 is 3602879701896397/36028797018963968 as a float, not 1/10
    f = factor_set_from_tensor(strassen)
    for grid in ((-0.1, 0, 0.1), (0, 1, -1.0), (0, np.float64(0.5))):
        for build in (lambda: SearchConfig((2, 2, 2), 7, snap_grid=grid),
                      lambda: snap_models(f, grid), lambda: rationalize(f, (2, 2, 2), grid)):
            with pytest.raises(ValueError, match="inexact float snap_grid value "):
                build()
    exact = (Fraction(-1, 10), 0, "1/10")
    assert SearchConfig((2, 2, 2), 7, snap_grid=exact).snap_grid == (
        Fraction(-1, 10), Fraction(0), Fraction(1, 10))
    assert snap_models(f, exact).P.tolist() == (f.P / 10).tolist()
    # the CLI reads --grid 0.1 as the string it is, so 1/10
    assert cli._parse_grid("-0.1,0,0.1") == exact[:2] + (Fraction(1, 10),)


def test_one_value_grid_collapses_the_search():
    # every model is 0, so the ridge pulls each restart to the all-zero
    # fixed point and nothing rationalizes
    out = search(SearchConfig((2, 2, 2), 7, snap_grid=(0,), restarts=2))
    assert [rec.outcome for rec in out.restarts] == ["collapsed"] * 2
    assert out.rationalized is None
    zeros = np.zeros((2, 4))
    assert snap_models(FactorSet(zeros + 0.7, zeros - 3, zeros), (0,)).P.tolist() == zeros.tolist()


def test_als_sweep_fixed_point_at_exact_solution(strassen):
    f = factor_set_from_tensor(strassen)
    models = snap_models(f)
    out = als_sweep(f, models, 1e-8, strassen.dims)
    # measured on the dense definition: the kernel's residual reads
    # sum(GP*GQ*GS) - 2<C, S> + m*n*p, whose rounding floor at a solution
    # is a few ulps of m*n*p, far above this distance
    D = np.einsum("ta,tb,tc->abc", *out) - classical_dense(strassen.dims)
    assert float((D * D).sum()) < 1e-18
    assert brent_residual(out, strassen.dims) < 1e-14


def test_als_objective_monotone_under_block_solves():
    rng = np.random.default_rng(5)
    dims = (2, 2, 2)
    f = FactorSet(
        rng.uniform(-1, 1, (7, 4)),
        rng.uniform(-1, 1, (7, 4)),
        rng.uniform(-1, 1, (7, 4)),
    )
    lam = 0.3
    for _ in range(5):
        models = snap_models(f)
        before = als_objective(f, models, lam, dims)
        f = als_sweep(f, models, lam, dims)
        after = als_objective(f, models, lam, dims)
        assert after <= before * (1 + 1e-9) + 1e-12


def test_rationalize_recovers_exact_decompositions(strassen):
    f = factor_set_from_tensor(strassen)
    noisy = FactorSet(
        f.P + 1e-9 * np.ones_like(f.P),
        f.Q - 1e-9 * np.ones_like(f.Q),
        f.S + 1e-9 * np.ones_like(f.S),
    )
    t = rationalize(noisy, strassen.dims)
    assert t is not None
    assert verify_exact(t).passed
    assert t.rank == 7


def test_rationalize_rejects_junk():
    rng = np.random.default_rng(3)
    f = FactorSet(
        rng.uniform(-1, 1, (7, 4)),
        rng.uniform(-1, 1, (7, 4)),
        rng.uniform(-1, 1, (7, 4)),
    )
    assert rationalize(f, (2, 2, 2)) is None
    zeroed = FactorSet(np.full((1, 1), 0.1), np.full((1, 1), 1.0), np.full((1, 1), 1.0))
    assert rationalize(zeroed, (1, 1, 1)) is None  # snaps to an all-zero factor


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig((0, 2, 2), 7)
    with pytest.raises(ValueError):
        SearchConfig((2, 2, 2), 0)
    with pytest.raises(ValueError):
        SearchConfig((2, 2, 2), 7, snap_grid=(Fraction(1),))  # misses 0
    with pytest.raises(ValueError):
        SearchConfig((2, 2, 2), 7, restarts=0)
    with pytest.raises(ValueError):
        SearchConfig((1, 1, 1), 1, snap_grid=(0, 10**400))  # no finite float
    with pytest.raises(ValueError, match="seed must be non-negative"):
        SearchConfig((2, 2, 2), 7, seed=-5)
    # a value int() would change is refused by name, not truncated
    for field, kwargs in (("dims", dict(dims=(2.7, 2, 2))), ("rank", dict(rank=7.9)),
                          ("max_sweeps", dict(max_sweeps=10.5)),
                          ("restarts", dict(restarts=2.5)), ("seed", dict(seed=1.9)),
                          ("seed", dict(seed="1")), ("rank", dict(rank=math.inf))):
        with pytest.raises(ValueError, match="%s must be an integer" % field):
            SearchConfig(**{"dims": (2, 2, 2), "rank": 7, **kwargs})
    with pytest.raises(ValueError, match="dims must be an integer"):
        SearchConfig((2.7, 2, 2), 7.9, max_sweeps=10.5, restarts=2.5, seed=1.9)
    cfg = SearchConfig((2.0, 2, Fraction(2)), 7.0, max_sweeps=10.0, restarts=np.int64(2), seed=1.0)
    assert (cfg.dims, cfg.rank, cfg.max_sweeps, cfg.restarts, cfg.seed) == ((2, 2, 2), 7, 10, 2, 1)
    assert all(type(x) is int for x in (*cfg.dims, cfg.rank, cfg.max_sweeps, cfg.restarts,
                                         cfg.seed))
    cfg = SearchConfig((2, 2, 2), 7, snap_grid=(0, 1, -1, 1))
    assert cfg.snap_grid == (Fraction(-1), Fraction(0), Fraction(1))


def test_search_desk_limit():
    assert math.prod((3, 5, 5)) == DESK_LIMIT  # the paper's <3,5,5;58> runs at the desk
    big = (3, 5, 6)  # volume 90 over the limit
    assert big[0] * big[1] * big[2] > DESK_LIMIT
    # the config refuses, or warns, when it is built
    with pytest.raises(ValueError, match="desk limit"):
        SearchConfig(big, 2, max_sweeps=1)
    with pytest.warns(UserWarning, match="desk limit") as caught:
        SearchConfig(big, 2, max_sweeps=1, allow_large=True)
    assert [w.filename for w in caught] == [__file__]
    with pytest.raises(ValueError):
        search(SearchConfig(big, 2, max_sweeps=1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        search(SearchConfig(big, 2, max_sweeps=1, allow_large=True))
    assert any("desk" in str(w.message).lower() or "large" in str(w.message).lower()
               for w in caught)


def test_search_sweep_limit():
    assert SearchConfig((2, 1, 1), 1, max_sweeps=SWEEP_LIMIT).max_sweeps == SWEEP_LIMIT
    for sweeps in (SWEEP_LIMIT + 1, 10**30):
        with pytest.raises(ValueError, match="sweep limit"):
            SearchConfig((2, 1, 1), 1, max_sweeps=sweeps)
        cfg = SearchConfig((2, 1, 1), 1, max_sweeps=sweeps, allow_large=True)
        assert cfg.max_sweeps == sweeps


def test_search_restart_limit():
    budget = RESTART_LIMIT * 2000
    for restarts, sweeps in ((RESTART_LIMIT, 2000), (20, SWEEP_LIMIT), (1, SWEEP_LIMIT)):
        assert SearchConfig((2, 1, 1), 1, max_sweeps=sweeps, restarts=restarts).restarts == restarts
    for restarts, sweeps in ((RESTART_LIMIT + 1, 1), (10**30, 1), (21, SWEEP_LIMIT),
                             (RESTART_LIMIT, 2001)):
        assert restarts > RESTART_LIMIT or restarts * sweeps > budget
        with pytest.raises(ValueError, match="restart limit"):
            SearchConfig((2, 1, 1), 1, max_sweeps=sweeps, restarts=restarts)
        cfg = SearchConfig((2, 1, 1), 1, max_sweeps=sweeps, restarts=restarts, allow_large=True)
        assert (cfg.restarts, cfg.max_sweeps) == (restarts, sweeps)


def test_search_takes_a_wide_grid():
    # each snap sorts into the grid's midpoints, so its memory does not
    # grow with the grid and no grid size needs allow_large
    grid = tuple(range(-500, 501))
    cfg = SearchConfig((2, 2, 2), 7, snap_grid=grid, restarts=100, max_sweeps=2)
    assert len(cfg.snap_grid) == 1001
    # a repeated value counts once, as the config keeps it once
    assert SearchConfig((2, 2, 2), 7, snap_grid=grid + grid).snap_grid == tuple(map(Fraction, grid))
    tracemalloc.start()
    try:
        search(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_search_trivial_problem_succeeds():
    cfg = SearchConfig((1, 1, 1), 1, seed=3, snap_grid=(0, 1, -1))
    out = search(cfg)
    assert isinstance(out, SearchResult)
    assert out.rationalized is not None
    assert verify_exact(out.rationalized).passed
    assert out.best_residual < 1e-10


def test_search_small_classical_target():
    cfg = SearchConfig((1, 2, 1), 2, seed=5, restarts=4,
                       snap_grid=(0, 1, -1))
    out = search(cfg)
    assert out.rationalized is not None
    assert out.rationalized.dims == (1, 2, 1)
    assert out.rationalized.rank == 2
    assert verify_exact(out.rationalized).passed


def test_search_trace_is_deterministic():
    cfg = SearchConfig((2, 2, 2), 3, seed=11, restarts=2, max_sweeps=40)
    a = search(cfg)
    b = search(cfg)
    assert a.trace == b.trace
    assert a.best_residual == b.best_residual
    assert a.sweeps_used == b.sweeps_used


def test_search_progress_lines():
    seen = []
    cfg = SearchConfig((1, 1, 1), 1, seed=3, restarts=2)
    search(cfg, progress=seen.append)
    assert len(seen) == 2
    assert all(line.startswith("restart ") for line in seen)
    # each line names the restart's outcome, as RestartRecord does
    assert [line.split()[:3] for line in seen] == [["restart", "0", "converged"],
                                                   ["restart", "1", "collapsed"]]


def test_restart_lines_render_the_restart_records(capsys):
    # a converged, a collapsed and an exhausted restart: the library's and
    # the CLI's progress lines are both the rendering of SearchResult.restarts
    cfg = SearchConfig((1, 1, 1), 1, seed=3, restarts=3, max_sweeps=16)
    seen = []
    out = search(cfg, progress=seen.append)
    assert [(rec.outcome, rec.sweeps) for rec in out.restarts] == [
        ("exhausted", 16), ("collapsed", 6), ("converged", 16)]
    rendered = ["restart %d %s residual %.6e after %d sweeps"
                % (i, rec.outcome, rec.best_residual, rec.sweeps)
                for i, rec in enumerate(out.restarts)]
    assert seen == rendered
    assert cli.main(["search", "--dims", "1", "1", "1", "--rank", "1", "--seed", "3",
                     "--restarts", "3", "--max-sweeps", "16"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("restart ")] == rendered


# -- batched restarts -----------------------------------------------------------


def _serial_restart(cfg, index):
    """One restart as a plain loop: r x d stacks, one snap per stack, every
    Gram formed where it is read and scalar bookkeeping.  The reference the
    batched search must match bit for bit."""
    m, n, p = cfg.dims

    def products(A, B, a):
        # row t is vec((A_t B_t)^T), A_t being a x b and B_t b x c
        r, b = A.shape[0], A.shape[1] // a
        c = B.shape[1] // b
        return (B.reshape(r, b, c).transpose(0, 2, 1)
                @ A.reshape(r, a, b).transpose(0, 2, 1)).reshape(r, c * a)

    def solve(A, B, a, lam, model):
        r = A.shape[0]
        G = (A @ A.T) * (B @ B.T)
        G.flat[:: r + 1] += lam
        return np.linalg.solve(G, lam * model + products(A, B, a))

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, index))))
    P = rng.uniform(-1.0, 1.0, (cfg.rank, m * n))
    Q = rng.uniform(-1.0, 1.0, (cfg.rank, n * p))
    S = rng.uniform(-1.0, 1.0, (cfg.rank, p * m))
    lam, trace, history = als.LAMBDA_INIT, [], []
    best_res, best, prev_res, guard, resets = math.inf, (P, Q, S), math.inf, 0, 0
    best_sweep = 0
    for sweep in range(1, cfg.max_sweeps + 1):
        mP, mQ, mS = (argmin_snap(x, cfg.snap_grid) for x in (P, Q, S))
        lam_eff = lam + als.JITTER if lam < als.JITTER else lam
        P = solve(Q, S, n, lam_eff, mP)
        Q = solve(S, P, p, lam_eff, mQ)
        S = solve(P, Q, m, lam_eff, mS)
        G = (P @ P.T) * (Q @ Q.T) * (S @ S.T)
        res = float(G.sum() - 2.0 * (S * products(P, Q, m)).sum() + m * n * p)
        trace.append((sweep, res, lam_eff))
        if not math.isfinite(res):
            break
        if res < best_res:
            best_res, best, best_sweep = res, (P.copy(), Q.copy(), S.copy()), sweep
        if res < als.TOL:
            break
        if res < prev_res:
            lam *= als.LAMBDA_DECAY
        history.append(res)
        if sweep - guard > als.STALL_WINDOW:
            if not res < history[sweep - 1 - als.STALL_WINDOW] * (1.0 - als.STALL_DROP):
                lam, guard, resets = als.LAMBDA_INIT, sweep, resets + 1
        if sweep - best_sweep == als.STALL_SWEEPS:
            break
        prev_res = res
    return best_res, best, len(trace), tuple(trace), resets


def _run(cfg, indices):
    """The left descents of the restarts numbered in indices, from their
    drawn starts, as one batch."""
    return als._descend(cfg, als._starts(cfg, indices))


def _per_restart(cfg, width):
    """Every restart's record, run in batches of `width` consecutive
    restarts."""
    return [out for start in range(0, cfg.restarts, width)
            for out in _run(cfg, range(start, min(start + width, cfg.restarts)))]


def _same_bits(a, b):
    return all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b))


@pytest.mark.parametrize("dims, rank, restarts, max_sweeps", [
    ((2, 2, 2), 7, 4, 300),
    ((2, 2, 2), 6, 3, 300),
    ((1, 2, 3), 6, 4, 300),
    # every restart converges, each at a different sweep
    ((1, 2, 2), 4, 5, 1200),
    # large enough that OpenBLAS would pick another gemm kernel for one
    # product over all k*r rows than for one restart's r rows
    ((3, 3, 3), 23, 7, 20),
    # three restarts stall on a plateau, each at its own sweep, and the
    # fourth is still live when it runs out of sweeps
    ((2, 2, 2), 6, 4, 1500),
])
def test_restart_is_the_same_alone_or_in_a_batch(dims, rank, restarts, max_sweeps):
    cfg = SearchConfig(dims, rank, seed=7, restarts=restarts, max_sweeps=max_sweeps,
                       snap_grid=(0, 1, -1))
    alone = _per_restart(cfg, 1)
    # one batch of all restarts, then batches of two, the last one short
    # when restarts is odd
    for width in (restarts, 2):
        batched = _per_restart(cfg, width)
        for index, (a, b) in enumerate(zip(alone, batched)):
            assert a.trace == b.trace, (width, index)
            assert (a.sweeps, a.best_res, a.outcome, a.resets) == \
                (b.sweeps, b.best_res, b.outcome, b.resets)
            assert _same_bits(a.factors, b.factors)
    for index, a in enumerate(alone):
        best_res, best, sweeps, trace, resets = _serial_restart(cfg, index)
        assert (a.trace, a.sweeps, a.best_res, a.resets) == (trace, sweeps, best_res, resets)
        assert _same_bits(a.factors, best)
    if max_sweeps == 1500:
        assert [(a.outcome, a.sweeps) for a in alone] == [
            ("stalled", 904), ("stalled", 718), ("stalled", 1390), ("exhausted", 1500)]


def _recorded_call(kernel_name, cfg, index, call, arg):
    """The given argument of one call of a kernel (0-based call number) in
    restart `index` run alone."""
    seen = []
    real = getattr(kernels, kernel_name)

    def record(*args):
        seen.append(args[arg].copy())
        return real(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, kernel_name, record)
        _run(cfg, [index])
    return seen[call]


def _blocks(stack, r):
    return [stack[j:j + r] for j in range(0, stack.shape[0], r)]


def test_singular_and_nonfinite_restarts_leave_the_batch_alone(monkeypatch):
    cfg = SearchConfig((2, 2, 2), 6, seed=3, restarts=4, max_sweeps=40,
                       snap_grid=(0, 1, -1))
    r = cfg.rank
    alone = _per_restart(cfg, 1)
    # restart 1's P-solve of sweep 20 raises; restart 2's residual of
    # sweep 30 comes out infinite
    singular_q = _recorded_call("block_solve", cfg, 1, 3 * 19, 0)
    nonfinite_s = _recorded_call("residual", cfg, 2, 29, 0)
    real_solve, real_residual = kernels.block_solve, kernels.residual

    def block_solve(A, B, model, lam, GA, GB, a):
        if any(np.array_equal(block, singular_q) for block in _blocks(A, r)):
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(A, B, model, lam, GA, GB, a)

    def residual(S, C, G, volume):
        res = real_residual(S, C, G, volume)
        for j, block in enumerate(_blocks(S, r)):
            if np.array_equal(block, nonfinite_s):
                res[j] = np.inf
        return res

    monkeypatch.setattr(kernels, "block_solve", block_solve)
    monkeypatch.setattr(kernels, "residual", residual)
    batched = _run(cfg, range(cfg.restarts))
    for index in (0, 3):
        assert batched[index].trace == alone[index].trace
        assert batched[index].outcome == alone[index].outcome == "exhausted"
    singular, nonfinite = batched[1], batched[2]
    assert singular.outcome == "singular"
    assert singular.sweeps == 19
    assert singular.trace == alone[1].trace[:19]
    assert nonfinite.outcome == "nonfinite"
    assert nonfinite.sweeps == 30
    assert nonfinite.trace[:29] == alone[2].trace[:29]
    assert nonfinite.trace[29][:2] == (30, math.inf)
    records = search(cfg).restarts
    assert [rec.outcome for rec in records] == ["exhausted", "singular", "nonfinite", "exhausted"]
    assert [rec.sweeps for rec in records] == [40, 19, 30, 40]


def test_a_batch_whose_every_restart_turns_singular_ends_them_all(monkeypatch, capsys):
    def block_solve(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(kernels, "block_solve", block_solve)
    out = search(SearchConfig((2, 2, 2), 7, restarts=3, seed=1, max_sweeps=50))
    assert out.restarts == (RestartRecord("singular", 0, 0, math.inf),) * 3
    assert out.best_residual == math.inf
    assert out.trace == ()
    assert out.rationalized is None
    assert cli.main(["search", "--dims", "2", "2", "2", "--rank", "7", "--restarts", "3",
                     "--seed", "1", "--max-sweeps", "50"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "no verified decomposition; best residual inf\n"
    assert [line for line in captured.err.splitlines() if line.startswith("restart ")] == [
        "restart %d singular residual inf after 0 sweeps" % i for i in range(3)]
    assert "exhausted" not in captured.err


def test_a_stack_error_that_no_restart_raises_alone_is_raised_again(monkeypatch):
    # the batch must not sweep again and again when only the whole stack
    # raises: with no restart to drop, the error goes to the caller
    real_solve = kernels.block_solve
    calls = []

    def block_solve(A, B, model, lam, GA, GB, a):
        calls.append(len(lam))
        if len(lam) > 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(A, B, model, lam, GA, GB, a)

    monkeypatch.setattr(kernels, "block_solve", block_solve)
    with pytest.raises(np.linalg.LinAlgError):
        search(SearchConfig((2, 2, 2), 7, restarts=3, seed=1, max_sweeps=50))
    assert calls == [3, 1, 1, 1, 1, 1, 1, 1, 1, 1]


# -- descents from given starts --------------------------------------------------


def _noisy(f, sigma, rng):
    return FactorSet(*(x + rng.normal(0.0, sigma, x.shape) for x in f))


def test_descend_recovers_strassen_from_noisy_starts(strassen):
    cfg = SearchConfig(strassen.dims, strassen.rank)
    rng = np.random.default_rng(0)
    f = factor_set_from_tensor(strassen)
    runs = als._descend(cfg, [_noisy(f, 0.3, rng) for _ in range(10)])
    assert [d.outcome for d in runs] == ["converged"] * 10
    for d in runs:
        t = rationalize(d.factors, cfg.dims, cfg.snap_grid)
        assert t is not None and verify_exact(t).passed


def test_descend_recovers_the_bundled_58_from_a_noisy_start(t58):
    # the paper's <3,5,5;58> has 75 output coordinates, the desk limit
    cfg = SearchConfig(t58.dims, t58.rank)
    start = _noisy(factor_set_from_tensor(t58), 0.05, np.random.default_rng(0))
    d, = als._descend(cfg, [start])
    assert d.outcome == "converged"
    t = rationalize(d.factors, cfg.dims, cfg.snap_grid)
    assert t == t58
    assert verify_exact(t).passed


def test_descend_refuses_starts_of_another_shape(strassen):
    cfg = SearchConfig(strassen.dims, strassen.rank, max_sweeps=5)
    f = factor_set_from_tensor(strassen)
    dropped = FactorSet(*(x[1:] for x in f))
    with pytest.raises(ValueError, match=r"P stack must have shape \(7, 4\), got \(6, 4\)"):
        als._descend(cfg, [f, dropped])
    with pytest.raises(ValueError, match=r"Q stack must have shape \(7, 4\), got \(7, 5\)"):
        als._descend(cfg, [f._replace(Q=np.zeros((7, 5)))])


def test_descend_takes_its_rank_from_the_starts(strassen):
    # Strassen with one term dropped runs at rank 6 under a rank-7 config
    cfg = SearchConfig(strassen.dims, strassen.rank, max_sweeps=50)
    f = factor_set_from_tensor(strassen)
    starts = [FactorSet(*(np.delete(x, term, axis=0) for x in f)) for term in (0, 3)]
    runs = als._descend(cfg, starts)
    assert [(d.outcome, d.sweeps) for d in runs] == [("exhausted", 50)] * 2
    assert all(stack.shape == (6, 4) for d in runs for stack in d.factors)
    assert all(d.best_res > als.TOL for d in runs)


# (exit code, stdout, stderr) of `fmmkit search --dims 2 2 2 --restarts 10`
# at ranks 7 and 6, seeds 1, 7 and 42.  A change that alters the search's
# output updates this table and says why in CHANGES.md
SEARCH_SHA256 = {
    "7/1": "a1531ee3dd9df6c3b4d7ed6ac2d735c8a89debb50f6fcb8501b457fb01ca5c9d",
    "7/7": "bbbc92be73130c445698e0cf2cf2f99be46ad9ab41e7fd200cef45cbcbc3e905",
    "7/42": "80cf843f80dd8e6676d0b8022804f1d1ce3d4165d1e8ba8930fe9aedc9c119c0",
    "6/1": "8da91d0c40608e3bb562c9a1f315d41f99f8bd323b5171a1dea7cfdc8f107727",
    "6/7": "48d407b1882a2e1f84be27c75420a88dc3d2a19d1b13961b51e49e1f9f7f2472",
    "6/42": "ce152fabcd868fdad450244ea05c56c3d67bb7d9b8e01703599af78275ac4d5b",
}


def test_search_output_is_pinned(capsys):
    got = {}
    for key in SEARCH_SHA256:
        rank, seed = key.split("/")
        code = cli.main(["search", "--dims", "2", "2", "2", "--rank", rank,
                         "--restarts", "10", "--seed", seed])
        out, err = capsys.readouterr()
        got[key] = hashlib.sha256(repr((code, out, err)).encode()).hexdigest()
    assert got == SEARCH_SHA256


# -- structured kernels ---------------------------------------------------------


def _random_stacks(dims, rows, seed):
    m, n, p = dims
    rng = np.random.default_rng(seed)
    return tuple(rng.uniform(-1.0, 1.0, (rows, d)) for d in (m * n, n * p, p * m))


def _kernel_residual(P, Q, S, dims, k):
    G = kernels.gram(P, k) * kernels.gram(Q, k) * kernels.gram(S, k)
    return kernels.residual(S, kernels.products(P, Q, dims[0]), G, math.prod(dims))


@pytest.mark.parametrize("dims, rank", [((1, 2, 3), 5), ((2, 3, 2), 6), ((2, 2, 2), 7),
                                        ((3, 3, 3), 23)])
@pytest.mark.parametrize("k", [1, 3])
def test_products_are_the_khatri_rao_times_target_form(dims, rank, k):
    # each solve's right-hand side, against the Khatri-Rao product of the
    # other two stacks times the dense target matricized with the solved
    # mode first
    stacks = _random_stacks(dims, k * rank, 10)
    T = classical_dense(dims)
    for i, axes in enumerate(((0, 1, 2), (1, 0, 2), (2, 0, 1))):
        A, B = (stacks[j] for j in range(3) if j != i)
        KR = (A[:, :, None] * B[:, None, :]).reshape(k * rank, -1)
        want = KR @ T.transpose(axes).reshape(T.shape[i], -1).T
        got = kernels.products(stacks[(i + 1) % 3], stacks[(i + 2) % 3], dims[(i + 1) % 3])
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("dims, rank", [((1, 2, 3), 5), ((2, 2, 2), 7), ((3, 3, 3), 23)])
@pytest.mark.parametrize("k", [1, 3])
def test_residual_is_the_dense_definition(dims, rank, k):
    P, Q, S = _random_stacks(dims, k * rank, 11)
    T = classical_dense(dims)
    res = _kernel_residual(P, Q, S, dims, k)
    assert res.shape == (k,)
    for j in range(k):
        rows = slice(j * rank, j * rank + rank)
        D = np.einsum("ta,tb,tc->abc", P[rows], Q[rows], S[rows]) - T
        want = float((D * D).sum())
        assert abs(res[j] - want) <= 1e-12 * want


@pytest.mark.parametrize("dims, rank, k", [((2, 2, 2), 7, 20), ((1, 2, 3), 6, 4),
                                           ((3, 3, 3), 23, 7), ((4, 4, 4), 49, 4)])
def test_residual_is_the_same_alone_or_in_a_batch(dims, rank, k):
    P, Q, S = _random_stacks(dims, k * rank, 12)
    batched = _kernel_residual(P, Q, S, dims, k)
    for j in range(k):
        rows = slice(j * rank, j * rank + rank)
        alone = _kernel_residual(P[rows], Q[rows], S[rows], dims, 1)
        assert alone.tobytes() == batched[j:j + 1].tobytes()


def test_sweep_builds_no_khatri_rao_stack():
    # one batch sweep and its residual, as the search runs them, peak below
    # one Khatri-Rao stack of every restart at once, the k*r x (np)(pm)
    # float64 array the P solve's dense right-hand side was built from
    dims, rank, k = (4, 4, 4), 49, 4
    stacks = _random_stacks(dims, k * rank, 13)
    models = [np.round(stack) for stack in stacks]
    lam = np.full(k, 0.5)
    grams = [kernels.gram(stack, k) for stack in stacks[1:]]
    khatri_rao_bytes = 8 * k * rank * 16 * 16
    tracemalloc.start()
    try:
        als._sweep(stacks, models, grams, lam, als.Dims(*dims))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < khatri_rao_bytes


def test_carried_grams_follow_the_live_restarts(monkeypatch):
    # restarts converge at different sweeps and leave the batch; every
    # solve still reads the Grams of exactly the stacks it is given, which
    # the batch carries over from the sweep before
    cfg = SearchConfig((1, 2, 2), 4, seed=7, restarts=5, max_sweeps=1200,
                       snap_grid=(0, 1, -1))
    real_solve = kernels.block_solve
    batch_sizes = []

    def block_solve(A, B, model, lam, GA, GB, a):
        k = len(lam)
        assert GA.tobytes() == kernels.gram(A, k).tobytes()
        assert GB.tobytes() == kernels.gram(B, k).tobytes()
        batch_sizes.append(k)
        return real_solve(A, B, model, lam, GA, GB, a)

    monkeypatch.setattr(kernels, "block_solve", block_solve)
    records = _run(cfg, range(cfg.restarts))
    assert [out.outcome for out in records] == ["converged"] * 5
    assert len(set(out.sweeps for out in records)) == 5
    assert sorted(set(batch_sizes), reverse=True) == [5, 4, 3, 2, 1]


def test_search_records_every_restart():
    cfg = SearchConfig((2, 2, 2), 6, seed=5, restarts=3, max_sweeps=400,
                       snap_grid=(0, 1, -1))
    out = search(cfg)
    assert len(out.restarts) == 3
    assert all(isinstance(rec, RestartRecord) for rec in out.restarts)
    assert [rec.outcome for rec in out.restarts] == ["exhausted"] * 3
    assert [rec.sweeps for rec in out.restarts] == [400] * 3
    assert out.best_residual == min(rec.best_residual for rec in out.restarts)
    assert any(rec.lambda_resets > 0 for rec in out.restarts)
    mixed = search(SearchConfig((1, 1, 1), 1, seed=3, restarts=2, snap_grid=(0, 1, -1)))
    converged, collapsed = mixed.restarts
    assert converged.outcome == "converged"
    assert converged.best_residual < 1e-10 and converged.sweeps < 2000
    assert collapsed.outcome == "collapsed"
    assert collapsed.best_residual > 1e-10 and collapsed.sweeps < 2000


def test_all_zero_restart_stops_collapsed():
    # restart 1 reaches all-zero stacks at sweep 6, a fixed point of the
    # sweep; until then it runs as in a search capped at 5 sweeps
    cfg = dict(dims=(1, 1, 1), rank=1, seed=3, restarts=2, snap_grid=(0, 1, -1))
    first, second = _run(SearchConfig(**cfg), range(2))
    assert (first.outcome, first.sweeps) == ("converged", 17)
    assert first.trace == _run(SearchConfig(**dict(cfg, restarts=1)), [0])[0].trace
    assert (second.outcome, second.sweeps) == ("collapsed", 6)
    assert second.trace[-1][1] == 1.0
    capped = _run(SearchConfig(**dict(cfg, max_sweeps=5)), range(2))[1]
    assert capped.outcome == "exhausted"
    assert second.trace[:5] == capped.trace
    assert second.best_res == capped.best_res == second.trace[0][1]
    assert all(np.array_equal(a, b) for a, b in zip(second.factors, capped.factors))


def test_search_rank_is_capped_at_the_classical_rank():
    # the classical scheme already has rank m*n*p; a larger rank would only
    # grow the r x r Gram matrices of every block solve
    for allow_large in (False, True):
        assert SearchConfig((2, 2, 2), 8, allow_large=allow_large).rank == 8
        for rank in (9, 10**12):
            with pytest.raises(ValueError, match="exceeds the classical rank 8"):
                SearchConfig((2, 2, 2), rank, allow_large=allow_large)


def test_stagnation_reset_fires_after_the_window(monkeypatch):
    # a residual stuck at 5.0 drops once, from inf at sweep 1, so sweeps
    # 2-26 run at the decayed lambda; at sweep 26 it has not dropped over
    # the stall window of 25 sweeps, so sweep 27 runs at LAMBDA_INIT again
    monkeypatch.setattr(kernels, "residual", lambda S, C, G, volume: np.full(len(G), 5.0))
    out = search(SearchConfig((2, 2, 2), 7, max_sweeps=100))
    lam = {sweep: value for sweep, _, value in out.trace}
    assert lam[2] == lam[26] == als.LAMBDA_INIT * als.LAMBDA_DECAY
    assert lam[27] == als.LAMBDA_INIT
    assert out.restarts[0].lambda_resets == 3


def test_plateau_exit_stops_a_stuck_restart(monkeypatch):
    # the same stuck residual as above: its only new best is sweep 1, so the
    # restart stops STALL_SWEEPS sweeps later, with that sweep in its trace,
    # after a lambda reset every 26 sweeps (26, 52, ..., 494)
    stop = 1 + als.STALL_SWEEPS
    assert stop == 501
    monkeypatch.setattr(kernels, "residual", lambda S, C, G, volume: np.full(len(G), 5.0))
    seen = []
    out = search(SearchConfig((2, 2, 2), 7, max_sweeps=600), progress=seen.append)
    assert seen == ["restart 0 stalled residual 5.000000e+00 after %d sweeps" % stop]
    record = out.restarts[0]
    assert (record.outcome, record.sweeps, record.lambda_resets) == ("stalled", stop, 19)
    assert out.sweeps_used == stop and out.trace[-1][0] == stop
    assert out.best_residual == 5.0


def test_plateau_exit_counts_from_the_last_new_best(monkeypatch):
    # flat at 5.0, then a new best of 4.0 at sweep 300 and flat again: the
    # count restarts there, so the restart stops at sweep 800, not 501
    calls = []

    def residual(S, C, G, volume):
        calls.append(len(G))
        return np.full(len(G), 4.0 if len(calls) >= 300 else 5.0)

    monkeypatch.setattr(kernels, "residual", residual)
    seen = []
    out = search(SearchConfig((2, 2, 2), 7, max_sweeps=1000), progress=seen.append)
    assert seen == ["restart 0 stalled residual 4.000000e+00 after 800 sweeps"]
    record = out.restarts[0]
    assert (record.outcome, record.sweeps) == ("stalled", 300 + als.STALL_SWEEPS)
    assert out.trace[-1][0] == 800 and len(calls) == 800
    assert out.best_residual == 4.0


def test_plateau_exit_keeps_a_restart_that_finds_a_scheme():
    # a <2,2,2;7> restart that goes 486 sweeps without a new best residual
    # and then converges to a verified scheme: STALL_SWEEPS must stay above
    # the longest gap measured in a restart that leads to a scheme
    cfg = SearchConfig((2, 2, 2), 7, seed=1858194101, snap_grid=(0, 1, -1))
    out, = _run(cfg, [12])
    assert (out.outcome, out.sweeps) == ("converged", 1584)
    best_res, best_sweep, gap = math.inf, 0, 0
    for sweep, res, _ in out.trace:
        if res < best_res:
            best_res, best_sweep = res, sweep
        else:
            gap = max(gap, sweep - best_sweep)
    assert gap == 486 < als.STALL_SWEEPS
    t = rationalize(out.factors, cfg.dims, cfg.snap_grid)
    assert t is not None and verify_exact(t).passed


ONES = FactorSet(np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)))


@pytest.mark.parametrize("call, message", [
    (lambda: SearchConfig((2, 2, 2), 7, max_sweeps=0), "max_sweeps must be positive"),
    (lambda: als_block_solve(ONES, ONES, -0.5, (1, 1, 1), "P"), "lambda must be nonnegative"),
    (lambda: als_sweep(ONES, ONES, -1e-300, (1, 1, 1)), "lambda must be nonnegative"),
    (lambda: als_block_solve(ONES, ONES, 0.5, (1, 1, 1), "R"), "slot must be P, Q or S, got 'R'"),
], ids=["no sweeps", "negative lambda", "tiny negative lambda", "bad slot"])
def test_refusals(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
