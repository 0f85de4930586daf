import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

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
    classical_dense,
    factor_set_from_tensor,
    rationalize,
    search,
    snap_models,
)
from fmmkit.search import als, kernels
from fmmkit.tensor import LAURENT, FmmTensor, verify_exact


def test_classical_dense_layout():
    T = classical_dense((2, 2, 2))
    assert T.shape == (4, 4, 4)
    assert T.sum() == 8.0
    # entry for A[0,1]*B[1,0] landing in C[0,0]
    assert T[0 * 2 + 1, 1 * 2 + 0, 0 * 2 + 0] == 1.0
    assert T[0 * 2 + 1, 0 * 2 + 0, 0 * 2 + 0] == 0.0


def test_target_is_built_once_and_read_only():
    for dims in ((2, 2, 2), (1, 2, 3), (3, 1, 2)):
        target = als._target(als.Dims(*dims))
        assert als._target(als.Dims(*dims)) is target
        m, n, p = dims
        assert [T.shape for T in target] == [(m * n, n * p * p * m), (n * p, m * n * p * m),
                                             (p * m, m * n * n * p)]
        assert np.array_equal(target[0].reshape(-1), classical_dense(dims).reshape(-1))
        for T in target:
            assert not T.flags.writeable
            with pytest.raises(ValueError):
                T[0, 0] = 2.0


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


def test_als_sweep_fixed_point_at_exact_solution(strassen):
    f = factor_set_from_tensor(strassen)
    models = snap_models(f)
    out = als_sweep(f, models, 1e-8, strassen.dims)
    assert brent_residual(out, strassen.dims) < 1e-18


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
    cfg = SearchConfig((2, 2, 2), 7, snap_grid=(0, 1, -1, 1))
    assert cfg.snap_grid == (Fraction(-1), Fraction(0), Fraction(1))


def test_search_desk_limit():
    big = (4, 3, 4)  # volume 48 over the limit
    assert big[0] * big[1] * big[2] > DESK_LIMIT
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


# -- batched restarts -----------------------------------------------------------


def _serial_restart(cfg, index):
    """One restart as the search ran it before batching: plain r x d
    stacks, one snap per stack and scalar bookkeeping.  The reference the
    batched search must match bit for bit."""
    m, n, p = cfg.dims
    Tdense = classical_dense(cfg.dims)
    T1 = Tdense.reshape(m * n, -1)
    T2 = Tdense.transpose(1, 0, 2).reshape(n * p, -1)
    T3 = Tdense.transpose(2, 0, 1).reshape(p * m, -1)
    _, grid = als._grid_arrays(cfg.snap_grid)

    def snap(x):
        return grid[np.argmin(np.abs(x[..., None] - grid), axis=-1)]

    def solve(A, B, Tmat, lam, model):
        r = A.shape[0]
        G = (A @ A.T) * (B @ B.T)
        G.flat[:: r + 1] += lam
        RHS = (A[:, :, None] * B[:, None, :]).reshape(r, -1) @ Tmat.T
        RHS += lam * model
        return np.linalg.solve(G, RHS)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, index))))
    P = rng.uniform(-1.0, 1.0, (cfg.rank, m * n))
    Q = rng.uniform(-1.0, 1.0, (cfg.rank, n * p))
    S = rng.uniform(-1.0, 1.0, (cfg.rank, p * m))
    lam, trace, history = als.LAMBDA_INIT, [], []
    best_res, best, prev_res, guard, resets = math.inf, (P, Q, S), math.inf, 0, 0
    plateau = 0
    for sweep in range(1, cfg.max_sweeps + 1):
        mP, mQ, mS = snap(P), snap(Q), snap(S)
        lam_eff = lam + als.JITTER if lam < als.JITTER else lam
        P = solve(Q, S, T1, lam_eff, mP)
        Q = solve(P, S, T2, lam_eff, mQ)
        S = solve(P, Q, T3, lam_eff, mS)
        KR = (P[:, :, None] * Q[:, None, :]).reshape(cfg.rank, -1)
        D = KR.T @ S
        D -= Tdense.reshape(D.shape)
        res = float((D * D).sum())
        trace.append((sweep, res, lam_eff))
        if not math.isfinite(res):
            break
        if res < best_res:
            best_res, best, plateau = res, (P.copy(), Q.copy(), S.copy()), 0
        if res < als.TOL:
            break
        if res < prev_res:
            lam *= als.LAMBDA_DECAY
        history.append(res)
        if sweep - guard > als.STALL_WINDOW:
            if not res < history[sweep - 1 - als.STALL_WINDOW] * (1.0 - als.STALL_DROP):
                lam, guard, resets, plateau = als.LAMBDA_INIT, sweep, resets + 1, plateau + 1
                if plateau == als.PLATEAU_RESETS:
                    break
        prev_res = res
    return best_res, best, len(trace), tuple(trace), resets


def _per_restart(cfg, width):
    """Every restart's record, run in batches of `width` consecutive
    restarts."""
    target, grid_floats = als._target(cfg.dims), als._grid_arrays(cfg.snap_grid)[1]
    return [out for start in range(0, cfg.restarts, width)
            for out in als._run_batch(cfg, range(start, min(start + width, cfg.restarts)),
                                      target, grid_floats)]


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
    # fourth runs all its sweeps
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
        assert [a.outcome for a in alone] == ["stalled"] * 3 + ["exhausted"]


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
        als._run_batch(cfg, [index], als._target(cfg.dims), als._grid_arrays(cfg.snap_grid)[1])
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
    nonfinite_p = _recorded_call("residual", cfg, 2, 29, 0)
    real_solve, real_residual = kernels.block_solve, kernels.residual

    def block_solve(A, B, Tmat, lam, model, GA, GB):
        if any(np.array_equal(block, singular_q) for block in _blocks(A, r)):
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(A, B, Tmat, lam, model, GA, GB)

    def residual(P, Q, S, T, k):
        res = real_residual(P, Q, S, T, k)
        for j, block in enumerate(_blocks(P, r)):
            if np.array_equal(block, nonfinite_p):
                res[j] = np.inf
        return res

    monkeypatch.setattr(kernels, "block_solve", block_solve)
    monkeypatch.setattr(kernels, "residual", residual)
    batched = als._run_restarts(cfg)
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


# -- residual kernel ------------------------------------------------------------


def _random_stacks(dims, rows, seed):
    m, n, p = dims
    rng = np.random.default_rng(seed)
    return tuple(rng.uniform(-1.0, 1.0, (rows, d)) for d in (m * n, n * p, p * m))


@pytest.mark.parametrize("dims, rank", [((1, 2, 3), 5), ((2, 2, 2), 7), ((3, 3, 3), 23)])
@pytest.mark.parametrize("k", [1, 3])
def test_residual_is_the_dense_definition(dims, rank, k):
    P, Q, S = _random_stacks(dims, k * rank, 11)
    T = classical_dense(dims)
    res = kernels.residual(P, Q, S, als._target(als.Dims(*dims))[0], k)
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
    T = als._target(als.Dims(*dims))[0]
    batched = kernels.residual(P, Q, S, T, k)
    for j in range(k):
        rows = slice(j * rank, j * rank + rank)
        alone = kernels.residual(P[rows], Q[rows], S[rows], T, 1)
        assert alone.tobytes() == batched[j:j + 1].tobytes()


def test_residual_builds_no_r_by_dense_tensor_intermediate():
    dims, rank, k = (4, 4, 4), 49, 4
    P, Q, S = _random_stacks(dims, k * rank, 13)
    T = als._target(als.Dims(*dims))[0]
    # the r x (mn) x (np) x (pm) float64 product of every restart at once
    dense_bytes = 8 * k * rank * 16 ** 3
    tracemalloc.start()
    try:
        kernels.residual(P, Q, S, T, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 4


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
    first, second = als._run_restarts(SearchConfig(**cfg))
    assert (first.outcome, first.sweeps) == ("converged", 17)
    assert first.trace == als._run_restarts(SearchConfig(**dict(cfg, restarts=1)))[0].trace
    assert (second.outcome, second.sweeps) == ("collapsed", 6)
    assert second.trace[-1][1] == 1.0
    capped = als._run_restarts(SearchConfig(**dict(cfg, max_sweeps=5)))[1]
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
    monkeypatch.setattr(kernels, "residual", lambda P, Q, S, T, k: np.full(k, 5.0))
    out = search(SearchConfig((2, 2, 2), 7, max_sweeps=100))
    lam = {sweep: value for sweep, _, value in out.trace}
    assert lam[2] == lam[26] == als.LAMBDA_INIT * als.LAMBDA_DECAY
    assert lam[27] == als.LAMBDA_INIT
    assert out.restarts[0].lambda_resets == 3


def test_plateau_exit_stops_a_stuck_restart(monkeypatch):
    # the same stuck residual as above: lambda resets every 26 sweeps, at
    # sweeps 26, 52, 78, ..., none after a new best (the only one is sweep
    # 1), so the PLATEAU_RESETS-th reset ends the restart, with its sweep
    # in the trace
    stop = (als.STALL_WINDOW + 1) * als.PLATEAU_RESETS
    assert stop == 156
    monkeypatch.setattr(kernels, "residual", lambda P, Q, S, T, k: np.full(k, 5.0))
    seen = []
    out = search(SearchConfig((2, 2, 2), 7, max_sweeps=200), progress=seen.append)
    assert seen == ["restart 0 stalled residual 5.000000e+00 after %d sweeps" % stop]
    record = out.restarts[0]
    assert (record.outcome, record.sweeps, record.lambda_resets) == (
        "stalled", stop, als.PLATEAU_RESETS)
    assert out.sweeps_used == stop and out.trace[-1][0] == stop
    assert out.best_residual == 5.0
