import warnings
from fractions import Fraction

import numpy as np
import pytest

from fmmkit.search import (
    DEFAULT_GRID,
    DESK_LIMIT,
    FactorSet,
    SearchConfig,
    SearchResult,
    als_objective,
    als_sweep,
    brent_residual,
    classical_dense,
    factor_set_from_tensor,
    rationalize,
    search,
    snap_models,
)
from fmmkit.tensor import classical_tensor, verify_exact


def test_classical_dense_layout():
    T = classical_dense((2, 2, 2))
    assert T.shape == (4, 4, 4)
    assert T.sum() == 8.0
    # entry for A[0,1]*B[1,0] landing in C[0,0]
    assert T[0 * 2 + 1, 1 * 2 + 0, 0 * 2 + 0] == 1.0
    assert T[0 * 2 + 1, 0 * 2 + 0, 0 * 2 + 0] == 0.0


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
        factor_set_from_tensor(strassen.as_laurent())


def test_snap_models_tie_rules():
    f = FactorSet(
        np.array([[0.25, -0.75, 0.6, -0.2]]),
        np.array([[0.9, 0.1, -0.1, 0.0]]),
        np.array([[2.0, -2.0, 0.49, 0.51]]),
    )
    snapped = snap_models(f)
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
        SearchConfig((2, 2, 2), 7, lambda_decay=1.5)
    with pytest.raises(ValueError):
        SearchConfig((2, 2, 2), 7, restarts=0)
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
