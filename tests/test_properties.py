"""Five randomized suites, 1000 cases each under the fixed profile.

Each case derives a private random.Random from the hypothesis-drawn seed,
so the generators stay simple and the suite replays identically."""

import math
import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fmmkit.algebra import IsotropyElement, isotropy_apply, symmetry_apply
from fmmkit.io import parse_tensor, write_tensor
from fmmkit.scalars import Laurent, exact_div, laurent_order, value_at
from fmmkit.search import FactorSet, als_block_solve, als_objective, snap_models
from fmmkit.tensor import classical_tensor, verify_exact

from helpers import argmin_snap, rand_invertible, rand_laurent

SEEDS = st.integers(min_value=0, max_value=2**48 - 1)


def _mixed_scalar(rng):
    if rng.random() < 0.25:
        return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
    return rand_laurent(rng)


@settings(max_examples=1000)
@given(SEEDS)
def test_kernel_field_axioms(seed):
    rng = random.Random(seed)
    a = _mixed_scalar(rng)
    b = _mixed_scalar(rng)
    c = _mixed_scalar(rng)
    one = Laurent.monomial(1)

    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + Fraction(0) == a
    assert a - a == Fraction(0)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * one == a
    assert a * Fraction(0) == Fraction(0)

    if a and b:
        assert laurent_order(a * b) == laurent_order(a) + laurent_order(b)
        assert exact_div(a * b, b) == a
    # numeric evaluation is a ring homomorphism up to rounding
    lhs = value_at(a * b + c, 0.5)
    rhs = value_at(a, 0.5) * value_at(b, 0.5) + value_at(c, 0.5)
    assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-12)


@settings(max_examples=1000)
@given(SEEDS)
def test_serialization_round_trip(seed):
    rng = random.Random(seed)
    from helpers import rand_tensor

    t = rand_tensor(rng)
    assert parse_tensor(write_tensor(t)) == t


@settings(max_examples=1000)
@given(SEEDS)
def test_transforms_preserve_verification(seed):
    rng = random.Random(seed)
    dims = (rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2))
    t = classical_tensor(dims)
    if rng.random() < 0.5:
        t = symmetry_apply(t, rotation=rng.randrange(3), transpose=rng.random() < 0.5)
    m, n, p = t.dims
    g = IsotropyElement(
        rand_invertible(rng, m), rand_invertible(rng, n), rand_invertible(rng, p)
    )
    out = isotropy_apply(t, g)
    assert out.rank == t.rank
    assert verify_exact(out).passed


_DIM_POOL = ((1, 1, 1), (2, 2, 2), (1, 2, 3), (2, 2, 1), (3, 1, 2))


@settings(max_examples=1000)
@given(SEEDS)
def test_als_block_descent_is_monotone(seed):
    rng = np.random.default_rng(seed)
    dims = _DIM_POOL[int(rng.integers(len(_DIM_POOL)))]
    m, n, p = dims
    r = int(rng.integers(1, 7))
    f = FactorSet(
        rng.uniform(-2, 2, (r, m * n)),
        rng.uniform(-2, 2, (r, n * p)),
        rng.uniform(-2, 2, (r, p * m)),
    )
    lam = float(10.0 ** rng.uniform(-9, 1))
    models = snap_models(f)
    obj = als_objective(f, models, lam, dims)
    for slot in "PQS":
        f = als_block_solve(f, models, lam, dims, slot)
        nxt = als_objective(f, models, lam, dims)
        assert nxt <= obj * (1 + 1e-9) + 1e-12
        obj = nxt


@settings(max_examples=1000)
@given(SEEDS)
def test_snap_models_is_an_argmin_over_the_grid(seed):
    # on quarter-integer grids that hold 0, at entries below 1e15 in
    # magnitude, the rounded distances |x - g| keep their exact order, so
    # an argmin over them picks the nearest value, ties going nearer 0
    rng = np.random.default_rng(seed)
    grid = {Fraction(0)} | {Fraction(int(k), 4) for k in rng.integers(-400, 401, rng.integers(0, 8))}
    floats = np.array(sorted(float(g) for g in grid))
    mids = (floats[:-1] + floats[1:]) / 2
    x = np.concatenate([mids, np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf), floats,
                        rng.uniform(-1, 1, 40) * 10.0 ** rng.uniform(-300, 15, 40),
                        rng.uniform(-110, 110, 40)])
    rng.shuffle(x)
    a, b = sorted(rng.integers(0, len(x), 2))
    f = FactorSet(x[None, :a], x[None, a:b], x[None, b:])
    models = snap_models(f, tuple(grid))
    for stack, model in zip(f, models):
        assert model.tolist() == argmin_snap(stack, grid).tolist()
