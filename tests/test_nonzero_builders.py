"""The builders that work from the nonzeros against their references.

symmetry_apply picks the rotated slots of a tensor and builds its image
in one construction; helpers.reference_symmetry_apply is the chain of
rotated, transposed and copied tensors it replaced.  The search's float
cast and snap read and build the nonzeros only; helpers.reference_factor_set
and helpers.reference_rationalize are the dense walks over every cell
they replaced.  Pickling carries the nonzeros too.
"""

import copy
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from fmmkit.algebra import kronecker, symmetry_apply
from fmmkit.matrices import Matrix, _sparse
from fmmkit.scalars import Laurent
from fmmkit.search import FactorSet, factor_set_from_tensor, rationalize
from fmmkit.search import als
from fmmkit.tensor import LAURENT, RATIONAL, FmmTensor, Term, VerificationReport

import helpers
from helpers import (
    distinct_share,
    rand_scalar,
    reference_factor_set,
    reference_rationalize,
    reference_symmetry_apply,
)

IMAGES = [(rotation, transpose) for rotation in range(3) for transpose in (False, True)]

HALVES = tuple(Fraction(k, 2) for k in range(-4, 5))
WITHOUT_ZERO = (Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1))


def rand_factor_with_zero_rows(rng, rows, cols, mode):
    """A random nonzero factor; with two rows or more, one row all zero."""
    data = [[rand_scalar(rng, mode) if rng.random() < 0.6 else 0 for _ in range(cols)]
            for _ in range(rows)]
    keep = rng.randrange(rows)
    data[keep][rng.randrange(cols)] = rand_scalar(rng, mode, zero_ok=False)
    if rows > 1:
        data[rng.choice([i for i in range(rows) if i != keep])] = [0] * cols
    return Matrix(data)


def rand_tensors(seed, count, mode=RATIONAL):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m, n, p = (rng.randint(1, 4) for _ in range(3))
        out.append(FmmTensor((m, n, p), mode, [
            Term(*(rand_factor_with_zero_rows(rng, a, b, mode)
                   for a, b in ((m, n), (n, p), (p, m))))
            for _ in range(rng.randint(1, 5))]))
    return out


@pytest.fixture(scope="module")
def kron(t58, strassen):
    return kronecker(t58, strassen)


def test_random_factors_have_zero_rows():
    rows = [row for t in rand_tensors(0, 40) for term in t.terms for f in term
            if f.rows > 1 for row in f.data]
    assert any(not any(row) for row in rows)


@pytest.mark.parametrize("rotation, transpose", IMAGES)
def test_symmetry_images_match_the_chained_reference(rotation, transpose, strassen, t58, kron):
    for t in [strassen, t58, kron] + rand_tensors(1, 60) + rand_tensors(2, 30, LAURENT):
        got = symmetry_apply(t, rotation, transpose)
        assert got == reference_symmetry_apply(t, rotation, transpose)
        assert got is not t


def test_symmetry_identity_of_a_masked_tensor(teps):
    got = symmetry_apply(teps)
    assert got == reference_symmetry_apply(teps) == teps
    assert got is not teps and got.support == teps.support
    for rotation, transpose in IMAGES[1:]:
        for build in (symmetry_apply, reference_symmetry_apply):
            with pytest.raises(ValueError, match="must be the identity"):
                build(teps, rotation, transpose)


def assert_same_stacks(got, want):
    assert type(got) is FactorSet
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.float64
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_factor_set_matches_the_dense_cast(strassen, t58, kron):
    for t in [strassen, t58, kron] + rand_tensors(3, 60):
        assert_same_stacks(factor_set_from_tensor(t), reference_factor_set(t))
    # a value with no exact float is cast as float() rounds it
    third = Matrix([[Fraction(1, 3), 0], [0, Fraction(-2, 7)]])
    t = FmmTensor((2, 2, 2), RATIONAL, [Term(third, third, third)])
    assert_same_stacks(factor_set_from_tensor(t), reference_factor_set(t))


def noisy(f, scale, rng):
    return FactorSet(*(x + rng.normal(0.0, scale, x.shape) for x in f))


def assert_same_rationalized(f, dims, grid):
    got = rationalize(f, dims, grid)
    want = reference_rationalize(f, dims, grid)
    assert got == want
    if got is not None:
        # the snapped entries are settled Fractions, one object per grid value
        assert all(type(x) is Fraction for term in got.terms for g in term
                   for _, _, x in g.nonzeros)
        assert distinct_share(got)[0] <= len(grid)
    return got


@pytest.mark.parametrize("grid", [als.DEFAULT_GRID, HALVES], ids=["default", "halves"])
def test_rationalize_matches_the_dense_build(grid, strassen, t58):
    rng = np.random.default_rng(4)
    for t in (strassen, t58):
        f = factor_set_from_tensor(t)
        assert assert_same_rationalized(noisy(f, 0.05, rng), t.dims, grid) == t
        assert assert_same_rationalized(noisy(f, 0.6, rng), t.dims, grid) is None


@pytest.mark.parametrize("grid", [als.DEFAULT_GRID, HALVES, WITHOUT_ZERO, (-1, 0, 1)],
                         ids=["default", "halves", "without 0", "ints"])
def test_rationalize_builds_as_the_dense_build_before_verifying(grid, monkeypatch, kron):
    # with every snap passing verification, the tensors built are compared
    # whatever the stacks, junk and zero rows included
    passed = VerificationReport(True, (), 0)
    monkeypatch.setattr(als, "verify_exact", lambda t: passed)
    monkeypatch.setattr(helpers, "verify_exact", lambda t: passed)
    rng = np.random.default_rng(5)
    built = 0
    for t in [kron] + rand_tensors(6, 40):
        for scale in (0.1, 0.4, 1.0):
            built += assert_same_rationalized(
                noisy(factor_set_from_tensor(t), scale, rng), t.dims, grid) is not None
    assert built > 40


def test_rationalize_over_a_grid_without_0():
    ones = FactorSet(np.full((1, 1), 0.9), np.full((1, 1), -1.2), np.full((1, 1), -0.8))
    t = assert_same_rationalized(ones, (1, 1, 1), WITHOUT_ZERO)
    assert t is not None and t.terms[0].Q.nonzeros == ((0, 0, Fraction(-1)),)


def test_rationalize_returns_none_for_a_zeroed_factor(strassen):
    zeroed = FactorSet(np.full((1, 1), 0.1), np.full((1, 1), 1.0), np.full((1, 1), 1.0))
    assert assert_same_rationalized(zeroed, (1, 1, 1), als.DEFAULT_GRID) is None
    # one term of Strassen's snapped to zero in Q, the rest exact
    f = factor_set_from_tensor(strassen)
    f.Q[3] = 0.2
    for grid in (als.DEFAULT_GRID, HALVES):
        assert assert_same_rationalized(f, strassen.dims, grid) is None


def test_copies_and_pickles_carry_the_nonzeros(strassen, teps, kron):
    e = Laurent.monomial(1, 1)
    mats = [Matrix([[e, 1], [0, Fraction(1, 2) * e]]), Matrix.zeros(3, 4), Matrix([[0] * 30] * 30)]
    mats += [f for t in rand_tensors(8, 10) + rand_tensors(9, 10, LAURENT)
             for term in t.terms for f in term]
    for m in mats:
        assert m.__reduce__() == (_sparse, (m.rows, m.cols, m.nonzeros))
    for obj in mats + [strassen, teps, kron] + rand_tensors(10, 3, LAURENT):
        for twin in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj)
            assert twin == obj
