import random
from fractions import Fraction

import pytest

from fmmkit import evaluate
from fmmkit.algebra import direct_sum, kronecker
from fmmkit.evaluate import (
    MultiplicationCounter,
    count_multiplications,
    epsilon_error_scan,
    multiply_recursive,
)
from fmmkit.io import parse_tensor, write_tensor
from fmmkit.matrices import Matrix
from fmmkit.tensor import UnverifiedSchemeError, classical_tensor, verify_exact

from helpers import mutate_one_entry, rand_fraction


def rand_rational_matrix(rng, rows, cols):
    return Matrix([[rand_fraction(rng) for _ in range(cols)] for _ in range(rows)])


def test_single_level_matches_direct_product(strassen):
    rng = random.Random(2)
    for _ in range(50):
        A = rand_rational_matrix(rng, 2, 2)
        B = rand_rational_matrix(rng, 2, 2)
        assert multiply_recursive([strassen], A, B) == A @ B


def test_single_level_counts_rank_products(strassen, t58):
    rng = random.Random(4)
    for t in (strassen, t58):
        m, n, p = t.dims
        A = rand_rational_matrix(rng, m, n)
        B = rand_rational_matrix(rng, n, p)
        counter = MultiplicationCounter()
        assert multiply_recursive([t], A, B, counter=counter) == A @ B
        assert counter.count == t.rank


def test_masked_first_level(strassen):
    masked = classical_tensor((2, 2, 2), support=[[True, False], [True, True]])
    A = Matrix([[1, 0], [2, 3]])
    B = Matrix([[1, 2], [3, 4]])
    assert multiply_recursive([masked], A, B) == A @ B
    with pytest.raises(ValueError):
        multiply_recursive([masked], Matrix([[1, 5], [2, 3]]), B)
    # over a second level the mask excludes the top-right 2x2 block of A
    rng = random.Random(3)
    A = Matrix([[Fraction(0) if r < 2 <= c else rand_fraction(rng) for c in range(4)]
                for r in range(4)])
    B = rand_rational_matrix(rng, 4, 4)
    counter = MultiplicationCounter()
    assert multiply_recursive([masked, strassen], A, B, counter=counter) == A @ B
    assert counter.count == 42 == count_multiplications([masked, strassen])
    A = Matrix([[Fraction(int(r == 1 and c == 3)) for c in range(4)] for r in range(4)])
    with pytest.raises(ValueError, match="A\\[1,3\\] must be zero under the support mask"):
        multiply_recursive([masked, strassen], A, B)


def test_single_level_argument_checks(strassen, teps):
    with pytest.raises(ValueError):
        multiply_recursive([teps], Matrix.zeros(5, 5), Matrix.zeros(5, 5))
    with pytest.raises(ValueError):
        multiply_recursive([strassen], Matrix.zeros(3, 2), Matrix.zeros(2, 2))
    with pytest.raises(ValueError):
        multiply_recursive([strassen], Matrix.zeros(2, 2), Matrix.zeros(2, 3))


def test_schedule_may_be_any_iterable(strassen):
    A = Matrix([[1, 2], [3, 4]])
    assert multiply_recursive(iter([strassen]), A, A) == A @ A
    assert multiply_recursive((t for t in [strassen, strassen]),
                              Matrix.identity(4), Matrix.identity(4)) == Matrix.identity(4)
    assert count_multiplications(iter([strassen, strassen])) == 49


def test_counter_tick():
    c = MultiplicationCounter()
    assert c.count == 0
    c.tick()
    c.tick(5)
    assert c.count == 6


def test_multiply_recursive_single_level(strassen):
    rng = random.Random(6)
    A = rand_rational_matrix(rng, 2, 2)
    B = rand_rational_matrix(rng, 2, 2)
    counter = MultiplicationCounter()
    assert multiply_recursive([strassen], A, B, counter=counter) == A @ B
    assert counter.count == 7


def test_multiply_recursive_two_levels(strassen):
    rng = random.Random(8)
    A = rand_rational_matrix(rng, 4, 4)
    B = rand_rational_matrix(rng, 4, 4)
    counter = MultiplicationCounter()
    C = multiply_recursive([strassen, strassen], A, B, counter=counter)
    assert C == A @ B
    assert counter.count == 49 == count_multiplications([strassen, strassen])


def test_multiply_recursive_rectangular_levels(strassen):
    t1 = classical_tensor((1, 2, 3))
    t2 = classical_tensor((3, 1, 2))
    rng = random.Random(10)
    A = rand_rational_matrix(rng, 3, 2)
    B = rand_rational_matrix(rng, 2, 6)
    counter = MultiplicationCounter()
    assert multiply_recursive([t1, t2], A, B, counter=counter) == A @ B
    assert counter.count == t1.rank * t2.rank


def test_schedule_counter_matches_kronecker_evaluation(strassen):
    big = kronecker(strassen, strassen)
    rng = random.Random(12)
    A = rand_rational_matrix(rng, 4, 4)
    B = rand_rational_matrix(rng, 4, 4)
    flat = MultiplicationCounter()
    nested = MultiplicationCounter()
    direct = multiply_recursive([big], A, B, counter=flat)
    recursive = multiply_recursive([strassen, strassen], A, B, counter=nested)
    assert direct == recursive == A @ B
    assert flat.count == nested.count == 49


def test_multiply_recursive_exact_on_large_rationals(strassen, t58):
    t108 = direct_sum(t58, classical_tensor((2, 5, 5)), axis="M")
    rng = random.Random(16)
    bound = 10 ** 12
    for levels in ([strassen], [t58], [strassen, t108], [strassen] * 4):
        M = N = P = 1
        for t in levels:
            M, N, P = M * t.dims.m, N * t.dims.n, P * t.dims.p
        A, B = (Matrix([[Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                         for _ in range(cols)] for _ in range(rows)])
                for rows, cols in ((M, N), (N, P)))
        counter = MultiplicationCounter()
        assert multiply_recursive(levels, A, B, counter=counter) == A @ B
        assert counter.count == count_multiplications(levels)


def test_count_multiplications_products(strassen, t58):
    assert count_multiplications([strassen]) == 7
    assert count_multiplications([strassen, strassen, strassen]) == 343
    assert count_multiplications([t58, strassen]) == 58 * 7


def test_schedule_validation(strassen, teps):
    with pytest.raises(ValueError):
        count_multiplications([])
    with pytest.raises(ValueError):
        count_multiplications([teps])  # approximate level
    masked = classical_tensor((2, 2, 2), support=[[True, False], [True, True]])
    assert count_multiplications([masked]) == masked.rank == 6
    with pytest.raises(ValueError, match="level 2 is masked; only level 1 may be"):
        count_multiplications([strassen, masked])
    with pytest.raises(ValueError, match="level 2 is masked; only level 1 may be"):
        multiply_recursive([strassen, masked], Matrix.zeros(4, 4), Matrix.zeros(4, 4))
    with pytest.raises(ValueError):
        count_multiplications([strassen, "strassen"])
    with pytest.raises(ValueError):
        multiply_recursive([strassen], Matrix.zeros(4, 4), Matrix.zeros(4, 4))
    broken = mutate_one_entry(strassen, random.Random(0))
    with pytest.raises(UnverifiedSchemeError, match="level 2 fails verification"):
        count_multiplications([strassen, broken])
    with pytest.raises(UnverifiedSchemeError):
        multiply_recursive([broken], Matrix.zeros(2, 2), Matrix.zeros(2, 2))


def test_schedule_verifies_each_distinct_scheme_once(strassen, monkeypatch):
    calls = []

    def counting_verify(t):
        calls.append(t)
        return verify_exact(t)

    monkeypatch.setattr(evaluate, "verify_exact", counting_verify)
    copies = [parse_tensor(write_tensor(strassen)) for _ in range(4)]
    assert count_multiplications(copies) == 7**4
    assert len(calls) == 1
    A = Matrix([[Fraction(i - j) for j in range(16)] for i in range(16)])
    assert multiply_recursive(copies, A, A) == A @ A
    assert len(calls) == 2
    # an unverified level is still named by its own position
    broken = mutate_one_entry(strassen, random.Random(0))
    with pytest.raises(UnverifiedSchemeError, match="level 2 fails verification"):
        count_multiplications([strassen, broken, strassen])


def test_epsilon_error_scan_slope(teps):
    rng = random.Random(14)
    A = [[rng.uniform(-1, 1) for _ in range(5)] for _ in range(5)]
    for r in range(5):
        for c in range(5):
            if not teps.support[r][c]:
                A[r][c] = 0.0
    B = [[rng.uniform(-1, 1) for _ in range(5)] for _ in range(5)]
    scan = epsilon_error_scan(teps, A, B, [1e-1, 1e-2, 1e-3, 1e-4])
    assert len(scan.samples) == 4
    eps, errs = zip(*scan.samples)
    assert eps == (1e-1, 1e-2, 1e-3, 1e-4)
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    # discrepancy order 1: error decays about linearly in eps
    assert scan.fitted_slope == pytest.approx(1.0, abs=0.3)
    assert "fitted slope" in str(scan)


def test_mask_check_is_shared(teps):
    A = [[1.0] * 5 for _ in range(5)]
    B = [[1.0] * 5 for _ in range(5)]
    r, c = next((r, c) for r in range(5) for c in range(5) if not teps.support[r][c])
    message = "A\\[%d,%d\\] must be zero under the support mask" % (r, c)
    with pytest.raises(ValueError, match=message):
        epsilon_error_scan(teps, A, B, [1e-1])
    masked = classical_tensor((2, 2, 2), support=[[True, False], [True, True]])
    with pytest.raises(ValueError, match="A\\[0,1\\] must be zero under the support mask"):
        multiply_recursive([masked], Matrix([[1, 5], [2, 3]]), Matrix.identity(2))


def test_epsilon_error_scan_exact_scheme_hits_floor(strassen):
    A = [[1.0, 2.0], [3.0, 4.0]]
    B = [[5.0, 6.0], [7.0, 8.0]]
    scan = epsilon_error_scan(strassen, A, B, [1e-1, 1e-2])
    assert scan.fitted_slope is None
    assert all(err <= 1e-12 for _, err in scan.samples)


def test_epsilon_error_scan_validation(teps):
    A = [[0.0] * 5 for _ in range(5)]
    B = [[0.0] * 5 for _ in range(5)]
    with pytest.raises(ValueError):
        epsilon_error_scan(teps, A, B, [])
    with pytest.raises(ValueError):
        epsilon_error_scan(teps, A, B, [1e-2, 1e-1])
    for eps in ([-1.0], [1e-2, float("nan")], [float("inf")]):
        with pytest.raises(ValueError, match="positive and finite"):
            epsilon_error_scan(teps, A, B, eps)
    bad = [[1.0] * 5 for _ in range(5)]
    with pytest.raises(ValueError):
        epsilon_error_scan(teps, bad, B, [1e-1])
