import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmmkit import evaluate
from fmmkit.algebra import direct_sum, embed_and_add, isotropy_apply, kronecker, mask_embedding
from fmmkit.evaluate import (
    MultiplicationCounter,
    count_multiplications,
    epsilon_error_scan,
    multiply_recursive,
)
from fmmkit.io import parse_tensor, write_tensor
from fmmkit.matrices import Matrix
from fmmkit.scalars import Laurent, value_at
from fmmkit.tensor import UnverifiedSchemeError, classical_tensor, verify_exact

from helpers import mutate_one_entry, rand_fraction


def rand_rational_matrix(rng, rows, cols):
    return Matrix([[rand_fraction(rng) for _ in range(cols)] for _ in range(rows)])


# -- the reference evaluator ---------------------------------------------------
# The evaluator as it was before coefficients of 1 and -1 skipped their
# multiply and integer operands ran on integers: every coefficient other
# than 1 is multiplied in, and the fold adds every contribution into
# zeros.  Exact runs must equal it, and error scans must equal it bit for
# bit.

def reference_combine(blocks, factors):
    K, _, _, X, Y = blocks.shape
    out = np.empty((K, len(factors), X, Y), dtype=blocks.dtype)
    for term, entries in enumerate(factors):
        acc = None
        for i, j, v in entries:
            piece = blocks[:, i, j] if v == 1 else v * blocks[:, i, j]
            acc = piece if acc is None else acc + piece
        out[:, term] = acc
    return out.reshape(K * len(factors), X, Y)


def reference_evaluate(levels, A, B):
    a, b = A[None], B[None]
    for (m, n, p), (P, Q, _) in levels:
        K, M, N = a.shape
        Mi, Ni, Pi = M // m, N // n, b.shape[2] // p
        a = reference_combine(a.reshape(K, m, Mi, n, Ni).transpose(0, 1, 3, 2, 4), P)
        b = reference_combine(b.reshape(K, n, Ni, p, Pi).transpose(0, 1, 3, 2, 4), Q)
    c = a * b
    for (m, n, p), (_, _, S) in reversed(levels):
        r = len(S)
        K, Mi, Pi = c.shape[0] // r, c.shape[1], c.shape[2]
        c = c.reshape(K, r, Mi, Pi)
        out = np.zeros((K, m, p, Mi, Pi), dtype=c.dtype)
        for term, entries in enumerate(S):
            for k, i, s in entries:
                out[:, i, k] += c[:, term] if s == 1 else s * c[:, term]
        c = out.transpose(0, 1, 3, 2, 4).reshape(K, m * Mi, p * Pi)
    return c[0]


def reference_level(t):
    """t as a level of the reference evaluator, with its own coefficients:
    dims and, per factor slot, every term's nonzero (row, col, value)."""
    return t.dims, tuple(tuple(factor.nonzeros for factor in slot) for slot in zip(*t.terms))


def reference_product(levels, A, B):
    """A @ B through the schedule on Fraction object arrays."""
    C = reference_evaluate([reference_level(t) for t in levels],
                           np.array(A.data, dtype=object), np.array(B.data, dtype=object))
    return Matrix(C.tolist())


def reference_error_samples(t, A, B, eps_values):
    dims, factors = reference_level(t)
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    target = A @ B
    samples = []
    with np.errstate(over="ignore", invalid="ignore"):
        for eps in eps_values:
            level = dims, tuple([tuple((i, j, value_at(v, eps)) for i, j, v in entries)
                                 for entries in slot] for slot in factors)
            C = reference_evaluate([level], A, B)
            err = float(np.linalg.norm(C - target)) / float(np.linalg.norm(target))
            samples.append((eps, err if math.isfinite(err) else math.inf))
    return tuple(samples)


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


# U, V, W give strassen coefficients 1/2, -1/2, 1/3, -1/3 and -6 besides
# 1 and -1: cleared scales above 1 and coefficients that are multiplied in
ISOTROPY = (Matrix([[2, 0], [0, 1]]), Matrix([[1, 1], [0, 1]]), Matrix([[1, 0], [0, 3]]))


def test_multiply_recursive_exact_on_large_rationals(strassen, t58):
    t108 = direct_sum(t58, classical_tensor((2, 5, 5)), axis="M")
    rng = random.Random(16)
    bound = 10 ** 12
    for levels in ([strassen], [t58], [strassen, t108], [strassen] * 4,
                   [isotropy_apply(strassen, ISOTROPY)]):
        M = N = P = 1
        for t in levels:
            M, N, P = M * t.dims.m, N * t.dims.n, P * t.dims.p
        A, B = (Matrix([[Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                         for _ in range(cols)] for _ in range(rows)])
                for rows, cols in ((M, N), (N, P)))
        counter = MultiplicationCounter()
        assert multiply_recursive(levels, A, B, counter=counter) == A @ B
        assert multiply_recursive(levels, A, B) == reference_product(levels, A, B)
        assert counter.count == count_multiplications(levels)


@pytest.fixture(scope="module")
def integer_schedules(strassen, t58):
    t108 = direct_sum(t58, classical_tensor((2, 5, 5)), axis="M")
    return ([strassen], [t58], [strassen, t108], [strassen] * 4,
            [isotropy_apply(strassen, ISOTROPY)], [classical_tensor((1, 1, 1))])


def norm_product(levels, slots=3):
    """The product over levels and their first `slots` factor slots of the
    slot's norm once its coefficients are cleared by their common
    denominator: the largest sum of |coefficient| over a term for P and Q,
    over an output position for S."""
    total = 1
    for t in levels:
        for slot, by_position in list(zip(zip(*t.terms), (False, False, True)))[:slots]:
            entries = [(term, i, j, v) for term, factor in enumerate(slot)
                       for i, j, v in factor.nonzeros]
            d = math.lcm(*(v.denominator for *_, v in entries))
            sums = Counter()
            for term, i, j, v in entries:
                sums[(i, j) if by_position else term] += abs(v * d)
            total *= max(sums.values())
    return total


def record_operand_types(monkeypatch):
    """A list that gets, per evaluator run, the dtype of A and the type of
    its first entry."""
    seen = []
    run = evaluate._evaluate

    def recording(levels, A, B):
        seen.append((A.dtype, type(A.flat[0])))
        return run(levels, A, B)

    monkeypatch.setattr(evaluate, "_evaluate", recording)
    return seen


def signed_matrix(rng, rows, cols, top):
    """Random integers in [-top, top], with top itself at a random entry."""
    cells = [[rng.randint(-top, top) for _ in range(cols)] for _ in range(rows)]
    cells[rng.randrange(rows)][rng.randrange(cols)] = rng.choice((top, -top))
    return Matrix(cells)


def test_integer_operands_run_in_int64_only_under_the_bound(integer_schedules, monkeypatch):
    # max|A| * max|B| * (product of the cleared norms) is the bound: below
    # 2^63 the run is int64, at or above it Python ints.  <1,1,1> with
    # max|B| = 7 puts the bound at 2^63 - 1 exactly, strassen with 8 at 2^63.
    seen = record_operand_types(monkeypatch)
    rng = random.Random(20)
    edges = set()
    for levels in integer_schedules:
        M, N, P = evaluate._schedule_dims(levels)
        norms = norm_product(levels)
        for b in (7, 8):
            below = (2**63 - 1) // (b * norms)
            edges.add(below * b * norms - 2**63)
            edges.add((below + 1) * b * norms - 2**63)
            for top, kind in ((below, (np.int64, np.int64)), (below + 1, (object, int))):
                for a, b_top in ((top, b), (b, top)):
                    A, B = signed_matrix(rng, M, N, a), signed_matrix(rng, N, P, b_top)
                    counter = MultiplicationCounter()
                    C = multiply_recursive(levels, A, B, counter=counter)
                    assert seen.pop() == (np.dtype(kind[0]), kind[1])
                    assert C == reference_product(levels, A, B) == A @ B
                    assert counter.count == count_multiplications(levels)
    assert {-1, 0} <= edges


def test_zero_operand_still_bounds_the_other_side(integer_schedules, monkeypatch):
    # max|A| * max|B| * norms reads 0 for B = 0, but the A-side
    # combinations still reach max|A| times the P norms, here 2^63 or more
    seen = record_operand_types(monkeypatch)
    for levels in integer_schedules:
        M, N, P = evaluate._schedule_dims(levels)
        top = (2**63 - 1) // norm_product(levels, slots=1) + 1
        A = signed_matrix(random.Random(21), M, N, top)
        B = Matrix.zeros(N, P)
        assert multiply_recursive(levels, A, B) == Matrix.zeros(M, P)
        assert seen.pop() == (np.dtype(object), int)


def test_rational_operands_run_on_integers(strassen, monkeypatch):
    # each row of A and each column of B is cleared by the lcm of its
    # denominators, so small-denominator operands run in int64
    seen = record_operand_types(monkeypatch)
    A = Matrix([[Fraction(1, 2), 3], [4, 5]])
    B = Matrix([[1, 2], [3, 4]])
    for X, Y in ((A, B), (B, A), (B, B)):
        assert multiply_recursive([strassen], X, Y) == X @ Y
        assert seen.pop() == (np.dtype(np.int64), np.int64)


def cleared_to(rng, rows, cols, top, by_rows):
    """Integers in [-9, 9], except one random row (by_rows) or column that
    holds only +-1/top and +-1: that line's lcm is top, so it clears to
    +-1 and +-top, while no numerator exceeds 9."""
    cells = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    if not by_rows:
        cells = [list(col) for col in zip(*cells)]
    line = cells[rng.randrange(len(cells))]
    line[:] = [0] * len(line)
    small, big = rng.sample(range(len(line)), 2)
    line[small] = Fraction(rng.choice((1, -1)), top)
    line[big] = rng.choice((1, -1))
    if not by_rows:
        cells = [list(row) for row in zip(*cells)]
    return Matrix(cells)


def test_cleared_rational_operands_run_in_int64_only_under_the_bound(strassen, t58,
                                                                    monkeypatch):
    # the bound reads the cleared operands: max|A'| * max|B'| * norms.  The
    # large side is a row of A (or a column of B) cleared by an lcm of top
    # from numerators of 1.  <1,7,1> with 7 on the other side puts the
    # bound at 2^63 - 1 exactly, strassen with 8 at 2^63.
    seen = record_operand_types(monkeypatch)
    t108 = direct_sum(t58, classical_tensor((2, 5, 5)), axis="M")
    rng = random.Random(26)
    edges = set()
    for levels in ([classical_tensor((1, 7, 1))], [strassen], [strassen, t108]):
        M, N, P = evaluate._schedule_dims(levels)
        norms = norm_product(levels)
        for b in (7, 8):
            below = (2**63 - 1) // (b * norms)
            edges.add(below * b * norms - 2**63)
            edges.add((below + 1) * b * norms - 2**63)
            for top, kind in ((below, (np.int64, np.int64)), (below + 1, (object, int))):
                for A, B in ((cleared_to(rng, M, N, top, True), signed_matrix(rng, N, P, b)),
                             (signed_matrix(rng, M, N, b), cleared_to(rng, N, P, top, False))):
                    counter = MultiplicationCounter()
                    C = multiply_recursive(levels, A, B, counter=counter)
                    assert seen.pop() == (np.dtype(kind[0]), kind[1])
                    assert C == reference_product(levels, A, B) == A @ B
                    assert counter.count == count_multiplications(levels)
    assert {-1, 0} <= edges


def mixed_matrix(rng, rows, cols):
    """Rationals whose rows are, at random, integer, large with a large
    lcm, small-denominator or all zero, with some columns all zero."""
    def entry(kind):
        if kind == "integer":
            return rng.randint(-9, 9)
        if kind == "large":
            return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))
        return rand_fraction(rng) if kind == "small" else 0
    kinds = [rng.choice(("integer", "large", "small", "zero")) for _ in range(rows)]
    zero = {c for c in range(cols) if rng.random() < 0.2}
    return Matrix([[0 if c in zero else entry(kind) for c in range(cols)] for kind in kinds])


@pytest.fixture(scope="module")
def mixed_schedules(strassen, t58):
    masked = classical_tensor((2, 2, 2), support=[[True, False], [True, True]])
    t108 = direct_sum(t58, classical_tensor((2, 5, 5)), axis="M")
    return [strassen], [t58], [strassen, t108], [masked, strassen]


@settings(max_examples=40)
@given(seed=st.integers(min_value=0, max_value=2**48 - 1), which=st.integers(0, 3))
def test_mixed_denominators_match_the_reference(mixed_schedules, seed, which):
    # A mixes its kinds of row and B (built transposed) its kinds of column,
    # the lines each is cleared by
    levels = mixed_schedules[which]
    rng = random.Random(seed)
    M, N, P = evaluate._schedule_dims(levels)
    A = mixed_matrix(rng, M, N)
    bm, bn = M // levels[0].dims.m, N // levels[0].dims.n
    excluded = set(levels[0].masked_out())
    A = Matrix([[0 if (i // bm, j // bn) in excluded else x for j, x in enumerate(row)]
                for i, row in enumerate(A.data)])
    B = mixed_matrix(rng, P, N).transpose()
    counter = MultiplicationCounter()
    C = multiply_recursive(levels, A, B, counter=counter)
    assert C == A @ B == reference_product(levels, A, B)
    assert counter.count == count_multiplications(levels)


def test_laurent_operands_run_on_objects(strassen, monkeypatch):
    seen = record_operand_types(monkeypatch)
    A = Matrix([[Laurent({-1: Fraction(1, 2), 2: Fraction(3, 4)}), Fraction(5, 6)],
                [4, Fraction(-1, 3)]])
    B = Matrix([[Fraction(2, 9), -1], [0, Fraction(11, 4)]])
    for X, Y in ((A, B), (B, A), (A, A)):
        assert multiply_recursive([strassen], X, Y) == X @ Y
        assert seen.pop()[0] == np.dtype(object)


def test_laurent_operands_are_cleared_like_rationals(strassen, monkeypatch):
    # a Laurent entry's denominator is the lcm of its coefficients'; it is
    # cleared with its row (or column), and a scaled scheme divides it out
    seen = record_operand_types(monkeypatch)
    A = Matrix([[Laurent({-1: Fraction(1, 2), 2: Fraction(3, 4)}), Fraction(5, 6)],
                [4, Fraction(-1, 3)]])
    B = Matrix([[Fraction(2, 9), Laurent({1: Fraction(-1, 5)})], [0, Fraction(11, 4)]])
    for levels in ([isotropy_apply(strassen, ISOTROPY)], [strassen, strassen]):
        M, N, P = evaluate._schedule_dims(levels)
        X = A if M == 2 else Matrix.identity(2).kron(A)
        Y = B if P == 2 else Matrix.identity(2).kron(B)
        assert multiply_recursive(levels, X, Y) == reference_product(levels, X, Y) == X @ Y
        assert seen.pop()[0] == np.dtype(object)


def test_rational_operands_run_on_cleared_coefficients(strassen, monkeypatch):
    # the isotropy scheme's coefficients have denominators 2 and 3; they
    # are cleared to integers whatever the operands
    levels = [isotropy_apply(strassen, ISOTROPY)]
    coefficients = []
    run = evaluate._evaluate

    def recording(compiled, A, B):
        coefficients.extend(c for _, slots in compiled for slot in slots
                            for entries in slot for *_, c in entries)
        return run(compiled, A, B)

    monkeypatch.setattr(evaluate, "_evaluate", recording)
    A = Matrix([[Fraction(1, 2), 3], [4, Fraction(-5, 7)]])
    B = Matrix([[Fraction(2, 9), -1], [0, Fraction(11, 4)]])
    assert multiply_recursive(levels, A, B) == reference_product(levels, A, B) == A @ B
    assert coefficients and {type(c) for c in coefficients} == {int}
    raw = {v for t in levels for term in t.terms for factor in term for *_, v in factor.nonzeros}
    assert any(v.denominator != 1 for v in raw)


def test_untouched_output_blocks_are_zero(strassen):
    # row 0 of A is masked out, so no term writes row 0 of C: integer and
    # Fraction runs, one level and two, and the float scan
    masked = classical_tensor((2, 2, 2), support=[[False, False], [True, True]])
    B = Matrix([[1, 2], [3, 5]])
    for A in (Matrix([[0, 0], [3, 4]]), Matrix([[0, 0], [Fraction(1, 3), 4]])):
        assert multiply_recursive([masked], A, B) == A @ B
    A = Matrix([[0] * 4, [0] * 4, [1, 2, 3, 4], [5, 6, 7, 8]])
    for B in (Matrix([[i - j for j in range(4)] for i in range(4)]),
              rand_rational_matrix(random.Random(24), 4, 4)):
        assert multiply_recursive([masked, strassen], A, B) == A @ B
    scan = epsilon_error_scan(masked, [[0.0, 0.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 5.0]], [0.1])
    assert scan.samples == ((0.1, 0.0),)


def test_error_scan_matches_the_reference_bit_for_bit(teps):
    t100 = embed_and_add(teps, classical_tensor((3, 3, 5)), mask_embedding(teps))
    eps_values = [1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-12, 1e-200]
    for t, seed in ((teps, 22), (t100, 23)):
        rng = np.random.default_rng(seed)
        A, B = rng.uniform(-1, 1, (5, 5)), rng.uniform(-1, 1, (5, 5))
        for i, j in t.masked_out():
            A[i, j] = 0.0
        got = epsilon_error_scan(t, A, B, eps_values).samples
        want = reference_error_samples(t, A, B, eps_values)
        assert [(e, r.hex()) for e, r in got] == [(e, r.hex()) for e, r in want]
        assert math.isinf(got[-1][1])


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


def test_schedule_clears_each_distinct_scheme_once(strassen, monkeypatch):
    calls = []
    real = evaluate._level

    def counting_level(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(evaluate, "_level", counting_level)
    A = Matrix([[Fraction(i - j, 1 + (i * j) % 3) for j in range(16)] for i in range(16)])
    copies = [parse_tensor(write_tensor(strassen)) for _ in range(4)]
    for schedule in ([strassen] * 4, copies):
        calls.clear()
        assert multiply_recursive(schedule, A, A) == A @ A
        assert calls == [strassen]
    iso = isotropy_apply(strassen, ISOTROPY)
    calls.clear()
    B = Matrix([[Fraction(i + j, 1 + i % 2) for j in range(8)] for i in range(8)])
    assert multiply_recursive([strassen, iso, strassen], B, B) == B @ B
    assert calls == [strassen, iso]


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
