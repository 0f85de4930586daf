import itertools
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmmkit.algebra import (
    AXIS_M,
    AXIS_N,
    AXIS_P,
    IsotropyElement,
    direct_sum,
    embed_and_add,
    isotropy_apply,
    mask_embedding,
    serendipity_find,
    serendipity_transform,
)
from fmmkit.io import parse_tensor, write_tensor
from fmmkit.matrices import ZERO, Matrix
from fmmkit.scalars import Laurent
from fmmkit.tensor import LAURENT, RATIONAL, FmmTensor, Term, classical_tensor

from helpers import (
    laurent_copy,
    rand_factor,
    rand_invertible,
    rand_scalar,
    reference_add,
    reference_inverse,
    reference_map,
    reference_matmul,
    reference_rank,
    reference_sub,
)


def test_constructor_and_shape():
    m = Matrix([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert m[(1, 2)] == 6
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix([])


def test_static_builders():
    z = Matrix.zeros(2, 3)
    assert not z
    eye = Matrix.identity(3)
    assert eye[(0, 0)] == 1 and eye[(0, 1)] == 0
    u = Matrix.unit(2, 2, 0, 1, value=Fraction(5))
    assert u[(0, 1)] == 5 and u[(1, 0)] == 0


def test_unit_indexes_as_the_entry_lookup():
    # negative indices count from the end; others out of range raise
    assert Matrix.unit(2, 2, -1, 0) == Matrix.unit(2, 2, 1, 0) == Matrix([[0, 0], [1, 0]])
    assert Matrix.unit(2, 3, 0, -1, value=-2) == Matrix([[0, 0, -2], [0, 0, 0]])
    for i, j in ((5, 5), (2, 0), (0, 3), (-3, 0)):
        with pytest.raises(IndexError):
            Matrix.unit(2, 3, i, j)


def test_equality_and_hash():
    a = Matrix([[Fraction(1), Fraction(2)]])
    b = Matrix([[1, 2]])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Matrix([[1, 3]])


def test_nonzero_entries_row_major():
    m = Matrix([[0, 2], [3, 0]])
    assert list(m.nonzero_entries()) == [(0, 1, 2), (1, 0, 3)]


def _cell(rng, mode):
    """A nonzero scalar or int, or a zero in one of its forms: ZERO, a new
    Fraction(0), a zero left by rational or Laurent arithmetic, or int 0."""
    x = Laurent.monomial(Fraction(1, 3), 1)
    zeros = (ZERO, Fraction(0), Fraction(1, 3) - Fraction(1, 3), x - x, 0)
    kind = rng.random()
    if kind < 0.5:
        return rng.choice(zeros)
    if kind < 0.6:
        return rng.choice((1, -2))
    return rand_scalar(rng, mode)


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=2**48 - 1))
def test_nonzeros_match_a_dense_scan(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 4), rng.randint(1, 4)
    mode = rng.choice((RATIONAL, LAURENT))
    data = [[_cell(rng, mode) for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.5:
        data[rng.randrange(rows)] = [_cell(rng, mode) * 0 for _ in range(cols)]
    if rng.random() < 0.1:
        data = [[Fraction(0)] * cols for _ in range(rows)]
    m = Matrix(data)
    dense = tuple((i, j, x) for i, row in enumerate(data) for j, x in enumerate(row) if x)
    assert m.nonzeros == dense
    assert all(type(x) in (Fraction, Laurent) for row in m.data for x in row)
    assert tuple(m.nonzero_entries()) == dense
    assert bool(m) == bool(dense)
    assert m.is_rational() == (not any(isinstance(x, Laurent) for row in data for x in row))
    assert m == Matrix([[Fraction(x) if type(x) is int else x for x in row] for row in data])


def test_arithmetic():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[5, 6], [7, 8]])
    assert a + b == Matrix([[6, 8], [10, 12]])
    assert b - a == Matrix([[4, 4], [4, 4]])
    assert -a == Matrix([[-1, -2], [-3, -4]])
    assert a.scale(Fraction(1, 2)) == Matrix([[Fraction(1, 2), 1], [Fraction(3, 2), 2]])
    assert a @ b == Matrix([[19, 22], [43, 50]])
    assert a.transpose() == Matrix([[1, 3], [2, 4]])
    with pytest.raises(ValueError):
        a + Matrix([[1, 2, 3]])
    with pytest.raises(ValueError):
        a @ Matrix([[1, 2, 3]])


def _operand(rng, rows, cols, mode):
    """A rows x cols matrix of _cell entries: ints and zeros in every
    form among rational or Laurent scalars."""
    return Matrix([[_cell(rng, mode) for _ in range(cols)] for _ in range(rows)])


def _cancelling(rng, a, mode):
    """A matrix of a's shape whose cells are often -a's or a's there, so
    that a + it or a - it cancels to zero in those cells."""
    def cell(i, j):
        kind = rng.random()
        return (-a[(i, j)] if kind < 0.3 else a[(i, j)] if kind < 0.6
                else _cell(rng, mode))
    return Matrix([[cell(i, j) for j in range(a.cols)] for i in range(a.rows)])


def _cancelling_product(rng, a, cols, mode):
    """A matrix b with a.cols rows such that a @ b often cancels to zero
    in a cell: for a row i of a with nonzeros at j1 and j2, column k of b
    takes a[i, j2] * t at j1 and -a[i, j1] * t at j2."""
    b = [[_cell(rng, mode) for _ in range(cols)] for _ in range(a.cols)]
    for i in range(a.rows):
        nonzero = [j for j in range(a.cols) if a[(i, j)]]
        if len(nonzero) >= 2 and rng.random() < 0.5:
            j1, j2 = rng.sample(nonzero, 2)
            k, t = rng.randrange(cols), rand_scalar(rng, mode, zero_ok=False)
            b[j1][k], b[j2][k] = a[(i, j2)] * t, -a[(i, j1)] * t
    return Matrix(b)


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=2**48 - 1))
def test_arithmetic_matches_the_dense_reference(seed):
    rng = random.Random(seed)
    modes = (RATIONAL, LAURENT)
    rows, cols, inner = (rng.randint(1, 5) for _ in range(3))
    a = _operand(rng, rows, cols, rng.choice(modes))
    b = _cancelling(rng, a, rng.choice(modes))
    c = _cancelling_product(rng, a, inner, rng.choice(modes))
    s = rng.choice((0, 1, -1, 3, rand_scalar(rng, rng.choice(modes))))
    results = [(a + b, reference_add(a, b)), (a - b, reference_sub(a, b)),
               (b - b, Matrix.zeros(rows, cols)), (a @ c, reference_matmul(a, c)),
               (a.scale(s), reference_map(a, lambda x: s * x)),
               (-a, reference_map(a, operator.neg))]
    # fns that return scalars, ints and zeros, "0" among them: truthy, but
    # settled to a zero
    for fn in (lambda x: x * x, lambda x: int(x == 1), lambda x: 0 * x, lambda x: x + x,
               lambda x: "0" if x == 1 else x):
        results.append((a.map(fn), reference_map(a, fn)))
    for got, want in results:
        assert got == want and hash(got) == hash(want)
        _assert_stored_form(got)

    wrong = _operand(rng, cols + 1, cols + rng.randint(1, 2), rng.choice(modes))
    for op, reference in ((operator.add, reference_add), (operator.sub, reference_sub),
                          (operator.matmul, reference_matmul)):
        with pytest.raises(ValueError):
            reference(a, wrong)
        with pytest.raises(ValueError):
            op(a, wrong)
    # map visits the nonzeros only, so an fn that moves zero is refused
    for fn in (lambda x: x + 1, lambda x: 1, lambda x: "1"):
        with pytest.raises(ValueError):
            a.map(fn)


def test_kron():
    a = Matrix([[1, 2], [3, 4]])
    k = a.kron(Matrix([[0, 1]]))
    assert (k.rows, k.cols) == (2, 4)
    assert k == Matrix([[0, 1, 0, 2], [0, 3, 0, 4]])


def test_kron_forms_each_product_of_distinct_value_objects_once():
    # a value object that repeats is multiplied once per distinct partner
    x, y = Fraction(2, 3), Laurent({-1: 1, 2: Fraction(1, 2)})
    a, b = Matrix([[x, x], [0, x]]), Matrix([[y, 0, y]])
    k = a.kron(b)
    assert k == _dense_kron(a, b)
    assert len({id(v) for _, _, v in k.nonzeros}) == 1


def _dense_kron(a, b):
    """Reference product: every cell pair multiplied, row by row."""
    return Matrix([[x * y for x in ra for y in rb] for ra in a.data for rb in b.data])


def _sparse_factor(rng):
    """Rational or Laurent matrix up to 4x4, often with all-zero rows and
    columns, sometimes all zero."""
    rows, cols = rng.randint(1, 4), rng.randint(1, 4)
    mode = rng.choice((RATIONAL, LAURENT))
    data = [[rand_scalar(rng, mode) if rng.random() < 0.6 else Fraction(0)
             for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.5:
        data[rng.randrange(rows)] = [Fraction(0)] * cols
    if rng.random() < 0.5:
        j = rng.randrange(cols)
        for row in data:
            row[j] = Fraction(0)
    return Matrix(data)


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=2**48 - 1))
def test_sparse_kron_matches_the_dense_product(seed):
    rng = random.Random(seed)
    a, b = _sparse_factor(rng), _sparse_factor(rng)
    k = a.kron(b)
    assert k == _dense_kron(a, b)
    assert all(type(x) is Fraction for row in k.data for x in row if not x)


def test_rank_and_determinant_rational():
    assert Matrix([[1, 2], [2, 4]]).rank() == 1
    assert Matrix([[1, 2], [3, 4]]).rank() == 2
    assert Matrix.zeros(3, 3).rank() == 0
    assert Matrix([[1, 2], [3, 4]]).determinant() == -2
    assert Matrix.identity(4).determinant() == 1


def test_inverse_rational():
    m = Matrix([[2, 1], [1, 1]])
    inv = m.inverse()
    assert m @ inv == Matrix.identity(2)
    with pytest.raises(ValueError):
        Matrix([[1, 2], [2, 4]]).inverse()


def test_random_inverse_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = rand_invertible(rng, n)
        assert m @ m.inverse() == Matrix.identity(n)


def test_laurent_matrix_rank_and_inverse():
    e = Laurent.monomial(1, 1)
    one = Laurent.monomial(1)
    m = Matrix([[one, e], [Fraction(0), one]])
    assert m.rank() == 2
    inv = m.inverse()
    ident = Matrix.identity(2)
    assert m @ inv == ident
    # the inverse of a singular laurent matrix does not exist
    sing = Matrix([[e, e], [e, e]])
    assert sing.rank() == 1
    with pytest.raises(ValueError):
        sing.inverse()


def test_laurent_determinant_keeps_its_e_power():
    e = Laurent.monomial(1, 1)
    assert Matrix([[e]]).determinant() == e
    assert Matrix([[e, 1], [0, e]]).determinant() == e * e


def _leibniz(m):
    n = m.rows
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        prod = 1
        for i in range(n):
            prod = m[(i, perm[i])] * prod
        total = total - prod if inversions % 2 else total + prod
    return total


def test_elimination_matches_leibniz_in_both_domains():
    rng = random.Random(4)
    seen = {}
    for trial in range(300):
        mode = (RATIONAL, LAURENT)[trial % 2]
        n = rng.randint(1, 4)
        m = rand_factor(rng, n, n, mode)
        det = m.determinant()
        assert det == _leibniz(m), m
        assert (m.rank() == n) == bool(det), m
        assert m.rank() == m.transpose().rank(), m
        if not det:
            kind = "singular"
            with pytest.raises(ValueError, match="singular matrix"):
                m.inverse()
        elif not isinstance(det, Laurent) or det.is_monomial():
            kind = "unit"
            assert m @ m.inverse() == Matrix.identity(n), m
        else:
            # a non-monomial determinant is no unit of the Laurent ring
            kind = "non-unit"
            with pytest.raises(ValueError, match="leaves the Laurent scalars"):
                m.inverse()
        seen[mode, kind] = seen.get((mode, kind), 0) + 1
    assert min(seen.values()) >= 20 and len(seen) == 5, seen


def _rand_elimination_input(rng, rows, cols, mode):
    """A random rows x cols matrix: sparse or dense, of full or low rank
    (a product through a narrower inner size), with some rows and columns
    zeroed.  Laurent entries of products are mostly not monomials."""
    if rng.random() < 0.4:
        inner = rng.randint(1, max(1, min(rows, cols) - 1))
        data = (rand_factor(rng, rows, inner, mode) @ rand_factor(rng, inner, cols, mode)).data
    else:
        density = rng.choice((0.25, 0.5, 1.0))
        data = [[rand_scalar(rng, mode, zero_ok=False) if rng.random() < density else 0
                 for _ in range(cols)] for _ in range(rows)]
    dead_rows = {i for i in range(rows) if rng.random() < 0.15}
    dead_cols = {j for j in range(cols) if rng.random() < 0.15}
    return Matrix([[0 if i in dead_rows or j in dead_cols else x for j, x in enumerate(row)]
                   for i, row in enumerate(data)])


def test_rank_matches_the_dense_reference():
    rng = random.Random(31)
    seen = set()
    for trial in range(400):
        mode = (RATIONAL, LAURENT)[trial % 2]
        m = _rand_elimination_input(rng, rng.randint(1, 7), rng.randint(1, 7), mode)
        rank = m.rank()
        assert rank == reference_rank(m) == m.transpose().rank(), m
        seen.add((mode, rank == min(m.rows, m.cols), m.rows == m.cols))
        if not m.is_rational():
            seen.add("non-monomial" if any(isinstance(x, Laurent) and not x.is_monomial()
                                           for _, _, x in m.nonzeros) else "monomial")
    assert len(seen) == 10, seen


def test_determinant_matches_leibniz_up_to_5x5():
    rng = random.Random(32)
    for trial in range(150):
        mode = (RATIONAL, LAURENT)[trial % 2]
        n = rng.randint(1, 5)
        m = _rand_elimination_input(rng, n, n, mode)
        assert m.determinant() == _leibniz(m), m


def test_determinant_sign_follows_the_pivot_columns():
    # row k pivots on column perm[k]; the sign is that permutation's
    for perm in itertools.permutations(range(4)):
        m = Matrix([[int(j == perm[i]) * (i + 2) for j in range(4)] for i in range(4)])
        assert m.determinant() == _leibniz(m) != 0


def _inverse_or_error(inverse, m):
    try:
        return inverse(m)
    except ValueError as exc:
        return str(exc)


def test_inverse_matches_the_dense_reference():
    rng = random.Random(33)
    seen = {}
    for trial in range(240):
        mode = (RATIONAL, LAURENT)[trial % 2]
        n = rng.randint(1, 6)
        if trial % 3 == 0:
            m = rand_invertible(rng, n, mode)
        elif trial % 3 == 1:
            m = _rand_elimination_input(rng, n, n, mode)
        else:
            # dense: a Laurent one is mostly invertible over Q(e) only, and
            # its minors grow fast, so it stays at 4x4
            n = n if mode == RATIONAL else min(n, 4)
            m = Matrix([[rand_scalar(rng, mode, zero_ok=False) for _ in range(n)]
                        for _ in range(n)])
        got = _inverse_or_error(Matrix.inverse, m)
        assert got == _inverse_or_error(reference_inverse, m), m
        kind = got if isinstance(got, str) else "inverse"
        if kind == "inverse":
            assert m @ got == Matrix.identity(n), m
        seen[mode, kind] = seen.get((mode, kind), 0) + 1
    assert min(seen.values()) >= 15 and len(seen) == 5, seen


def test_entry_lookup_matches_the_dense_rows():
    rng = random.Random(34)
    for trial in range(40):
        mode = (RATIONAL, LAURENT)[trial % 2]
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _rand_elimination_input(rng, rows, cols, mode)
        for i in range(-rows, rows):
            for j in range(-cols, cols):
                assert m[(i, j)] == m.data[i][j]
                assert type(m[(i, j)]) is type(m.data[i][j])
        for key in ((rows, 0), (0, cols), (-rows - 1, 0), (0, -cols - 1)):
            with pytest.raises(IndexError):
                m[key]
    assert Matrix.zeros(2, 2)[(1, 1)] is ZERO


def test_lifted_and_has_laurent():
    m = Matrix([[Fraction(1), Fraction(0)]])
    assert m.is_rational()
    # an e-free value has one form, so lifting a rational matrix is the identity
    lifted = m.map(Laurent.monomial)
    assert lifted.is_rational()
    assert lifted == m and lifted[(0, 0)] == Laurent.monomial(1)
    assert not Matrix([[Fraction(1), Laurent.monomial(1, 1)]]).is_rational()


def test_map_and_immutability():
    m = Matrix([[1, 2]])
    doubled = m.map(lambda x: 2 * x)
    assert doubled == Matrix([[2, 4]])
    with pytest.raises(AttributeError):
        m.data = ()


def test_constructor_settles_each_entry_once():
    q = Fraction(1, 2)
    x = Laurent.monomial(1, 1)
    one, kept_q, kept_x = Matrix([[1, q, x]]).data[0]
    assert type(one) is Fraction and one == 1
    assert kept_q is q
    assert kept_x is x


def _assert_stored_form(x):
    """x keeps the invariant of Matrix.nonzeros: strictly row-major
    positions inside the shape and nonzero values, so it equals, and
    hashes like, the matrix Matrix builds from its dense rows."""
    positions = [(i, j) for i, j, _ in x.nonzeros]
    assert positions == sorted(set(positions)), x.nonzeros
    assert all(0 <= i < x.rows and 0 <= j < x.cols for i, j in positions)
    assert all(type(v) in (Fraction, Laurent) and v for _, _, v in x.nonzeros)
    dense = Matrix(x.data)
    assert x.nonzeros == dense.nonzeros
    assert x == dense and hash(x) == hash(dense)


def _rand_tensor(rng, dims, mode):
    m, n, p = dims
    return FmmTensor(dims, mode, [
        Term(rand_factor(rng, m, n, mode), rand_factor(rng, n, p, mode),
             rand_factor(rng, p, m, mode)) for _ in range(rng.randint(1, 3))])


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=2**48 - 1))
def test_built_factors_keep_the_stored_form(seed):
    rng = random.Random(seed)
    modes = (RATIONAL, LAURENT)
    a = rand_factor(rng, rng.randint(1, 3), rng.randint(1, 3), rng.choice(modes))
    b = rand_factor(rng, rng.randint(1, 3), rng.randint(1, 3), rng.choice(modes))
    built = [a.kron(b), b.kron(a), a.transpose(), Matrix.zeros(a.rows, a.cols)]
    d = rand_factor(rng, a.rows, a.cols, rng.choice(modes))
    built += [a + d, a - d, a - a, -a, a.scale(rand_scalar(rng, rng.choice(modes))),
              a.map(lambda x: x * x), a @ rand_factor(rng, a.cols, 2, rng.choice(modes))]

    dims = [rng.randint(1, 3) for _ in range(3)]
    axis = rng.randrange(3)
    other = list(dims)
    other[axis] = rng.randint(1, 3)
    t1 = _rand_tensor(rng, dims, rng.choice(modes))
    t2 = _rand_tensor(rng, other, rng.choice(modes))
    summed = direct_sum(t1, t2, (AXIS_M, AXIS_N, AXIS_P)[axis])
    m, n = dims[0] + 1, dims[1] + 1
    support = [[True] * n for _ in range(m)]
    rows = sorted(rng.sample(range(m), rng.randint(1, m - 1)))
    cols = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
    for r in rows:
        for c in cols:
            support[r][c] = False
    partial = classical_tensor((m, n, dims[2]), support)
    block = _rand_tensor(rng, (len(rows), len(cols), dims[2]), rng.choice(modes))
    completed = embed_and_add(partial, block, mask_embedding(partial))
    parsed = parse_tensor(write_tensor(summed))
    assert parsed == summed
    # a classical tensor turned by an isotropy keeps its groups of terms
    # that share a factor, each mixable by any invertible matrix
    mode = rng.choice(modes)
    turned_dims = dims[:2] + [max(dims[2], 2)]
    turned = classical_tensor(turned_dims)
    turned = isotropy_apply(laurent_copy(turned) if mode == LAURENT else turned, IsotropyElement(
        *(rand_invertible(rng, k, mode) for k in turned_dims)))
    group = rng.choice(serendipity_find(turned))
    mixed = serendipity_transform(turned, group, rand_invertible(rng, len(group.term_indices), mode))
    for t in (summed, completed, parsed, partial, classical_tensor(dims), turned, mixed):
        built += [factor for term in t.terms for factor in term]
    for x in built:
        _assert_stored_form(x)


def test_parsed_zero_spellings_are_not_stored():
    t = parse_tensor("fmm 1\ndims 1 2 1\nrank 1\nfield laurent\nterm 1\n"
                     "0/7, 1 + 0*e^2\n-0\n0*e^-1 + 1\n1\n")
    P, Q, _ = t.terms[0]
    assert P.nonzeros == ((0, 1, 1),) and Q.nonzeros == ((1, 0, 1),)
    assert type(P.nonzeros[0][2]) is Fraction


@pytest.mark.parametrize("call, message", [
    (lambda: Matrix.zeros(0, 2), "matrix needs at least one row and one column"),
    (lambda: Matrix.zeros(2, 0), "matrix needs at least one row and one column"),
    (lambda: Matrix([[1, 2]]).inverse(), "only square matrices invert"),
    (lambda: Matrix([[1], [2]]).determinant(), "determinant needs a square matrix"),
], ids=["zeros without rows", "zeros without columns", "inverse of 1x2", "determinant of 2x1"])
def test_shape_refusals(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("call, entry", [
    (lambda: Matrix([[0.1]]), 0.1),
    (lambda: Matrix([[1, float("inf")]]), float("inf")),
    (lambda: Matrix([[np.float64(0.5)]]), np.float64(0.5)),
    (lambda: Matrix([[0.0]]), 0.0),
    (lambda: Matrix.unit(2, 2, 0, 1, 0.25), 0.25),
    (lambda: Matrix([[1, 2]]).scale(0.1), 0.1),
    (lambda: Matrix([[1, 2]]).map(lambda x: x / 10.0), 0.0),
], ids=["Matrix", "inf", "numpy float64", "float zero", "unit", "scale", "map"])
def test_float_entries_are_refused(call, entry):
    # a float's binary value is rarely the number meant: Fraction(0.1) is
    # 3602879701896397/36028797018963968, and inf has no Fraction at all
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == "inexact float entry %r; give an int, a Fraction or a string" % (
        entry,)


def test_exact_entries_settle_as_before():
    e = Laurent.monomial(Fraction(1, 2), -1)
    m = Matrix([[3, "1/2", Fraction(2, 3), e], [0, "0", Fraction(0), -1]])
    assert m.nonzeros == ((0, 0, Fraction(3)), (0, 1, Fraction(1, 2)), (0, 2, Fraction(2, 3)),
                          (0, 3, e), (1, 3, Fraction(-1)))
    assert all(type(x) in (Fraction, Laurent) for _, _, x in m.nonzeros)
    assert m.scale(Fraction(1, 2)) == m.map(lambda x: x * Fraction(1, 2))
