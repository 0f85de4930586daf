import random
from fractions import Fraction

import pytest

from fmmkit.algebra import (
    BlockEmbedding,
    IsotropyElement,
    SerendipityGroup,
    direct_sum,
    embed_and_add,
    hopcroft_rank_bound,
    isotropy_apply,
    kronecker,
    mask_embedding,
    serendipity_find,
    serendipity_transform,
    symmetry_apply,
)
from fmmkit.matrices import ZERO, Matrix
from fmmkit.scalars import Laurent
from fmmkit.tensor import (
    LAURENT,
    RATIONAL,
    FmmTensor,
    Term,
    classical_tensor,
    expand,
    type_polynomial,
    verify_approximate,
    verify_exact,
)

from helpers import (
    distinct_share,
    fresh_copy,
    laurent_copy,
    rand_invertible,
    rand_tensor,
    reference_kronecker,
)


def test_direct_sum_axis_m(strassen):
    t = direct_sum(strassen, strassen, axis="M")
    assert t.dims == (4, 2, 2)
    assert t.rank == 14
    assert verify_exact(t).passed


def test_direct_sum_axis_n_and_p(strassen):
    for axis, dims in (("N", (2, 4, 2)), ("P", (2, 2, 4))):
        t = direct_sum(strassen, strassen, axis=axis)
        assert t.dims == dims
        assert t.rank == 14
        assert verify_exact(t).passed


def test_direct_sum_dimension_checks(strassen):
    other = classical_tensor((2, 3, 2))
    with pytest.raises(ValueError):
        direct_sum(strassen, other, axis="M")
    t = direct_sum(strassen, classical_tensor((3, 2, 2)), axis="M")
    assert t.dims == (5, 2, 2) and verify_exact(t).passed
    with pytest.raises(ValueError):
        direct_sum(strassen, strassen, axis="Q")


def test_direct_sum_mode_and_mask_checks(strassen, teps):
    # a rational and a laurent input sum to a laurent tensor
    lifted = laurent_copy(strassen)
    for t1, t2 in ((strassen, lifted), (lifted, strassen)):
        mixed = direct_sum(t1, t2)
        assert mixed.field_mode == LAURENT
        assert mixed == direct_sum(lifted, lifted)
        assert verify_approximate(mixed).valid
    masked = classical_tensor((2, 2, 2), support=[[True, False], [True, True]])
    with pytest.raises(ValueError):
        direct_sum(masked, classical_tensor((2, 2, 2)))
    with pytest.raises(ValueError):
        direct_sum(teps, teps)  # bundled approximate scheme is masked


def test_direct_sum_laurent_mode(strassen):
    lifted = laurent_copy(strassen)
    t = direct_sum(lifted, lifted, axis="P")
    assert t.field_mode == LAURENT
    assert verify_approximate(t).valid


def test_direct_sum_n_and_p_match_the_rotated_m_sum(strassen, t58):
    # along N: rotate once, sum along M, rotate back; along P the other way
    lifted = laurent_copy(strassen)
    pairs = {
        "N": [(strassen, strassen), (lifted, lifted), (t58, classical_tensor((3, 2, 5))),
              (classical_tensor((3, 1, 5)), t58)],
        "P": [(strassen, strassen), (lifted, lifted), (t58, classical_tensor((3, 5, 2))),
              (classical_tensor((3, 5, 1)), t58)],
    }
    for axis, there, back in (("N", 1, 2), ("P", 2, 1)):
        for t1, t2 in pairs[axis]:
            rotated = direct_sum(symmetry_apply(t1, there), symmetry_apply(t2, there), "M")
            assert direct_sum(t1, t2, axis) == symmetry_apply(rotated, back)


def test_kronecker_strassen_squared(strassen):
    t = kronecker(strassen, strassen)
    assert t.dims == (4, 4, 4)
    assert t.rank == 49
    assert verify_exact(t).passed


def test_kronecker_small_rectangular():
    a = classical_tensor((1, 2, 1))
    b = classical_tensor((2, 1, 2))
    t = kronecker(a, b)
    assert t.dims == (2, 2, 2)
    assert t.rank == 8
    assert verify_exact(t).passed


def test_kronecker_checks(strassen, teps):
    lifted = laurent_copy(strassen)
    for t1, t2 in ((strassen, lifted), (lifted, strassen)):
        mixed = kronecker(t1, t2)
        assert mixed.field_mode == LAURENT
        assert mixed == kronecker(lifted, lifted)
        assert verify_approximate(mixed).valid
    with pytest.raises(ValueError):
        kronecker(teps, teps)


def test_kronecker_matches_the_reference_walk(strassen, t58, teps):
    t100 = embed_and_add(teps, classical_tensor((3, 3, 5)), mask_embedding(teps))
    # halves and thirds in every slot, and factors with all-zero rows
    mixed = FmmTensor((2, 3, 1), RATIONAL, [
        Term(Matrix([[Fraction(1, 2), 0, 0], [0, 0, 0]]), Matrix([[0], [Fraction(-2, 3)], [3]]),
             Matrix([[Fraction(5, 6), Fraction(1, 2)]])),
        Term(Matrix([[0, 0, 0], [1, Fraction(1, 3), 0]]), Matrix([[Fraction(1, 4)], [0], [0]]),
             Matrix([[0, -1]]))])
    pairs = [(t58, strassen), (strassen, t58), (t100, strassen), (mixed, t100),
             (fresh_copy(t58), fresh_copy(strassen)), (mixed, mixed)]
    rng = random.Random(29)
    pairs += [(rand_tensor(rng, allow_support=False), rand_tensor(rng, allow_support=False))
              for _ in range(40)]
    for t1, t2 in pairs:
        # tensor equality compares the field modes and every entry
        assert kronecker(t1, t2) == reference_kronecker(t1, t2)


def test_kronecker_forms_each_product_of_distinct_value_objects_once(strassen, t58):
    k = kronecker(t58, strassen)
    assert distinct_share(k)[0] <= distinct_share(t58)[0] * distinct_share(strassen)[0]
    # one object per distinct value across the three slots: 1 and -1 times 1 and -1
    assert distinct_share(k)[0] == 4
    # fresh inputs give one product per pair of objects, each met once
    distinct, total = distinct_share(kronecker(fresh_copy(t58), fresh_copy(strassen)))
    assert distinct == total == distinct_share(k)[1]


def test_symmetry_rotation(strassen):
    t = classical_tensor((2, 3, 4))
    r1 = symmetry_apply(t, rotation=1)
    assert r1.dims == (3, 4, 2)
    assert verify_exact(r1).passed
    r2 = symmetry_apply(t, rotation=2)
    assert r2.dims == (4, 2, 3)
    assert verify_exact(r2).passed
    assert symmetry_apply(r1, rotation=1) == symmetry_apply(t, rotation=2)
    assert symmetry_apply(strassen, rotation=1).terms[0].P == strassen.terms[0].Q


def test_symmetry_transpose(strassen):
    t = classical_tensor((2, 3, 4))
    tt = symmetry_apply(t, transpose=True)
    assert tt.dims == (2, 4, 3)
    assert verify_exact(tt).passed
    assert symmetry_apply(tt, transpose=True) == symmetry_apply(t)
    both = symmetry_apply(strassen, rotation=1, transpose=True)
    assert verify_exact(both).passed


def test_symmetry_identity_and_errors(strassen, teps):
    ident = symmetry_apply(strassen)
    assert ident == strassen and ident is not strassen
    with pytest.raises(ValueError):
        symmetry_apply(strassen, rotation=3)
    with pytest.raises(ValueError):
        symmetry_apply(teps, rotation=1)
    assert symmetry_apply(teps) == teps


def test_symmetry_preserves_type(strassen):
    for rotation in (1, 2):
        assert (
            type_polynomial(symmetry_apply(strassen, rotation=rotation)).total()
            == strassen.rank
        )


def test_isotropy_identity(strassen):
    g = IsotropyElement(Matrix.identity(2), Matrix.identity(2), Matrix.identity(2))
    assert isotropy_apply(strassen, g) == strassen


def test_isotropy_preserves_verification(strassen):
    rng = random.Random(3)
    for _ in range(10):
        g = IsotropyElement(rand_invertible(rng, 2), rand_invertible(rng, 2), rand_invertible(rng, 2))
        out = isotropy_apply(strassen, g)
        assert out.rank == strassen.rank
        assert verify_exact(out).passed
    t = classical_tensor((2, 3, 2))
    g = IsotropyElement(rand_invertible(rng, 2), rand_invertible(rng, 3), rand_invertible(rng, 2))
    assert verify_exact(isotropy_apply(t, g)).passed


def test_isotropy_round_trip(strassen):
    rng = random.Random(9)
    U, V, W = (rand_invertible(rng, 2) for _ in range(3))
    out = isotropy_apply(strassen, IsotropyElement(U, V, W))
    back = isotropy_apply(out, IsotropyElement(U.inverse(), V.inverse(), W.inverse()))
    assert back == strassen


def test_isotropy_errors(strassen, teps):
    eye = Matrix.identity(2)
    with pytest.raises(ValueError):
        isotropy_apply(strassen, IsotropyElement(Matrix.identity(3), eye, eye))
    singular = Matrix([[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        isotropy_apply(strassen, IsotropyElement(singular, eye, eye))
    with pytest.raises(ValueError):
        isotropy_apply(teps, IsotropyElement(Matrix.identity(5), Matrix.identity(5), Matrix.identity(5)))


def test_serendipity_find_counts(t58, teps):
    assert len(serendipity_find(t58)) == 8
    assert len(serendipity_find(teps)) == 4


def test_serendipity_groups_are_sound(t58):
    for group in serendipity_find(t58):
        assert len(group.term_indices) >= 2
        for i in group.term_indices:
            factor = getattr(t58.terms[i], group.slot)
            assert factor == group.shared_factor


def test_serendipity_up_to_scale():
    base = classical_tensor((2, 2, 2))
    terms = list(base.terms)
    # scale one factor and compensate in a partner slot: same tensor,
    # strict sharing broken, scale-free sharing intact
    t0 = terms[0]
    terms[0] = type(t0)(t0.P.scale(Fraction(2)), t0.Q.scale(Fraction(1, 2)), t0.S)
    t = base.with_terms(terms)
    strict = serendipity_find(t)
    loose = serendipity_find(t, up_to_scale=True)
    assert len(loose) > len(strict)
    assert verify_exact(t).passed


def test_serendipity_up_to_scale_non_monomial_anchor():
    # the first nonzero entry 1+e does not divide 1 in the Laurent scalars
    e = Laurent.monomial(1, 1)
    t = FmmTensor((1, 2, 1), LAURENT, [
        Term(Matrix([[1 + e, 1]]), Matrix([[1], [0]]), Matrix([[1]])),
        Term(Matrix([[2 + 2 * e, 2]]), Matrix([[0], [1]]), Matrix([[1]])),
        Term(Matrix([[1 + e, 2]]), Matrix([[1], [1]]), Matrix([[2]])),
    ])
    loose = serendipity_find(t, up_to_scale=True)
    assert [(g.slot, g.term_indices) for g in loose] == [("P", (0, 1)), ("S", (0, 1, 2))]
    assert loose[0].shared_factor == t.terms[0].P
    assert [(g.slot, g.term_indices) for g in serendipity_find(t)] == [("S", (0, 1))]


def test_serendipity_transform_preserves_expansion():
    t = classical_tensor((2, 2, 2))
    groups = serendipity_find(t)
    assert groups, "classical tensor shares P factors across k"
    group = groups[0]
    M = Matrix([[1, 1], [0, 1]])
    out = serendipity_transform(t, group, M)
    assert out.rank == t.rank
    assert expand(out) == expand(t)
    assert verify_exact(out).passed
    # untouched terms stay identical
    touched = set(group.term_indices)
    for i, (a, b) in enumerate(zip(t.terms, out.terms)):
        if i not in touched:
            assert a == b


def test_serendipity_transform_random_mixers(t58):
    rng = random.Random(17)
    groups = serendipity_find(t58)
    group = groups[0]
    q = len(group.term_indices)
    M = rand_invertible(rng, q)
    out = serendipity_transform(t58, group, M)
    assert verify_exact(out).passed


def test_laurent_tensors_take_rational_matrices():
    # a Laurent tensor with e-dependent factors; rational U, V, W and
    # mixers give what their Laurent copies give
    e = Laurent.monomial(1, 1)
    base = classical_tensor((2, 2, 2))
    t = FmmTensor(base.dims, LAURENT,
                  [Term(term.P.scale(e), term.Q, term.S.scale(Laurent.monomial(1, -1)))
                   for term in base.terms])
    rng = random.Random(21)
    g = IsotropyElement(*(rand_invertible(rng, 2) for _ in range(3)))
    out = isotropy_apply(t, g)
    assert out == isotropy_apply(t, IsotropyElement(*(m.map(Laurent.monomial) for m in g)))
    assert expand(out) == expand(isotropy_apply(base, g))
    group = serendipity_find(t)[0]
    M = rand_invertible(rng, len(group.term_indices))
    mixed = serendipity_transform(t, group, M)
    assert mixed == serendipity_transform(t, group, M.map(Laurent.monomial))
    assert expand(mixed) == expand(t)


def test_serendipity_transform_errors():
    t = classical_tensor((2, 2, 2))
    group = serendipity_find(t)[0]
    with pytest.raises(ValueError):
        serendipity_transform(t, group, Matrix.identity(3))
    with pytest.raises(ValueError):
        serendipity_transform(t, group, Matrix([[1, 1], [1, 1]]))
    stale = type(group)(group.slot, Matrix([[9, 9], [9, 9]]), group.term_indices)
    with pytest.raises(ValueError):
        serendipity_transform(t, stale, Matrix.identity(2))
    short = type(group)(group.slot, group.shared_factor, group.term_indices[:1])
    with pytest.raises(ValueError):
        serendipity_transform(t, short, Matrix.identity(1))


def test_block_embedding_validation():
    with pytest.raises(ValueError):
        BlockEmbedding((), (0,), (0,))
    with pytest.raises(ValueError):
        BlockEmbedding((1, 0), (0,), (0,))
    with pytest.raises(ValueError):
        BlockEmbedding((-1,), (0,), (0,))
    e = BlockEmbedding((0, 2), (1,), (0, 1))
    assert e.a_rows == (0, 2)


def test_mask_embedding_rectangle(teps):
    e = mask_embedding(teps)
    assert len(e.a_rows) == 3 and len(e.a_cols) == 3
    assert e.b_cols == (0, 1, 2, 3, 4)
    holes = {
        (r, c)
        for r in range(5)
        for c in range(5)
        if not teps.support[r][c]
    }
    assert holes == {(r, c) for r in e.a_rows for c in e.a_cols}
    with pytest.raises(ValueError):
        mask_embedding(classical_tensor((2, 2, 2)))
    ragged = classical_tensor((2, 2, 2), support=[[False, True], [True, False]])
    with pytest.raises(ValueError):
        mask_embedding(ragged)


def test_embed_and_add_small_exact():
    masked = classical_tensor((2, 2, 2), support=[[False, True], [True, True]])
    fill = classical_tensor((1, 1, 2))
    done = embed_and_add(masked, fill, mask_embedding(masked))
    assert done.support is None
    assert done.rank == masked.rank + fill.rank == 8
    assert verify_exact(done).passed


def test_embed_and_add_completes_bundled_scheme(teps):
    block = classical_tensor((3, 3, 5))
    done = embed_and_add(teps, block, mask_embedding(teps))
    assert done.dims == (5, 5, 5)
    assert done.rank == 55 + 45
    assert done.field_mode == LAURENT
    report = verify_approximate(done)
    assert report.valid and report.discrepancy_order == 1


def test_embed_and_add_either_block_domain(teps):
    block = classical_tensor((3, 3, 5))
    e = mask_embedding(teps)
    assert embed_and_add(teps, block, e) == embed_and_add(teps, laurent_copy(block), e)
    masked = classical_tensor((2, 2, 2), support=[[False, True], [True, True]])
    fill = classical_tensor((1, 1, 2))
    e = mask_embedding(masked)
    done = embed_and_add(masked, laurent_copy(fill), e)
    assert done.field_mode == LAURENT
    assert done == embed_and_add(laurent_copy(masked), fill, e)
    assert done == laurent_copy(embed_and_add(masked, fill, e))


def test_placed_factors_fill_with_the_shared_zero(t58, teps):
    placed = (direct_sum(t58, classical_tensor((2, 5, 5))),
              embed_and_add(teps, classical_tensor((3, 3, 5)), mask_embedding(teps)))
    for t in placed:
        for term in t.terms:
            for factor in term:
                assert all(x is ZERO for row in factor.data for x in row if not x)


def test_embed_and_add_errors(strassen, teps):
    with pytest.raises(ValueError):
        embed_and_add(strassen, classical_tensor((1, 1, 2)), BlockEmbedding((0,), (0,), (0, 1)))
    masked = classical_tensor((2, 2, 2), support=[[False, True], [True, True]])
    with pytest.raises(ValueError):
        embed_and_add(masked, classical_tensor((1, 2, 2)), mask_embedding(masked))
    with pytest.raises(ValueError):
        embed_and_add(masked, classical_tensor((1, 1, 2)), BlockEmbedding((0,), (1,), (0, 1)))
    with pytest.raises(ValueError):
        embed_and_add(masked, classical_tensor((1, 1, 2)), BlockEmbedding((5,), (0,), (0, 1)))
    with pytest.raises(ValueError):
        embed_and_add(masked, teps, mask_embedding(masked))


def test_hopcroft_bound_values():
    assert hopcroft_rank_bound(5, 5) == 40
    assert hopcroft_rank_bound(3, 5) == 25
    assert hopcroft_rank_bound(2, 2) == 7
    assert hopcroft_rank_bound(1, 1) == 2
    assert hopcroft_rank_bound(5, 3) == 25
    with pytest.raises(ValueError):
        hopcroft_rank_bound(0, 3)


ONE = Matrix([[1]])
# one term twice: its two terms share every factor, so any two are dependent
TWICE = FmmTensor((1, 1, 1), RATIONAL, [Term(ONE, ONE, ONE)] * 2)


@pytest.mark.parametrize("call, message", [
    (lambda: serendipity_transform(TWICE, SerendipityGroup("P", ONE, (0, 2)),
                                   Matrix.identity(2)),
     "group indices out of range"),
    (lambda: serendipity_transform(TWICE, SerendipityGroup("P", ONE, (1, 1)),
                                   Matrix.identity(2)),
     "group indices out of range"),
    (lambda: serendipity_transform(TWICE, serendipity_find(TWICE)[0], Matrix([[1, 0], [-1, 1]])),
     "recombination would zero a factor of term 0 (dependent factors under this mixing matrix)"),
    (lambda: mask_embedding(FmmTensor((1, 1, 1), RATIONAL, TWICE.terms, [[True]])),
     "support mask has an empty complement"),
], ids=["index past the rank", "repeated index", "zeroed factor", "mask allows every entry"])
def test_refusals(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
