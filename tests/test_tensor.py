import copy
import hashlib
import itertools
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

import fmmkit.tensor as tensor_module
from fmmkit.algebra import direct_sum, embed_and_add, kronecker, mask_embedding
from fmmkit.matrices import Matrix
from fmmkit.scalars import Laurent
from fmmkit.tensor import (
    LAURENT,
    RATIONAL,
    FmmTensor,
    Term,
    classical_map,
    classical_tensor,
    expand,
    type_polynomial,
    verify_approximate,
    verify_exact,
)

from helpers import (
    classical_dense,
    laurent_copy,
    mutate_one_entry,
    rand_tensor,
    reference_rank,
    third_of_one_term,
)


def unit_term(dims, i, j, k):
    m, n, p = dims
    return Term(
        Matrix.unit(m, n, i, j),
        Matrix.unit(n, p, j, k),
        Matrix.unit(p, m, k, i),
    )


def test_constructor_validation():
    good = unit_term((2, 2, 2), 0, 0, 0)
    with pytest.raises(ValueError):
        FmmTensor((0, 2, 2), RATIONAL, [good])
    with pytest.raises(ValueError):
        FmmTensor((2, 2, 2), "complex", [good])
    with pytest.raises(ValueError):
        FmmTensor((2, 2, 2), RATIONAL, [])
    bad_shape = Term(Matrix.zeros(3, 2), Matrix.unit(2, 2, 0, 0), Matrix.unit(2, 2, 0, 0))
    with pytest.raises(ValueError):
        FmmTensor((2, 2, 2), RATIONAL, [bad_shape])
    zero_term = Term(Matrix.zeros(2, 2), Matrix.unit(2, 2, 0, 0), Matrix.unit(2, 2, 0, 0))
    with pytest.raises(ValueError):
        FmmTensor((2, 2, 2), RATIONAL, [zero_term])
    eps_entry = Matrix([[Laurent.monomial(1, 1), 0], [0, 0]])
    with pytest.raises(ValueError):
        FmmTensor((2, 2, 2), RATIONAL, [Term(eps_entry, Matrix.unit(2, 2, 0, 0), Matrix.unit(2, 2, 0, 0))])


def test_support_validation():
    term = unit_term((2, 2, 2), 0, 0, 0)
    with pytest.raises(ValueError):
        FmmTensor((2, 2, 2), RATIONAL, [term], support=[[True, True]])
    with pytest.raises(ValueError):
        FmmTensor((2, 2, 2), RATIONAL, [term], support=[[False, False], [False, False]])
    t = FmmTensor((2, 2, 2), RATIONAL, [term], support=[[True, False], [False, False]])
    assert t.support == ((True, False), (False, False))


def test_immutability_and_rank():
    t = classical_tensor((2, 2, 2))
    assert t.rank == 8
    with pytest.raises(AttributeError):
        t.terms = ()


def test_classical_tensor_verifies_exactly(strassen):
    for dims in ((1, 1, 1), (2, 2, 2), (2, 3, 4)):
        t = classical_tensor(dims)
        m, n, p = dims
        assert t.rank == m * n * p
        report = verify_exact(t)
        assert report.passed
        assert report.total_equations == (m * n * p) ** 2
        assert str(report) == "PASS %d/%d equations" % ((m * n * p) ** 2, (m * n * p) ** 2)
    assert verify_exact(strassen).passed


def test_expand_matches_classical_map():
    t = classical_tensor((2, 3, 2))
    assert expand(t) == classical_map(t.dims)
    assert verify_exact(t).failing_equations == ()


def test_every_classical_form_comes_from_one_builder():
    rng = random.Random(29)
    for dims in [*itertools.product((1, 2, 3), repeat=3), (2, 3, 4), (3, 5, 5), (4, 3, 2)]:
        m, n, p = dims
        masks = [None]
        while len(masks) < 4:
            mask = [[rng.random() < 0.6 for _ in range(n)] for _ in range(m)]
            if any(map(any, mask)):
                masks.append(mask)
        for mask in masks:
            keys = list(classical_map(dims, mask))
            assert keys == [((i, j), (j, k), (k, i)) for i in range(m) for j in range(n)
                            if mask is None or mask[i][j] for k in range(p)]
            assert keys == list(expand(classical_tensor(dims, mask)))
            assert classical_tensor(dims, mask).terms == tuple(
                unit_term(dims, i, j, k) for (i, j), (_, k), _ in keys)
            assert set(classical_map(dims, mask).values()) == {Fraction(1)}
        dense = classical_dense(dims)
        assert set(dense.ravel().tolist()) <= {0.0, 1.0}
        assert [(i * n + j, j * p + k, k * m + i) for (i, j), (_, k), _
                in classical_map(dims)] == list(map(tuple, np.argwhere(dense).tolist()))


def test_masked_classical_tensor():
    support = [[True, False], [True, True]]
    t = classical_tensor((2, 2, 2), support=support)
    assert t.rank == 6  # one A entry masked away removes p terms
    assert verify_exact(t).passed
    assert classical_map(t.dims, t.support) == expand(t)


def test_verify_exact_rejects_laurent():
    term = unit_term((1, 1, 1), 0, 0, 0)
    t = FmmTensor((1, 1, 1), LAURENT, [term])
    with pytest.raises(ValueError):
        verify_exact(t)


def test_verify_exact_failure_details(strassen):
    rng = random.Random(5)
    bad = mutate_one_entry(strassen, rng)
    report = verify_exact(bad)
    assert not report.passed
    assert len(report.failing_equations) >= 1
    key, value = report.failing_equations[0]
    assert len(key) == 3 and value != 0
    assert str(report).startswith("FAIL ")


def test_verify_approximate_on_exact_scheme(strassen):
    report = verify_approximate(strassen)
    assert report.valid
    assert report.discrepancy_order == math.inf
    assert str(report) == "VALID discrepancy_order inf"


def test_each_check_calls_expand_once_by_its_module_name(strassen, teps, monkeypatch):
    # the benchmark's span tracer wraps fmmkit.tensor.expand, so the checks
    # must look it up there at call time
    calls = []

    def counting_expand(t):
        calls.append(t)
        return expand(t)

    monkeypatch.setattr(tensor_module, "expand", counting_expand)
    assert verify_exact(strassen).passed
    assert calls == [strassen]
    assert verify_approximate(teps).valid
    assert calls == [strassen, teps]


def test_verify_approximate_strict_and_scaled(teps):
    strict = verify_approximate(teps, mode="strict")
    assert strict.valid and strict.discrepancy_order == 1
    assert str(strict) == "VALID discrepancy_order 1"
    scaled = verify_approximate(teps, mode="scaled")
    assert scaled.valid and scaled.scaling == 0
    with pytest.raises(ValueError):
        verify_approximate(teps, mode="loose")


def test_verify_approximate_scaled_recovers_global_scaling(teps):
    e = Laurent.monomial(1, 1)
    scaled_terms = [Term(t.P.map(lambda x: x * e), t.Q, t.S) for t in teps.terms]
    t = teps.with_terms(scaled_terms)
    assert not verify_approximate(t, mode="strict").valid
    report = verify_approximate(t, mode="scaled")
    assert report.valid
    assert report.scaling == 1
    assert report.discrepancy_order == 1
    assert str(report) == "VALID discrepancy_order 1 scaling e^1"


def test_type_polynomial_examples(strassen):
    tp = type_polynomial(strassen)
    assert tp.as_dict() == {(2, 2, 2): 1, (1, 1, 1): 6}
    assert tp.total() == 7
    assert str(tp) == "X^2*Y^2*Z^2 + 6*X*Y*Z"
    classical = type_polynomial(classical_tensor((2, 2, 2)))
    assert classical.as_dict() == {(1, 1, 1): 8}
    assert str(classical) == "8*X*Y*Z"


def test_type_polynomial_matches_dense_reference_ranks(strassen, t58, teps):
    rng = random.Random(35)
    t100 = embed_and_add(teps, classical_tensor((3, 3, 5)), mask_embedding(teps))
    product = kronecker(t58, strassen)
    assert tuple(product.dims) == (6, 10, 10)
    schemes = [strassen, t58, teps, t100, product]
    schemes += [rand_tensor(rng, max_dim=4, max_rank=5) for _ in range(40)]
    for t in schemes:
        counts = {}
        for term in t.terms:
            key = tuple(map(reference_rank, term))
            counts[key] = counts.get(key, 0) + 1
        assert type_polynomial(t).as_dict() == counts, t.dims


def test_verify_approximate_same_for_a_laurent_copy(strassen, t58):
    broken = t58.with_terms(t58.terms[:-1])
    for t in (strassen, t58, broken):
        lifted = FmmTensor(t.dims, LAURENT, t.terms, t.support)
        for mode in ("strict", "scaled"):
            assert verify_approximate(t, mode) == verify_approximate(lifted, mode)
    assert not verify_approximate(broken).valid


def test_equality_and_as_laurent(strassen):
    assert strassen == strassen.with_terms(strassen.terms)
    lifted = FmmTensor(strassen.dims, LAURENT, strassen.terms)
    assert lifted.field_mode == LAURENT
    assert lifted != strassen
    assert verify_approximate(lifted).valid
    assert "FmmTensor(<2,2,2;7>" in repr(strassen)


def test_tensor_keeps_the_factors_it_is_given(strassen):
    t = FmmTensor(strassen.dims, strassen.field_mode, strassen.terms)
    for kept, given in zip(t.terms, strassen.terms):
        assert all(a is b for a, b in zip(kept, given))


def test_laurent_factor_in_a_rational_tensor_is_refused():
    one = Matrix([[1]])
    with pytest.raises(ValueError, match="^e-dependent entry in a rational-mode tensor$"):
        FmmTensor((1, 1, 1), RATIONAL, [Term(one, Matrix([[Laurent.monomial(1, 1)]]), one)])


def test_parsed_entries_are_fractions_or_laurents(strassen, t58, teps):
    for t in (strassen, t58, teps):
        for term in t.terms:
            for factor in term:
                assert all(type(x) in (Fraction, Laurent) for row in factor.data for x in row)


def test_copies_and_pickles_are_equal_and_immutable(strassen, teps):
    e = Laurent.monomial(1, 1)
    for obj in (e, Matrix([[e, 1], [0, Fraction(1, 2) * e]]), strassen, teps):
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj)
            assert twin == obj
            with pytest.raises(AttributeError):
                setattr(twin, type(obj).__slots__[0], None)


def pinned_tensors(strassen, t58, teps):
    t108 = direct_sum(t58, classical_tensor((2, 5, 5)), axis="M")
    rng = random.Random(11)
    shuffled = list(t58.terms)
    rng.shuffle(shuffled)
    flipped = []
    for term in shuffled:
        kind = rng.randrange(3)  # keep, negate P and Q (still exact), negate S
        if kind == 1:
            term = Term(-term.P, -term.Q, term.S)
        elif kind == 2:
            term = Term(term.P, term.Q, -term.S)
        flipped.append(term)
    e = Laurent.monomial(1, 1)
    return {
        "strassen": strassen,
        "3x5x5_58": t58,
        "t108": t108,
        "t108_third": third_of_one_term(t108, 4),
        "3x5x5_58_flipped": t58.with_terms(flipped),
        "teps": teps,
        "t100": embed_and_add(teps, classical_tensor((3, 3, 5)), mask_embedding(teps)),
        "teps_times_e": teps.with_terms([Term(t.P.map(lambda x: x * e), t.Q, t.S)
                                          for t in teps.terms]),
        "laurent_strassen": laurent_copy(strassen),
    }


def report_digests(tensors):
    """sha256 of str, repr and the failing coordinates of every report."""
    out = {}
    for name, t in tensors.items():
        checks = {"strict": lambda t: verify_approximate(t, "strict"),
                  "scaled": lambda t: verify_approximate(t, "scaled")}
        if t.field_mode == RATIONAL:
            checks["exact"] = verify_exact
        for check, fn in checks.items():
            report = fn(t)
            failing = (report.failing_equations if check == "exact"
                       else report.worst_negative_terms)
            text = "%s\n%r\n%r" % (report, report, failing)
            out["%s/%s" % (name, check)] = hashlib.sha256(text.encode()).hexdigest()
    return out


# report digests as the dict-walk expansion in Fraction and Laurent
# arithmetic produced them, so that the integer expansion cannot alter a
# report
REPORT_SHA256 = {
    "strassen/strict": "50099249b94203e1a5ac0ef13dc5b51a9808beb052bf05a98b5868bb523b878f",
    "strassen/scaled": "50099249b94203e1a5ac0ef13dc5b51a9808beb052bf05a98b5868bb523b878f",
    "strassen/exact": "42a55acf3e73720d58cfc2eb5ddc8c9a3e3040c98def161ca924d21ad76bb648",
    "3x5x5_58/strict": "50099249b94203e1a5ac0ef13dc5b51a9808beb052bf05a98b5868bb523b878f",
    "3x5x5_58/scaled": "50099249b94203e1a5ac0ef13dc5b51a9808beb052bf05a98b5868bb523b878f",
    "3x5x5_58/exact": "8ae664b85f49d23936032349a94429b0df49778fcccfe8dd120908501e04943a",
    "t108/strict": "50099249b94203e1a5ac0ef13dc5b51a9808beb052bf05a98b5868bb523b878f",
    "t108/scaled": "50099249b94203e1a5ac0ef13dc5b51a9808beb052bf05a98b5868bb523b878f",
    "t108/exact": "0bb2e1e9d01301cc143b91bc35c0df798c2d0f48e942cece86809214db4262fb",
    "t108_third/strict": "40686ce12d1b912a5ab729f8e3286d97efe389a8e5e889627fc254966a05098a",
    "t108_third/scaled": "40686ce12d1b912a5ab729f8e3286d97efe389a8e5e889627fc254966a05098a",
    "t108_third/exact": "b347b13c1c233b76f5ab9f760b2e0e0e3782c636dc48741592fd97154f2fc673",
    "3x5x5_58_flipped/strict": "3615f68ad5b80f3c960b9e9c5b762a18f7da8d2f38b40a50239da9ca272e8227",
    "3x5x5_58_flipped/scaled": "3615f68ad5b80f3c960b9e9c5b762a18f7da8d2f38b40a50239da9ca272e8227",
    "3x5x5_58_flipped/exact": "3f98f8e6fa0e34451b1d8b10aeb603d6ad117d797625d5523b7b377f33a7349d",
    "teps/strict": "4e288f0e0f66564a1691e55da619b20e3bf9888df2b135be8a28df1b907094f5",
    "teps/scaled": "4e288f0e0f66564a1691e55da619b20e3bf9888df2b135be8a28df1b907094f5",
    "t100/strict": "4e288f0e0f66564a1691e55da619b20e3bf9888df2b135be8a28df1b907094f5",
    "t100/scaled": "4e288f0e0f66564a1691e55da619b20e3bf9888df2b135be8a28df1b907094f5",
    "teps_times_e/strict": "a94238b8556c8dba7b99017da1279a00985e1001d9018ad701df1abfa4589197",
    "teps_times_e/scaled": "ab11c3aa4188186fe2b6cce7f6fd69fd860dd0a76e4eeea8bc23b6e9577772f9",
    "laurent_strassen/strict": "50099249b94203e1a5ac0ef13dc5b51a9808beb052bf05a98b5868bb523b878f",
    "laurent_strassen/scaled": "50099249b94203e1a5ac0ef13dc5b51a9808beb052bf05a98b5868bb523b878f",
}


def test_reports_are_byte_identical(strassen, t58, teps):
    assert report_digests(pinned_tensors(strassen, t58, teps)) == REPORT_SHA256
