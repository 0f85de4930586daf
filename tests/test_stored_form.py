"""The tensor's one stored form: per-slot nonzero arrays over its distinct
value objects, which io.parse_tensor fills and tensor._cleared reads,
with ``terms`` a view.

helpers.reference_cleared_columns is _cleared as it was read from the
Matrix terms, and helpers.reference_parse_tensor the parser that builds
every factor as a Matrix; a parsed tensor and a tensor built from terms
must agree with them and with each other.
"""

import sys
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmmkit import cli, matrices
from fmmkit.algebra import kronecker
from fmmkit.io import parse_tensor, write_tensor
from fmmkit.matrices import Matrix
from fmmkit.scalars import Laurent
from fmmkit.tensor import LAURENT, RATIONAL, FmmTensor, Term, _cleared, type_polynomial

from helpers import reference_cleared_columns, reference_parse_tensor

DATA = resources.files("fmmkit") / "data"
STRASSEN, T58, TEPS = (str(DATA / name) for name in ("strassen.fmm", "3x5x5_58.fmm", "teps.fmm"))


def assert_same_columns(got, want):
    assert len(got) == len(want) == 3
    for (d, *columns), (d_want, *columns_want) in zip(got, want):
        assert type(d) is int and d == d_want
        for column, column_want in zip(columns, columns_want):
            assert column.dtype == column_want.dtype
            assert column.tolist() == column_want.tolist()


def copy(v):
    """v as a new value object."""
    return Laurent(v.terms) if isinstance(v, Laurent) else Fraction(v.numerator, v.denominator)


@st.composite
def tensors(draw):
    """Random rational or laurent tensors: dims 1-4, zero cells, entries
    that share a value object or hold their own, and numerators that fit
    int64 or, scaled by 2^61, make a slot's 1-norm outgrow it."""
    mode = draw(st.sampled_from((RATIONAL, LAURENT)))
    dims = draw(st.tuples(*[st.integers(1, 4)] * 3))
    scale = draw(st.sampled_from((1, 2**61)))
    fraction = st.builds(lambda num, den: Fraction(num * scale, den),
                         st.integers(-6, 6).filter(bool), st.sampled_from((1, 1, 2, 3)))
    if mode == LAURENT:
        value = st.builds(Laurent, st.dictionaries(st.integers(-3, 3), fraction,
                                                   min_size=1, max_size=2))
    else:
        value = fraction
    pool = draw(st.lists(value, min_size=1, max_size=4))
    # a cell is zero, a shared pool object, a fresh copy of one, or its own value
    cell = st.one_of(st.just(0), st.sampled_from(pool),
                     st.sampled_from(pool).map(copy), value)
    m, n, p = dims
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        factors = []
        for rows, cols in ((m, n), (n, p), (p, m)):
            data = [[draw(cell) for _ in range(cols)] for _ in range(rows)]
            if not any(map(any, data)):
                data[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = pool[0]
            factors.append(Matrix(data))
        terms.append(Term(*factors))
    support = None
    if draw(st.booleans()):
        support = [[draw(st.booleans()) for _ in range(n)] for _ in range(m)]
        support[0][0] = True
    return FmmTensor(dims, mode, terms, support)


@settings(max_examples=80)
@given(tensors())
def test_parsed_and_term_built_tensors_agree(t):
    text = write_tensor(t)
    parsed = parse_tensor(text)
    assert parsed == t and t == parsed
    assert parsed.terms == t.terms == reference_parse_tensor(text).terms
    assert write_tensor(parsed) == text
    for u in (t, parsed):
        assert_same_columns(_cleared(u), reference_cleared_columns(u))


def test_the_terms_view_shares_the_value_objects(t58):
    ids = {id(v) for v in t58.values}
    assert len(ids) < sum(len(e.term) for e in t58.entries)
    assert {id(v) for term in t58.terms for f in term for _, _, v in f.nonzeros} == ids
    # built once, then kept
    assert t58.terms is t58.terms


def test_the_stored_arrays_are_read_only(strassen):
    for entries in strassen.entries:
        for column in entries:
            with pytest.raises(ValueError):
                column[0] = 0


def test_equality_compares_each_entrys_value():
    one = Matrix([[1]])
    t = FmmTensor((1, 1, 1), RATIONAL, [Term(one, one, one)])
    assert t == FmmTensor((1, 1, 1), RATIONAL, [Term(Matrix([[Fraction(1)]]), one, one)])
    assert t != FmmTensor((1, 1, 1), RATIONAL, [Term(Matrix([[2]]), one, one)])
    assert t != FmmTensor((1, 1, 1), LAURENT, [Term(one, one, one)])
    assert t != FmmTensor((1, 1, 1), RATIONAL, [Term(one, one, one)] * 2)
    # the same entries at other positions
    a, b = Matrix([[1, 0]]), Matrix([[0, 1]])
    col = Matrix([[1], [1]])
    assert (FmmTensor((1, 2, 1), RATIONAL, [Term(a, col, one)])
            != FmmTensor((1, 2, 1), RATIONAL, [Term(b, col, one)]))


@pytest.fixture
def kron_file(tmp_path, t58, strassen):
    path = tmp_path / "kron.fmm"
    path.write_text(write_tensor(kronecker(t58, strassen)))
    return str(path)


def test_verify_of_a_parsed_file_builds_no_matrix(kron_file, monkeypatch, capsys):
    # verify reads the arrays the parser filled: no factor is built as a
    # Matrix, and no term view is read
    calls = []
    sparse = matrices._sparse

    def counted(*args):
        calls.append("_sparse")
        return sparse(*args)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("fmmkit") and getattr(module, "_sparse", None) is sparse:
            monkeypatch.setattr(module, "_sparse", counted)
    view = FmmTensor.terms

    def read(t):
        calls.append("terms")
        return view.fget(t)

    monkeypatch.setattr(FmmTensor, "terms", property(read))
    assert cli.main(["verify", kron_file]) == 0
    assert capsys.readouterr().out == "PASS 360000/360000 equations\n"
    assert calls == []


def test_term_readers_run_on_parsed_files(kron_file, tmp_path, capsys, t58, strassen):
    # type, compose and errscan read the term view of the tensors they parse
    assert cli.main(["type", kron_file]) == 0
    assert capsys.readouterr().out == "%s\n" % type_polynomial(kronecker(t58, strassen))
    out = tmp_path / "out.fmm"
    assert cli.main(["compose", "--op", "kron", "--inputs", "%s,%s" % (T58, STRASSEN),
                     "--out", str(out)]) == 0
    assert out.read_text() == open(kron_file).read()
    capsys.readouterr()
    assert cli.main(["errscan", TEPS, "--eps", "1e-1,1e-2,1e-3"]) == 0
    assert "slope" in capsys.readouterr().out
