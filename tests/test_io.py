import gc
import hashlib
import random
from fractions import Fraction

import pytest

from fmmkit import io
from fmmkit.algebra import direct_sum, embed_and_add, kronecker, mask_embedding
from fmmkit.io import (
    TensorFormatError,
    load_matrix,
    load_tensor,
    parse_matrix,
    parse_tensor,
    save_matrix,
    save_tensor,
    write_matrix,
    write_tensor,
)
from fmmkit.matrices import Matrix
from fmmkit.scalars import Laurent, format_scalar
from fmmkit.tensor import LAURENT, FmmTensor, Term, classical_tensor, verify_exact

from helpers import fresh_copy, laurent_copy, rand_tensor, reference_write_tensor

TRIVIAL = """\
fmm 1
dims 1 1 1
rank 1
field rational
term 1
1
1
1
"""


def test_parse_trivial():
    t = parse_tensor(TRIVIAL)
    assert t.dims == (1, 1, 1)
    assert t.rank == 1
    assert verify_exact(t).passed


def _count_parse_scalar(monkeypatch):
    """Wrap io.parse_scalar; returns the list of texts it is called with."""
    real = io.parse_scalar
    calls = []

    def counted(text, laurent=True):
        calls.append(text)
        return real(text, laurent=laurent)

    monkeypatch.setattr(io, "parse_scalar", counted)
    return calls


def test_each_distinct_token_is_parsed_once(monkeypatch, strassen, t58):
    k = kronecker(t58, strassen)
    cells = {format_scalar(x) for term in k.terms for f in (term.P, term.Q, term.S)
             for row in f.data for x in row}
    assert len(cells) == 3
    text = write_tensor(k)
    calls = _count_parse_scalar(monkeypatch)
    assert parse_tensor(text) == k
    assert sorted(calls) == sorted(cells)


def test_repeated_bad_token_names_its_first_line(monkeypatch):
    rational_e = TRIVIAL.replace("term 1\n1\n1\n", "term 1\n1\n1*e^1\n1*e^1\n")
    malformed = TRIVIAL.replace("term 1\n1\n1\n", "term 1\n1\n1/0\n1/0\n")
    for text, message in (
            (rational_e, "line 7: term 1 Q row 1: e-dependent scalar '1*e^1' in rational mode"),
            (malformed, "line 7: term 1 Q row 1: zero denominator in '1/0'")):
        with pytest.raises(TensorFormatError) as err:
            parse_tensor(text)
        assert err.value.line == 7
        assert str(err.value) == message
    calls = _count_parse_scalar(monkeypatch)
    with pytest.raises(TensorFormatError) as err:
        parse_matrix("2 2\n1 1\n1/0 1/0\n")
    assert str(err.value) == "line 3: zero denominator in '1/0'"
    assert calls == ["1", "1/0"]


def _tensor_text(dims, field, *terms):
    """A tensor file: each term is the list of its P, Q and S row texts."""
    lines = ["fmm 1", "dims %d %d %d" % dims, "rank %d" % len(terms), "field " + field]
    for idx, rows in enumerate(terms, start=1):
        lines += ["term %d" % idx, *rows]
    return "\n".join(lines) + "\n"


def _parse_error(text):
    with pytest.raises(TensorFormatError) as err:
        parse_tensor(text)
    return err.value.line, str(err.value)


def test_bad_cell_in_a_repeated_row_names_its_first_line():
    # <1,2,1>: P is one row of 2, Q two rows of 1, S one row of 1
    term = ["1, 1/0", "1", "1", "1"]
    text = _tensor_text((1, 2, 1), "rational", term, term)
    assert _parse_error(text) == (6, "line 6: term 1 P row 1: zero denominator in '1/0'")


def test_row_seen_at_a_valid_width_then_a_wrong_one_reports_the_later_line():
    # <1,2,3>: P is 1x2, Q 2x3, S 3x1; "1, 0" is valid in P and too narrow in Q
    text = _tensor_text((1, 2, 3), "rational", ["1, 0", "1, 0", "1, 0, 0", "1", "1", "1"])
    assert _parse_error(text) == (7, "line 7: term 1 Q row 1: expected 3 entries, got 2")
    # a row of width 2 read at width 1 goes through the width-1 split
    text = _tensor_text((1, 2, 1), "rational", ["1, 0", "1", "1", "1"],
                        ["1, 0", "1, 0", "1", "1"])
    assert _parse_error(text) == (12, "line 12: term 2 Q row 1: expected 1 entries, got 2")


def test_width_one_laurent_row_with_spaces_parses_alike_when_repeated():
    row = "1 + 2*e^-1"
    value = Laurent({0: Fraction(1), -1: Fraction(2)})
    # <1,1,2>: P is 1x1, Q 1x2, S 2x1
    once = parse_tensor(_tensor_text((1, 1, 2), "laurent", [row, "1, 0", "1", "0"]))
    twice = parse_tensor(_tensor_text((1, 1, 2), "laurent", [row, "1, 0", row, "0"],
                                      [row, "0, 1", "0", row]))
    assert once.terms[0].P[(0, 0)] == value
    assert [(t.P[(0, 0)], t.S[(0, 0)], t.S[(1, 0)]) for t in twice.terms] == [
        (value, value, 0), (value, 0, value)]
    # at width 2 the same text splits at whitespace, before or after its
    # width-1 reading
    for terms in (([row, row, "1", "1"],), ([row, "1, 0", row, "1"], [row, row, "1", "1"])):
        line = 7 if len(terms) == 1 else 12
        assert _parse_error(_tensor_text((1, 1, 2), "laurent", *terms)) == (
            line, "line %d: term %d Q row 1: expected 2 entries, got 3" % (line, len(terms)))


def test_comments_and_blank_lines_between_repeated_rows():
    term = ["1, 0", "0, 1", "1, 0", "0, 1", "1, 0", "0, 1"]
    plain = _tensor_text((2, 2, 2), "rational", term, term)
    noisy = plain.replace("0, 1\n", "0, 1   # a comment\n\n# a comment line\n   \n")
    assert parse_tensor(noisy) == parse_tensor(plain)
    # the repeated row's line number counts the comment and blank lines
    wrong = noisy.replace("term 2\n1, 0\n", "term 2\n1, 0\n1, 0, 1\n", 1)
    assert _parse_error(wrong) == (
        23, "line 23: term 2 P row 2: expected 2 entries, got 3")


# sha256 of write_tensor's text as the dense row-by-row kron and the
# format-every-entry writer produced it, so that no change to either can
# alter a written file
WRITTEN_SHA256 = {
    "kron": "5b71b30fe3419702671d458d2d29818aa99f7e487073128ae785b4bf0ea0e292",
    "dsum": "128768fac36447d950870b0075c82372b6931155ec50acd1338a5da5c996e6f2",
    "embed": "5432ee010bbb6bd099cfa8b7267116a22e9f0039e134bcae8c8aaf25926171bf",
    "laurent_strassen": "8b36805157d0daa2f1885d7c3432bfb7bcfb72f3771684ef3ea302d6d7f00e9e",
}


def test_written_text_is_byte_identical(strassen, t58, teps):
    tensors = {
        "kron": kronecker(t58, strassen),
        "dsum": direct_sum(t58, classical_tensor((2, 5, 5)), axis="M"),
        "embed": embed_and_add(teps, classical_tensor((3, 3, 5)), mask_embedding(teps)),
        "laurent_strassen": laurent_copy(strassen),
    }
    digests = {name: hashlib.sha256(write_tensor(t).encode()).hexdigest()
               for name, t in tensors.items()}
    assert digests == WRITTEN_SHA256


def test_writer_matches_the_dense_reference(strassen, t58, teps):
    t100 = embed_and_add(teps, classical_tensor((3, 3, 5)), mask_embedding(teps))
    # halves and thirds beside negative exponents, and all-zero first,
    # middle and last rows
    v = Laurent({-3: Fraction(1, 2), 0: Fraction(-2, 3), 2: 5})
    mixed = FmmTensor((3, 2, 1), LAURENT, [
        Term(Matrix([[0, 0], [Fraction(1, 2), v], [0, 0]]), Matrix([[Fraction(-1, 3)], [0]]),
             Matrix([[0, v, 0]])),
        Term(Matrix([[v, 0], [0, 0], [0, Fraction(7, 4)]]), Matrix([[0], [v]]),
             Matrix([[1, 0, 0]]))])
    tensors = [strassen, t58, teps, t100, kronecker(t58, strassen), kronecker(t100, strassen),
               mixed, fresh_copy(t58), fresh_copy(teps)]
    rng = random.Random(29)
    tensors += [rand_tensor(rng) for _ in range(40)]
    for t in tensors:
        assert write_tensor(t) == reference_write_tensor(t)


def test_a_write_keeps_no_table_between_calls(t58):
    first = fresh_copy(t58)
    freed = {id(v) for term in first.terms for f in term for _, _, v in f.nonzeros}
    write_tensor(first)
    del first
    gc.collect()
    # new objects with other values, some at the ids the first write saw
    second = fresh_copy(t58.with_terms([Term(term.P.scale(3), term.Q.scale(Fraction(1, 2)),
                                             term.S.scale(Fraction(2, 3)))
                                        for term in t58.terms]))
    assert freed & {id(v) for term in second.terms for f in term for _, _, v in f.nonzeros}
    assert write_tensor(second) == reference_write_tensor(second)


def test_comments_blank_lines_and_compact_rows():
    text = """
# produced by hand
fmm 1        # version marker
dims 2 2 2

rank 1
field laurent
support
10
11
term 1
1, 0
0 1
1*e^-1+2 0   # compact scalar token
0, 1
1 0
0 1/2
"""
    t = parse_tensor(text)
    assert t.field_mode == LAURENT
    assert t.support == ((True, False), (True, True))
    assert t.terms[0].Q[(0, 0)] == Laurent({-1: Fraction(1), 0: Fraction(2)})
    assert t.terms[0].S[(1, 1)] == Laurent.monomial(Fraction(1, 2))


def test_write_then_parse_is_identity(strassen, t58, teps):
    for t in (strassen, t58, teps):
        assert parse_tensor(write_tensor(t)) == t


def test_random_round_trips():
    rng = random.Random(23)
    for _ in range(60):
        t = rand_tensor(rng)
        assert parse_tensor(write_tensor(t)) == t


def test_canonical_output_is_stable(strassen):
    text = write_tensor(strassen)
    assert text == write_tensor(parse_tensor(text))
    assert text.startswith("fmm 1\ndims 2 2 2\nrank 7\nfield rational\nterm 1\n")
    assert text.endswith("\n")


def test_file_round_trip(tmp_path, teps):
    path = tmp_path / "t.fmm"
    save_tensor(teps, path)
    assert load_tensor(path) == teps


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda s: s.replace("fmm 1", "fmm 2"), "fmm 1"),
        (lambda s: s.replace("dims 1 1 1", "dims 1 1"), "dims"),
        (lambda s: s.replace("dims 1 1 1", "dims 1 1 x"), "non-integer"),
        (lambda s: s.replace("dims 1 1 1", "dims 0 1 1"), "positive"),
        (lambda s: s.replace("rank 1", "rank one"), "rank"),
        (lambda s: s.replace("field rational", "field real"), "field"),
        (lambda s: s.replace("term 1", "term 2"), "term"),
        (lambda s: s + "term 2\n1\n1\n1\n", "rank mismatch"),
        (lambda s: s + "junk\n", "trailing"),
        (lambda s: s.replace("term 1\n1\n", "term 1\n1 1\n"), "term 1 P row 1"),
        (lambda s: s.replace("term 1\n1\n", "term 1\n1/0\n"), "term 1 P"),
        (lambda s: "\n".join(s.splitlines()[:-1]), "unexpected end"),
        (lambda s: s.replace("term 1\n1\n", "term 1\n0\n"), "all-zero"),
        # integers too long for Python to convert (over 4300 digits)
        (lambda s: s.replace("rank 1", "rank 1" + "0" * 5000), "line 3: "),
        (lambda s: s.replace("term 1\n1\n", "term 1\n%s\n" % ("1" * 5000)),
         "line 6: term 1 P row 1"),
        (lambda s: s.replace("term 1\n1\n", "term 1\n1/%s\n" % ("1" * 5000)),
         "line 6: term 1 P row 1"),
        (lambda s: s.replace("field rational", "field laurent").replace(
            "term 1\n1\n", "term 1\n1*e^%s\n" % ("1" * 5000)), "line 6: term 1 P row 1"),
    ],
)
def test_malformed_tensor_files(mangle, fragment):
    with pytest.raises(TensorFormatError) as err:
        parse_tensor(mangle(TRIVIAL))
    assert fragment in str(err.value)


def test_wrong_entry_count_in_wide_row():
    text = TRIVIAL.replace("dims 1 1 1", "dims 1 2 1").replace(
        "term 1\n1\n1\n1\n", "term 1\n1\n1\n1\n")
    # P is now 1x2: a one-entry row must be rejected with the count
    with pytest.raises(TensorFormatError) as err:
        parse_tensor(text)
    assert "expected 2 entries, got 1" in str(err.value)


def test_single_entry_laurent_row_round_trips():
    text = TRIVIAL.replace("field rational", "field laurent").replace(
        "term 1\n1\n", "term 1\n1*e^-1 + 2\n")
    t = parse_tensor(text)
    assert t.terms[0].P[(0, 0)] == Laurent({-1: Fraction(1), 0: Fraction(2)})
    assert parse_tensor(write_tensor(t)) == t


def test_error_carries_line_number():
    bad = TRIVIAL.replace("rank 1", "rank -1")
    with pytest.raises(TensorFormatError) as err:
        parse_tensor(bad)
    assert err.value.line == 3
    assert str(err.value).startswith("line 3:")


def test_laurent_entry_rejected_in_rational_file():
    bad = TRIVIAL.replace("term 1\n1\n", "term 1\n1*e^1\n")
    with pytest.raises(TensorFormatError):
        parse_tensor(bad)


def test_matrix_round_trip(tmp_path):
    m = Matrix([[Fraction(1, 2), Fraction(-3)], [Fraction(0), Fraction(7, 5)]])
    text = write_matrix(m)
    assert text == "2 2\n1/2 -3\n0 7/5\n"
    assert parse_matrix(text) == m
    path = tmp_path / "m.mat"
    save_matrix(m, path)
    assert load_matrix(path) == m


def test_matrix_parse_accepts_comments():
    assert parse_matrix("# header\n1 2\n3 4 # trailing\n") == Matrix([[3, 4]])


def test_matrix_errors():
    long = "1" * 5000
    for bad in ("", "2\n", "a b\n1\n", "0 1\n", "1 2\n1\n", "1 1\n1*e^1\n",
                "%s 1\n1\n" % long, "1 1\n%s\n" % long, "1 1\n1*e^%s\n" % long):
        with pytest.raises(TensorFormatError):
            parse_matrix(bad)
    with pytest.raises(ValueError):
        write_matrix(Matrix([[Laurent.monomial(1, 1)]]))
