"""The file parsers against the sequential reference parsers of
tests/helpers.py: random valid files, decorated with comments, blank lines
and either row form, and mutated copies of them.  Both parsers give equal
results, or the same error text and line; parse_scalar gives the value and
type of the reference loop, or its error text."""

import random
from fractions import Fraction

import pytest

from fmmkit import io
from fmmkit.io import TensorFormatError, parse_matrix, parse_tensor, write_tensor
from fmmkit.matrices import Matrix
from fmmkit.scalars import Laurent, ScalarParseError, format_rational, parse_scalar
from fmmkit.tensor import LAURENT, RATIONAL, FmmTensor, Term

from helpers import (
    rand_tensor,
    reference_parse_matrix,
    reference_parse_scalar,
    reference_parse_tensor,
)


def outcome(parse, text):
    """parse(text), or the text and line of the TensorFormatError it raises."""
    try:
        return parse(text)
    except TensorFormatError as exc:
        return "error", str(exc), exc.line


def check_alike(parse, reference, text, monkeypatch):
    """parse and reference agree on text, and parse reads no token twice."""
    calls = []
    real = io.parse_scalar

    def counted(cell, laurent=True):
        calls.append(cell)
        return real(cell, laurent=laurent)

    with monkeypatch.context() as patch:
        patch.setattr(io, "parse_scalar", counted)
        got = outcome(parse, text)
    assert got == outcome(reference, text), text
    assert len(calls) == len(set(calls)), text
    return got


# -- tensor files ---------------------------------------------------------------

def pooled_tensor(rng):
    """A random tensor whose entries come from a small pool, so that row
    texts repeat across rows, slots and terms."""
    mode = rng.choice((RATIONAL, LAURENT))
    pool = [Fraction(1), Fraction(-1), Fraction(1, 2)]
    if mode == LAURENT:
        pool += [Laurent({-1: Fraction(1)}), Laurent({0: Fraction(2), 1: Fraction(-1)})]
    m, n, p = (rng.randint(1, 3) for _ in range(3))

    def factor(rows, cols):
        data = [[rng.choice(pool) if rng.random() < 0.4 else 0 for _ in range(cols)]
                for _ in range(rows)]
        data[rng.randrange(rows)][rng.randrange(cols)] = rng.choice(pool)
        return Matrix(data)

    terms = [Term(factor(m, n), factor(n, p), factor(p, m)) for _ in range(rng.randint(1, 6))]
    support = None
    if rng.random() < 0.3:
        support = [[rng.random() < 0.7 for _ in range(n)] for _ in range(m)]
        support[0][0] = True
    return FmmTensor((m, n, p), mode, terms, support)


def decorated(rng, text):
    """text with comments, blank and indented lines, and rows rewritten in
    the compact whitespace-separated form or with uneven commas."""
    out = []
    for line in text.splitlines():
        if line.count(", ") and rng.random() < 0.4:
            cells = [cell.replace(" + ", "+") for cell in line.split(", ")]
            line = " ".join(cells) if rng.random() < 0.5 else " ,".join(cells)
        if rng.random() < 0.2:
            line = "  " + line + "\t"
        if rng.random() < 0.15:
            line += "   # note"
        out.append(line)
        if rng.random() < 0.1:
            out.append(rng.choice(("", "   ", "# a comment line", "\t# indented")))
    return "\n".join(out) + rng.choice(("\n", "", "\n\n"))


BAD_CELLS = ("1/0", "x", "1*e^1", "1//2", "+", "1 2", "e^1", "1" * 5000)


def mutated(rng, text):
    """One structural or token mutation of a valid tensor text."""
    lines = text.splitlines()
    kind = rng.choice(("truncate", "cell", "width", "term", "rank", "trailing",
                       "delete", "duplicate", "swap"))
    heads = [i for i, line in enumerate(lines) if line.startswith("term ")]
    rows = [i for i, line in enumerate(lines) if i > heads[0] and i not in heads and line]
    if kind == "truncate":
        lines = lines[:rng.randrange(len(lines))]
    elif kind == "cell":
        i = rng.choice(rows)
        cells = lines[i].split(", ")
        cells[rng.randrange(len(cells))] = rng.choice(BAD_CELLS)
        lines[i] = ", ".join(cells)
    elif kind == "width":
        i = rng.choice(rows)
        cells = lines[i].split(", ")
        lines[i] = ", ".join(cells[1:] if len(cells) > 1 and rng.random() < 0.5
                             else cells + ["1"])
    elif kind == "term":
        i = rng.choice(heads)
        lines[i] = rng.choice(("term %d" % rng.randint(0, 9), "terms 1", "term 1 x",
                               "term", "1, 0", "term  %s" % lines[i].split()[1]))
    elif kind == "rank":
        i = next(i for i, line in enumerate(lines) if line.startswith("rank "))
        lines[i] = "rank %d" % max(1, int(lines[i].split()[1]) + rng.choice((-1, 1, 2)))
    elif kind == "trailing":
        lines.append(rng.choice(("junk", "term %d" % (len(heads) + 1), "1, 0", "0")))
    elif kind == "delete":
        del lines[rng.choice(rows)]
    elif kind == "duplicate":
        i = rng.choice(rows + heads)
        lines.insert(i, lines[i])
    else:
        i, j = rng.choice(rows + heads), rng.choice(rows + heads)
        lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


def tensor_texts(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        t = pooled_tensor(rng) if rng.random() < 0.6 else rand_tensor(rng, max_rank=5)
        yield rng, write_tensor(t)


def test_valid_tensor_files_parse_alike(monkeypatch):
    modes = set()
    for rng, text in tensor_texts(41, 150):
        text = decorated(rng, text)
        t = check_alike(parse_tensor, reference_parse_tensor, text, monkeypatch)
        assert isinstance(t, FmmTensor), t
        modes.add((t.field_mode, t.support is not None))
    assert len(modes) == 4


# the row, term, rank, trailing and end-of-file errors the mutations reach
KINDS = ("entries, got", "zero denominator", "malformed monomial", "in rational mode",
         "(term blocks are consecutive)", "rank mismatch", "trailing content",
         "unexpected end of file")


def test_mutated_tensor_files_fail_alike(monkeypatch):
    failures = set()
    for rng, text in tensor_texts(43, 400):
        text = mutated(rng, text)
        if rng.random() < 0.5:
            text = decorated(rng, text)
        got = check_alike(parse_tensor, reference_parse_tensor, text, monkeypatch)
        if isinstance(got, tuple):
            failures.update(kind for kind in KINDS if kind in got[1])
    assert failures == set(KINDS)


def test_the_first_bad_row_in_the_file_is_named(monkeypatch):
    # term 1's P row 2 and term 2's P row 1 hold the same bad text; read by
    # row position, term 2's comes first, but term 1's is first in the file
    rows = ["1, 0", "0, 1", "1, 0", "0, 1", "1, 0", "0, 1"]
    lines = ["term 1", "1, 0", "1/0, 1", *rows[2:], "term 2", "1/0, 1", *rows[1:]]
    text = "fmm 1\ndims 2 2 2\nrank 2\nfield rational\n" + "\n".join(lines) + "\n"
    assert check_alike(parse_tensor, reference_parse_tensor, text, monkeypatch) == (
        "error", "line 7: term 1 P row 2: zero denominator in '1/0'", 7)


# -- matrix files ---------------------------------------------------------------

SEPARATORS = (" ", "  ", "\t", "\n", "\r\n", " \n\n ", "\x0c")


def matrix_text(rng, rows, cols):
    cells = [rng.choice(("0", "-0", "+3", "007", "1", "-1")) if rng.random() < 0.3 else
             format_rational(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)))
             for _ in range(rows * cols)]
    out = "%d%s%d" % (rows, rng.choice(SEPARATORS), cols)
    for k, cell in enumerate(cells):
        out += ("\n" if k % cols == 0 and rng.random() < 0.7 else rng.choice(SEPARATORS)) + cell
        if rng.random() < 0.1:
            out += rng.choice((" # 5 6\n", "#\n", "\n# a comment line\n"))
    return out + "\n"


def test_valid_matrix_files_parse_alike(monkeypatch):
    rng = random.Random(47)
    for _ in range(200):
        text = matrix_text(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert isinstance(check_alike(parse_matrix, reference_parse_matrix, text, monkeypatch),
                          Matrix)


def test_mutated_matrix_files_fail_alike(monkeypatch):
    rng = random.Random(53)
    for _ in range(300):
        tokens = matrix_text(rng, rng.randint(1, 3), rng.randint(1, 3)).split(" ")
        i = rng.randrange(len(tokens))
        kind = rng.randrange(4)
        if kind == 0:
            tokens[i] = rng.choice(BAD_CELLS + ("0", "a", "1*e^0", "-", "9" * 5000))
        elif kind == 1:
            del tokens[i]
        elif kind == 2:
            tokens.insert(i, rng.choice(("1", "1/0", "# ", "\n1/0")))
        else:
            tokens = tokens[:i]
        check_alike(parse_matrix, reference_parse_matrix, " ".join(tokens), monkeypatch)


@pytest.mark.parametrize("text", ["", "\n# only\n", "2\n", "a 2\n1 2\n", "0 2\n",
                                  "%s 1\n1\n" % ("1" * 5000), "2 2\n1 2\n3\n",
                                  "1 2 # c\n\n1 1/0 1/0\n", "1 2\n1/0\n1/0\n"])
def test_matrix_header_and_count_errors_alike(text, monkeypatch):
    assert check_alike(parse_matrix, reference_parse_matrix, text, monkeypatch)[0] == "error"


# -- scalar tokens --------------------------------------------------------------

def random_token(rng):
    def monomial():
        out = rng.choice(("", "", "-", "+", "- ", " -")) + rng.choice(
            ("0", "1", "7", "12", "007", "123456789012", "9" * 5000 if rng.random() < 0.05 else "3"))
        if rng.random() < 0.4:
            out += "/" + rng.choice(("1", "2", "0", "36", "00", ""))
        if rng.random() < 0.3:
            out += "*e^" + rng.choice(("1", "-1", "0", "+2", "-12", "", "x"))
        return out

    token = monomial()
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        token += rng.choice(("+", " + ", "  +", "++", "", " ")) + monomial()
    if rng.random() < 0.1:
        token = rng.choice((" ", "\t", "", "x", "*")) + token + rng.choice((" ", "+", "/", ""))
    return token


def scalar_outcome(parse, token, laurent):
    try:
        value = parse(token, laurent=laurent)
    except ScalarParseError as exc:
        return "error", str(exc)
    return type(value), value


def test_scalar_tokens_parse_alike():
    rng = random.Random(59)
    kinds = set()
    for _ in range(3000):
        token, laurent = random_token(rng), rng.random() < 0.5
        got = scalar_outcome(parse_scalar, token, laurent)
        assert got == scalar_outcome(reference_parse_scalar, token, laurent), token
        kinds.add(got[0])
    assert kinds == {"error", Fraction, Laurent}
