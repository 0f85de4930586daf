"""Fuzz the three parsers with mutated bundled files and random token strings.

Whatever the input, parse_tensor and parse_matrix raise only
TensorFormatError and parse_scalar only ScalarParseError; a tensor that
parses goes through verify_approximate and type_polynomial without any
other exception."""

from hypothesis import given, settings
from hypothesis import strategies as st

from fmmkit.datasets import dataset_names, dataset_text
from fmmkit.io import TensorFormatError, parse_matrix, parse_tensor
from fmmkit.scalars import ScalarParseError, parse_scalar
from fmmkit.tensor import type_polynomial, verify_approximate

TEXTS = {name: dataset_text(name) for name in dataset_names()}

# characters of the file format, and a few that have no place in it
ALPHABET = "0123456789-+/*^e ,\n#dfmrst\tx."

SCALARS = st.sampled_from((
    "1", "0", "-1", "1/2", "-3/4", "3/0", "1*e^1", "2*e^-3", "1 + 1*e^2",
    "1/2*e^-1+1", "1*e^99999999", "9" * 40,
))

WORDS = st.sampled_from((
    "fmm", "dims", "rank", "field", "rational", "laurent", "support", "term",
    "01", "10", "e", "^", "*", "/", "+", "-", "#", ",",
))

# a header to build on: nothing, a tensor up to its first term, or the
# `rows cols` line of a matrix
HEADERS = st.sampled_from((
    "",
    "fmm 1\ndims 1 1 1\nrank 1\nfield rational\n",
    "fmm 1\ndims 1 1 1\nrank 1\nfield rational\nterm 1\n",
    "fmm 1\ndims 1 1 1\nrank 1\nfield laurent\nterm 1\n",
    "fmm 1\ndims 1 2 1\nrank 1\nfield laurent\nsupport\n10\nterm 1\n",
    "1 1\n",
    "2 2\n",
))

LINES = st.builds(
    lambda tokens, sep: sep.join(tokens),
    st.lists(st.one_of(SCALARS, WORDS), min_size=1, max_size=3),
    st.sampled_from((" ", ", ", "")),
)


@st.composite
def mutated_files(draw):
    text = list(TEXTS[draw(st.sampled_from(sorted(TEXTS)))])
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text) - 1))
        kind = draw(st.sampled_from(("replace", "delete", "insert")))
        if kind == "delete":
            del text[i]
        elif kind == "replace":
            text[i] = draw(st.sampled_from(ALPHABET))
        else:
            text.insert(i, draw(st.sampled_from(ALPHABET)))
    return "".join(text)


@st.composite
def token_strings(draw):
    head = draw(HEADERS)
    # after 'term 1' of a 1 x n x 1 tensor, three or four rows can complete the file
    count = draw(st.integers(2, 4) if head.endswith("term 1\n") else st.integers(0, 6))
    return head + "".join(draw(st.one_of(SCALARS, LINES)) + "\n" for _ in range(count))


def check_tensor_text(text):
    try:
        t = parse_tensor(text)
    except TensorFormatError:
        return
    verify_approximate(t)
    type_polynomial(t)


@settings(max_examples=100)
@given(mutated_files())
def test_mutated_bundled_files(text):
    check_tensor_text(text)


@settings(max_examples=250)
@given(token_strings())
def test_random_token_strings(text):
    check_tensor_text(text)
    try:
        parse_matrix(text)
    except TensorFormatError:
        pass
    for piece in [text] + text.splitlines():
        try:
            parse_scalar(piece)
        except ScalarParseError:
            pass
