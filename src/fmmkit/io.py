"""Line-oriented tensor and matrix file formats.

Tensor files ('#' starts a comment anywhere, blank lines are cosmetic):

    fmm 1
    dims <m> <n> <p>
    rank <r>
    field rational | field laurent
    support            # optional, then m lines of n chars from {0,1}
    term 1
    <m rows of n entries>          (P)
    <n rows of p entries>          (Q)
    <p rows of m entries>          (S)
    term 2
    ...

Row entries are comma-separated in canonical output (one space after the
comma, ' + ' around monomial sums); whitespace-separated compact tokens
such as `1/2*e^-3+2` are accepted on input.  Matrix files carry a
`rows cols` header and then row-major rational entries.

A factor stores only its nonzero entries (see matrices), and the parser
builds it straight from them.  A scheme file repeats a few hundred row
texts and a handful of cell tokens (0, 1, -1, ...) thousands of times,
so each distinct token is parsed once per file and each distinct row
text once per width: the parser keeps one row table per width, from row
text to the row's nonzero (column, scalar) pairs.  The cursor holds the
significant lines' numbers and bodies as two parallel lists.  A factor
takes its rows as one slice of each, looks all its row texts up in its
width's table with one map, parses only the texts not found, in row
order, and builds its (row, column, scalar) triples in one
comprehension.  Only successful parses are kept, so an error names the
line of the first bad occurrence and reads as parsing that row alone
would.

The writer works from the same nonzeros.  It formats each distinct value
object once per call: a table local to the call maps id(value) to its
text, which stays valid because the tensor holds every value while the
call runs (a table keyed by the value itself is slower, since hashing a
Fraction costs more than formatting it).  A factor's all-zero rows are
one shared text per width, and only the rows that hold nonzeros are
built cell by cell.
"""

from itertools import compress

from .matrices import Matrix, _sparse
from .scalars import ScalarParseError, format_rational, format_scalar, parse_scalar
from .tensor import LAURENT, RATIONAL, FmmTensor, Term


class TensorFormatError(ValueError):
    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


def _end_of_file(what):
    return TensorFormatError("unexpected end of file, expected %s" % what)


class _Cursor:
    """Significant-line reader over comment-stripped text: the line numbers
    and stripped bodies of the lines with a nonempty body, as two parallel
    lists."""

    def __init__(self, text):
        lines = text.splitlines()
        if "#" in text:
            lines = [raw.split("#", 1)[0] for raw in lines]
        bodies = list(map(str.strip, lines))
        self.numbers = list(compress(range(1, len(bodies) + 1), bodies))
        self.bodies = list(filter(None, bodies))
        self.pos = 0

    def peek(self):
        if self.pos < len(self.bodies):
            return self.numbers[self.pos], self.bodies[self.pos]
        return None, None

    def next(self, what):
        no, body = self.peek()
        if body is None:
            raise _end_of_file(what)
        self.pos += 1
        return no, body

    def take(self, count):
        """The line numbers and the bodies of the next count lines, or of
        all that are left if fewer."""
        start = self.pos
        self.pos = stop = min(start + count, len(self.bodies))
        return self.numbers[start:stop], self.bodies[start:stop]

    def done(self):
        return self.pos >= len(self.bodies)


def _split_row(body):
    if "," in body:
        return [cell.strip() for cell in body.split(",")]
    return body.split()


def _scalar_reader(laurent):
    """read(cell) -> parse_scalar(cell), each distinct cell parsed once.

    Only successful parses are kept, so a bad cell raises
    ScalarParseError wherever it occurs.
    """
    table = {}

    def read(cell):
        value = table.get(cell)
        if value is None:
            value = table[cell] = parse_scalar(cell, laurent=laurent)
        return value

    return read


def _parse_row(no, body, width, read, what):
    """The (column, scalar) pairs of the nonzero entries of row text `body`
    at line `no`, as a tuple."""
    # a single scalar may contain spaces (' + ' joined monomials)
    cells = [body] if width == 1 and "," not in body else _split_row(body)
    if len(cells) != width:
        raise TensorFormatError(
            "%s: expected %d entries, got %d" % (what, width, len(cells)), no)
    try:
        return tuple([(j, x) for j, x in enumerate(map(read, cells)) if x])
    except ScalarParseError as exc:
        raise TensorFormatError("%s: %s" % (what, exc), no) from None


def _parse_factor(cursor, rows, cols, read, table, term, slot):
    """The next rows x cols factor, slot P, Q or S of term `term`.

    table is the file's row table for width cols: it maps each row text
    already parsed at that width to the row's nonzero (column, scalar)
    pairs.  The width matters because the split depends on it (a
    comma-free text is one scalar at width 1 and whitespace-separated
    cells at any other width).  The factor's row texts are looked up in
    one pass, and only the texts not found are parsed, in row order.  Only
    successful parses are stored, so every error is the one parsing that
    row alone would give, and a row's error comes before the end of file.
    """
    numbers, bodies = cursor.take(rows)
    found = list(map(table.get, bodies))
    if None in found:
        for i, body in enumerate(bodies):
            if body not in table:
                table[body] = _parse_row(numbers[i], body, cols, read,
                                         "term %d %s row %d" % (term, slot, i + 1))
            found[i] = table[body]
    if len(bodies) < rows:
        raise _end_of_file("term %d %s row %d" % (term, slot, len(bodies) + 1))
    return _sparse(rows, cols, [(i, j, x) for i, pairs in enumerate(found) if pairs for j, x in pairs])


def parse_tensor(text):
    cursor = _Cursor(text)

    no, body = cursor.next("'fmm 1' header")
    if body.split() != ["fmm", "1"]:
        raise TensorFormatError("expected 'fmm 1', got %r" % body, no)

    no, body = cursor.next("dims header")
    parts = body.split()
    if len(parts) != 4 or parts[0] != "dims":
        raise TensorFormatError("expected 'dims <m> <n> <p>'", no)
    try:
        m, n, p = (int(x) for x in parts[1:])
    except ValueError:
        raise TensorFormatError("non-integer dimension in %r" % body, no) from None
    if min(m, n, p) < 1:
        raise TensorFormatError("dimensions must be positive", no)

    no, body = cursor.next("rank header")
    parts = body.split()
    if len(parts) != 2 or parts[0] != "rank" or not parts[1].isdigit():
        raise TensorFormatError("expected 'rank <r>'", no)
    try:
        rank = int(parts[1])
    except ValueError as exc:  # more digits than Python converts
        raise TensorFormatError("rank: %s" % exc, no) from None
    if rank < 1:
        raise TensorFormatError("rank must be positive", no)

    no, body = cursor.next("field header")
    parts = body.split()
    if len(parts) != 2 or parts[0] != "field" or parts[1] not in (RATIONAL, LAURENT):
        raise TensorFormatError("expected 'field rational' or 'field laurent'", no)
    mode = parts[1]

    support = None
    no, body = cursor.peek()
    if body == "support":
        cursor.next("support keyword")
        mask = []
        for r in range(m):
            no, body = cursor.next("support row %d" % (r + 1))
            if len(body) != n or any(ch not in "01" for ch in body):
                raise TensorFormatError(
                    "support row %d must be %d characters of 0/1" % (r + 1, n), no)
            mask.append(tuple(ch == "1" for ch in body))
        support = tuple(mask)

    read = _scalar_reader(mode == LAURENT)
    tables = {width: {} for width in (n, p, m)}  # per width: row text -> its nonzero pairs
    terms = []
    for idx in range(1, rank + 1):
        no, body = cursor.next("'term %d'" % idx)
        if body.split() != ["term", str(idx)]:
            if body.startswith("term"):
                raise TensorFormatError(
                    "expected 'term %d', got %r (term blocks are consecutive)"
                    % (idx, body), no)
            raise TensorFormatError(
                "rank mismatch: header says %d terms, found %d" % (rank, idx - 1), no)
        P = _parse_factor(cursor, m, n, read, tables[n], idx, "P")
        Q = _parse_factor(cursor, n, p, read, tables[p], idx, "Q")
        S = _parse_factor(cursor, p, m, read, tables[m], idx, "S")
        terms.append(Term(P, Q, S))

    if not cursor.done():
        no, body = cursor.peek()
        if body.split()[:1] == ["term"]:
            raise TensorFormatError(
                "rank mismatch: header says %d terms but more follow" % rank, no)
        raise TensorFormatError("trailing content %r" % body, no)

    try:
        return FmmTensor((m, n, p), mode, terms, support)
    except ValueError as exc:
        raise TensorFormatError(str(exc)) from None


def write_tensor(t):
    out = []
    out.append("fmm 1")
    out.append("dims %d %d %d" % t.dims)
    out.append("rank %d" % t.rank)
    out.append("field %s" % t.field_mode)
    if t.support is not None:
        out.append("support")
        for row in t.support:
            out.append("".join("1" if v else "0" for v in row))
    # t holds every value for the call, so its id names it
    texts = {}
    zero_rows = {width: ", ".join(["0"] * width) for width in t.dims}
    for idx, term in enumerate(t.terms, start=1):
        out.append("term %d" % idx)
        for factor in term:
            cols = factor.cols
            lines = [zero_rows[cols]] * factor.rows
            cells, last = None, None
            for i, j, x in factor.nonzeros:
                if i != last:
                    if cells is not None:
                        lines[last] = ", ".join(cells)
                    cells, last = ["0"] * cols, i
                cells[j] = texts.get(id(x)) or texts.setdefault(id(x), format_scalar(x))
            lines[last] = ", ".join(cells)  # a factor is never all zero
            out += lines
            out.append("")
    out.pop()
    return "\n".join(out) + "\n"


def load_tensor(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tensor(fh.read())


def save_tensor(t, path):
    text = write_tensor(t)  # before the open, so a failed write leaves path as it was
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def parse_matrix(text):
    """Rational matrix file: `rows cols` header then row-major entries."""
    tokens = []
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens.extend((no, tok) for tok in body.split())
    if len(tokens) < 2:
        raise TensorFormatError("matrix file needs a 'rows cols' header")
    (no_r, rtok), (no_c, ctok) = tokens[0], tokens[1]
    if not rtok.isdigit() or not ctok.isdigit():
        raise TensorFormatError("malformed 'rows cols' header", no_r)
    try:
        rows, cols = int(rtok), int(ctok)
    except ValueError as exc:  # more digits than Python converts
        raise TensorFormatError("matrix header: %s" % exc, no_r) from None
    if rows < 1 or cols < 1:
        raise TensorFormatError("matrix dimensions must be positive", no_r)
    body = tokens[2:]
    if len(body) != rows * cols:
        raise TensorFormatError(
            "expected %d entries, got %d" % (rows * cols, len(body)))
    read = _scalar_reader(False)
    values = []
    for no, tok in body:
        try:
            values.append(read(tok))
        except ScalarParseError as exc:
            raise TensorFormatError(str(exc), no) from None
    data = [values[r * cols:(r + 1) * cols] for r in range(rows)]
    return Matrix(data)


def write_matrix(mat):
    if not mat.is_rational():
        raise ValueError("matrix files hold rational entries only")
    lines = ["%d %d" % (mat.rows, mat.cols)]
    lines += [" ".join(map(format_rational, row)) for row in mat.data]
    return "\n".join(lines) + "\n"


def load_matrix(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def save_matrix(mat, path):
    text = write_matrix(mat)  # before the open, so a failed write leaves path as it was
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
