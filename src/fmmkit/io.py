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

The parser fills the tensor's stored form (see tensor), the per-slot
arrays of nonzero entries, with no Matrix per factor.  A scheme file
repeats a few hundred row texts and a handful of cell tokens (0, 1, -1,
...) thousands of times, so each distinct token is parsed once per file
(the file's scalar reader keeps a table from token to value) and each
distinct row text once per width (one row table per width, from row
text to the row's nonzero (column, scalar) pairs).  The cursor holds
the significant lines' numbers and bodies as two parallel lists.  After
the header a term block is always 1+m+n+p significant lines, so the
parser reads the file by row position, across all terms at once:
bodies[start+o::block] holds the text at offset o of every term block,
the 'term k' lines at offset 0 and one factor row at each other offset.
The 'term' lines are checked as one list, and each row position's texts
are looked up in their width's row table, only the texts not found
parsed.  Then, per slot, one map from each of the slot's texts to a
text id gives every term's rows as ids, and np.repeat gathers each
row's nonzero columns and value indices from its text's run: the
distinct texts alone are walked in Python, and the distinct value
objects are told apart by id as they are met.

Errors are those of reading the file line by line: the first bad line in
file order, with the same text and line number, then a missing line,
then trailing lines.  Reading by position can meet a bad row of a later
term first, so the read only looks at the terms before the first bad
line found so far, and no token is parsed twice: the row tables keep
the rows that parse, and the scalar reader also keeps a bad token's
error.

A matrix file is read as one flat token list, its entries through the
file's scalar reader with one map; a bad token's line is worked out
only after that token fails.

The writer reads the tensor's terms view, each factor's nonzeros.  It
formats each distinct value object once per call: a table local to the
call maps id(value) to its text, which stays valid because the tensor
holds every value while the call runs (a table keyed by the value itself
is slower, since hashing a Fraction costs more than formatting it).  A
factor's all-zero rows are one shared text per width, and only the rows
that hold nonzeros are built cell by cell.
"""

from itertools import chain, compress

import numpy as np

from .matrices import _sparse
from .scalars import ScalarParseError, format_rational, format_scalar, parse_scalar
from .tensor import LAURENT, RATIONAL, _from_arrays, _within


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


def _split_row(body):
    if "," in body:
        return list(map(str.strip, body.split(",")))
    return body.split()


def _scalar_reader(laurent):
    """read(cell) -> parse_scalar(cell), each distinct cell parsed once.

    A cell that does not parse raises its ScalarParseError, with the cell
    as the error's `cell`, wherever it occurs.
    """
    table, failed = {}, {}

    def read(cell):
        value = table.get(cell)
        if value is None:
            if cell in failed:
                raise failed[cell]
            try:
                value = table[cell] = parse_scalar(cell, laurent=laurent)
            except ScalarParseError as exc:
                exc.cell = cell
                failed[cell] = exc
                raise
        return value

    return read


def _parse_row(body, width, read):
    """The (column, scalar) pairs of the nonzero entries of row text body,
    as a tuple.  A text that is not width entries raises a line-less
    TensorFormatError, a bad entry its ScalarParseError."""
    # a single scalar may contain spaces (' + ' joined monomials)
    cells = [body] if width == 1 and "," not in body else _split_row(body)
    if len(cells) != width:
        raise TensorFormatError("expected %d entries, got %d" % (width, len(cells)))
    return tuple([(j, x) for j, x in enumerate(map(read, cells)) if x])


def _parse_new(texts, new, table, width, read):
    """Parse each row text of the set new at width into table, in the
    order the texts first occur in texts.  Returns None, or the index in
    texts of the first text that fails and its error."""
    for k, body in enumerate(texts):
        if body in new:
            new.discard(body)
            try:
                table[body] = _parse_row(body, width, read)
            except ValueError as exc:
                return k, exc
            if not new:
                return None


def _row_name(offset, m, n):
    """'P row 1' ... 'S row p': the row at offset 1 or more of a term block
    of a <m,n,p> file."""
    if offset <= m:
        return "P row %d" % offset
    if offset <= m + n:
        return "Q row %d" % (offset - m)
    return "S row %d" % (offset - m - n)


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

    # The term blocks: line start + k*block + o of bodies is term k+1's
    # 'term' line at offset 0 and its row _row_name(o) at offset o.
    numbers, bodies, start = cursor.numbers, cursor.bodies, cursor.pos
    block = 1 + m + n + p
    left = len(bodies) - start
    count = min(rank, -(-left // block))  # term blocks begun
    # bad is the index of the first bad line found, and stop the start of
    # its term block: only the lines before it can hold an earlier error
    stop = start + count * block
    bad = message = None

    heads = bodies[start:stop:block]
    if heads != ["term %d" % k for k in range(1, count + 1)]:
        for k, body in enumerate(heads, start=1):
            if body.split() != ["term", str(k)]:
                bad = stop = start + (k - 1) * block
                if body.startswith("term"):
                    message = ("expected 'term %d', got %r (term blocks are consecutive)"
                               % (k, body))
                else:
                    message = "rank mismatch: header says %d terms, found %d" % (rank, k - 1)
                break

    read = _scalar_reader(mode == LAURENT)
    tables = {width: {} for width in (n, p, m)}  # per width: row text -> its nonzero pairs
    slots = []  # per slot: each row position's texts, one per term
    at = start + 1  # the first line of the slot's rows
    for slot, rows, width in (("P", m, n), ("Q", n, p), ("S", p, m)):
        table = tables[width]
        positions = []
        for r in range(min(rows, len(bodies) - at)):
            texts = bodies[at + r:stop:block]
            new = set(texts).difference(table)
            failure = new and _parse_new(texts, new, table, width, read)
            if failure:
                k, exc = failure
                bad, stop = at + r + k * block, start + k * block
                message = "term %d %s row %d: %s" % (k + 1, slot, r + 1, exc)
            positions.append(texts)
        slots.append((positions, table))
        at += rows

    if message is not None:
        raise TensorFormatError(message, numbers[bad])
    if left < rank * block:
        k, offset = divmod(left, block)
        raise _end_of_file("term %d %s" % (k + 1, _row_name(offset, m, n)) if offset
                           else "'term %d'" % (k + 1))
    if left > rank * block:
        no, body = numbers[stop], bodies[stop]
        if body.split()[:1] == ["term"]:
            raise TensorFormatError(
                "rank mismatch: header says %d terms but more follow" % rank, no)
        raise TensorFormatError("trailing content %r" % body, no)

    values, index = [], {}  # the distinct value objects; id(value) -> its place in values
    entries = []
    for positions, table in slots:
        # each of the slot's distinct texts once: its id, and its nonzeros'
        # columns and value indices, laid end to end
        distinct = list(dict.fromkeys(chain.from_iterable(positions)))
        text_id = dict(zip(distinct, range(len(distinct))))
        cols, picks, size = [], [], []
        for body in distinct:
            pairs = table[body]
            size.append(len(pairs))
            for j, x in pairs:
                k = index.get(id(x))
                if k is None:
                    k = index[id(x)] = len(values)
                    values.append(x)
                cols.append(j)
                picks.append(k)
        # every term's rows in order, each row a text id, then each row's
        # nonzeros gathered from its text's run
        ids = np.array([list(map(text_id.__getitem__, texts)) for texts in positions],
                       np.intp).T.ravel()
        size = np.array(size, np.intp)
        counts = size[ids]
        pick = np.repeat((np.cumsum(size) - size)[ids], counts) + _within(counts)
        term, row = np.divmod(np.arange(len(ids)), len(positions))
        entries.append((np.repeat(term, counts), np.repeat(row, counts),
                        np.array(cols, np.intp)[pick], np.array(picks, np.intp)[pick]))

    try:
        return _from_arrays((m, n, p), mode, rank, values, entries, support)
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


def _token_line(text, index):
    """The number of the line that holds token index, counted from 0, of
    the comment-stripped text."""
    for no, raw in enumerate(text.splitlines(), start=1):
        index -= len(raw.split("#", 1)[0].split())
        if index < 0:
            return no


def parse_matrix(text):
    """Rational matrix file: `rows cols` header then row-major entries."""
    body = text
    if "#" in text:
        body = "\n".join([raw.split("#", 1)[0] for raw in text.splitlines()])
    tokens = body.split()
    if len(tokens) < 2:
        raise TensorFormatError("matrix file needs a 'rows cols' header")
    rtok, ctok = tokens[0], tokens[1]
    if not rtok.isdigit() or not ctok.isdigit():
        raise TensorFormatError("malformed 'rows cols' header", _token_line(text, 0))
    try:
        rows, cols = int(rtok), int(ctok)
    except ValueError as exc:  # more digits than Python converts
        raise TensorFormatError("matrix header: %s" % exc, _token_line(text, 0)) from None
    if rows < 1 or cols < 1:
        raise TensorFormatError("matrix dimensions must be positive", _token_line(text, 0))
    del tokens[:2]
    if len(tokens) != rows * cols:
        raise TensorFormatError(
            "expected %d entries, got %d" % (rows * cols, len(tokens)))
    try:
        values = list(map(_scalar_reader(False), tokens))
    except ScalarParseError as exc:
        raise TensorFormatError(str(exc), _token_line(text, 2 + tokens.index(exc.cell))) from None
    # a rational-mode read gives only Fractions
    return _sparse(rows, cols, [(i, j, x) for i in range(rows)
                                for j, x in enumerate(values[i * cols:(i + 1) * cols]) if x])


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
