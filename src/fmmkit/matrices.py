"""Exact matrices over the rationals or the Laurent scalars.

Everything here is immutable and pure.  Sizes stay at desk scale (at most
a few tens of rows), so the algorithms favour exactness and clarity.

A Matrix stores one form, its nonzero entries as row-major (i, j, value)
triples (``nonzeros``), and every operation and pickling read and build
them; the dense rows, ``data``, are only a read-out view for files and
``repr``.  ``_settled`` is the one place that settles an entry (a Laurent
is kept, any other x goes through ``scalars.rational``, as a ``scale``
factor does) and then drops the zeros; ``_summed`` is the one cell-wise
sum, for ``+``, ``-``, ``@`` and the serendipity mixing.
``map`` visits the nonzeros only, so it needs fn(0) == 0.  Entries
already settled and nonzero (``kron``, ``transpose``, a placed, parsed
or snapped factor) go straight to ``_sparse``.  A Kronecker product
forms the product of each pair of distinct value objects once per call
(``_krons``), as the parsed schemes share them.

Rank, determinant and inverse share one fraction-free (Bareiss)
elimination, exact in any integral domain and so over the Laurent
scalars too.  It runs over the nonzeros only: each row a {column: value}
dict, all-zero rows left out, the next row in order the pivot row and
its lowest column the pivot column.  Nothing is lifted: the division is
chosen per matrix, ``/`` when every entry is a Fraction and
``scalars.exact_div`` (either form) when any is a Laurent.  The rank is
the number of pivots, the determinant the last pivot times the sign of
the permutation from the rows to their pivot columns, and the inverse a
Gauss-Jordan pass on [M | I] whose right half is divided exactly by the
last pivot; over the Laurent scalars that division fails exactly when
the inverse leaves the ring.
"""

import operator
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, repeat

from .scalars import Laurent, exact_div, integral, rational

ZERO = Fraction(0)


class Matrix:
    """Immutable matrix; entries are Fraction or Laurent scalars."""

    # nonzeros: the (i, j, value) triples of the nonzero entries, row-major
    __slots__ = ("rows", "cols", "nonzeros")

    def __new__(cls, data):
        data = [tuple(row) for row in data]
        if not data or not data[0]:
            raise ValueError("matrix needs at least one row and one column")
        if len(set(map(len, data))) != 1:
            raise ValueError("ragged rows")
        return _settled(len(data), len(data[0]), [(i, j, x) for i, row in enumerate(data)
                                                  for j, x in enumerate(row)])

    def __setattr__(self, name, value):
        raise AttributeError("matrices are immutable")

    def __reduce__(self):
        return (_sparse, (self.rows, self.cols, self.nonzeros))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(rows, cols):
        rows, cols = integral(rows, "rows"), integral(cols, "cols")
        if rows < 1 or cols < 1:
            raise ValueError("matrix needs at least one row and one column")
        return _sparse(rows, cols, ())

    @staticmethod
    def identity(n):
        n = integral(n, "size")
        return Matrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @staticmethod
    def unit(rows, cols, i, j, value=Fraction(1)):
        """Single entry value at (i, j), indexed as __getitem__ indexes
        (negative from the end, IndexError out of range)."""
        rows, cols, i, j = map(integral, (rows, cols, i, j), ("rows", "cols", "row", "column"))
        return _settled(rows, cols, [(range(rows)[i], range(cols)[j], value)])

    # -- basic structure ----------------------------------------------------

    @property
    def data(self):
        """The dense rows as tuples, each zero the shared ZERO."""
        cells = [[ZERO] * self.cols for _ in range(self.rows)]
        for i, j, x in self.nonzeros:
            cells[i][j] = x
        return tuple(map(tuple, cells))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.nonzeros) == (other.rows, other.cols, other.nonzeros)

    def __hash__(self):
        return hash((self.rows, self.cols, self.nonzeros))

    def __getitem__(self, key):
        """The entry at (i, j), indexed as a tuple of rows would be:
        negative indices count from the end, others out of range raise
        IndexError."""
        i, j = key
        i, j = range(self.rows)[integral(i, "row")], range(self.cols)[integral(j, "column")]
        # (i, j) sorts just before the triple at (i, j), so no value is compared
        at = bisect_left(self.nonzeros, (i, j))
        if at < len(self.nonzeros) and self.nonzeros[at][:2] == (i, j):
            return self.nonzeros[at][2]
        return ZERO

    def __repr__(self):
        return "Matrix(%r)" % (list(map(list, self.data)),)

    def __bool__(self):
        """False for the zero matrix, as for a zero scalar."""
        return bool(self.nonzeros)

    def nonzero_entries(self):
        """Iterate (i, j, value) over nonzero entries, row-major."""
        return iter(self.nonzeros)

    def is_rational(self):
        # a Laurent is never zero, so the nonzeros hold every one there is
        return not any(isinstance(x, Laurent) for _, _, x in self.nonzeros)

    def map(self, fn):
        """fn of each entry; fn visits the nonzeros only, so fn(0) must be 0."""
        if _settled(1, 1, [(0, 0, fn(ZERO))]):
            raise ValueError("map visits the nonzero entries only, so fn(0) must be 0")
        return _settled(self.rows, self.cols, [(i, j, fn(x)) for i, j, x in self.nonzeros])

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch: %dx%d vs %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        return _summed(self.rows, self.cols, self.nonzeros + other.nonzeros)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _settled(self.rows, self.cols, [(i, j, -x) for i, j, x in self.nonzeros])

    def scale(self, s):
        if not isinstance(s, Laurent):
            s = rational(s, "entry")
        return _settled(self.rows, self.cols, [(i, j, s * x) for i, j, x in self.nonzeros])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(
                "shape mismatch for product: %dx%d @ %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )
        rows = other._sparse_rows()
        return _summed(self.rows, other.cols, [(i, k, x * y) for i, j, x in self.nonzeros
                                               if j in rows for k, y in rows[j].items()])

    def transpose(self):
        return _sparse(self.cols, self.rows, sorted((j, i, x) for i, j, x in self.nonzeros))

    def kron(self, other):
        """Kronecker product; big row index = (outer row)*(inner rows) + inner row.

        One product per pair of nonzero entries, itself nonzero: the
        scalars form an integral domain.  Each product of a distinct pair
        of value objects is formed once (see _krons).
        """
        return _krons([self], [other], {})[0]

    # -- elimination ------------------------------------------------------------

    def rank(self):
        """Exact rank over Q (rational entries) or over the field Q(e)."""
        return len(_eliminate(list(self._sparse_rows().values()), self.cols)[0])

    def inverse(self):
        """Exact inverse of a square matrix.

        Raises ValueError when singular, and for Laurent entries also when
        the inverse exists over Q(e) but leaves the Laurent-polynomial ring.
        """
        if self.rows != self.cols:
            raise ValueError("only square matrices invert")
        n = self.rows
        sparse = self._sparse_rows()
        rows = [{**sparse.get(i, {}), n + i: Fraction(1)} for i in range(n)]
        cols, pivot = _eliminate(rows, n, jordan=True)
        if len(cols) < n:
            raise ValueError("singular matrix")
        try:
            return _sparse(n, n, sorted((c, j - n, exact_div(x, pivot))
                                        for c, row in zip(cols, rows) for j, x in row.items()))
        except ValueError:
            raise ValueError(
                "inverse exists over Q(e) but leaves the Laurent scalars"
            ) from None

    def determinant(self):
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        cols, pivot = _eliminate(list(self._sparse_rows().values()), self.cols)
        if len(cols) < self.rows:
            return Fraction(0)
        inversions = sum(a > b for a, b in combinations(cols, 2))
        return -pivot if inversions % 2 else pivot

    def _sparse_rows(self):
        """The nonzero rows in order, row index -> {column: value}."""
        rows = {}
        for i, j, x in self.nonzeros:
            rows.setdefault(i, {})[j] = x
        return rows


# the slots' own setters, which Matrix.__setattr__ does not guard
_SET_ROWS, _SET_COLS, _SET_NONZEROS = (Matrix.rows.__set__, Matrix.cols.__set__,
                                       Matrix.nonzeros.__set__)


def _sparse(rows, cols, nonzeros):
    """The rows x cols Matrix with the (i, j, value) triples nonzeros.  The
    caller keeps the invariant that equality and hashing rely on: strictly
    row-major positions (distinct, so sorting the triples as tuples never
    compares values) and every value a nonzero Fraction or Laurent."""
    m = object.__new__(Matrix)
    _SET_ROWS(m, rows)
    _SET_COLS(m, cols)
    _SET_NONZEROS(m, tuple(nonzeros))
    return m


def _settled(rows, cols, triples):
    """The rows x cols Matrix of the row-major (i, j, x) triples at distinct
    positions, each x settled first (a Fraction or Laurent is kept, any
    other x goes through scalars.rational) and then dropped if zero."""
    settled = ((i, j, x if type(x) is Fraction or isinstance(x, Laurent)
                else rational(x, "entry")) for i, j, x in triples)
    return _sparse(rows, cols, [t for t in settled if t[2]])


def _summed(rows, cols, pieces):
    """The rows x cols Matrix whose (i, j) entry sums the x of the pieces
    (i, j, x), given in any order; zero sums are dropped."""
    cells = {}
    for i, j, x in pieces:
        at = i, j
        cells[at] = cells[at] + x if at in cells else x
    # the keys are distinct, so sorting the items never compares values
    return _settled(rows, cols, [(i, j, x) for (i, j), x in sorted(cells.items())])


def _krons(lefts, rights, products):
    """[a.kron(b) for a in lefts for b in rights], for matrices of one
    shape in each list, each product of a distinct pair of value objects
    formed once.

    Every value object x of lefts meets every value object y of rights,
    so the products form a table with one row per distinct x, a list over
    the distinct y of rights.  products carries the rows between the
    calls that share it: id(x) -> the (column of each id(y), row) pairs
    formed so far, so a later call reuses a product where it meets the
    same pair again.  The caller must hold every x and y while products
    lives, or an id could name a freed object's successor.
    """
    rows, cols = rights[0].rows, rights[0].cols
    ys = {id(y): y for b in rights for _, _, y in b.nonzeros}
    column = dict(zip(ys, range(len(ys))))
    table = {}
    for ix, x in {id(x): x for a in lefts for _, _, x in a.nonzeros}.items():
        formed = products.get(ix)
        if formed is None:
            row = list(map(operator.mul, repeat(x), ys.values()))
            products[ix] = [(column, row)]
        else:
            # a product is nonzero, so only a miss falls through the or
            row = [next((r[c[iy]] for c, r in formed if iy in c), None) or x * y
                   for iy, y in ys.items()]
            formed.append((column, row))
        table[ix] = row
    spots = [[(k, l, column[id(y)]) for k, l, y in b.nonzeros] for b in rights]
    out = []
    for a in lefts:
        # each entry's offset in the product and its row of the table
        blocks = [(i * rows, j * cols, table[id(x)]) for i, j, x in a.nonzeros]
        big_rows, big_cols = a.rows * rows, a.cols * cols
        for right in spots:
            cells = [(r + k, c + l, row[at]) for r, c, row in blocks for k, l, at in right]
            cells.sort()
            out.append(_sparse(big_rows, big_cols, cells))
    return out


def _eliminate(rows, pivot_cols, jordan=False):
    """Fraction-free (Bareiss) elimination of the sparse rows ``rows``, in
    place: each row a {column: value} dict of its nonzero entries.

    Each step takes the next row in order that still has an entry in the
    first ``pivot_cols`` columns as the pivot row, and its lowest such
    column c as the pivot column; a row left without one is passed over.
    Every other row after it (before it too when ``jordan``) becomes
    (pivot * row - row[c] * pivot_row) / previous pivot over the union of
    the two rows' columns, zeros dropped, and the pivot row drops its
    pivot entry.  A row without an entry in c is only rescaled by
    pivot / previous pivot, which is skipped while the two are equal, and
    no division is made while the previous pivot is 1.  Pivoting on any
    row and column order keeps the division exact: each entry is still a
    minor of the input.

    Returns (the pivot column of each pivot row in order, the last pivot).
    The rank is the number of pivots.  For a full rank square matrix the
    pivot rows are all rows in order, and the last pivot is the
    determinant times the sign of the permutation taking row k to its
    pivot column; after a Gauss-Jordan pass on [M | I] pivot row k holds
    that pivot times row (pivot column of k) of the inverse.
    """
    laurent = any(isinstance(x, Laurent) for row in rows for x in row.values())
    div = exact_div if laurent else operator.truediv
    prev, unit = Fraction(1), True
    cols = []
    for k, prow in enumerate(rows):
        c = min(prow, default=pivot_cols)
        if c >= pivot_cols:
            continue
        piv = prow.pop(c)
        cols.append(c)
        for i in range(0 if jordan else k + 1, len(rows)):
            row = rows[i]
            f = row.pop(c, None)
            if f is None:
                if i != k and piv != prev:
                    for j, x in row.items():
                        row[j] = piv * x if unit else div(piv * x, prev)
                continue
            g = -f
            new = {}
            for j, y in prow.items():
                x = row.pop(j, None)
                v = g * y if x is None else piv * x + g * y
                if v:
                    new[j] = v if unit else div(v, prev)
            for j, x in row.items():
                new[j] = piv * x if unit else div(piv * x, prev)
            rows[i] = new
        prev, unit = piv, piv == 1
    return cols, prev
