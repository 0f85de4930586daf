"""Exact matrices over the rationals or the Laurent scalars.

Everything here is immutable and pure.  Sizes stay at desk scale (at most
a few tens of rows), so the algorithms favour exactness and clarity.

A Matrix stores one form, its nonzero entries as row-major (i, j, value)
triples (``nonzeros``); ``data``, the dense rows with each zero the shared
``ZERO``, is built on demand for the operations that walk every cell.
``Matrix(data)`` is the one place that settles an entry's type (Fraction
and Laurent entries are kept, any other x becomes Fraction(x)), and every
matrix built from other entries (``kron``, ``transpose``, ``zeros``, a
placed or parsed factor) comes straight from its triples via ``_sparse``.
A Kronecker product forms the product of each pair of distinct value
objects once per call (``_krons``), so a composition of parsed schemes
shares a handful of value objects as the parsed schemes do.

Rank, determinant and inverse share one fraction-free (Bareiss)
elimination, exact in any integral domain and so over the Laurent
scalars too.  Nothing is lifted: the division is chosen per matrix,
``/`` when every entry is a Fraction and ``scalars.exact_div`` (either
form) when any is a Laurent.  The rank is the number of pivots, the
determinant the last pivot times the sign of the row swaps, and the
inverse a Gauss-Jordan pass on [M | I] whose right half is divided
exactly by the last pivot; over the Laurent scalars that division
fails exactly when the inverse leaves the ring.
"""

import operator
from fractions import Fraction
from itertools import repeat

from .scalars import Laurent, exact_div

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
        settled = ((x if type(x) is Fraction or isinstance(x, Laurent) else Fraction(x)
                    for x in row) for row in data)
        return _sparse(len(data), len(data[0]), [(i, j, x) for i, row in enumerate(settled)
                                                 for j, x in enumerate(row) if x])

    def __setattr__(self, name, value):
        raise AttributeError("matrices are immutable")

    def __reduce__(self):
        return (Matrix, (self.data,))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(rows, cols):
        if rows < 1 or cols < 1:
            raise ValueError("matrix needs at least one row and one column")
        return _sparse(rows, cols, ())

    @staticmethod
    def identity(n):
        return Matrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @staticmethod
    def unit(rows, cols, i, j, value=Fraction(1)):
        """Single nonzero entry at 0-based (i, j)."""
        return Matrix(
            [[value if (r, c) == (i, j) else ZERO for c in range(cols)] for r in range(rows)]
        )

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
        i, j = key
        return self.data[i][j]

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
        return Matrix([[fn(x) for x in row] for row in self.data])

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        self._check_same_shape(other)
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __sub__(self, other):
        self._check_same_shape(other)
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __neg__(self):
        return self.map(lambda x: -x)

    def scale(self, s):
        return self.map(lambda x: s * x)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(
                "shape mismatch for product: %dx%d @ %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )
        cols = list(zip(*other.data))
        return Matrix([[sum(a * b for a, b in zip(row, col)) for col in cols]
                       for row in self.data])

    def transpose(self):
        return _sparse(self.cols, self.rows, sorted((j, i, x) for i, j, x in self.nonzeros))

    def kron(self, other):
        """Kronecker product; big row index = (outer row)*(inner rows) + inner row.

        One product per pair of nonzero entries, itself nonzero: the
        scalars form an integral domain.  Each product of a distinct pair
        of value objects is formed once (see _krons).
        """
        return _krons([self], [other], {})[0]

    def _check_same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                "shape mismatch: %dx%d vs %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )

    # -- elimination ------------------------------------------------------------

    def rank(self):
        """Exact rank over Q (rational entries) or over the field Q(e)."""
        return _eliminate([list(row) for row in self.data], self.cols)[0]

    def inverse(self):
        """Exact inverse of a square matrix.

        Raises ValueError when singular, and for Laurent entries also when
        the inverse exists over Q(e) but leaves the Laurent-polynomial ring.
        """
        if self.rows != self.cols:
            raise ValueError("only square matrices invert")
        n = self.rows
        eye = Matrix.identity(n).data
        a = [list(row + e) for row, e in zip(self.data, eye)]
        rank, pivot, _ = _eliminate(a, n, jordan=True)
        if rank < n:
            raise ValueError("singular matrix")
        try:
            return Matrix([[exact_div(x, pivot) for x in row[n:]] for row in a])
        except ValueError:
            raise ValueError(
                "inverse exists over Q(e) but leaves the Laurent scalars"
            ) from None

    def determinant(self):
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        rank, pivot, sign = _eliminate([list(row) for row in self.data], self.cols)
        if rank < self.rows:
            return Fraction(0)
        return -pivot if sign < 0 else pivot


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


def _eliminate(a, pivot_cols, jordan=False):
    """Fraction-free (Bareiss) elimination of the rows ``a``, in place.

    Column by column over the first ``pivot_cols`` columns, the first row
    at or below the current one with a nonzero entry is swapped up as the
    pivot.  Every other row below it (and above it too when ``jordan``)
    becomes (pivot * row - row[c] * pivot_row) / previous pivot; the
    division is exact because each entry is then a minor of the input.
    Only the columns right of the pivot are kept up to date.

    Returns (rank, last pivot, sign of the row permutation).  For a full
    rank square matrix the last pivot is the determinant up to that sign;
    after a Gauss-Jordan pass on [M | I] the right half is that pivot
    times the inverse.
    """
    rows, width = len(a), len(a[0])
    laurent = any(isinstance(x, Laurent) for row in a for x in row)
    div = exact_div if laurent else operator.truediv
    prev = Fraction(1)
    rank, sign = 0, 1
    for c in range(pivot_cols):
        if rank == rows:
            break
        p = next((r for r in range(rank, rows) if a[r][c]), None)
        if p is None:
            continue
        if p != rank:
            a[rank], a[p] = a[p], a[rank]
            sign = -sign
        prow = a[rank]
        piv = prow[c]
        others = range(rows) if jordan else range(rank + 1, rows)
        for i in others:
            row = a[i]
            f = row[c]
            if i == rank or (not f and piv == prev):
                continue
            for j in range(c + 1, width):
                row[j] = div(piv * row[j] - f * prow[j], prev)
        prev = piv
        rank += 1
    return rank, prev, sign
