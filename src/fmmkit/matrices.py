"""Exact dense matrices over the rationals or the Laurent scalars.

Everything here is immutable and pure.  Sizes stay at desk scale (at most
a few tens of rows), so the algorithms favour exactness and clarity.

The constructor is the one place that settles an entry's type: Fraction
and Laurent entries are kept as they are and any other x becomes
Fraction(x), so nothing downstream re-coerces a matrix's entries; a row
whose entries all equal zero is stored as a row of the shared ``ZERO``.
The constructor is also the one place that finds the nonzero entries:
``nonzeros`` keeps them row-major, and truth, ``nonzero_entries``,
``kron`` and ``is_rational`` read that instead of scanning every cell
again.  Cells that are ``ZERO`` itself (what the parser and ``kron`` fill
grids with) are skipped by identity, so an all-``ZERO`` row costs no
scalar call at all.

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

from .scalars import Laurent, exact_div

ZERO = Fraction(0)

# entry types kept as they are; a row of only these is not rebuilt
_SETTLED = frozenset((Fraction, Laurent))


class Matrix:
    """Immutable dense matrix; entries are Fraction or Laurent scalars."""

    # nonzeros: the (i, j, value) triples of the nonzero entries, row-major
    __slots__ = ("rows", "cols", "data", "nonzeros")

    def __init__(self, data):
        data = [tuple(row) for row in data]
        if not data or not data[0]:
            raise ValueError("matrix needs at least one row and one column")
        cols = len(data[0])
        if len(set(map(len, data))) != 1:
            raise ValueError("ragged rows")
        zero = (ZERO,) * cols
        nonzeros = []
        for i, row in enumerate(data):
            # tuple == compares cells by identity before ==, and stops at the
            # first cell that differs, so a row of ZERO costs no scalar call
            # and any other row one; a row of entries equal to zero becomes
            # `zero`
            if row == zero:
                data[i] = zero
                continue
            if not _SETTLED.issuperset(map(type, row)):
                row = data[i] = tuple([x if type(x) is Fraction or isinstance(x, Laurent)
                                       else Fraction(x) for x in row])
            nonzeros += [(i, j, x) for j, x in enumerate(row) if x is not ZERO and x]
        object.__setattr__(self, "data", tuple(data))
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "nonzeros", tuple(nonzeros))

    def __setattr__(self, name, value):
        raise AttributeError("matrices are immutable")

    def __reduce__(self):
        return (Matrix, (self.data,))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(rows, cols):
        return Matrix([[ZERO] * cols for _ in range(rows)])

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

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.data == other.data

    def __hash__(self):
        return hash(self.data)

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
        return Matrix(list(zip(*self.data)))

    def kron(self, other):
        """Kronecker product; big row index = (outer row)*(inner rows) + inner row.

        Built from the nonzero entries of both operands: a grid of the
        shared ZERO gets one product per pair of nonzeros, so no cell pair
        involving a zero is multiplied.
        """
        rows, cols = other.rows, other.cols
        out = [[ZERO] * (self.cols * cols) for _ in range(self.rows * rows)]
        for i, j, a in self.nonzeros:
            for k, l, b in other.nonzeros:
                out[i * rows + k][j * cols + l] = a * b
        return Matrix(out)

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
