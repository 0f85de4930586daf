"""Exact dense matrices over the rationals or the Laurent scalars.

Everything here is immutable and pure.  Sizes stay at desk scale (at most
a few tens of rows), so the algorithms favour exactness and clarity.

The constructor is the one place that settles an entry's type: Fraction
and Laurent entries are kept as they are and any other x becomes
Fraction(x), so nothing downstream re-coerces a matrix's entries.

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


class Matrix:
    """Immutable dense matrix; entries are Fraction or Laurent scalars."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        data = tuple(tuple([x if type(x) is Fraction or isinstance(x, Laurent)
                            else Fraction(x) for x in row]) for row in data)
        if not data or not data[0]:
            raise ValueError("matrix needs at least one row and one column")
        if any(len(row) != len(data[0]) for row in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", len(data[0]))

    def __setattr__(self, name, value):
        raise AttributeError("matrices are immutable")

    def __reduce__(self):
        return (Matrix, (self.data,))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(rows, cols):
        return Matrix([[Fraction(0)] * cols for _ in range(rows)])

    @staticmethod
    def identity(n):
        return Matrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @staticmethod
    def unit(rows, cols, i, j, value=Fraction(1)):
        """Single nonzero entry at 0-based (i, j)."""
        return Matrix(
            [[value if (r, c) == (i, j) else Fraction(0) for c in range(cols)] for r in range(rows)]
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
        return any(x for row in self.data for x in row)

    def nonzero_entries(self):
        """Yield (i, j, value) over nonzero entries, row-major."""
        for i, row in enumerate(self.data):
            for j, x in enumerate(row):
                if x:
                    yield i, j, x

    def is_rational(self):
        return not any(isinstance(x, Laurent) for row in self.data for x in row)

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

        Built from the nonzero entries of both operands: a grid of
        Fraction(0) gets one product per pair of nonzeros, so no cell
        pair involving a zero is multiplied.
        """
        rows, cols = other.rows, other.cols
        out = [[Fraction(0)] * (self.cols * cols) for _ in range(self.rows * rows)]
        inner = list(other.nonzero_entries())
        for i, j, a in self.nonzero_entries():
            for k, l, b in inner:
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
