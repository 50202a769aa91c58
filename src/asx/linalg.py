"""Dense exact matrices over one scalar kind, with fraction-free inversion.

A matrix holds Fractions, QuadraticNumbers sharing a single radicand
(rationals mix in freely), or RatFunc/MultiPoly entries.  Mixing distinct
radicands, or a radical with a symbolic entry, raises MixedScalars instead
of coercing.  Inversion and determinants use Bareiss-style fraction-free
elimination (the Gauss-Jordan variant for the inverse), which is exact for
every supported scalar kind.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import MixedScalars, SingularMatrix
from .poly import MultiPoly, RatFunc
from .scalars import QuadraticNumber, format_scalar


def scalar_is_zero(x) -> bool:
    if isinstance(x, (int, Fraction)):
        return x == 0
    if isinstance(x, QuadraticNumber):
        return False  # irrational, so never 0
    if isinstance(x, RatFunc):
        return x.is_zero()
    if isinstance(x, MultiPoly):
        return x.is_zero()
    raise TypeError(f"unsupported scalar {type(x).__name__}")


def _check_kinds(entries) -> None:
    radicands = []
    has_sym = False
    for row in entries:
        for x in row:
            if isinstance(x, QuadraticNumber):
                if x.radicand not in radicands:
                    radicands.append(x.radicand)
            elif isinstance(x, (RatFunc, MultiPoly)):
                has_sym = True
            elif not isinstance(x, (int, Fraction)):
                raise MixedScalars(f"unsupported entry type {type(x).__name__}")
    if len(radicands) > 1:
        raise MixedScalars(f"matrix mixes sqrt({radicands[0]}) and sqrt({radicands[1]})")
    if radicands and has_sym:
        raise MixedScalars("matrix mixes quadratic irrationals with symbolic entries")


class Matrix:
    """Immutable dense matrix; rows are tuples of exact scalars."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        rows = [tuple(Fraction(x) if isinstance(x, int) else x for x in r) for r in rows]
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("matrix rows must be nonempty and rectangular")
        _check_kinds(rows)
        self.rows = tuple(rows)
        self.nrows = len(rows)
        self.ncols = len(rows[0])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[Fraction(i == j) for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def row(self, i):
        return self.rows[i]

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def __hash__(self):
        return hash(self.rows)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        cols = [other.col(j) for j in range(other.ncols)]
        out = []
        for r in self.rows:
            out.append(
                [sum((a * b for a, b in zip(r, c)), Fraction(0)) for c in cols]
            )
        return Matrix(out)

    def scale(self, s) -> "Matrix":
        return Matrix([[x * s for x in r] for r in self.rows])

    # -- elimination ----------------------------------------------------

    def inverse(self) -> "Matrix":
        """Exact inverse by fraction-free Gauss-Jordan (Bareiss) elimination."""
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = [list(r) + [Fraction(i == j) for j in range(n)] for i, r in enumerate(self.rows)]
        prev = Fraction(1)
        for col in range(n):
            p = col
            while p < n and scalar_is_zero(aug[p][col]):
                p += 1
            if p == n:
                raise SingularMatrix(f"no pivot in column {col}")
            if p != col:
                aug[col], aug[p] = aug[p], aug[col]
            pivot = aug[col][col]
            for r in range(n):
                if r == col:
                    continue
                f = aug[r][col]
                row = aug[r]
                piv_row = aug[col]
                for cc in range(2 * n):
                    row[cc] = (pivot * row[cc] - f * piv_row[cc]) / prev
            prev = pivot
        out = []
        for i in range(n):
            scale = aug[i][i]
            if scalar_is_zero(scale):
                raise SingularMatrix("zero diagonal after elimination")
            out.append([aug[i][n + j] / scale for j in range(n)])
        return Matrix(out)

    def determinant(self):
        """Exact determinant by Bareiss fraction-free elimination."""
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        mat = [list(r) for r in self.rows]
        sign = 1
        prev = Fraction(1)
        for col in range(n - 1):
            p = col
            while p < n and scalar_is_zero(mat[p][col]):
                p += 1
            if p == n:
                return Fraction(0)
            if p != col:
                mat[col], mat[p] = mat[p], mat[col]
                sign = -sign
            pivot = mat[col][col]
            for r in range(col + 1, n):
                f = mat[r][col]
                for cc in range(col, n):
                    mat[r][cc] = (pivot * mat[r][cc] - f * mat[col][cc]) / prev
            prev = pivot
        det = mat[n - 1][n - 1]
        return det if sign == 1 else -det

    def __str__(self):
        cells = [[format_scalar(x) for x in r] for r in self.rows]
        widths = [max(len(cells[i][j]) for i in range(self.nrows)) for j in range(self.ncols)]
        lines = [
            "[" + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + "]"
            for row in cells
        ]
        return "\n".join(lines)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


def nullspace(m: Matrix) -> list[tuple]:
    """Basis of the exact right nullspace (Gauss-Jordan elimination)."""
    rows = [list(r) for r in m.rows]
    nr, nc = m.nrows, m.ncols
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        p = r
        while p < nr and scalar_is_zero(rows[p][c]):
            p += 1
        if p == nr:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nr):
            if i != r and not scalar_is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -rows[ri][fc]
        basis.append(tuple(v))
    return basis
