"""Dense exact matrices over one scalar field, with Gauss-Jordan elimination.

A matrix holds Fractions, QuadraticNumbers sharing a single radicand
(rationals mix in freely), or RatFunc entries: every entry lies in one field
(Q, Q(sqrt D) or Q(x1, ..., xk)).  Mixing distinct radicands, or a radical
with a symbolic entry, raises MixedScalars instead of coercing.  The
inverse, the determinant and the nullspace come from one Gauss-Jordan
elimination over that field; products over Q and Q(sqrt D) run on integer
numerators over one common denominator, and products of RatFunc entries
skip zero factors.  A scalar operand s stands for
s I: ``M - s``, ``s * M`` and ``M / s``.  Matrices are equal when their row
tuples are, and print each entry as its exact ``str``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import MixedScalars, SingularMatrix
from .poly import RatFunc
from .scalars import QuadraticNumber, dot_parts, from_integer_parts, integer_parts


def _check_kinds(entries) -> None:
    radicands = []
    has_sym = False
    for row in entries:
        for x in row:
            if isinstance(x, QuadraticNumber):
                if x.radicand not in radicands:
                    radicands.append(x.radicand)
            elif isinstance(x, RatFunc):
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
        zero, one = Fraction(0), Fraction(1)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def row(self, i):
        return self.rows[i]

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __sub__(self, other):
        if not isinstance(other, Matrix):  # a scalar s stands for s I
            if not other:
                return self
            return Matrix([[x - other if i == j else x for j, x in enumerate(r)]
                           for i, r in enumerate(self.rows)])
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
        left = integer_parts([x for r in self.rows for x in r])
        right = left and integer_parts([x for c in cols for x in c], left[3])
        if not right:  # RatFunc entries: the entrywise sums, zero factors skipped
            return Matrix(
                [[sum((a * b for a, b in zip(r, c) if a and b), Fraction(0)) for c in cols]
                 for r in self.rows]
            )
        # over Q or Q(sqrt D): integer numerators over one common denominator
        la, lb, lden, _ = left
        ra, rb, rden, rad = right
        n, den = self.ncols, lden * rden
        lrows = [(la[i:i + n], lb[i:i + n]) for i in range(0, len(la), n)]
        rcols = [(ra[j:j + n], rb[j:j + n]) for j in range(0, len(ra), n)]
        return Matrix(
            [[from_integer_parts(*dot_parts(*r, *c, rad), den, rad) for c in rcols] for r in lrows]
        )

    def scale(self, s) -> "Matrix":
        if s == 1:  # immutable, so the matrix itself
            return self
        return Matrix([[x * s for x in r] for r in self.rows])

    __rmul__ = scale

    def __truediv__(self, s):
        return self.scale(Fraction(1) / s)

    # -- elimination ----------------------------------------------------

    def inverse(self) -> "Matrix":
        """Exact inverse: reduce ``[A | I]`` and read ``A^-1`` off the right half."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        aug = [list(r) + [Fraction(i == j) for j in range(n)] for i, r in enumerate(self.rows)]
        rows, pivots, _ = _reduce(aug, n)
        if len(pivots) < n:
            col = next(c for c in range(n) if c not in pivots)
            raise SingularMatrix(f"no pivot in column {col}")
        return Matrix([r[n:] for r in rows])

    def determinant(self):
        """Exact determinant: the signed product of the elimination pivots."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        _, pivots, det = _reduce(self.rows, n)
        return det if len(pivots) == n else Fraction(0)

    def __str__(self):
        cells = [[str(x) for x in r] for r in self.rows]
        widths = [max(len(cells[i][j]) for i in range(self.nrows)) for j in range(self.ncols)]
        lines = [
            "[" + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + "]"
            for row in cells
        ]
        return "\n".join(lines)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


def _reduce(rows, ncols: int):
    """Gauss-Jordan elimination over the entries' field on the first ``ncols``
    columns, pivoting on the first nonzero entry of each column.

    Returns the reduced rows (each pivot 1, the rest of its column 0), the
    pivot columns, and the product of the pivots, negated once per row swap.
    """
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    det = Fraction(1)
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            det = -det
        pv = rows[r][c]
        det *= pv
        # rows from r down are zero left of column c, so only c.. changes
        piv = [x / pv for x in rows[r][c:]]
        rows[r][c:] = piv
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                row[c:] = [a - f * b for a, b in zip(row[c:], piv)]
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows, pivots, det


def nullspace(m: Matrix) -> list[tuple]:
    """Basis of the exact right nullspace, one vector per non-pivot column."""
    rows, pivots, _ = _reduce(m.rows, m.ncols)
    basis = []
    for fc in range(m.ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * m.ncols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -rows[ri][fc]
        basis.append(tuple(v))
    return basis
