"""Dense exact matrices over one scalar field, with Gauss-Jordan elimination.

A matrix holds Fractions, QuadraticNumbers sharing a single radicand
(rationals mix in freely), or RatFunc entries: every entry lies in one field
(Q, Q(sqrt D) or Q(x1, ..., xk)).  Mixing distinct radicands, or a radical
with a symbolic entry, raises MixedScalars instead of coercing.  Every
matrix, results included, comes from one constructor: rows of Fractions and
RatFuncs are kept as given, other rows have their ints made Fractions and
their entries checked, so a result whose irrational parts cancel holds
Fractions.  The inverse, the determinant and the nullspace come from one
fraction-free Gauss-Jordan elimination (Bareiss 1968), on integer numerators
over Q and Q(sqrt D) and on the entries themselves over Q(x1, ..., xk).
A product sums its entrywise terms in the field itself, skipping zero
factors.  A scalar operand s stands for s I: ``M - s``, ``s * M`` and
``M / s``.  Matrices are equal when their row tuples are, and print each
entry as its exact ``str``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvariantViolation, MixedScalars, SingularMatrix
from .poly import RatFunc
from .scalars import QuadraticNumber, from_integer_parts, integer_parts


def _check_kinds(entries):
    """Raise MixedScalars unless the entries lie in one field: Q, one
    Q(sqrt D), or Q(x1, ..., xk)."""
    radicands, symbolic = [], False  # radicands in order of appearance
    for row in entries:
        for x in row:
            if isinstance(x, QuadraticNumber):
                if x.radicand not in radicands:
                    radicands.append(x.radicand)
            elif isinstance(x, RatFunc):
                symbolic = True
            elif not isinstance(x, (int, Fraction)):
                raise MixedScalars(f"unsupported entry type {type(x).__name__}")
    if len(radicands) > 1:
        raise MixedScalars(f"matrix mixes sqrt({radicands[0]}) and sqrt({radicands[1]})")
    if radicands and symbolic:
        raise MixedScalars("matrix mixes quadratic irrationals with symbolic entries")


class Matrix:
    """Immutable dense matrix; rows are tuples of exact scalars."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        rows = tuple(map(tuple, rows))
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("matrix rows must be nonempty and rectangular")
        if not {type(x) for r in rows for x in r} <= {Fraction, RatFunc}:  # Q lies in Q(x)
            _check_kinds(rows)
            rows = tuple(tuple(Fraction(x) if isinstance(x, int) else x for x in r)
                         for r in rows)
        self.rows, self.nrows, self.ncols = rows, len(rows), len(rows[0])

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

    def column_sums(self) -> tuple:
        """The sum of each column, added in the field."""
        return tuple(sum(col, Fraction(0)) for col in zip(*self.rows))

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
        return Matrix([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        cols = [other.col(j) for j in range(other.ncols)]
        return Matrix(
            [[sum((a * b for a, b in zip(r, c) if a and b), Fraction(0)) for c in cols]
             for r in self.rows]
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


def _exact_quotients(values: list, m) -> list:
    """``[v // m for v in values]`` when the int ``m`` divides every value; a
    remainder means a broken elimination step and raises InvariantViolation.
    A field element ``m`` (a RatFunc pivot) divides with ``/``, always exactly."""
    if m == 1:
        return values
    if not isinstance(m, int):
        return [v / m for v in values]
    if math.gcd(*values) % m:
        raise InvariantViolation(f"elimination step leaves a remainder modulo {m}")
    return [v // m for v in values]


def _inverse_parts(a: int, b: int, rad: int) -> tuple[int, int, int]:
    """``(c, e, N)`` with ``1/(a + b sqrt D) = (c + e sqrt D)/N``: the
    conjugate over the norm, or ``1/a`` when ``b`` is 0."""
    return (a, -b, a * a - rad * b * b) if b else (1, 0, a)


def _reduce(rows, ncols: int):
    """Fraction-free Gauss-Jordan elimination on the first ``ncols``
    columns, pivoting on the first nonzero entry of each column.

    Returns the reduced rows (each pivot 1, the rest of its column 0), the
    pivot columns, and the product of the pivots, negated once per row swap.

    At a pivot ``p`` every other row becomes ``(p row - row[c] pivot_row) /
    prev``, with ``prev`` the previous pivot (1 at first).  Every entry then
    stays a minor of the starting matrix (Sylvester's identity), so each
    division is exact in any integral domain (Bareiss 1968), and the last
    pivot divides every row once at the end.  Over Q and Q(sqrt D) the rows
    are integer pairs ``(A + B sqrt D)/L`` over one common ``L``; in
    Z[sqrt D] a division multiplies by the conjugate of ``prev`` and divides
    by its norm.  RatFunc entries are the elements themselves, and ``/``
    divides them.
    """
    flat = [x for r in rows for x in r]
    parts = integer_parts(flat)
    a, b, den, rad = parts or (flat, [0] * len(flat), 1, 0)
    w = len(rows[0])
    A = [a[i:i + w] for i in range(0, len(a), w)]
    B = [b[i:i + w] for i in range(0, len(b), w)]
    pivots: list[int] = []
    sign, qa, qb = 1, 1, 0  # qa + qb sqrt D: the previous pivot
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(A)) if A[i][c] or B[i][c]), None)
        if p is None:
            continue
        if p != r:
            A[r], A[p], B[r], B[p] = A[p], A[r], B[p], B[r]
            sign = -sign
        pa, pb, ya, yb = A[r][c], B[r][c], A[r], B[r]
        if rad:
            ca, cb, norm = _inverse_parts(qa, qb, rad)
            sa, sb = pa * ca + rad * pb * cb, pa * cb + pb * ca  # the pivot times norm / prev
        for i in range(len(A)):
            if i == r:
                continue
            lo = c if i > r else 0  # rows below are zero left of column c
            xa, xb = A[i][lo:], B[i][lo:]
            fa, fb = xa[c - lo], xb[c - lo]
            if rad:
                ta, tb = fa * ca + rad * fb * cb, fa * cb + fb * ca  # row[c] times norm / prev
                dsb, dtb = rad * sb, rad * tb
                A[i][lo:] = _exact_quotients(
                    [sa * u + dsb * v - ta * y - dtb * z
                     for u, v, y, z in zip(xa, xb, ya[lo:], yb[lo:])], norm)
                B[i][lo:] = _exact_quotients(
                    [sa * v + sb * u - ta * z - tb * y
                     for u, v, y, z in zip(xa, xb, ya[lo:], yb[lo:])], norm)
            else:
                A[i][lo:] = _exact_quotients([pa * u - fa * y for u, y in zip(xa, ya[lo:])], qa)
        pivots.append(c)
        qa, qb = pa, pb
        if len(pivots) == len(A):
            break
    if parts is None:  # every row over the last pivot
        return [[u / qa for u in xa] for xa in A], pivots, sign * qa
    ca, cb, norm = _inverse_parts(qa, qb, rad)
    out = [
        [from_integer_parts(u * ca + rad * v * cb, u * cb + v * ca, norm, rad)
         for u, v in zip(xa, xb)]
        for xa, xb in zip(A, B)
    ]
    det = from_integer_parts(sign * qa, sign * qb, den ** len(pivots), rad)
    return out, pivots, det


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
