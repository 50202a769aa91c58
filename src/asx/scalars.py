"""Exact scalars: arbitrary-precision rationals and real quadratic irrationals.

Every numeric value in this package is a ``fractions.Fraction``, a
:class:`QuadraticNumber` (``a + b*sqrt(d)`` with ``b != 0`` and square-free
``d >= 2``), or one of the symbolic types from :mod:`asx.poly`.  A rational
value is always a Fraction: QuadraticNumber construction and arithmetic
return one whenever the sqrt part vanishes.  All arithmetic is exact;
floats appear only as optional display hints.  Values are immutable, so they
may be shared freely.  Every exact value answers for itself: ``str(x)`` is
its canonical exact string, ``<`` its exact order and truth its zero test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
from operator import mul

from .errors import InvalidParameter, MixedScalars


#: The largest trial divisor :func:`square_free_split` tries.
SPLIT_TRIAL_LIMIT = 1 << 20


def square_free_split(n: int) -> tuple[int, int]:
    """Write ``n = s**2 * f`` with ``f`` square-free; return ``(s, f)``.

    Trial division runs only while ``p**3 <= m`` for the unfactored part
    ``m``, and ``p <= SPLIT_TRIAL_LIMIT``.  When the cube bound ends it,
    every prime left in ``m`` exceeds its cube root, so ``m`` is 1, a
    prime, a prime square or a product of two primes, and ``isqrt`` tells
    the square apart: about ``n**(1/3)`` divisions instead of ``n**(1/2)``.
    When the limit ends it, every prime left in ``m`` exceeds the limit, so
    ``m`` is accepted only if it is a perfect square or below the cube of
    the next trial divisor (then again at most two primes); otherwise its
    split is unknown and InvalidParameter is raised.
    """
    if n <= 0:
        raise ValueError("square_free_split needs a positive integer")
    s, f, m = 1, 1, n
    p = 2
    while p * p * p <= m and p <= SPLIT_TRIAL_LIMIT:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e & 1:
                f *= p
        p += 1 if p == 2 else 2
    r = math.isqrt(m)
    if r * r == m:
        return s * r, f
    if p * p * p <= m:  # stopped at the limit, so p > SPLIT_TRIAL_LIMIT
        digits = int(math.log10(n)) + 1
        raise InvalidParameter(
            f"cannot split a radicand of about {digits} digits into square and "
            f"square-free parts: trial division to {SPLIT_TRIAL_LIMIT} leaves a "
            "cofactor that may have three or more prime factors"
        )
    return s, f * m


def exact_sqrt(x: Fraction | int) -> "Fraction | QuadraticNumber":
    """Exact square root of a nonnegative rational.

    Returns a Fraction when x is a perfect rational square, otherwise a
    QuadraticNumber ``(s/q)*sqrt(f)`` with square-free radicand f.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("exact_sqrt of a negative value")
    if x == 0:
        return Fraction(0)
    p, q = x.numerator, x.denominator
    s, f = square_free_split(p * q)
    if f == 1:
        return Fraction(s, q)
    return QuadraticNumber(0, Fraction(s, q), f)


@total_ordering
class QuadraticNumber:
    """An irrational element ``a + b*sqrt(d)`` of a real quadratic field.

    ``a`` and ``b`` are exact rationals with ``b != 0`` and ``d`` is a
    square-free integer >= 2, so equality is structural.  A rational value is
    always a plain Fraction: construction and arithmetic return one whenever
    the sqrt part vanishes (``b == 0``, a square radicand, or cancellation).
    Elements with different radicands may not be combined: that raises
    MixedScalars rather than silently coercing into a biquadratic field.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, a, b=0, radicand: int | None = None):
        a = Fraction(a)
        b = Fraction(b)
        if b == 0:
            return a
        if not isinstance(radicand, int) or radicand < 2:
            raise ValueError("a nonzero sqrt coefficient needs an integer radicand >= 2")
        s, f = square_free_split(radicand)
        if f == 1:
            return a + b * s
        return cls._make(a, b * s, f)

    @staticmethod
    def _make(a: Fraction, b: Fraction, d: int) -> "Fraction | QuadraticNumber":
        """``a + b*sqrt(d)`` for a square-free ``d >= 2``; ``a`` when ``b == 0``."""
        if not b:
            return a
        out = object.__new__(QuadraticNumber)
        out._a = a
        out._b = b
        out._d = d
        return out

    # -- field access -------------------------------------------------

    @property
    def rational_part(self) -> Fraction:
        return self._a

    @property
    def sqrt_coefficient(self) -> Fraction:
        return self._b

    @property
    def radicand(self) -> int:
        return self._d

    def conjugate(self) -> "QuadraticNumber":
        return self._make(self._a, -self._b, self._d)

    def _parts(self, other) -> "tuple | None":
        """``other`` as ``(a, b)`` over this radicand; None for a foreign type."""
        if isinstance(other, QuadraticNumber):
            if other._d != self._d:
                raise MixedScalars(f"cannot combine sqrt({self._d}) with sqrt({other._d})")
            return other._a, other._b
        if isinstance(other, (int, Fraction)):
            return other, 0
        return None

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return self._make(self._a + p[0], self._b + p[1], self._d)

    __radd__ = __add__

    def __neg__(self):
        return self._make(-self._a, -self._b, self._d)

    def __sub__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return self._make(self._a - p[0], self._b - p[1], self._d)

    def __rsub__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return self._make(p[0] - self._a, p[1] - self._b, self._d)

    def __mul__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        oa, ob = p
        a, b, d = self._a, self._b, self._d
        if not ob:
            return self._make(a * oa, b * oa, d)
        return self._make(a * oa + b * ob * d, a * ob + b * oa, d)

    __rmul__ = __mul__

    def _reciprocal(self) -> "QuadraticNumber":
        # a^2 - b^2 d is nonzero: sqrt(d) is irrational.
        norm = self._a * self._a - self._b * self._b * self._d
        return self._make(self._a / norm, -self._b / norm, self._d)

    def __truediv__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        if p[1]:
            return self * other._reciprocal()
        if not p[0]:
            raise ZeroDivisionError("division by zero")
        return self._make(self._a / p[0], self._b / p[0], self._d)

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self._reciprocal() * other

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out, base = Fraction(1), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- exact order --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QuadraticNumber):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __lt__(self, other):
        """Exact order, from the sign of ``self - other`` in rational arithmetic."""
        diff = self - other
        if not isinstance(diff, QuadraticNumber):
            return diff < 0
        a, b = diff._a, diff._b
        if a == 0 or (a > 0) == (b > 0):
            return b < 0
        # opposite signs: |a| beats |b|sqrt(d) iff a^2 > b^2 d (never equal)
        return (a < 0) == (a * a > b * b * diff._d)

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    # -- display ------------------------------------------------------

    def __float__(self):
        return float(self._a) + float(self._b) * math.sqrt(self._d)

    def __repr__(self):
        return f"QuadraticNumber({self._a!r}, {self._b!r}, {self._d!r})"

    def __str__(self):
        """Canonical exact string: ``p/q+r/s*sqrt(D)``, or ``r/s*sqrt(D)``."""
        a, b, d = self._a, self._b, self._d
        root = f"{abs(b)}*sqrt({d})" if abs(b) != 1 else f"sqrt({d})"
        if a == 0:
            return root if b > 0 else f"-{root}"
        sign = "+" if b > 0 else "-"
        return f"{a}{sign}{root}"


def is_integer_scalar(x) -> bool:
    return isinstance(x, (int, Fraction)) and x.denominator == 1


# -- integer-numerator kernels -----------------------------------------------
#
# A hot exact loop over Q or Q(sqrt D) runs on plain ints: every value
# becomes a pair (A, B) over one common denominator L, x = (A + B sqrt D)/L
# (Knuth, TAOCP vol. 2, 4.5.1), and each result is rebuilt once.


def integer_parts(values, radicand: int = 0):
    """Write ``values`` as ``(A_u + B_u sqrt D)/L`` over one common ``L``.

    Returns ``(A, B, L, D)`` with int lists ``A`` and ``B``; ``D`` is the
    values' radicand, else ``radicand``, and 0 while every value is rational
    (then ``B`` is all zeros).  Returns None when a value is neither rational
    nor a QuadraticNumber; a second radicand raises MixedScalars.
    """
    dens = []
    for x in values:
        if isinstance(x, QuadraticNumber):
            if x._d != radicand:
                if radicand:
                    raise MixedScalars(f"cannot combine sqrt({radicand}) with sqrt({x._d})")
                radicand = x._d
            dens += x._a.denominator, x._b.denominator
        elif isinstance(x, (int, Fraction)):
            dens.append(x.denominator)
        else:
            return None
    den = math.lcm(*dens)
    a, b = [], []
    for x in values:
        if isinstance(x, QuadraticNumber):
            a.append(x._a.numerator * (den // x._a.denominator))
            b.append(x._b.numerator * (den // x._b.denominator))
        else:
            a.append(x.numerator * (den // x.denominator))
            b.append(0)
    return a, b, den, radicand


def from_integer_parts(a: int, b: int, den: int, radicand: int):
    """``(a + b sqrt radicand)/den`` as a Fraction or QuadraticNumber."""
    if not b:
        return Fraction(a, den)
    return QuadraticNumber._make(Fraction(a, den), Fraction(b, den), radicand)


def times_parts(xa, xb, ya, yb, radicand: int) -> tuple[list, list]:
    """Entrywise ``x_u y_u`` of two integer-pair vectors, as in :func:`dot_parts`."""
    if not radicand:
        return list(map(mul, xa, ya)), xb
    return (
        [p + radicand * q for p, q in zip(map(mul, xa, ya), map(mul, xb, yb))],
        [p + q for p, q in zip(map(mul, xa, yb), map(mul, xb, ya))],
    )


def dot_parts(xa, xb, ya, yb, radicand: int) -> tuple[int, int]:
    """``sum_u x_u y_u`` as an integer pair, where ``x_u = xa_u + xb_u sqrt D``
    and ``y_u = ya_u + yb_u sqrt D``; the sqrt parts are read only when D != 0."""
    a = sum(map(mul, xa, ya))
    if not radicand:
        return a, 0
    return (a + radicand * sum(map(mul, xb, yb)),
            sum(map(mul, xa, yb)) + sum(map(mul, xb, ya)))
