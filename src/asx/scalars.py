"""Exact scalars: arbitrary-precision rationals and real quadratic irrationals.

Every numeric value in this package is a ``fractions.Fraction``, a
:class:`QuadraticNumber` (``a + b*sqrt(d)`` with square-free ``d >= 2``), or
one of the symbolic types from :mod:`asx.poly`.  All arithmetic is exact;
floats appear only as optional display hints.  Values are immutable, so they
may be shared freely.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import MixedScalars


def square_free_split(n: int) -> tuple[int, int]:
    """Write ``n = s**2 * f`` with ``f`` square-free; return ``(s, f)``.

    Uses trial division, which is fine for the magnitudes this package
    produces (radicands of fusion discriminants at small ``m``).
    """
    if n <= 0:
        raise ValueError("square_free_split needs a positive integer")
    s, f, m = 1, 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e & 1:
                f *= p
        p += 1 if p == 2 else 2
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


class QuadraticNumber:
    """An element ``a + b*sqrt(d)`` of a real quadratic field.

    ``a`` and ``b`` are exact rationals and ``d`` is a square-free integer
    >= 2 (``None`` when the value is purely rational, i.e. b == 0).  The
    radicand is normalized at construction, so equality is structural.
    Elements with different radicands may not be combined: that raises
    MixedScalars rather than silently coercing into a biquadratic field.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, a, b=0, radicand: int | None = None):
        a = Fraction(a)
        b = Fraction(b)
        if b == 0:
            d = None
        else:
            if radicand is None:
                raise ValueError("radicand required when the sqrt coefficient is nonzero")
            if radicand < 2:
                raise ValueError("radicand must be an integer >= 2")
            s, f = square_free_split(radicand)
            b *= s
            if f == 1:
                a += b
                b = Fraction(0)
                d = None
            else:
                d = f
        self._a = a
        self._b = b
        self._d = d

    # -- field access -------------------------------------------------

    @property
    def rational_part(self) -> Fraction:
        return self._a

    @property
    def sqrt_coefficient(self) -> Fraction:
        return self._b

    @property
    def radicand(self) -> int | None:
        return self._d

    @property
    def is_rational(self) -> bool:
        return self._d is None

    def as_fraction(self) -> Fraction:
        if self._d is not None:
            raise ValueError(f"{self} is irrational")
        return self._a

    def conjugate(self) -> "QuadraticNumber":
        out = object.__new__(QuadraticNumber)
        out._a, out._b, out._d = self._a, -self._b, self._d
        return out

    # -- coercion -----------------------------------------------------

    @classmethod
    def _coerce(cls, x) -> "QuadraticNumber | None":
        if isinstance(x, QuadraticNumber):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        return None

    def _common_radicand(self, other: "QuadraticNumber") -> int | None:
        if self._d is None:
            return other._d
        if other._d is None or other._d == self._d:
            return self._d
        raise MixedScalars(f"cannot combine sqrt({self._d}) with sqrt({other._d})")

    @staticmethod
    def _make(a: Fraction, b: Fraction, d: int | None) -> "QuadraticNumber":
        out = object.__new__(QuadraticNumber)
        out._a = a
        out._b = b
        out._d = d if b != 0 else None
        return out

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._common_radicand(o)
        return self._make(self._a + o._a, self._b + o._b, d)

    __radd__ = __add__

    def __neg__(self):
        return self._make(-self._a, -self._b, self._d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._common_radicand(o)
        cross = self._b * o._b
        a = self._a * o._a + (cross * d if cross else 0)
        b = self._a * o._b + self._b * o._a
        return self._make(a, b, d)

    __rmul__ = __mul__

    def _inverse(self) -> "QuadraticNumber":
        if self._d is None:
            if self._a == 0:
                raise ZeroDivisionError("division by zero")
            return self._make(1 / self._a, Fraction(0), None)
        # a^2 - b^2 d is nonzero: sqrt(d) is irrational.
        norm = self._a * self._a - self._b * self._b * self._d
        return self._make(self._a / norm, -self._b / norm, self._d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self._inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = QuadraticNumber(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- exact order --------------------------------------------------

    def sign(self) -> int:
        """Exact sign (-1, 0, +1) using only integer arithmetic."""
        a, b, d = self._a, self._b, self._d
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: |a| beats |b|sqrt(d) iff a^2 > b^2 d
        lhs = a * a
        rhs = b * b * d
        if lhs == rhs:
            return 0  # unreachable for square-free d >= 2; defensive
        rational_wins = lhs > rhs
        if a > 0:
            return 1 if rational_wins else -1
        return -1 if rational_wins else 1

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __hash__(self):
        if self._d is None:
            return hash(self._a)
        return hash((self._a, self._b, self._d))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    # -- display ------------------------------------------------------

    def __float__(self):
        v = float(self._a)
        if self._d is not None:
            v += float(self._b) * math.sqrt(self._d)
        return v

    def __repr__(self):
        return f"QuadraticNumber({self._a!r}, {self._b!r}, {self._d!r})"

    def __str__(self):
        return format_scalar(self)


def as_exact(x):
    """Demote a rational-valued QuadraticNumber to a plain Fraction."""
    if isinstance(x, QuadraticNumber) and x.is_rational:
        return x.as_fraction()
    if isinstance(x, int):
        return Fraction(x)
    return x


def scalar_sign(x) -> int:
    """Exact sign of a Fraction, int, or QuadraticNumber: -1, 0 or +1."""
    if isinstance(x, QuadraticNumber):
        return x.sign()
    if isinstance(x, (int, Fraction)):
        return (x > 0) - (x < 0)
    raise TypeError(f"no exact sign for {type(x).__name__}")


def is_integer_scalar(x) -> bool:
    x = as_exact(x)
    return isinstance(x, Fraction) and x.denominator == 1


def format_scalar(x) -> str:
    """Canonical exact string: ``p/q`` or ``p/q+r/s*sqrt(D)``."""
    x = as_exact(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, QuadraticNumber):
        a, b, d = x.rational_part, x.sqrt_coefficient, x.radicand
        root = f"{abs(b)}*sqrt({d})" if abs(b) != 1 else f"sqrt({d})"
        if a == 0:
            return root if b > 0 else f"-{root}"
        sign = "+" if b > 0 else "-"
        return f"{a}{sign}{root}"
    return str(x)
