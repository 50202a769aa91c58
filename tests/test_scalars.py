import math
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asx.errors import InvalidParameter, MixedScalars
from asx.scalars import (
    SPLIT_TRIAL_LIMIT,
    QuadraticNumber,
    exact_sqrt,
    square_free_split,
)


@pytest.mark.parametrize(
    "n, expected",
    [(1, (1, 1)), (4, (2, 1)), (12, (2, 3)), (84, (2, 21)), (5184, (72, 1)), (297, (3, 33))],
)
def test_square_free_split(n, expected):
    assert square_free_split(n) == expected


def _split_to_the_square_root(n):
    """Reference split: trial division while p**2 <= m, as before the
    cube-root bound."""
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


def test_square_free_split_agrees_with_division_to_the_square_root():
    # every n below 2*10^4, products of primes around the cube root of
    # the cofactor (p^2, p^3, p q, p^2 q, p q r), and seeded n < 10^9
    rng = random.Random(12)
    primes = [p for p in range(2, 3000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    ns = list(range(1, 20000))
    for _ in range(300):
        p, q, r = (rng.choice(primes) for _ in range(3))
        ns += [p * p, p ** 3, p * q, p * p * q, p * q * r, rng.randrange(1, 10 ** 9)]
    for n in ns:
        assert square_free_split(n) == _split_to_the_square_root(n), n


def test_square_free_split_of_a_large_semiprime_is_fast():
    # (10^6 + 3)(10^6 + 33) is a product of two primes: division to the
    # square root took about 70 ms per call, to the cube root under 1 ms.
    # SIGALRM fails the test when 100 calls take more than 1 s.
    n = (10 ** 6 + 3) * (10 ** 6 + 33)

    def too_slow(signum, frame):
        raise TimeoutError("100 splits of a 10^12 semiprime took more than 1 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(1)
    try:
        splits = {square_free_split(n) for _ in range(100)}
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert splits == {(1, n)}


# primes just past the trial-division limit (2^20 + 7 and 2^20 + 13) and
# past its square (2^61 - 1)
_P, _Q, _BIG = 2**20 + 7, 2**20 + 13, 2**61 - 1


@pytest.mark.parametrize(
    "n, expected",
    [
        (_BIG**2, (_BIG, 1)),  # a prime square past the limit cubed
        (12 * _BIG**2, (2 * _BIG, 3)),
        (_P**4 * 5, (_P**2, 5)),  # a square cofactor of four primes
        (_P * _Q * 6, (1, 6 * _P * _Q)),  # below the next trial divisor cubed
        (2**70, (2**35, 1)),  # the small factors are found first
    ],
)
def test_square_free_split_past_the_trial_limit(n, expected):
    assert _P > SPLIT_TRIAL_LIMIT and _P * _Q < SPLIT_TRIAL_LIMIT**3
    assert square_free_split(n) == expected


@pytest.mark.parametrize("n", [_P * _Q * _BIG, _BIG * (2**89 - 1), _P**3, 10**40 + 7])
def test_square_free_split_refuses_an_unknown_cofactor(n):
    # past the limit, a cofactor that is neither a square nor below the
    # next trial divisor cubed might have three prime factors or a square
    # one: InvalidParameter names its size instead of dividing on
    with pytest.raises(InvalidParameter, match="cannot split a radicand of about"):
        square_free_split(n)


def test_exact_sqrt():
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    r = exact_sqrt(Fraction(28, 3))
    assert r == QuadraticNumber(0, Fraction(2, 3), 21)
    assert exact_sqrt(0) == 0
    with pytest.raises(ValueError):
        exact_sqrt(-1)


def test_radicand_normalization():
    x = QuadraticNumber(1, Fraction(1, 2), 12)  # sqrt(12) = 2 sqrt(3)
    assert x == QuadraticNumber(1, 1, 3)
    assert x.radicand == 3
    y = QuadraticNumber(2, 3, 4)  # sqrt(4) = 2 is rational
    assert y == 8 and type(y) is Fraction


def test_equality_is_structural():
    a = QuadraticNumber(Fraction(1, 2), Fraction(1, 3), 5)
    b = QuadraticNumber(Fraction(1, 2), Fraction(1, 3), 5)
    c = QuadraticNumber(Fraction(1, 2), Fraction(2, 3), 5)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert QuadraticNumber(Fraction(3, 2)) == Fraction(3, 2)


def test_field_arithmetic():
    x = QuadraticNumber(1, 1, 2)
    assert x * x == QuadraticNumber(3, 2, 2)
    assert (x - 1) * (x - 1) == QuadraticNumber(2)  # (sqrt 2)^2
    assert x / x == 1
    inv = 1 / x
    assert x * inv == 1
    assert x ** 3 == QuadraticNumber(7, 5, 2)
    with pytest.raises(ZeroDivisionError):
        x / QuadraticNumber(0)


def _reference_ops(f):
    """Field operations on pairs (a, b) meaning a + b*sqrt(f)."""

    def mul(x, y):
        return (x[0] * y[0] + x[1] * y[1] * f, x[0] * y[1] + x[1] * y[0])

    def inv(x):
        norm = x[0] * x[0] - x[1] * x[1] * f
        return (x[0] / norm, -x[1] / norm)

    return mul, inv


def _assert_canonical(got, want, f):
    a, b = want
    if b == 0:
        assert type(got) is Fraction and got == a
    else:
        assert type(got) is QuadraticNumber
        assert (got.rational_part, got.sqrt_coefficient, got.radicand) == (a, b, f)
        d = got.radicand
        assert d >= 2 and all(d % (p * p) for p in range(2, math.isqrt(d) + 1))


_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@settings(max_examples=300, deadline=None)
@given(
    d=st.sampled_from([2, 3, 4, 5, 8, 9, 12, 18, 21, 72]),
    x=st.tuples(_rationals, _rationals),
    y=st.tuples(_rationals, _rationals),
    k=st.integers(-6, 6),
    n=st.integers(0, 5),
)
def test_rational_values_are_always_fractions(d, x, y, k, n):
    # d = s^2 f with f square-free; f = 1 makes every value rational
    s = max(t for t in range(1, d + 1) if d % (t * t) == 0)
    f = d // (s * s)
    mul, inv = _reference_ops(f)

    def build(p):
        ref = (p[0] + p[1] * s, Fraction(0)) if f == 1 else (p[0], p[1] * s)
        value = QuadraticNumber(p[0], p[1], d)
        _assert_canonical(value, ref, f)
        return value, ref

    (xv, xr), (yv, yr) = build(x), build(y)
    kr = (Fraction(k), Fraction(0))
    power = (Fraction(1), Fraction(0))
    for _ in range(n):
        power = mul(power, xr)
    cases = [
        (xv + yv, (xr[0] + yr[0], xr[1] + yr[1])),
        (xv - yv, (xr[0] - yr[0], xr[1] - yr[1])),
        (xv * yv, mul(xr, yr)),
        (xv + k, (xr[0] + k, xr[1])),
        (k - xv, (k - xr[0], -xr[1])),
        (k * xv, mul(kr, xr)),
        (xv ** n, power),
    ]
    if yr != (0, 0):
        cases.append((xv / yv, mul(xr, inv(yr))))
    if xr != (0, 0):
        cases.append((k / xv, mul(kr, inv(xr))))
    if k:
        cases.append((xv / k, mul(xr, inv(kr))))
    if isinstance(xv, QuadraticNumber):
        cases.append((xv * xv.conjugate(), (xr[0] ** 2 - xr[1] ** 2 * f, Fraction(0))))
    for got, want in cases:
        _assert_canonical(got, want, f)


def test_mixed_radicands_refuse_to_combine():
    with pytest.raises(MixedScalars):
        QuadraticNumber(0, 1, 2) + QuadraticNumber(0, 1, 3)
    with pytest.raises(MixedScalars):
        QuadraticNumber(1, 1, 5) * QuadraticNumber(1, 1, 7)


@pytest.mark.parametrize(
    "x, sign",
    [
        (QuadraticNumber(0), 0),
        (QuadraticNumber(-2, Fraction(1, 3), 21), -1),  # 4 > 21/9, rational part wins
        (QuadraticNumber(1, Fraction(2, 3), 21), 1),
        (QuadraticNumber(-1, 1, 2), 1),   # sqrt(2) > 1
        (QuadraticNumber(2, -1, 2), 1),   # 2 > sqrt(2)
        (QuadraticNumber(1, -1, 2), -1),  # 1 < sqrt(2)
        (Fraction(-3, 7), -1),
        (0, 0),
    ],
)
def test_scalar_sign(x, sign):
    assert (x > 0) - (x < 0) == sign


def test_sign_matches_float_on_random_values():
    # sanity cross-check only: the sign itself is computed exactly
    rng = random.Random(20240817)
    for _ in range(1000):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        d = rng.choice([2, 3, 5, 7, 21, 33])
        x = QuadraticNumber(a, b, d)
        approx = float(a) + float(b) * math.sqrt(d)
        if abs(approx) > 1e-9:
            assert (x > 0) - (x < 0) == (1 if approx > 0 else -1)


def test_total_order_and_conjugate():
    xs = [QuadraticNumber(0, 1, 2), QuadraticNumber(1), QuadraticNumber(0, -1, 2), Fraction(3, 2)]
    assert sorted(xs) == [xs[2], xs[1], xs[0], Fraction(3, 2)]  # sqrt 2 < 3/2
    y = QuadraticNumber(2, -3, 5)
    assert y.conjugate() == QuadraticNumber(2, 3, 5)
    assert y + y.conjugate() == 4


def test_as_exact_and_format():
    assert str(Fraction(72, 7)) == "72/7"
    assert str(QuadraticNumber(-2, Fraction(1, 3), 21)) == "-2+1/3*sqrt(21)"
    assert str(QuadraticNumber(0, -1, 5)) == "-sqrt(5)"
