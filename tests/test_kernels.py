"""Differential tests of the integer-numerator kernels and the matrix product.

``scalars.integer_parts`` and ``scheme.triple_sums`` run on integer
numerators over one common denominator; here they are compared against plain
entrywise loops over Fraction and QuadraticNumber, on seeded inputs over Q,
Q(sqrt 2), Q(sqrt 5) and Q(sqrt 21) with zeros, negative entries,
denominators above 10**6 and rational entries mixed into quadratic ones.
``Matrix.__mul__`` skips zero factors; on the same inputs, and on RatFunc
entries, it is compared with the dense loop that takes every term, values
and types.  Its independent reference, sympy's DomainMatrix product, is in
``test_linalg.test_elimination_agrees_with_sympy``.
"""

import random
from fractions import Fraction

import pytest

from asx.errors import MixedScalars
from asx.linalg import Matrix
from asx.poly import RatFunc
from asx.scalars import QuadraticNumber, from_integer_parts, integer_parts
from asx.scheme import triple_sums

FIELDS = [0, 2, 5, 21]  # 0 is Q
BIG_DENOMINATORS = [10**6 + 3, 2**31 - 1, 10**9 + 7]


def _entry(rng: random.Random, d: int):
    """A zero, a rational (possibly over a denominator above 10**6) or, over
    Q(sqrt d), a quadratic irrational about half of the time."""
    kind = rng.random()
    if kind < 0.15:
        return Fraction(0)
    den = rng.choice([1, 1, 2, 3, 7, *BIG_DENOMINATORS])
    a = Fraction(rng.randint(-10**4, 10**4), den)
    if not d or kind < 0.5:
        return a
    b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 60), rng.choice([1, 4, 10**6 + 33]))
    return QuadraticNumber(a, b, d)


def _entrywise_product(a, b):
    return [[sum((x * y for x, y in zip(r, c)), Fraction(0)) for c in zip(*b)] for r in a]


def _entrywise_triple(rows, weights):
    rng = range(len(rows[0]))
    return [
        [
            [sum((w * r[i] * r[j] * r[k] for w, r in zip(weights, rows)), Fraction(0)) for k in rng]
            for j in rng
        ]
        for i in rng
    ]


def _same(got, want):
    """Equal values of the same canonical type (a rational value is a Fraction)."""
    assert list(got) == list(want)
    assert list(map(type, got)) == list(map(type, want))


@pytest.mark.parametrize("d", FIELDS)
def test_integer_parts_round_trip(d):
    rng = random.Random(d)
    values = [_entry(rng, d) for _ in range(60)] + [3, -5, 0]
    a, b, den, rad = integer_parts(values)
    assert rad == (d if any(isinstance(x, QuadraticNumber) for x in values) else 0)
    assert all(den % x.denominator == 0 for x in values if not isinstance(x, QuadraticNumber))
    rebuilt = [from_integer_parts(p, q, den, rad) for p, q in zip(a, b)]
    _same(rebuilt, [Fraction(x) if isinstance(x, int) else x for x in values])
    assert integer_parts([Fraction(1), RatFunc.var("m")]) is None


@pytest.mark.parametrize("d", FIELDS)
def test_matrix_product_matches_the_entrywise_loop(d):
    rng = random.Random(100 + d)
    for _ in range(40):
        nr, nk, nc = (rng.randint(1, 6) for _ in range(3))
        a = [[_entry(rng, d) for _ in range(nk)] for _ in range(nr)]
        b = [[_entry(rng, d) for _ in range(nc)] for _ in range(nk)]
        got = Matrix(a) * Matrix(b)
        for row, want in zip(got.rows, _entrywise_product(a, b)):
            _same(row, want)


@pytest.mark.parametrize("d", [2, 5, 21])
def test_rational_matrix_times_quadratic_matrix(d):
    # one side wholly rational, the other over Q(sqrt d), in both orders
    rng = random.Random(200 + d)
    for _ in range(10):
        n = rng.randint(1, 5)
        rat = [[_entry(rng, 0) for _ in range(n)] for _ in range(n)]
        quad = [[_entry(rng, d) for _ in range(n)] for _ in range(n)]
        quad[0][0] = QuadraticNumber(1, 1, d)
        for x, y in ((rat, quad), (quad, rat)):
            for row, want in zip((Matrix(x) * Matrix(y)).rows, _entrywise_product(x, y)):
                _same(row, want)


@pytest.mark.parametrize("d", FIELDS)
def test_triple_sums_match_the_entrywise_loop(d):
    rng = random.Random(300 + d)
    for _ in range(12):
        n, count = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[_entry(rng, d) for _ in range(n)] for _ in range(count)]
        weights = [_entry(rng, d) for _ in range(count)]
        got, den, rad = triple_sums(rows, weights)
        want = _entrywise_triple(rows, weights)
        for plane, want_plane in zip(got, want):
            for line, want_line in zip(plane, want_plane):
                _same([from_integer_parts(a, b, den, rad) for a, b in line], want_line)


def test_mixed_radicands_raise():
    r2, r3 = QuadraticNumber(0, 1, 2), QuadraticNumber(1, 1, 3)
    with pytest.raises(MixedScalars):
        Matrix([[r2, 1]]) * Matrix([[1], [r3]])
    with pytest.raises(MixedScalars):
        triple_sums([[r2, 1], [r3, 0]], [1, 1])
    with pytest.raises(MixedScalars):
        triple_sums([[r2, 1]], [r3])
    with pytest.raises(MixedScalars):
        integer_parts([r3], radicand=2)
    # differences, scalar shifts and scalings fail in the entrywise
    # arithmetic, before any result is built
    for build in (
        lambda: Matrix([[r2, 1]]) - Matrix([[r3, 1]]),
        lambda: Matrix([[r2, 1], [1, 1]]) - r3,
        lambda: Matrix([[r2, 1]]).scale(r3),
    ):
        with pytest.raises(MixedScalars, match=r"^cannot combine sqrt\(2\) with sqrt\(3\)$"):
            build()


def test_ratfunc_product_is_the_entrywise_sum():
    m = RatFunc.var("m")
    rng = random.Random(11)
    for _ in range(6):
        n = rng.randint(1, 4)

        def entry():
            if rng.random() < 0.4:
                return Fraction(rng.randint(-5, 5), 3)
            return (rng.randint(-3, 3) + rng.randint(-2, 2) * m) / (m + rng.randint(1, 3))

        a = [[entry() for _ in range(n)] for _ in range(n)]
        b = [[entry() for _ in range(n)] for _ in range(n)]
        assert (Matrix(a) * Matrix(b)).rows == tuple(map(tuple, _entrywise_product(a, b)))


def test_sparse_ratfunc_product_is_the_dense_sum():
    # the RatFunc product skips zero factors; the dense sum takes every term.
    # Zeros come as Fraction and as RatFunc, with one all-zero row and column.
    m, c = RatFunc.var("m"), RatFunc.var("c")
    rng = random.Random(12)

    def entry():
        kind = rng.random()
        if kind < 0.3:
            return Fraction(0)
        if kind < 0.5:
            return RatFunc.zero()
        if kind < 0.6:
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return (rng.randint(-3, 3) * c + rng.randint(1, 2) * m) / (m + rng.randint(-2, 2) * c + 3)

    for _ in range(12):
        nr, nk, nc = (rng.randint(2, 5) for _ in range(3))
        a = [[entry() for _ in range(nk)] for _ in range(nr)]
        b = [[entry() for _ in range(nc)] for _ in range(nk)]
        a[rng.randrange(nr)] = [RatFunc.zero()] * nk
        zero_col = rng.randrange(nc)
        for row in b:
            row[zero_col] = Fraction(0)
        a[0][0] = m  # at least one symbolic entry on each side
        b[0][0] = c
        got = Matrix(a) * Matrix(b)
        want = _entrywise_product(a, b)
        assert got == Matrix(want) and hash(got) == hash(Matrix(want))
        for row, want_row in zip(got.rows, want):
            assert list(row) == want_row
            assert list(map(str, row)) == list(map(str, want_row))
