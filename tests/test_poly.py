import random
import signal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asx import poly
from asx.errors import ComplexRoots, UnsupportedAlgebraicDegree
from asx.poly import (
    MultiPoly,
    RatFunc,
    factor_low_degree,
    kronecker_pack,
    kronecker_unpack,
    poly_exact_div,
    poly_gcd,
    ratfuncs_over,
    roots_low_degree,
)
from asx.scalars import QuadraticNumber
from asx.scheme import KreinTridiagonal, value_sequence

x = MultiPoly.var("x")
m = MultiPoly.var("m")


def _expand(lc, factors):
    out = MultiPoly.const(lc)
    for f in factors:
        out = out * f
    return out


# -- strategies -------------------------------------------------------------

fractions = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)


def _from_terms(names, terms):
    """sum(c * prod(name**k)) over the (exponents, c) pairs of ``terms``."""
    out = MultiPoly.zero()
    for e, c in terms:
        term = MultiPoly.const(c)
        for name, k in zip(names, e):
            term = term * MultiPoly.var(name) ** k
        out = out + term
    return out


def _terms_of(p):
    """The (exponents over p.vars, coefficient) pairs of p, leading term first."""
    out, names = [], p.vars
    while p:
        e, c = p.leading()
        exps = tuple(dict(zip(p.vars, e)).get(name, 0) for name in names)
        out.append((exps, c))
        p = p - _from_terms(names, [(exps, c)])
    return out


@st.composite
def polys(draw, names=("u", "v", "w"), max_terms=4, max_exp=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.integers(0, max_exp)) for _ in names)
        terms[e] = draw(fractions)
    return _from_terms(names, terms.items())


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms_on_random_triples(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_zero_coefficients_never_stored():
    p = x - x
    assert not p and p.terms == {} and p.vars == ()
    q = (x + 1) * (x - 1) - x * x
    assert q == MultiPoly.const(-1) and q.vars == ()


def test_subs_and_eval():
    p = m * m - 2 * m + 1
    assert p.subs({"m": Fraction(5)}) == MultiPoly.const(16)
    r = p.subs({"m": RatFunc.var("t") / 2})
    assert r == (RatFunc.var("t") / 2 - 1) ** 2


def test_exact_division():
    f = (m + 1) * (m * m - m + 3)
    assert poly_exact_div(f, m + 1) == m * m - m + 3
    with pytest.raises(ArithmeticError):
        poly_exact_div(m * m + 1, m + 1)
    c2 = MultiPoly.var("c2")
    assert poly_exact_div(m * m * c2 ** 2, m * c2) == m * c2


@settings(max_examples=40, deadline=None)
@given(polys(max_terms=3, max_exp=2), polys(max_terms=3, max_exp=2), polys(max_terms=2, max_exp=2))
def test_gcd_divides_common_multiples(g, a, b):
    if not g:
        return
    f1, f2 = g * a, g * b
    d = poly_gcd(f1, f2)
    if not f1 and not f2:
        assert not d
        return
    # d is a common divisor divisible by g
    for f in (f1, f2):
        if f:
            poly_exact_div(f, d)
    poly_exact_div(d, poly_gcd(d, g))


def test_gcd_examples():
    assert poly_gcd(m * m - 1, m * m + 2 * m + 1) == m + 1
    c2, c3 = MultiPoly.var("c2"), MultiPoly.var("c3")
    assert poly_gcd(c2 ** 2 * c3 * (m + 1), c2 * c3 ** 2) == c2 * c3
    assert poly_gcd(MultiPoly.const(4), m + 1) == MultiPoly.one()
    assert poly_gcd((m + c2) * (m - c3), (m + c2) * (m + c3)) == m + c2


def test_gcd_agrees_with_sympy():
    # Products in 2-3 variables that share a random factor reach GCDHEU, and
    # so do the fixed pairs below, the ones where an input divides the
    # other included.
    sympy = pytest.importorskip("sympy")
    rng = random.Random(6)

    def random_poly(names):
        terms = {}
        for _ in range(rng.randint(2, 3)):
            e = tuple(rng.randint(0, 2) for _ in names)
            terms[e] = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3]))
        return _from_terms(names, terms.items())

    def to_sympy(p):
        syms = sympy.symbols(p.vars) if p.vars else ()
        return sum(
            (sympy.Rational(c.numerator, c.denominator) * sympy.prod([v**k for v, k in zip(syms, e)])
             for e, c in _terms_of(p)),
            sympy.Integer(0),
        )

    def from_sympy(expr, names):
        terms = sympy.Poly(expr, *sympy.symbols(names)).terms()
        return _from_terms(names, [(e, Fraction(int(c.p), int(c.q))) for e, c in terms])

    cases = []
    for names in [("m", "u"), ("m", "u", "v")] * 8:
        g = random_poly(names)
        cases.append((g * random_poly(names), g * random_poly(names)))
    # v is missing from the second input
    u, v = MultiPoly.var("u"), MultiPoly.var("v")
    cases.append(((m + u) * (v + 2) * (u - 1), (m + u) * (m * m + u)))
    f = (m + u) * (u - v + 1)
    cases.append((m + u, f))  # the first divides the second
    cases.append((f, m + u))  # the second divides the first
    cases.append((f, f * Fraction(3, 2)))  # equal up to a rational constant
    cases.append((f, -f))
    # GCDHEU's level in (b, c) needs a second evaluation point
    a, b, c = (MultiPoly.var(name) for name in "abc")
    cases.append((-2 * a**2 * b**2 * c**2 - 2 * a**2 * b * c**2 - 4 * b**2 - 4 * b,
                  -(a**2) * b**2 * c**2 - a**2 * c**2 - 2 * b**2 - 2))
    # a product in all ten unknowns of the symbolic chain: ten levels deep
    a2, a3, a4, b2, b3, b4, c2, c3, c4 = (
        MultiPoly.var(f"{name}{i}") for name in "abc" for i in (2, 3, 4))
    common = m * b2 - c2 * c3 + a2 + a3 + a4 + b3 + b4 + c4 + 1
    cases.append((common * (m * c4 - a2 * b3 + 2), common * (b2 * c3 + a4 - m - 1)))
    for f, h in cases:
        names = tuple(sorted(set(f.vars) | set(h.vars)))
        want = from_sympy(sympy.gcd(to_sympy(f), to_sympy(h)), names)
        want = want * (Fraction(1) / want.leading_coeff())
        assert poly_gcd(f, h) == want, (f, h)


@given(st.lists(st.integers(-(2**19), 2**19), max_size=8), st.integers(0, 40))
def test_kronecker_unpack_inverts_pack(coeffs, extra):
    # every coefficient below 2^(width-1) in absolute value is one balanced digit
    width = 21 + extra
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    assert kronecker_unpack(kronecker_pack(coeffs, width), width) == coeffs


@given(st.lists(st.lists(st.integers(-50, 50), max_size=4), min_size=1, max_size=4),
       st.lists(st.integers(-50, 50), min_size=1, max_size=4).filter(any))
def test_ratfuncs_over_is_the_ratfunc_quotient(nums, den):
    # the same normal form as dividing the polynomials as RatFuncs
    while not den[-1]:
        den.pop()
    nums = [n[:max((k + 1 for k, c in enumerate(n) if c), default=0)] for n in nums]
    got = ratfuncs_over("t", nums, den)
    want = [RatFunc(MultiPoly.univariate("t", n)) / MultiPoly.univariate("t", den) for n in nums]
    assert got == want
    assert list(map(str, got)) == list(map(str, want))
    assert list(map(hash, got)) == list(map(hash, want))


class TestRatFunc:
    def test_normalization(self):
        r = RatFunc(m * m - 1, m + 1)
        assert r.is_polynomial() and r.num == m - 1
        r = RatFunc(2 * m + 2, 4 * m)
        # denominator scaled to leading coefficient 1
        assert r.den == m and r.num == (m + 1) / 2

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(m, MultiPoly.zero())
        with pytest.raises(ZeroDivisionError):
            1 / MultiPoly.zero()
        with pytest.raises(ZeroDivisionError):
            RatFunc.one() / RatFunc.zero()

    @settings(max_examples=40, deadline=None)
    @given(polys(), polys(max_terms=3), polys(max_terms=3), polys(max_terms=2))
    def test_cross_multiplication_agrees_with_normal_form(self, p, q, r, s):
        if not q or not s:
            return
        f, g = RatFunc(p, q), RatFunc(r, s)
        assert (f == g) == (p * s == r * q)

    @settings(max_examples=30, deadline=None)
    @given(
        polys(max_terms=3, max_exp=2),
        polys(max_terms=3, max_exp=2),
        polys(max_terms=3, max_exp=2),
        polys(max_terms=2, max_exp=2),
    )
    def test_distributivity(self, p, q, r, s):
        if not s:
            return
        f = RatFunc(p, s)
        g = RatFunc(q, s)
        h = RatFunc(r, MultiPoly.one() + s * s)
        assert (f + g) * h == f * h + g * h

    def test_distributivity_on_a_trivariate_gcdheu_case(self):
        # One draw of the property above whose trivariate gcds swell under a
        # pseudo-remainder sequence (minutes); the heuristic gcd, the one
        # multivariate gcd, answers it in milliseconds.  SIGALRM fails the
        # test after 5 s instead of letting a slow gcd hang the suite.
        u, v, w = MultiPoly.var("u"), MultiPoly.var("v"), MultiPoly.var("w")
        s = -4 * v**2 * w**2 + 4 * u**2 * v
        f = RatFunc(3 * u * v**2 * w**2 - 2 * u**2 * v * w, s)
        g = RatFunc(-Fraction(1, 2) * u * w, s)
        h = RatFunc(2 * u**2 * v**2 * w**2 + 3 * u * v**2 - u * v * w, 1 + s * s)

        def too_slow(signum, frame):
            raise TimeoutError("(f+g)h == fh + gh took more than 5 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(5)
        try:
            assert (f + g) * h == f * h + g * h
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_number_over_a_polynomial(self):
        assert 1 / m == 1 / RatFunc.var("m") == RatFunc(1, m)
        assert Fraction(1, 2) / (m + 1) == RatFunc(1, 2 * m + 2)
        assert str(3 / (2 * m)) == "(3/2)/(m)"

    def test_equal_values_hash_alike(self):
        # a constant hashes as the Fraction it equals, a polynomial RatFunc
        # as its MultiPoly, so mixed sets and dict keys stay consistent
        for x in (0, 3, Fraction(1, 2), Fraction(-7, 3)):
            for y in (RatFunc.const(x), MultiPoly.const(x)):
                assert y == Fraction(x) and hash(y) == hash(Fraction(x))
        for p in (m, (m * m - 3) / 2, MultiPoly.var("b") * m + 1):
            assert RatFunc(p) == p and hash(RatFunc(p)) == hash(p)
        assert len({RatFunc.const(2), MultiPoly.const(2), Fraction(2), 2}) == 1

    def test_subs(self):
        b4 = RatFunc.var("b4")
        c2 = RatFunc.var("c2")
        q = RatFunc.var("m") * (b4 - 1) / c2
        assert not q.subs({"b4": Fraction(1)})
        assert q.subs({"b4": Fraction(2)}) == RatFunc.var("m") / c2


class TestFactorLowDegree:
    def test_difference_of_squares(self):
        lc, fs = factor_low_degree(x * x - 1)
        assert lc == 1 and fs == [x - 1, x + 1]

    def test_irreducible_cubic_rejected(self):
        with pytest.raises(UnsupportedAlgebraicDegree):
            factor_low_degree(x ** 3 - 2)
        with pytest.raises(UnsupportedAlgebraicDegree):
            factor_low_degree((x - 1) * (x ** 3 - 2))

    def test_multiplicity(self):
        p = (x - 1) ** 3 * (x * x + 1)
        lc, fs = factor_low_degree(p)
        assert fs.count(x - 1) == 3 and (x * x + 1) in fs
        assert _expand(lc, fs) == p

    def test_two_irrational_quadratics(self):
        p = (x * x - 2) * (x * x - 3)
        lc, fs = factor_low_degree(p)
        assert sorted(map(str, fs)) == ["x^2 - 2", "x^2 - 3"]

    def test_reexpansion_on_random_products(self):
        rng = random.Random(11)
        for _ in range(100):
            parts = []
            for _ in range(rng.randint(1, 3)):
                deg = rng.randint(1, 2)
                coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(deg)]
                parts.append(MultiPoly.univariate("x", coeffs + [Fraction(1)]))
            scale = Fraction(rng.choice([1, 2, -3]), rng.choice([1, 2]))
            p = _expand(scale, parts)
            lc, fs = factor_low_degree(p)
            assert _expand(lc, fs) == p

    def test_agrees_with_sympy_factor_list(self):
        # Differential check of the integer factor search against sympy on
        # sextics with coefficients as large as the casev annihilators'
        # (up to about 10^5 in the primitive integer model), and on repeated
        # factors, which each pass divides out as often as the division goes.
        sympy = pytest.importorskip("sympy")
        X = sympy.Symbol("x")
        rng = random.Random(4)

        def irreducible(deg, bound):
            while True:
                cs = [rng.randint(-bound, bound) for _ in range(deg)] + [rng.randint(1, 12)]
                if cs[0] and sympy.Poly(cs[::-1], X).is_irreducible:
                    return MultiPoly.univariate("x", cs)

        def random_sextic():
            cs = [rng.randint(-(10**5), 10**5) for _ in range(6)] + [rng.randint(1, 100)]
            return MultiPoly.univariate("x", cs)

        def product(*parts):
            return _expand(Fraction(rng.choice([1, -2, 3, 7]), rng.choice([1, 2, 5])), parts)

        inputs = [product(*(irreducible(2, 60) for _ in range(k))) for k in (1, 2, 3) * 6]
        inputs += [product(irreducible(2, 60), irreducible(4, 40)) for _ in range(14)]
        inputs += [product(irreducible(3, 40), irreducible(3, 40)) for _ in range(14)]
        inputs += [product(random_sextic()) for _ in range(14)]

        def linear(bound):
            return MultiPoly.univariate("x", [rng.randint(1, bound) * rng.choice((1, -1)), rng.randint(1, 12)])

        inputs += [product((2 * x - 3) ** 3), product((3 * x * x - x + 5) ** 2)]
        inputs += [product(linear(60) ** 3, linear(60) ** 2) for _ in range(6)]
        inputs += [product(irreducible(2, 60) ** 2, linear(60)) for _ in range(6)]
        inputs += [product(x ** k, irreducible(2, 60), linear(60) ** (k - 1)) for k in (2, 3, 4)]
        inputs += [product(x ** 2, irreducible(4, 40))]
        inputs += [product(linear(300), linear(300), irreducible(2, 300)) for _ in range(6)]
        inputs += [product(linear(60) ** 2, irreducible(2, 60) ** 2) for _ in range(4)]
        for p in inputs:
            coeff, pairs = sympy.Poly(p.coeff_list()[::-1], X, domain="QQ").factor_list()
            expected_lc = Fraction(str(coeff))
            expected = []
            for f, k in pairs:
                expected_lc *= Fraction(str(f.LC())) ** k
                monic = [Fraction(str(c)) for c in f.monic().all_coeffs()[::-1]]
                expected += [MultiPoly.univariate("x", monic)] * k
            expected.sort(key=lambda f: (f.total_degree(), f.coeff_list()))
            if any(f.degree() >= 3 for f, _ in pairs):
                with pytest.raises(UnsupportedAlgebraicDegree):
                    factor_low_degree(p)
                continue
            lc, fs = factor_low_degree(p)
            assert (lc, fs) == (expected_lc, expected)
            assert _expand(lc, fs) == p

    def test_each_divisor_list_is_enumerated_once(self, monkeypatch):
        # H(16,2) is self-dual, and its annihilator is prod (x - (16 - 2i)):
        # one pass over the divisors of f(0) and lc(f) finds all 17 roots.
        spec = KreinTridiagonal(16, c=list(range(1, 17)), a=[0] * 16, b=list(range(16, 0, -1)))
        *_, annihilator = value_sequence(spec, MultiPoly.var("x"))
        calls = []
        divisors = poly._divisors
        monkeypatch.setattr(poly, "_divisors", lambda n: calls.append(n) or divisors(n))
        lc, fs = factor_low_degree(annihilator)
        assert len(calls) <= 2
        assert fs == sorted((x - (16 - 2 * i) for i in range(17)), key=lambda f: f.coeff_list())
        assert _expand(lc, fs) == annihilator

    def test_roots(self):
        p = (x * x + 4 * x + MultiPoly.const(Fraction(5, 3))) * (x - 5)
        roots = roots_low_degree(p)
        assert Fraction(5) in roots
        assert QuadraticNumber(-2, Fraction(1, 3), 21) in roots
        assert QuadraticNumber(-2, Fraction(-1, 3), 21) in roots
        with pytest.raises(ComplexRoots):
            roots_low_degree(x * x + 1)


def _differential_cases(sympy):
    """Seeded (value, sympy mirror) pairs: sums, differences, products,
    quotients and substitutions of MultiPoly and RatFunc values in 1-3
    variables, plus combinations of the symbolic casev_spec entries."""
    rng = random.Random(8)
    syms = {name: sympy.Symbol(name) for name in ("m", "u", "v")}

    def coeff():
        return Fraction(rng.choice([-6, -5, -3, -2, -1, 1, 2, 3, 4, 7]), rng.choice([1, 1, 2, 3, 5]))

    def rational(c):
        return sympy.Rational(c.numerator, c.denominator)

    def poly_pair(names, max_terms=3):
        p, e = MultiPoly.zero(), sympy.Integer(0)
        for _ in range(rng.randint(1, max_terms)):
            c = coeff()
            term, expr = MultiPoly.const(c), rational(c)
            for name in names:
                k = rng.randint(0, 2)
                term, expr = term * MultiPoly.var(name) ** k, expr * syms[name] ** k
            p, e = p + term, e + expr
        return p, e

    def ratfunc_pair(names):
        (p, pe), (q, qe) = poly_pair(names), poly_pair(names, 2)
        while not q:
            q, qe = poly_pair(names, 2)
        return RatFunc(p, q), pe / qe

    mm, ms = RatFunc.var("m"), syms["m"]
    family = [  # the entries of casev_spec(None), built the same way
        ((mm - 1) / 2, (ms - 1) / 2),
        (2 * mm / (mm + 1), 2 * ms / (ms + 1)),
        (2 * (mm - 1) / (mm + 1), 2 * (ms - 1) / (ms + 1)),
        ((mm - 1) ** 2 / (2 * (mm + 1)), (ms - 1) ** 2 / (2 * (ms + 1))),
        ((mm - 1) ** 2 / (mm + 1), (ms - 1) ** 2 / (ms + 1)),
        (mm * (mm - 1) / (mm + 1), ms * (ms - 1) / (ms + 1)),
    ]

    def operand(names):
        kind = rng.random()
        if names == ("m",) and kind < 0.4:
            return rng.choice(family)
        if kind < 0.7:
            return ratfunc_pair(names)
        return poly_pair(names)

    ops = [
        lambda a, b: (a[0] + b[0], a[1] + b[1]),
        lambda a, b: (a[0] - b[0], a[1] - b[1]),
        lambda a, b: (a[0] * b[0], a[1] * b[1]),
        lambda a, b: (a[0] / b[0], a[1] / b[1]),
        # cancelling forms: the last sum or product shares a factor with the
        # denominator, which the normal form must divide out
        lambda a, b: ((a[0] + b[0]) - b[0], (a[1] + b[1]) - b[1]),
        lambda a, b: (a[0] * b[0] / b[0], a[1] * b[1] / b[1]),
    ]
    cases = []
    for names in [("m",), ("m", "u"), ("m", "u", "v")] * 32:
        a, b = operand(names), operand(names)
        if rng.random() < 0.25:
            # substitute one variable of a by b, or by a rational number
            name = rng.choice(names)
            if rng.random() < 0.5:
                c = coeff()
                cases.append((a[0].subs({name: c}), a[1].subs(syms[name], rational(c))))
            else:
                cases.append((a[0].subs({name: b[0]}), a[1].subs(syms[name], b[1])))
            continue
        op = rng.choice(ops)
        if op in (ops[3], ops[5]) and not b[0]:
            continue
        cases.append(op(a, b))
    return cases, [syms[n] for n in ("m", "u", "v")]


def test_arithmetic_agrees_with_sympy():
    # Each value's numerator and denominator equal sympy's cancel(), with the
    # denominator scaled to graded-lex leading coefficient 1, and each value
    # prints as pinned in tests/golden/ratfunc-differential.txt.
    sympy = pytest.importorskip("sympy")
    cases, gens = _differential_cases(sympy)

    def from_sympy(expr):
        terms = sympy.Poly(expr, *gens).terms()
        return _from_terms(("m", "u", "v"), [(e, Fraction(int(c.p), int(c.q))) for e, c in terms])

    printed = []
    for value, expr in cases:
        num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
        lc = sympy.Poly(den, *gens).LC(order="grlex")
        want_num, want_den = from_sympy(num / lc), from_sympy(den / lc)
        if isinstance(value, MultiPoly):
            assert want_den == MultiPoly.one() and value == want_num, (value, expr)
        else:
            assert (value.num, value.den) == (want_num, want_den), (value, expr)
        printed.append(str(value))
    golden = Path(__file__).resolve().parent / "golden" / "ratfunc-differential.txt"
    assert printed == golden.read_text(encoding="utf-8").splitlines()
