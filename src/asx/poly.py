"""Sparse multivariate polynomials and rational functions over the rationals.

``MultiPoly`` stores integer coefficients over one common denominator: a map
``terms`` from exponent vectors to nonzero ints and a positive int ``den``
sharing no factor with all of them, over a sorted tuple of variable names.
Unused variables are pruned, so equality is structural.  Arithmetic,
pruning and zero tests run on ints; a coefficient is a Fraction only in
``coeff_list``, ``leading`` and ``str``.

``RatFunc`` keeps ``c * n / d``: ``n`` and ``d`` are coprime primitive
integer polynomials (content 1, positive leading coefficient under the
graded-lex term order) and ``c`` is one rational scalar.  Sums and products
follow Henrici (Knuth, TAOCP vol. 2, sec. 4.5.1): a sum takes the gcd of
the denominators only, a product cancels crosswise, and the result is
reduced without a gcd of its full numerator and denominator.  The public
``num``/``den`` pair has the denominator scaled to leading coefficient 1,
so equality is a structural comparison as well.

The gcd is a primitive pseudo-remainder sequence with fast paths for
constants, monomials and univariate inputs; the fast paths carry all the
load in the scheme computations, where denominators are monomials in the
tridiagonal unknowns or univariate in the multiplicity parameter.  Other
multivariate inputs try the heuristic gcd (GCDHEU) before the sequence:
the sequence alone can take minutes on trivariate sums with dense
denominators, where the heuristic needs milliseconds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import add, sub

from .errors import ComplexRoots, UnsupportedAlgebraicDegree
from .scalars import exact_sqrt


def _grlex_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


def _poly(variables: tuple, terms: dict, den: int = 1) -> "MultiPoly":
    """A MultiPoly from parts already in normal form (no zero coefficient,
    every variable used, ``den`` coprime to the coefficients)."""
    p = object.__new__(MultiPoly)
    p.vars, p.terms, p.den = variables, terms, den
    return p


def _add_terms(t1: dict, t2: dict, a: int, b: int) -> dict:
    """``a*t1 + b*t2`` on term maps over one variable tuple, zeros dropped."""
    out = dict(t1) if a == 1 else {e: a * c for e, c in t1.items()}
    for e, c in t2.items():
        s = out.get(e, 0) + b * c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


class MultiPoly:
    """Multivariate polynomial with exact rational coefficients."""

    __slots__ = ("vars", "terms", "den")

    def __init__(self, variables=(), terms=None, den: int = 1):
        # Internal constructor: use the classmethods or arithmetic to build
        # values.  ``terms`` maps exponent vectors over the sorted
        # ``variables`` to ints, the coefficients times ``den``; zero
        # coefficients and unused variables are dropped, and the
        # coefficients and ``den`` divided by their gcd.
        variables = tuple(variables)
        assert list(variables) == sorted(variables), "variables must be sorted"
        terms = terms or {}
        if not all(terms.values()):
            terms = {e: c for e, c in terms.items() if c}
        if not terms:
            variables, den = (), 1
        elif den != 1 and (g := gcd(den, *terms.values())) != 1:
            terms, den = {e: c // g for e, c in terms.items()}, den // g
        used = [any(col) for col in zip(*terms)]
        if not all(used):
            variables = tuple(v for v, u in zip(variables, used) if u)
            terms = {tuple(k for k, u in zip(e, used) if u): c for e, c in terms.items()}
        self.vars, self.terms, self.den = variables, terms, den

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, value) -> "MultiPoly":
        value = Fraction(value)
        return _poly((), {(): value.numerator} if value else {}, value.denominator)

    @classmethod
    def zero(cls) -> "MultiPoly":
        return _poly((), {})

    @classmethod
    def one(cls) -> "MultiPoly":
        return _poly((), {(): 1})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        return _poly((name,), {(1,): 1})

    @classmethod
    def univariate(cls, name: str, coeffs) -> "MultiPoly":
        """Build sum(coeffs[k] * name**k)."""
        coeffs = [Fraction(c) for c in coeffs]
        den = lcm(1, *(c.denominator for c in coeffs))
        return cls((name,), {(k,): c.numerator * (den // c.denominator)
                             for k, c in enumerate(coeffs)}, den)

    # -- inspection -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.vars

    def is_one(self) -> bool:
        return self.terms == {(): 1} and self.den == 1

    def is_monomial(self) -> bool:
        return len(self.terms) <= 1

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, name: str) -> int:
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Leading (exponents, coefficient) under graded lex."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, Fraction(self.terms[e], self.den)

    def leading_coeff(self) -> Fraction:
        return self.leading()[1]

    # -- alignment --------------------------------------------------------

    def _embed(self, variables: tuple[str, ...]) -> dict:
        """Remap term exponents onto a superset variable tuple."""
        if variables == self.vars:
            return self.terms
        pos = [variables.index(v) for v in self.vars]
        width = len(variables)
        out = {}
        for e, c in self.terms.items():
            ee = [0] * width
            for p, k in zip(pos, e):
                ee[p] = k
            out[tuple(ee)] = c
        return out

    def _align(self, other: "MultiPoly"):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        merged = tuple(sorted(set(self.vars) | set(other.vars)))
        return merged, self._embed(merged), other._embed(merged)

    # -- arithmetic -------------------------------------------------------

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, MultiPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return cls.const(x)
        return None

    def _scaled(self, p: int, q: int = 1) -> "MultiPoly":
        """``self * p / q`` for ints p and q > 0."""
        if p == q:
            return self
        if not p or not self.terms:
            return _poly((), {})
        return MultiPoly(self.vars, {e: c * p for e, c in self.terms.items()}, self.den * q)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        vs, t1, t2 = self._align(o)
        den = lcm(self.den, o.den)
        return MultiPoly(vs, _add_terms(t1, t2, den // self.den, den // o.den), den)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.vars, {e: -c for e, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if other.is_const():
            return self._scaled(other.terms.get((), 0), other.den)
        if self.is_const():
            return other._scaled(self.terms.get((), 0), self.den)
        vs, t1, t2 = self._align(other)
        out: dict = {}
        for e1, c1 in t1.items():
            for e2, c2 in t2.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        if not all(out.values()):
            out = {e: c for e, c in out.items() if c}
        # a product keeps every variable of its factors, so nothing to prune
        den = self.den * other.den
        if den != 1:
            return MultiPoly(vs, out, den)
        return _poly(vs, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = MultiPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            v = 1 / Fraction(other)
            return self._scaled(v.numerator, v.denominator)
        if isinstance(other, MultiPoly):
            return RatFunc(self, other)
        return NotImplemented

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.vars == o.vars and self.den == o.den and self.terms == o.terms

    def __hash__(self):
        return hash((self.vars, self.den, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- substitution / evaluation ----------------------------------------

    def subs(self, mapping: dict):
        """Substitute variables; values may be numbers, MultiPoly or RatFunc.

        Returns a MultiPoly when no RatFunc value is involved, else RatFunc.
        """
        symbolic = any(isinstance(v, RatFunc) for v in mapping.values())
        kind = RatFunc if symbolic else MultiPoly
        vals = {k: v if isinstance(v, (MultiPoly, RatFunc)) else MultiPoly.const(v)
                for k, v in mapping.items()}
        powers: dict = {}
        acc = kind.zero()
        for e, c in self.terms.items():
            term = kind.const(c)
            for name, k in zip(self.vars, e):
                if k:
                    if (name, k) not in powers:
                        powers[name, k] = vals.get(name, MultiPoly.var(name)) ** k
                    term = term * powers[name, k]
            acc = acc + term
        return acc / self.den if self.den != 1 else acc

    def eval_univariate(self, value):
        """Horner evaluation for polynomials in at most one variable.

        ``value`` may be any exact scalar supporting field arithmetic
        (Fraction or QuadraticNumber).
        """
        if len(self.vars) > 1:
            raise ValueError("eval_univariate needs a univariate polynomial")
        coeffs = self.coeff_list()
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * value + c
        return acc

    def coeff_list(self) -> list[Fraction]:
        """Dense coefficient list [c0, c1, ...] for <=1-variable polynomials."""
        return [Fraction(c, self.den) for c in _int_coeffs(self)]

    # -- display ------------------------------------------------------------

    def _term_str(self, e, c) -> str:
        c = Fraction(c, self.den)
        parts = []
        for name, k in zip(self.vars, e):
            if k == 1:
                parts.append(name)
            elif k > 1:
                parts.append(f"{name}^{k}")
        if not parts:
            return str(c)
        body = "*".join(parts)
        if c == 1:
            return body
        if c == -1:
            return f"-{body}"
        return f"{c}*{body}"

    def __str__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)
        out = self._term_str(*items[0])
        for e, c in items[1:]:
            s = self._term_str(e, c)
            out += f" - {s[1:]}" if s.startswith("-") else f" + {s}"
        return out

    def __repr__(self):
        return f"MultiPoly({self})"


_ONE = MultiPoly.one()


def _int_coeffs(p: MultiPoly) -> list[int]:
    """Dense list of the integer terms of a <=1-variable polynomial."""
    if len(p.vars) > 1:
        raise ValueError("not univariate")
    if not p.vars:
        return [p.terms.get((), 0)]
    out = [0] * (max(p.terms)[0] + 1)
    for (k,), c in p.terms.items():
        out[k] = c
    return out


def _split(p: MultiPoly) -> tuple[int, MultiPoly]:
    """``(g, P)`` with ``p.terms`` equal to g times the terms of P, P
    primitive in Z[vars] with positive leading coefficient."""
    t = p.terms
    g = gcd(*t.values())
    if t[max(t, key=_grlex_key)] < 0:
        g = -g
    return g, _poly(p.vars, t if g == 1 else {e: c // g for e, c in t.items()})


# -- exact division ---------------------------------------------------------


def poly_exact_div(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact quotient f / g; raises ArithmeticError if g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return MultiPoly.zero()
    if g.is_const():
        c = g.terms[()]
        return f._scaled(g.den, c) if c > 0 else f._scaled(-g.den, -c)
    # f / g = (F / G) * g.den / (f.den * cg) for the integer terms F of f and
    # G of g, G primitive with content cg; by Gauss's lemma F / G is integral
    # whenever G divides F at all, so every leading division below is exact.
    vs, tf, tg = f._align(g)
    cg = gcd(*tg.values())
    if cg != 1:
        tg = {e: c // cg for e, c in tg.items()}
    eg = max(tg, key=_grlex_key)
    lg = tg[eg]
    if len(tg) == 1:  # a monomial, lg = +-1: shift every exponent down
        quo = {tuple(map(sub, e, eg)): c * lg for e, c in tf.items()}
        if min(map(min, quo)) < 0:
            raise ArithmeticError("not divisible (monomial)")
    else:
        rem, quo = dict(tf), {}
        while rem:
            er = max(rem, key=_grlex_key)
            q, r = divmod(rem[er], lg)
            ee = tuple(map(sub, er, eg))
            if r or min(ee) < 0:
                raise ArithmeticError("not divisible")
            quo[ee] = q
            for e2, c2 in tg.items():
                e = tuple(map(add, ee, e2))
                s = rem.get(e, 0) - q * c2
                if s:
                    rem[e] = s
                else:
                    del rem[e]
    if g.den != 1:
        quo = {e: c * g.den for e, c in quo.items()}
    return MultiPoly(vs, quo, f.den * cg)


def poly_divides(g: MultiPoly, f: MultiPoly) -> bool:
    try:
        poly_exact_div(f, g)
        return True
    except ArithmeticError:
        return False


# -- gcd ---------------------------------------------------------------------


def _monic(p: MultiPoly) -> MultiPoly:
    """``p`` scaled to leading coefficient 1: its primitive integer terms
    over their (positive) leading coefficient."""
    if p.is_zero():
        return p
    _, q = _split(p)
    return _poly(q.vars, q.terms, q.terms[max(q.terms, key=_grlex_key)])


def _min_exponents(exponents) -> tuple[int, ...]:
    """Componentwise minimum of exponent vectors of one length (the exponents
    of the largest monomial dividing every term)."""
    return tuple(map(min, zip(*exponents)))


def _monomial_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    vs, tf, tg = f._align(g)
    return MultiPoly(vs, {_min_exponents([*tf, *tg]): 1})


def _primitive_list(xs: list[int]) -> list[int]:
    g = gcd(*xs)
    return [v // g for v in xs] if g > 1 else xs


def _upoly(name: str, coeffs: list[int]) -> MultiPoly:
    return MultiPoly((name,), {(k,): c for k, c in enumerate(coeffs)})


def _prs(a: list, b: list, primitive) -> list:
    """Primitive pseudo-remainder sequence of two primitive dense coefficient
    lists, lowest power first, with int or MultiPoly entries; returns its
    last nonzero member.

    Each remainder is taken after multiplying through by lc(b), so it stays
    in the coefficient ring, and ``primitive`` divides out its content,
    avoiding the blowup of naive rational Euclid.
    """
    if len(a) < len(b):
        a, b = b, a
    while b:
        x = a[:]
        while len(x) >= len(b):
            lead, shift = x[-1], len(x) - len(b)
            x = [b[-1] * v for v in x]
            for i, cy in enumerate(b):
                x[i + shift] -= lead * cy
            while x and not x[-1]:
                x.pop()
        a, b = b, primitive(x) if x else x
    return a


def _coeffs_in(p: MultiPoly, name: str) -> list[MultiPoly]:
    """p as a dense list of MultiPoly coefficients of the powers of `name`."""
    i = p.vars.index(name)
    out: list[dict] = [{} for _ in range(p.degree_in(name) + 1)]
    for e, c in p.terms.items():
        out[e[i]][e[:i] + e[i + 1:]] = c
    return [MultiPoly(p.vars[:i] + p.vars[i + 1:], t, p.den) for t in out]


def _content_free(coeffs: list[MultiPoly]) -> tuple[MultiPoly, list[MultiPoly]]:
    """``(content, coefficients divided by it)``; the content is their gcd."""
    content = reduce(poly_gcd, coeffs)
    return content, [poly_exact_div(c, content) for c in coeffs]


class _HeuristicFailed(Exception):
    pass


def _gcdheu(f: MultiPoly, g: MultiPoly, depth: int = 0):
    """Integer-polynomial gcd by evaluation at a big point (GCDHEU).

    Content-inclusive over Z[vars] for integer inputs (``den`` 1);
    candidates are reconstructed from balanced base-xi digits and verified
    by trial division, so a returned value is always correct.  Raises
    _HeuristicFailed when the retries run out; callers fall back to the
    pseudo-remainder sequence.
    """
    if f.is_zero() or g.is_zero():
        return g if f.is_zero() else f
    content = gcd(*f.terms.values(), *g.terms.values())
    if f.is_const() or g.is_const():
        return MultiPoly.const(content)
    if depth > 8:
        raise _HeuristicFailed
    vs = sorted(set(f.vars) | set(g.vars))
    main = vs[0]
    norm = max(*map(abs, f.terms.values()), *map(abs, g.terms.values()))
    xi = 2 * norm + 29
    dbound = min(f.degree_in(main), g.degree_in(main)) + 1
    for _ in range(6):
        h_e = _gcdheu(f.subs({main: xi}), g.subs({main: xi}), depth + 1)
        # reconstruct the main-variable dependence from balanced digits
        h = MultiPoly.zero()
        cur = h_e
        i = 0
        while not cur.is_zero() and i <= dbound:
            digits = {}
            for e, c in cur.terms.items():
                r = c % xi
                digits[e] = r - xi if r > xi // 2 else r
            h = h + MultiPoly(cur.vars, digits) * MultiPoly.var(main) ** i
            cur = MultiPoly(cur.vars, {e: (c - digits[e]) // xi for e, c in cur.terms.items()})
            i += 1
        if cur.is_zero() and not h.is_zero():
            h = _split(h)[1]
            if poly_divides(h, f) and poly_divides(h, g):
                return h * content
        xi = xi * 73794 // 27011
    raise _HeuristicFailed


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Monic gcd over Q[x1..xn] (returns 1 for coprime or constant inputs).

    Its integer terms are the primitive gcd over Z with positive leading
    coefficient, and its ``den`` is that coefficient.
    """
    if f.is_zero():
        return _monic(g) if not g.is_zero() else MultiPoly.zero()
    if g.is_zero():
        return _monic(f)
    if f.is_const() or g.is_const():
        return MultiPoly.one()
    if f.is_monomial() or g.is_monomial():
        return _monomial_gcd(f, g)
    vs, tf, tg = f._align(g)
    # strip common monomial content first: cheap and typical for ladder data
    mins_f, mins_g = _min_exponents(tf), _min_exponents(tg)
    if any(mins_f) or any(mins_g):
        tf = {tuple(map(sub, e, mins_f)): c for e, c in tf.items()}
        tg = {tuple(map(sub, e, mins_g)): c for e, c in tg.items()}
        common = _min_exponents((mins_f, mins_g))
        core = poly_gcd(MultiPoly(vs, tf), MultiPoly(vs, tg))
        if any(common):
            core = core * _poly(vs, {common: 1})
        return _monic(core)
    if len(vs) == 1:
        a, b = (_primitive_list(_int_coeffs(_poly(vs, t))) for t in (tf, tg))
        return _monic(_upoly(vs[0], _prs(a, b, _primitive_list)))
    # multivariate: primitive PRS in one variable, on the integer terms
    fa, ga = MultiPoly(vs, tf), MultiPoly(vs, tg)
    # divisibility fast paths keep the common cases cheap
    if poly_divides(ga, fa):
        return _monic(ga)
    if poly_divides(fa, ga):
        return _monic(fa)
    # heuristic gcd first (verified by trial division, so always sound)
    try:
        return _monic(_gcdheu(_split(fa)[1], _split(ga)[1]))
    except _HeuristicFailed:
        pass
    # choose the main variable with the smallest degree bound
    main = min(
        (v for v in vs if fa.degree_in(v) or ga.degree_in(v)),
        key=lambda v: max(fa.degree_in(v), ga.degree_in(v)),
    )
    if fa.degree_in(main) == 0 or ga.degree_in(main) == 0:
        # main variable missing from one input; gcd divides its coefficients
        inner, outer = (fa, ga) if fa.degree_in(main) == 0 else (ga, fa)
        return poly_gcd(inner, reduce(poly_gcd, _coeffs_in(outer, main)))
    (cf, F), (cg, G) = _content_free(_coeffs_in(fa, main)), _content_free(_coeffs_in(ga, main))
    B = _prs(F, G, lambda r: _content_free(r)[1])
    x = MultiPoly.var(main)
    return _monic(sum((c * x ** k for k, c in enumerate(B)), MultiPoly.zero()) * poly_gcd(cf, cg))


# -- rational functions -------------------------------------------------------


def _ratfunc(c: Fraction, n: MultiPoly, d: MultiPoly) -> "RatFunc":
    """A RatFunc from parts already in normal form."""
    r = object.__new__(RatFunc)
    r._c, r._n, r._d = c, n, d
    return r


def _common(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """The primitive gcd of two primitive integer polynomials."""
    if a.is_const() or b.is_const():
        return _ONE
    g = poly_gcd(a, b)
    return _poly(g.vars, g.terms)


def _quo(a: MultiPoly, g: MultiPoly) -> MultiPoly:
    return a if g.is_const() else poly_exact_div(a, g)


class RatFunc:
    """Quotient of two polynomials, kept as ``c * n / d`` in a canonical
    reduced form (see the module docstring), so ``==`` is structural and
    agrees with the cross-multiplication test.  Zero is ``c = 0``,
    ``n = d = 1``.
    """

    __slots__ = ("_c", "_n", "_d")

    def __init__(self, num, den=None):
        num = num if isinstance(num, MultiPoly) else MultiPoly.const(num)
        if den is None:
            den = MultiPoly.one()
        den = den if isinstance(den, MultiPoly) else MultiPoly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self._c, self._n, self._d = Fraction(0), _ONE, _ONE
            return
        gn, n = _split(num)
        gd, d = _split(den)
        g = _common(n, d)
        self._c = Fraction(gn * den.den, gd * num.den)
        self._n, self._d = _quo(n, g), _quo(d, g)

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value) -> "RatFunc":
        return _ratfunc(value if isinstance(value, Fraction) else Fraction(value), _ONE, _ONE)

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls.const(0)

    @classmethod
    def one(cls) -> "RatFunc":
        return cls.const(1)

    @classmethod
    def var(cls, name: str) -> "RatFunc":
        return _ratfunc(Fraction(1), MultiPoly.var(name), _ONE)

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction)):
            return cls.const(x)
        if isinstance(x, MultiPoly):
            return cls(x)
        return None

    # -- inspection ----------------------------------------------------------

    @property
    def num(self) -> MultiPoly:
        """The numerator over the denominator ``den`` of leading coefficient 1."""
        if not self._c:
            return MultiPoly.zero()
        d = self._d.terms
        v = self._c / d[max(d, key=_grlex_key)]
        return _poly(self._n.vars, {e: c * v.numerator for e, c in self._n.terms.items()},
                     v.denominator)

    @property
    def den(self) -> MultiPoly:
        """The denominator scaled to leading coefficient 1 (graded lex)."""
        return _monic(self._d)

    def is_zero(self) -> bool:
        return not self._c

    def is_polynomial(self) -> bool:
        return self._d.is_const()

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._c:
            return self
        if not self._c:
            return o
        # Henrici: with g = gcd(d1, d2) and d_i = g e_i, the sum is
        # (c1 n1 e2 + c2 n2 e1) / (e1 e2 g), and only g can share a factor
        # with that numerator.
        d1, d2 = self._d, o._d
        if d1 == d2:
            g, e1, e2 = d1, _ONE, _ONE
        else:
            g = _common(d1, d2)
            e1, e2 = _quo(d1, g), _quo(d2, g)
        c1, c2 = self._c, o._c
        q = lcm(c1.denominator, c2.denominator)
        vs, t1, t2 = (self._n * e2)._align(o._n * e1)
        t = _add_terms(t1, t2, c1.numerator * (q // c1.denominator),
                       c2.numerator * (q // c2.denominator))
        if not t:
            return RatFunc.zero()
        k, n = _split(MultiPoly(vs, t))
        h = _common(n, g)
        return _ratfunc(Fraction(k, q), _quo(n, h), e1 * e2 * _quo(g, h))

    __radd__ = __add__

    def __neg__(self):
        return _ratfunc(-self._c, self._n, self._d)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._c or not o._c:
            return RatFunc.zero()
        # Henrici: cancel each numerator against the other denominator
        g1, g2 = _common(self._n, o._d), _common(o._n, self._d)
        return _ratfunc(
            self._c * o._c,
            _quo(self._n, g1) * _quo(o._n, g2),
            _quo(self._d, g2) * _quo(o._d, g1),
        )

    __rmul__ = __mul__

    def _inverse(self) -> "RatFunc":
        if not self._c:
            raise ZeroDivisionError("division by zero rational function")
        return _ratfunc(1 / self._c, self._d, self._n)

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
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self._inverse() ** (-n)
        return _ratfunc(self._c ** n, self._n ** n, self._d ** n)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._c == o._c and self._n == o._n and self._d == o._d

    def __hash__(self):
        return hash((self._c, self._n, self._d))

    def __bool__(self):
        return not self.is_zero()

    # -- substitution -----------------------------------------------------------

    def subs(self, mapping: dict) -> "RatFunc":
        num = RatFunc._coerce(self._n.subs(mapping))
        den = RatFunc._coerce(self._d.subs(mapping))
        return num * self._c / den

    # -- display ------------------------------------------------------------------

    def __str__(self):
        if self._d.is_const():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFunc({self})"


# -- univariate factorization --------------------------------------------------


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, big = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                big.append(n // i)
        i += 1
    return small + big[::-1]


def _ueval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _rational_roots(coeffs: list[int]) -> tuple[list[Fraction], list[int]]:
    """Strip all rational roots (with multiplicity).

    Returns ``(roots, rest)``, ``rest`` the primitive integer model of what
    remains.  The search runs in integers: a root p/q of the primitive
    model f (lowest terms) has p | f(0) and q | lc(f); f(p/q) = 0 exactly
    when the homogeneous sum sum_i a_i p^i q^(n-i) vanishes; and then f
    deflates exactly by q x - p in Z[x], by Gauss's lemma.
    """
    f = _primitive_list(coeffs)
    roots: list[Fraction] = []
    while f[0] == 0 and len(f) > 1:
        roots.append(Fraction(0))
        f = f[1:]
    while len(f) >= 2:
        if len(f) == 2:
            roots.append(Fraction(-f[0], f[1]))
            return roots, [1]
        qs = _divisors(f[-1])
        found = next(
            (
                Fraction(num, q)
                for p in _divisors(f[0])
                for q in qs
                for num in (p, -p)
                if _homogeneous_value(f, num, q) == 0
            ),
            None,
        )
        if found is None:
            break
        linear = [-found.numerator, found.denominator]
        while (h := _exact_quotient(f, linear)) is not None:
            roots.append(found)
            f = h
    return roots, f


def _homogeneous_value(f: list[int], p: int, q: int) -> int:
    """``q^n f(p/q)`` for the integer list ``f`` of degree n."""
    acc, qk = 0, 1
    for c in reversed(f):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _kronecker_quadratic(f: list[int]):
    """Find a quadratic factor of ``f``, a primitive integer polynomial with
    no rational roots.

    Kronecker's method restricted to degree 2 (Knuth, TAOCP vol. 2, sec. 4.6.2).
    By Gauss's lemma a rational quadratic factor scales to a primitive
    ``g = c2 x^2 + c1 x + c0`` in Z[x] with ``c2 > 0`` and ``g | f`` in Z[x];
    then ``g(t) | f(t)`` at every integer t, and ``f(t) != 0`` because f has
    no rational root.  The candidates are the interpolants through divisors
    ``d0 | f(0)``, ``d1 | f(1)``, ``dm1 | f(-1)`` of either sign, so every
    such g is among them.  A candidate is rejected only on a condition that
    g meets:

    - ``c2 > 0``: g and -g are the same factor;
    - ``c2 | lc(f)``, the leading coefficient of ``f = g h`` in Z[x];
    - ``g(2) != 0``, ``g(-2) != 0``, ``g(2) | f(2)`` and ``g(-2) | f(-2)``;
    - exact division: the quotient of f by primitive g is integral, so the
      division stops at the first leading term that ``c2`` does not divide.

    Returns ``(g, f / g)`` as integer lists, or None.
    """
    v2, vm2 = _ueval(f, 2), _ueval(f, -2)
    d0s, d1s, dm1s = (
        [s * a for a in _divisors(_ueval(f, t)) for s in (1, -1)] for t in (0, 1, -1)
    )
    for d0 in d0s:
        for d1 in d1s:
            for dm1 in dm1s:
                if (d1 + dm1) % 2:
                    continue
                c2 = (d1 + dm1) // 2 - d0
                if c2 <= 0 or f[-1] % c2:
                    continue
                c1 = (d1 - dm1) // 2
                g2, gm2 = 4 * c2 + 2 * c1 + d0, 4 * c2 - 2 * c1 + d0
                if not g2 or not gm2 or v2 % g2 or vm2 % gm2:
                    continue
                quo = _exact_quotient(f, [d0, c1, c2])
                if quo is not None:
                    return [d0, c1, c2], quo
    return None


def _exact_quotient(f: list[int], g: list[int]):
    """``f / g`` in Z[x], or None when g does not divide f there."""
    rem = list(f)
    n = len(g) - 1
    quo = [0] * (len(f) - n)
    for k in range(len(quo) - 1, -1, -1):
        qk, r = divmod(rem[k + n], g[-1])
        if r:
            return None
        quo[k] = qk
        for i in range(n):
            rem[k + i] -= qk * g[i]
    return None if any(rem[:n]) else quo


def factor_low_degree(p: MultiPoly) -> tuple[Fraction, list[MultiPoly]]:
    """Factor a univariate rational polynomial into irreducibles of degree <= 2.

    Returns ``(leading_constant, factors)`` with monic factors, repeated per
    multiplicity, whose product times the constant reproduces ``p``.  Raises
    UnsupportedAlgebraicDegree when an irreducible factor of degree >= 3
    remains: the scalar tower stops at quadratic extensions.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if len(p.vars) > 1:
        raise ValueError("factor_low_degree needs a univariate polynomial")
    name = p.vars[0] if p.vars else "x"
    roots, rest = _rational_roots(_int_coeffs(p))
    factors = [_monic(_upoly(name, [-r.numerator, r.denominator])) for r in roots]
    while len(rest) - 1 >= 3:
        if (len(rest) - 1) % 2:
            # odd degree with no rational root: an odd irreducible remains
            raise UnsupportedAlgebraicDegree(
                f"irreducible factor of degree >= 3 in {p}"
            )
        hit = _kronecker_quadratic(rest)
        if hit is None:
            raise UnsupportedAlgebraicDegree(
                f"irreducible factor of degree >= 3 in {p}"
            )
        quad, rest = hit
        factors.append(_monic(_upoly(name, quad)))
    if len(rest) > 1:
        factors.append(_monic(_upoly(name, rest)))
    factors.sort(key=lambda f: (f.total_degree(), f.coeff_list()))
    return p.leading_coeff(), factors


def roots_low_degree(p: MultiPoly) -> list:
    """All real roots of a univariate rational polynomial, with multiplicity.

    Roots are Fractions or QuadraticNumbers.  Raises ComplexRoots when an
    irreducible quadratic factor has a negative discriminant, and
    UnsupportedAlgebraicDegree past quadratic extensions.
    """
    _, factors = factor_low_degree(p)
    out = []
    for f in factors:
        cs = f.coeff_list()
        if len(cs) == 2:
            out.append(-cs[0] / cs[1])
        else:
            b, c = cs[1], cs[0]
            disc = b * b - 4 * c
            if disc < 0:
                raise ComplexRoots(f"complex roots in factor {f}")
            s = exact_sqrt(disc)
            out.append((-b + s) / 2)
            out.append((-b - s) / 2)
    return out
