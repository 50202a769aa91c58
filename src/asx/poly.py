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
so equality is a structural comparison as well.  For both types truth is
the zero test, ``str`` the exact string, and a value equal to a Fraction
(or a RatFunc equal to a MultiPoly) hashes as that value does.  Arithmetic
with a QuadraticNumber raises MixedScalars; the two are never equal.

The gcd is a primitive pseudo-remainder sequence (PRS) for one variable
and the heuristic gcd (GCDHEU), run until it succeeds, for several.  Fast
paths for constants, monomials and monomial content come first; with the
PRS they carry all the load in the scheme computations, where denominators
are monomials in the tridiagonal unknowns or univariate in the
multiplicity parameter.

A univariate polynomial factors over Q into irreducibles of degree <= 2 by
Kronecker's method on its primitive integer model: one candidate-and-divide
pass per degree, over divisor lists computed once per pass.

Polynomials in one variable also travel as dense integer coefficient lists,
packed into one int as their value at 2^K (Kronecker substitution), so that
int arithmetic does their ring arithmetic; :func:`ratfuncs_over` turns
quotients of such lists into RatFuncs in normal form.  Polynomials in
several variables travel as :class:`PackedPoly` maps, each exponent vector
packed into one int with a fixed bit field per variable (Monagan & Pearce,
CASC 2007), so that a product of monomials is one int addition.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, sub

from .errors import ComplexRoots, MixedScalars, UnsupportedAlgebraicDegree
from .scalars import QuadraticNumber, exact_sqrt


def _foreign(other):
    """NotImplemented for an operand of another type; MixedScalars for a
    quadratic irrational, since Q(sqrt D)(x1, ..., xk) is not supported."""
    if isinstance(other, QuadraticNumber):
        raise MixedScalars(f"cannot combine sqrt({other.radicand}) with a symbolic scalar")
    return NotImplemented


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

    def is_const(self) -> bool:
        return not self.vars

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
            return _foreign(other)
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
            return _foreign(other)
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
        return _foreign(other)

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFunc(other, self)
        return _foreign(other)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.vars == o.vars and self.den == o.den and self.terms == o.terms

    def __hash__(self):
        if not self.vars:  # a constant hashes as the Fraction it equals
            return hash(Fraction(self.terms.get((), 0), self.den))
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
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if not f:
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
    if not p:
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


def _prs(a: list[int], b: list[int]) -> list[int]:
    """Primitive pseudo-remainder sequence of two primitive dense integer
    coefficient lists, lowest power first; returns its last nonzero member.

    Each remainder is taken after multiplying through by lc(b), so it stays
    in Z, and its content is divided out, avoiding the blowup of naive
    rational Euclid.
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
        a, b = b, _primitive_list(x) if x else x
    return a


def _gcdheu(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Content-inclusive gcd of two nonzero integer polynomials (``den`` 1)
    by evaluation at a big point (GCDHEU: Char, Geddes & Gonnet,
    J. Symbolic Comput. 7, 1989).

    The main variable is set to an integer xi, the gcd of the two images is
    taken recursively, and a candidate is rebuilt from its balanced base-xi
    digits.  Its primitive part is returned (times the gcd of the contents)
    once it divides both inputs; until then xi grows by 73794/27011.  Each
    level drops one variable, so the recursion is as deep as the number of
    variables.

    Termination: write f = H A and g = H B with H the gcd and A, B coprime.
    Then gcd(A_xi, B_xi) divides the nonzero resultant Res(A, B) in the main
    variable, and is a nonconstant polynomial for only finitely many xi.
    Past those, the gcd of the images is k H_xi for an integer k dividing
    that resultant, and once xi > 2 |k H|_inf the balanced digits give back
    k H, whose primitive part is the primitive part of H.  As xi grows
    geometrically, the attempts are at most logarithmic in the size of the
    resultant.
    """
    content = gcd(*f.terms.values(), *g.terms.values())
    if f.is_const() or g.is_const():
        return MultiPoly.const(content)
    main = min(f.vars[0], g.vars[0])
    norm = max(*map(abs, f.terms.values()), *map(abs, g.terms.values()))
    xi = 2 * norm + 29
    dbound = min(f.degree_in(main), g.degree_in(main)) + 1
    while True:
        h_e = _gcdheu(f.subs({main: xi}), g.subs({main: xi}))
        # reconstruct the main-variable dependence from balanced digits
        h = MultiPoly.zero()
        cur = h_e
        i = 0
        while cur and i <= dbound:
            digits = {}
            for e, c in cur.terms.items():
                r = c % xi
                digits[e] = r - xi if r > xi // 2 else r
            h = h + MultiPoly(cur.vars, digits) * MultiPoly.var(main) ** i
            cur = MultiPoly(cur.vars, {e: (c - digits[e]) // xi for e, c in cur.terms.items()})
            i += 1
        if not cur and h:
            h = _split(h)[1]
            if poly_divides(h, f) and poly_divides(h, g):
                return h * content
        xi = xi * 73794 // 27011


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Monic gcd over Q[x1..xn] (returns 1 for coprime or constant inputs).

    Its integer terms are the primitive gcd over Z with positive leading
    coefficient, and its ``den`` is that coefficient.
    """
    if not f:
        return _monic(g) if g else MultiPoly.zero()
    if not g:
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
        return _monic(_upoly(vs[0], _prs(a, b)))
    return _monic(_gcdheu(_split(MultiPoly(vs, tf))[1], _split(MultiPoly(vs, tg))[1]))


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
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
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

    def is_polynomial(self) -> bool:
        return self._d.is_const()

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return _foreign(other)
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
            return _foreign(other)
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
            return _foreign(other)
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return _foreign(other)
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
        # a polynomial hashes as the MultiPoly it equals, so a constant as its Fraction
        if self._d.is_const():
            return hash(self.num)
        return hash((self._c, self._n, self._d))

    def __bool__(self):
        return bool(self._c)

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


def _homogeneous_value(f: list[int], p: int, q: int) -> int:
    """``q^n f(p/q)`` for the integer list ``f`` of degree n."""
    acc, qk = 0, 1
    for c in reversed(f):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _linear_candidates(f: list[int]):
    """``[-a, q]`` for each root a/q of ``f`` in lowest terms with ``q > 0``,
    over the divisors of f(0) and lc(f) as the pass starts; the divisibility
    filters read f as it stands."""
    qs = _divisors(f[-1])
    for a in _divisors(f[0]):
        if f[0] % a:
            continue
        for q in qs:
            if gcd(a, q) == 1 and not f[-1] % q:
                for num in (a, -a):
                    if _homogeneous_value(f, num, q) == 0:
                        yield [-num, q]


def _quadratic_candidates(f: list[int]):
    """``g = [c0, c1, c2]`` interpolating divisors of either sign of f(0),
    f(1) and f(-1) as the pass starts, with ``c2 > 0``, ``c2 | lc(f)``,
    ``g(2) | f(2)`` and ``g(-2) | f(-2)``, both nonzero (f has no rational
    root); the divisibility filters read f as it stands, and the lists
    shrink to the divisors of its values once it has been divided."""
    d0s, d1s, dm1s = (
        [s * a for a in _divisors(_homogeneous_value(f, t, 1)) for s in (1, -1)]
        for t in (0, 1, -1)
    )
    n = 0
    for d0 in d0s:
        if len(f) != n:  # on the first d0 and after each division
            n = len(f)
            v1, vm1, v2, vm2 = (_homogeneous_value(f, t, 1) for t in (1, -1, 2, -2))
            d1s = [d for d in d1s if not v1 % d]
            dm1s = [d for d in dm1s if not vm1 % d]
        if f[0] % d0:
            continue
        for d1 in d1s:
            for dm1 in dm1s:
                if (d1 + dm1) % 2:
                    continue
                c2 = (d1 + dm1) // 2 - d0
                if c2 <= 0 or f[-1] % c2:
                    continue
                c1 = (d1 - dm1) // 2
                g2, gm2 = 4 * c2 + 2 * c1 + d0, 4 * c2 - 2 * c1 + d0
                if g2 and gm2 and not v2 % g2 and not vm2 % gm2:
                    yield [d0, c1, c2]


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


def _divide_out(f: list[int], candidates, factors: list) -> None:
    """Divide ``f`` in place by each candidate, drawn from f itself, as
    often as the division goes, one entry in ``factors`` per division, until
    f has no higher degree than the candidates."""
    for g in candidates:
        while (quo := _exact_quotient(f, g)) is not None:
            factors.append(g)
            f[:] = quo
        if len(f) <= len(g):
            break


def factor_low_degree(p: MultiPoly) -> tuple[Fraction, list[MultiPoly]]:
    """Factor a univariate rational polynomial into irreducibles of degree <= 2.

    Returns ``(leading_constant, factors)`` with monic factors, repeated per
    multiplicity, whose product times the constant reproduces ``p``.  Raises
    UnsupportedAlgebraicDegree when an irreducible factor of degree >= 3
    remains: the scalar tower stops at quadratic extensions.

    Kronecker's method for factors of degree 1 and 2 (Knuth, TAOCP vol. 2,
    sec. 4.6.2) on the primitive integer model f of ``p``, its zero roots
    stripped.  By Gauss's lemma a rational factor of f scales to a
    primitive g in Z[x] with ``lc(g) > 0`` and ``g | f`` in Z[x], so
    ``lc(g) | lc(f)`` and ``g(t) | f(t)`` at every integer t.  Hence both
    candidate sets are complete: a linear factor is ``q x - p`` with
    ``p | f(0)``, ``q | lc(f)`` and ``q^n f(p/q) = 0``, and a quadratic one,
    once f has no rational root, interpolates divisors of f(0), f(1) and
    f(-1).  One pass per degree, over the divisor lists of f as the pass
    starts, suffices: a factor of a quotient divides f too, so it is among
    the candidates, and the pass divides by each candidate as often as the
    division goes, so none needs a second look.  What remains of degree
    <= 2 is irreducible; of odd degree >= 3 with no rational root, or of
    degree >= 3 after the quadratic pass, it has an irreducible factor of
    degree >= 3.
    """
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    if len(p.vars) > 1:
        raise ValueError("factor_low_degree needs a univariate polynomial")
    name = p.vars[0] if p.vars else "x"
    f = _primitive_list(_int_coeffs(p))
    zeros = next(k for k, c in enumerate(f) if c)
    found, f = [[0, 1]] * zeros, f[zeros:]
    if len(f) > 2:
        _divide_out(f, _linear_candidates(f), found)
    if len(f) > 3 and len(f) % 2:
        _divide_out(f, _quadratic_candidates(f), found)
    if len(f) > 3:
        raise UnsupportedAlgebraicDegree(f"irreducible factor of degree >= 3 in {p}")
    if len(f) > 1:
        found.append(f)
    factors = [_monic(_upoly(name, g)) for g in found]
    factors.sort(key=lambda g: (g.total_degree(), g.coeff_list()))
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


# -- polynomials packed into integers ------------------------------------------


def integer_terms(values):
    """``(names, maps)`` when the values are polynomials (MultiPolys,
    RatFuncs with constant denominator, rationals): the sorted names of
    all their variables, and each value's term map over ``names``, scaled
    by one common denominator so that every coefficient is an int.  None
    otherwise."""
    polys = [x.num if isinstance(x, RatFunc) and x.is_polynomial() else MultiPoly._coerce(x)
             for x in values]
    if None in polys:
        return None
    names = tuple(sorted({v for p in polys for v in p.vars}))
    den = lcm(*(p.den for p in polys))
    return names, [{e: c * (den // p.den) for e, c in p._embed(names).items()} for p in polys]


def kronecker_pack(coeffs: list[int], width: int) -> int:
    """The value at ``2^width`` of the integer coefficient list ``coeffs``
    (Kronecker substitution)."""
    return sum(c << (width * k) for k, c in enumerate(coeffs))


def kronecker_unpack(x: int, width: int) -> list[int]:
    """The integer coefficient list, no trailing zeros, whose value at
    ``2^width`` is ``x``: the balanced base-``2^width`` digits of x.  It is
    the list :func:`kronecker_pack` packed when each coefficient has
    absolute value below ``2^(width-1)``."""
    base = 1 << width
    half, digits = base >> 1, []
    while x:
        r = x & (base - 1)
        if r >= half:
            r -= base
        digits.append(r)
        x = (x - r) >> width
    return digits


class PackedPoly(dict):
    """A polynomial in several variables as a sparse map from packed
    exponent vectors to nonzero int coefficients (Monagan & Pearce, CASC
    2007): one int per exponent vector, one bit field of a fixed width per
    variable.  A product adds the packed exponents and multiplies the
    coefficients, which is exact while every exponent of the result stays
    below 2^width: no field then carries into the next.  The empty map is
    0.  Values are never changed in place."""

    __slots__ = ()

    def _plus(self, other, sign: int) -> "PackedPoly":
        if not other:
            return self
        out = PackedPoly(self)
        for e, c in other.items():
            if s := out.get(e, 0) + sign * c:
                out[e] = s
            else:
                del out[e]
        return out

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __mul__(self, other):
        out = PackedPoly()
        for e1, c1 in self.items():
            for e2, c2 in other.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        if not all(out.values()):
            return PackedPoly((e, c) for e, c in out.items() if c)
        return out


def monomial_pack(terms: dict, width: int) -> PackedPoly:
    """The term map ``terms`` (exponent tuples to ints) with each exponent
    tuple packed into one int, ``width`` bits per variable, the first
    variable lowest."""
    return PackedPoly((sum(k << (width * v) for v, k in enumerate(e)), c)
                      for e, c in terms.items())


def monomial_unpack(packed: dict, names: tuple, width: int) -> MultiPoly:
    """The polynomial over ``names`` whose terms :func:`monomial_pack`
    packed, when every exponent is below ``2^width``."""
    mask, shifts = (1 << width) - 1, [width * v for v in range(len(names))]
    return MultiPoly(names, {tuple(e >> s & mask for s in shifts): c for e, c in packed.items()})


def _signed_content(xs: list[int]) -> tuple[int, list[int]]:
    """``(g, ys)`` with ``xs = g * ys``, ``ys`` primitive with positive last
    (leading) coefficient."""
    g = gcd(*xs)
    if xs[-1] < 0:
        g = -g
    return g, [v // g for v in xs]


def _list_quotient(f: list[int], g: list[int]) -> list[int]:
    if (quo := _exact_quotient(f, g)) is None:
        raise ArithmeticError("not divisible")
    return quo


def ratfuncs_over(name: str, nums: list[list[int]], den: list[int]) -> list[RatFunc]:
    """``n / den`` as a RatFunc in ``name`` for each integer coefficient
    list ``n`` of ``nums`` (``[]`` is 0), in the normal form the RatFunc
    arithmetic gives: contents and signs go to the scalar, and the
    primitive parts are divided by their primitive PRS gcd.  ``den`` is
    split once for all of them."""
    gd, d = _signed_content(den)
    dpoly, out = _upoly(name, d), []
    for n in nums:
        if not n:
            out.append(RatFunc.zero())
            continue
        gn, n = _signed_content(n)
        q = dpoly
        if len(n) > 1 and len(d) > 1:
            _, g = _signed_content(_prs(n, d))
            if len(g) > 1:
                n, q = _list_quotient(n, g), _upoly(name, _list_quotient(d, g))
        out.append(_ratfunc(Fraction(gn, gd), _upoly(name, n), q))
    return out

