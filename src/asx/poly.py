"""Sparse multivariate polynomials and rational functions over the rationals.

``MultiPoly`` stores a map from exponent vectors to nonzero Fraction
coefficients, over a sorted tuple of variable names; unused variables are
pruned, so equality is structural.  ``RatFunc`` keeps a gcd-reduced
numerator/denominator pair with the denominator scaled to leading
coefficient 1 under the graded-lex term order, making equality a structural
comparison as well.

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

from .errors import ComplexRoots, UnsupportedAlgebraicDegree
from .scalars import exact_sqrt

Coeff = Fraction


def _grlex_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


class MultiPoly:
    """Multivariate polynomial with exact rational coefficients."""

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, variables=(), terms=None):
        # Internal constructor: use the classmethods or arithmetic to build
        # values; inputs are normalized (zero coefficients and unused
        # variables dropped, variables sorted).
        terms = {} if terms is None else terms
        variables = tuple(variables)
        assert list(variables) == sorted(variables), "variables must be sorted"
        self.vars = variables
        self.terms = {e: c for e, c in terms.items() if c != 0}
        self._hash = None
        self._prune()

    def _prune(self):
        if not self.terms:
            self.vars = ()
            return
        used = [i for i in range(len(self.vars)) if any(e[i] for e in self.terms)]
        if len(used) != len(self.vars):
            self.vars = tuple(self.vars[i] for i in used)
            self.terms = {tuple(e[i] for i in used): c for e, c in self.terms.items()}

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, value) -> "MultiPoly":
        value = Fraction(value)
        return cls((), {(): value} if value else {})

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls((), {})

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls.const(1)

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        return cls((name,), {(1,): Fraction(1)})

    @classmethod
    def univariate(cls, name: str, coeffs) -> "MultiPoly":
        """Build sum(coeffs[k] * name**k)."""
        terms = {(k,): Fraction(c) for k, c in enumerate(coeffs) if c != 0}
        return cls((name,), terms)

    # -- inspection -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.vars

    def is_one(self) -> bool:
        return self.terms == {(): Fraction(1)}

    def const_value(self) -> Fraction:
        if self.vars:
            raise ValueError(f"{self} is not constant")
        return self.terms.get((), Fraction(0))

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
        return e, self.terms[e]

    def leading_coeff(self) -> Fraction:
        return self.leading()[1]

    def monomial_content(self) -> tuple[int, ...]:
        """Componentwise minimum exponent over all terms."""
        if not self.terms:
            return ()
        mins = None
        for e in self.terms:
            mins = e if mins is None else tuple(map(min, mins, e))
        return mins

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

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        vs, t1, t2 = self._align(o)
        out = dict(t1)
        for e, c in t2.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly(vs, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

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
        if o.is_const():
            v = o.const_value()
            if v == 0:
                return MultiPoly.zero()
            return MultiPoly(self.vars, {e: c * v for e, c in self.terms.items()})
        if self.is_const():
            return o * self.const_value()
        vs, t1, t2 = self._align(o)
        out: dict = {}
        for e1, c1 in t1.items():
            for e2, c2 in t2.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return MultiPoly(vs, out)

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
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, MultiPoly):
            return RatFunc(self, other)
        return NotImplemented

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.vars == o.vars and self.terms == o.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # -- substitution / evaluation ----------------------------------------

    def subs(self, mapping: dict):
        """Substitute variables; values may be numbers, MultiPoly or RatFunc.

        Returns a MultiPoly when no RatFunc value is involved, else RatFunc.
        """
        rational_only = True
        vals = {}
        for k, v in mapping.items():
            if isinstance(v, RatFunc):
                rational_only = False
                vals[k] = v
            elif isinstance(v, MultiPoly):
                vals[k] = v
            else:
                vals[k] = MultiPoly.const(v)
        acc = RatFunc.zero() if not rational_only else MultiPoly.zero()
        for e, c in self.terms.items():
            term = RatFunc.const(c) if not rational_only else MultiPoly.const(c)
            for name, k in zip(self.vars, e):
                if k == 0:
                    continue
                base = vals.get(name)
                if base is None:
                    base = MultiPoly.var(name)
                term = term * base ** k
            acc = acc + term
        return acc

    def eval_univariate(self, value):
        """Horner evaluation for polynomials in at most one variable.

        ``value`` may be any exact scalar supporting field arithmetic
        (Fraction or QuadraticNumber).
        """
        if len(self.vars) > 1:
            raise ValueError("eval_univariate needs a univariate polynomial")
        coeffs = self.coeff_list()
        acc = coeffs[-1] if coeffs else Fraction(0)
        for c in reversed(coeffs[:-1]):
            acc = acc * value + c
        return acc

    def coeff_list(self) -> list[Fraction]:
        """Dense coefficient list [c0, c1, ...] for <=1-variable polynomials."""
        if len(self.vars) > 1:
            raise ValueError("not univariate")
        if not self.terms:
            return [Fraction(0)]
        if not self.vars:
            return [self.const_value()]
        deg = max(e[0] for e in self.terms)
        out = [Fraction(0)] * (deg + 1)
        for e, c in self.terms.items():
            out[e[0]] = c
        return out

    # -- display ------------------------------------------------------------

    def _term_str(self, e, c) -> str:
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


# -- exact division ---------------------------------------------------------


def poly_exact_div(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact quotient f / g; raises ArithmeticError if g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return MultiPoly.zero()
    if g.is_const():
        return f * (Fraction(1) / g.const_value())
    if g.is_monomial():
        vs, tf, tg = f._align(g)
        (eg, cg), = tg.items()
        out = {}
        for e, c in tf.items():
            ee = tuple(a - b for a, b in zip(e, eg))
            if any(k < 0 for k in ee):
                raise ArithmeticError("not divisible (monomial)")
            out[ee] = c / cg
        return MultiPoly(vs, out)
    vs, tf, tg = f._align(g)
    # raw dict arithmetic over the fixed aligned variable tuple
    eg = max(tg, key=_grlex_key)
    cg = tg[eg]
    rem = dict(tf)
    quo: dict = {}
    while rem:
        er = max(rem, key=_grlex_key)
        cr = rem[er]
        ee = tuple(a - b for a, b in zip(er, eg))
        if any(k < 0 for k in ee):
            raise ArithmeticError("not divisible")
        cq = cr / cg
        quo[ee] = quo.get(ee, Fraction(0)) + cq
        for e2, c2 in tg.items():
            e = tuple(a + b for a, b in zip(ee, e2))
            s = rem.get(e, Fraction(0)) - cq * c2
            if s:
                rem[e] = s
            else:
                rem.pop(e, None)
    return MultiPoly(vs, quo)


def poly_divides(g: MultiPoly, f: MultiPoly) -> bool:
    try:
        poly_exact_div(f, g)
        return True
    except ArithmeticError:
        return False


# -- gcd ---------------------------------------------------------------------


def _monic(p: MultiPoly) -> MultiPoly:
    if p.is_zero():
        return p
    lc = p.leading_coeff()
    return p if lc == 1 else p * (Fraction(1) / lc)


def _monomial_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    vs, tf, tg = f._align(g)
    mins_f = None
    for e in tf:
        mins_f = e if mins_f is None else tuple(map(min, mins_f, e))
    mins_g = None
    for e in tg:
        mins_g = e if mins_g is None else tuple(map(min, mins_g, e))
    e = tuple(map(min, mins_f, mins_g))
    return MultiPoly(vs, {e: Fraction(1)})


def _int_primitive(coeffs) -> tuple[int, list[int]]:
    """Clear the denominators of rational coefficients and divide out the
    content: ``(content, primitive integer list)``, content 0 for all zeros."""
    coeffs = list(coeffs)
    den = lcm(1, *(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    g = gcd(*ints)
    return g, ([v // g for v in ints] if g > 1 else ints)


def _primitive_poly(p: MultiPoly) -> MultiPoly:
    """``p`` scaled to integer coefficients with content 1."""
    _, ints = _int_primitive(p.terms.values())
    return MultiPoly(p.vars, dict(zip(p.terms, map(Fraction, ints))))


def _univar_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Primitive pseudo-remainder sequence over the integers.

    Keeps coefficients integral and content-reduced at each step, avoiding
    the blowup of naive rational Euclid.
    """
    name = (f.vars or g.vars)[0]

    def strip(x):
        while x and x[-1] == 0:
            x.pop()
        return x

    def prem(x, y):
        # pseudo-remainder: multiply through by lc(y) at each step
        x = x[:]
        dy = len(y) - 1
        lcy = y[-1]
        while strip(x) and len(x) - 1 >= dy:
            lead = x[-1]
            shift = len(x) - len(y)
            x = [lcy * v for v in x]
            for i, cy in enumerate(y):
                x[i + shift] -= lead * cy
            x.pop()
        return strip(x)

    a = strip(_int_primitive(f.coeff_list())[1])
    b = strip(_int_primitive(g.coeff_list())[1])
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _int_primitive(prem(a, b))[1]
    return _monic(MultiPoly.univariate(name, [Fraction(v) for v in a]))


def _to_univar(p: MultiPoly, name: str) -> dict[int, MultiPoly]:
    """View p as a univariate polynomial in `name` with MultiPoly coefficients."""
    i = p.vars.index(name)
    rest = p.vars[:i] + p.vars[i + 1:]
    out: dict[int, dict] = {}
    for e, c in p.terms.items():
        k = e[i]
        ee = e[:i] + e[i + 1:]
        out.setdefault(k, {})[ee] = c
    return {k: MultiPoly(rest, t) for k, t in out.items()}


def _from_univar(coeffs: dict[int, MultiPoly], name: str) -> MultiPoly:
    acc = MultiPoly.zero()
    x = MultiPoly.var(name)
    for k, c in coeffs.items():
        acc = acc + c * x ** k
    return acc


def _udeg(coeffs: dict[int, MultiPoly]) -> int:
    return max((k for k, c in coeffs.items() if not c.is_zero()), default=-1)


def _uclean(coeffs: dict[int, MultiPoly]) -> dict[int, MultiPoly]:
    return {k: c for k, c in coeffs.items() if not c.is_zero()}


def _prem(F: dict[int, MultiPoly], G: dict[int, MultiPoly]) -> dict[int, MultiPoly]:
    """Pseudo-remainder of F by G (univariate views, MultiPoly coefficients)."""
    F = dict(F)
    dG = _udeg(G)
    lcG = G[dG]
    dF = _udeg(F)
    while dF >= dG and dF >= 0:
        lcF = F[dF]
        shift = dF - dG
        newF: dict[int, MultiPoly] = {}
        for k, c in F.items():
            if k == dF:
                continue
            newF[k] = c * lcG
        for k, c in G.items():
            if k == dG:
                continue
            kk = k + shift
            newF[kk] = newF.get(kk, MultiPoly.zero()) - c * lcF
        F = _uclean(newF)
        newdF = _udeg(F)
        assert newdF < dF, "pseudo-division failed to reduce degree"
        dF = newdF
    return F


class _HeuristicFailed(Exception):
    pass


def _gcdheu(f: MultiPoly, g: MultiPoly, depth: int = 0):
    """Integer-polynomial gcd by evaluation at a big point (GCDHEU).

    Content-inclusive over Z[vars]; candidates are reconstructed from
    balanced base-xi digits and verified by trial division, so a returned
    value is always correct.  Raises _HeuristicFailed when the retries run
    out; callers fall back to the pseudo-remainder sequence.
    """
    if f.is_zero() or g.is_zero():
        return g if f.is_zero() else f
    content = gcd(_int_primitive(f.terms.values())[0], _int_primitive(g.terms.values())[0])
    if f.is_const() or g.is_const():
        return MultiPoly.const(content)
    if depth > 8:
        raise _HeuristicFailed
    vs = sorted(set(f.vars) | set(g.vars))
    main = vs[0]
    norm = max(
        max(abs(c) for c in f.terms.values()),
        max(abs(c) for c in g.terms.values()),
    )
    xi = 2 * int(norm) + 29
    dbound = min(f.degree_in(main), g.degree_in(main)) + 1
    for _ in range(6):
        fe = f.subs({main: Fraction(xi)})
        ge = g.subs({main: Fraction(xi)})
        h_e = _gcdheu(fe, ge, depth + 1)
        # reconstruct the main-variable dependence from balanced digits
        h = MultiPoly.zero()
        cur = h_e
        i = 0
        ok = True
        while not cur.is_zero():
            if i > dbound:
                ok = False
                break
            digit_terms = {}
            for e, c in cur.terms.items():
                r = int(c) % xi
                if r > xi // 2:
                    r -= xi
                if r:
                    digit_terms[e] = Fraction(r)
            digit = MultiPoly(cur.vars, dict(digit_terms))
            if not digit.is_zero():
                h = h + digit * MultiPoly.var(main) ** i
            cur = (cur - digit) * Fraction(1, xi)
            if any(c.denominator != 1 for c in cur.terms.values()):
                ok = False
                break
            i += 1
        if ok and not h.is_zero():
            h = _primitive_poly(h)
            if poly_divides(h, f) and poly_divides(h, g):
                return h * content
        xi = xi * 73794 // 27011
    raise _HeuristicFailed


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Monic gcd over Q[x1..xn] (returns 1 for coprime or constant inputs)."""
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
    def _mins(terms):
        out = None
        for e in terms:
            out = e if out is None else tuple(map(min, out, e))
        return out

    mins_f, mins_g = _mins(tf), _mins(tg)
    if any(mins_f) or any(mins_g):
        tf = {tuple(a - b for a, b in zip(e, mins_f)): c for e, c in tf.items()}
        tg = {tuple(a - b for a, b in zip(e, mins_g)): c for e, c in tg.items()}
        common = tuple(map(min, mins_f, mins_g))
        core = poly_gcd(MultiPoly(vs, tf), MultiPoly(vs, tg))
        if any(common):
            core = core * MultiPoly(vs, {common: Fraction(1)})
        return _monic(core)
    if len(vs) == 1:
        return _univar_gcd(MultiPoly(vs, tf), MultiPoly(vs, tg))
    # multivariate: primitive PRS in one variable
    fa, ga = MultiPoly(vs, tf), MultiPoly(vs, tg)
    # divisibility fast paths keep the common cases cheap
    if poly_divides(ga, fa):
        return _monic(ga)
    if poly_divides(fa, ga):
        return _monic(fa)
    # heuristic gcd first (verified by trial division, so always sound)
    try:
        return _monic(_gcdheu(_primitive_poly(fa), _primitive_poly(ga)))
    except _HeuristicFailed:
        pass
    # choose the main variable with the smallest degree bound
    main = min(
        (v for v in vs if fa.degree_in(v) or ga.degree_in(v)),
        key=lambda v: max(fa.degree_in(v), ga.degree_in(v)),
    )
    if fa.degree_in(main) == 0 or ga.degree_in(main) == 0:
        # main variable missing from one input; gcd divides its coefficients
        inner = fa if fa.degree_in(main) == 0 else ga
        outer = ga if inner is fa else fa
        cont = reduce(poly_gcd, _to_univar(outer, main).values())
        return _monic(poly_gcd(inner, cont))
    F = _to_univar(fa, main)
    G = _to_univar(ga, main)
    contF = reduce(poly_gcd, F.values())
    contG = reduce(poly_gcd, G.values())
    cont = poly_gcd(contF, contG)
    Fp = {k: poly_exact_div(c, contF) for k, c in F.items()}
    Gp = {k: poly_exact_div(c, contG) for k, c in G.items()}
    A, B = (Fp, Gp) if _udeg(Fp) >= _udeg(Gp) else (Gp, Fp)
    while True:
        R = _prem(A, B)
        if not R:
            break
        if _udeg(R) == 0:
            B = {0: MultiPoly.one()}
            break
        contR = reduce(poly_gcd, R.values())
        R = {k: poly_exact_div(c, contR) for k, c in R.items()}
        A, B = B, R
    pp = _from_univar(B, main)
    return _monic(pp * cont)


# -- rational functions -------------------------------------------------------


class RatFunc:
    """Quotient of two MultiPoly values, kept in a canonical reduced form.

    The stored pair has gcd 1 and the denominator's leading coefficient
    (graded lex) equal to 1, so ``==`` is structural and agrees with the
    cross-multiplication test.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = num if isinstance(num, MultiPoly) else MultiPoly.const(num)
        if den is None:
            den = MultiPoly.one()
        den = den if isinstance(den, MultiPoly) else MultiPoly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num = MultiPoly.zero()
            self.den = MultiPoly.one()
            return
        if not den.is_one():
            g = poly_gcd(num, den)
            if not g.is_one():
                num = poly_exact_div(num, g)
                den = poly_exact_div(den, g)
        lc = den.leading_coeff()
        if lc != 1:
            inv = Fraction(1) / lc
            num = num * inv
            den = den * inv
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value) -> "RatFunc":
        return cls(MultiPoly.const(value))

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(MultiPoly.zero())

    @classmethod
    def one(cls) -> "RatFunc":
        return cls(MultiPoly.one())

    @classmethod
    def var(cls, name: str) -> "RatFunc":
        return cls(MultiPoly.var(name))

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction, MultiPoly)):
            return cls(x if isinstance(x, MultiPoly) else MultiPoly.const(x))
        return None

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> Fraction:
        return self.num.const_value() / self.den.const_value()

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return RatFunc(self.num + o.num, self.den)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(RatFunc)
        out.num = -self.num
        out.den = self.den
        return out

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
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return RatFunc.one() / self ** (-n)
        out = object.__new__(RatFunc)
        out.num = self.num ** n
        out.den = self.den ** n
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    # -- substitution -----------------------------------------------------------

    def subs(self, mapping: dict) -> "RatFunc":
        num = self.num.subs(mapping)
        den = self.den.subs(mapping)
        num = num if isinstance(num, RatFunc) else RatFunc(num)
        den = den if isinstance(den, RatFunc) else RatFunc(den)
        return num / den

    # -- display ------------------------------------------------------------------

    def __str__(self):
        if self.den.is_one():
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


def _rational_roots(coeffs: list[Fraction]) -> tuple[list[Fraction], list[int]]:
    """Strip all rational roots (with multiplicity).

    Returns ``(roots, rest)``, ``rest`` the primitive integer model of what
    remains.  The search runs in integers: a root p/q of the primitive
    model f (lowest terms) has p | f(0) and q | lc(f); f(p/q) = 0 exactly
    when the homogeneous sum sum_i a_i p^i q^(n-i) vanishes; and then f
    deflates exactly by q x - p in Z[x], by Gauss's lemma.
    """
    _, f = _int_primitive(coeffs)
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
    coeffs = p.coeff_list()
    lc = coeffs[-1]
    roots, rest = _rational_roots(coeffs)
    factors = [MultiPoly.univariate(name, [-r, Fraction(1)]) for r in roots]
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
        factors.append(_monic(MultiPoly.univariate(name, quad)))
    if len(rest) > 1:
        factors.append(_monic(MultiPoly.univariate(name, rest)))
    factors.sort(key=lambda f: (f.total_degree(), f.coeff_list()))
    return lc, factors


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
