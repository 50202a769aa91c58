"""Association-scheme parameter algebra.

Everything here works on exact scalars.  The central objects:

* :class:`KreinTridiagonal` -- the arrays ``c*``, ``a*``, ``b*`` defining the
  first Krein matrix of a Q-polynomial ordering.
* :class:`KreinTensor` -- the full array ``q^k_ij`` together with the view
  matrices ``B0*..Bd*`` (``Bi*`` has ``(j,k)`` entry ``q^k_ij``); produced
  from a tridiagonal spec as ``Bi* = v_i*(B1*)``, the value polynomials of
  the three-term recurrence evaluated at ``B1*``.  The ladder runs the
  recurrence in monic form on rows with the array's denominators cleared
  once (ints over Q, polynomials over Q(x1, ..., xk)), three rows of one
  level per row of the next, O(d^3), and divides each level once.
  Polynomials in one variable x run as ints too, each packed as its value
  at x = 2^K for a K wide enough to read every coefficient back; in
  several variables as sparse maps from packed exponent vectors to ints.
  :func:`krein_column` runs it on one column, :func:`value_sequence` at a
  number or a polynomial variable.
* :class:`SchemeParams` -- eigenmatrices ``P``/``Q``, valencies,
  multiplicities and the order ``n``, with ``P Q = n I`` exactly.
* :class:`IntersectionTensor` -- the array ``p^k_ij``, computed from the
  eigenmatrices by two independent formulas that must agree.  Both run on
  every entry, on integer numerators over Q and Q(sqrt D), and are compared
  by cross-multiplying both integer components; ``P = n Q^-1`` comes from
  the fraction-free elimination of :mod:`asx.linalg`.  Column sums run on
  integer numerators too.

All operations are pure functions over immutable values; candidate loops
(ordering enumeration, feasibility checks) are order-independent and their
results are reported in a fixed deterministic order.
"""

from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    InconsistentEigenmatrices,
    InvalidPartition,
    InvariantViolation,
    RepeatedEigenvalue,
    UnsupportedAlgebraicDegree,
    WellDefinednessViolation,
)
from .linalg import Matrix
from .poly import (
    MultiPoly,
    RatFunc,
    PackedPoly,
    integer_terms,
    kronecker_pack,
    kronecker_unpack,
    monomial_pack,
    monomial_unpack,
    ratfuncs_over,
    roots_low_degree,
)
from .scalars import (
    QuadraticNumber,
    dot_parts,
    exact_sums,
    from_integer_parts,
    integer_parts,
    is_integer_scalar,
    times_parts,
)

# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


class KreinTridiagonal:
    """The tridiagonal data ``c1*..cd*``, ``a1*..ad*``, ``b0*..b(d-1)*``.

    Construction enforces ``c1* = 1`` and that every ``ci*`` and ``bi*`` is
    nonzero (these are the hard Q-polynomial requirements).  The column-sum
    identity (every column of ``B1*`` sums to ``b0* = m1``) holds for
    parameters of a genuine scheme but is deliberately *not* enforced here:
    feasibility checking reports it, and the symbolic derivation stages work
    with free entries.  Use :meth:`column_sums` to inspect it.
    """

    __slots__ = ("d", "c", "a", "b")

    def __init__(self, d: int, c, a, b):
        c, a, b = (
            tuple(Fraction(x) if isinstance(x, int) else x for x in xs) for xs in (c, a, b)
        )
        if d < 1:
            raise InvariantViolation(f"need d >= 1 classes, got d={d}")
        if len(c) != d or len(a) != d or len(b) != d:
            raise InvariantViolation(
                f"need d={d} values in each of c (c1..cd), a (a1..ad), b (b0..b(d-1))"
            )
        self.d = d
        self.c = c
        self.a = a
        self.b = b
        if c[0] != 1:
            raise InvariantViolation(f"c1* must be 1, got {c[0]}")
        for i, x in enumerate(c, start=1):
            if not x:
                raise InvariantViolation(f"(Q2) violated: c{i}* = 0")
        for i, x in enumerate(b):
            if not x:
                raise InvariantViolation(f"(Q2) violated: b{i}* = 0")

    def first_matrix(self) -> Matrix:
        """Assemble ``B1*`` ((d+1) x (d+1)): column k holds c_k*, a_k*, b_k*."""
        d = self.d
        rows = [[Fraction(0)] * (d + 1) for _ in range(d + 1)]
        for k in range(1, d + 1):
            rows[k - 1][k] = self.c[k - 1]
            rows[k][k] = self.a[k - 1]
        for k in range(0, d):
            rows[k + 1][k] = self.b[k]
        return Matrix(rows)

    def column_sums(self) -> tuple:
        """Column sums of ``B1*`` (equal to ``b0*`` for genuine parameters)."""
        return self.first_matrix().column_sums()

    def __eq__(self, other):
        if not isinstance(other, KreinTridiagonal):
            return NotImplemented
        return (self.d, self.c, self.a, self.b) == (other.d, other.c, other.a, other.b)

    def __repr__(self):
        return (
            f"KreinTridiagonal(d={self.d}, c=({', '.join(map(str, self.c))}), "
            f"a=({', '.join(map(str, self.a))}), "
            f"b=({', '.join(map(str, self.b))}))"
        )


class KreinTensor:
    """Structure constants ``x^k_ij`` stored as the matrices ``B0..Bd`` (``x^k_ij``
    is the ``(j, k)`` entry of ``Bi``): the Krein array ``q^k_ij`` of
    ``B0*..Bd*``, or the intersection numbers of :class:`IntersectionTensor`."""

    __slots__ = ("d", "mats")

    def __init__(self, mats):
        mats = tuple(mats)
        self.d = len(mats) - 1
        for m in mats:
            if m.nrows != self.d + 1 or m.ncols != self.d + 1:
                raise ValueError("structure-constant matrices must all be (d+1) x (d+1)")
        self.mats = mats

    def q(self, i: int, j: int, k: int):
        """The Krein parameter ``q^k_ij`` (``(j, k)`` entry of ``Bi*``)."""
        return self.mats[i][j, k]

    def multiplicities(self) -> tuple:
        """``m_i`` as the column sums of ``Bi*`` (column 0)."""
        return exact_sums(m.col(0) for m in self.mats)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.mats == other.mats

    def __repr__(self):
        return f"{type(self).__name__}(d={self.d})"


class IntersectionTensor(KreinTensor):
    """Full intersection array ``p^k_ij`` stored as the matrices ``B0..Bd``;
    ``valencies`` are the column sums of ``Bi`` (column 0)."""

    __slots__ = ()

    p = KreinTensor.q
    valencies = KreinTensor.multiplicities


class Ordering(NamedTuple("Ordering", [("sigma", tuple)])):
    """A permutation of {0..d} with sigma(0) = 0, as the sequence of images."""

    __slots__ = ()

    def __new__(cls, sigma: tuple[int, ...]):
        if not sigma or sorted(sigma) != list(range(len(sigma))) or sigma[0] != 0:
            raise InvariantViolation(f"not an ordering: {sigma}")
        return super().__new__(cls, sigma)

    @property
    def d(self) -> int:
        return len(self.sigma) - 1

    def __call__(self, i: int) -> int:
        return self.sigma[i]

    def is_identity(self) -> bool:
        return all(i == s for i, s in enumerate(self.sigma))

    def __str__(self):
        return "(" + ",".join(map(str, self.sigma)) + ")"


class FusionPartition(NamedTuple("FusionPartition", [("blocks", tuple)])):
    """Blocks ``T0..Te`` partitioning {0..d}, with ``T0 = {0}``."""

    __slots__ = ()

    def __new__(cls, blocks: tuple[tuple[int, ...], ...]):
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        if not blocks or blocks[0] != (0,):
            raise InvalidPartition("the first block must be exactly {0}")
        seen: list[int] = []
        for b in blocks:
            if not b:
                raise InvalidPartition("empty block")
            seen.extend(b)
        if sorted(seen) != list(range(len(seen))):
            raise InvalidPartition(f"blocks do not partition 0..{len(seen) - 1}: {blocks}")
        return super().__new__(cls, blocks)

    @classmethod
    def from_string(cls, text: str, d: int) -> "FusionPartition":
        """Parse ``"0|1,5|2,3|4"`` (leading block must be the lone 0)."""
        try:
            blocks = tuple(
                tuple(int(v) for v in part.split(",")) for part in text.split("|")
            )
        except ValueError as exc:
            raise InvalidPartition(f"cannot parse partition {text!r}") from exc
        p = cls(blocks)
        if sum(len(b) for b in p.blocks) != d + 1:
            raise InvalidPartition(f"partition {text!r} does not cover 0..{d}")
        return p

    def __str__(self):
        return "|".join(",".join(map(str, b)) for b in self.blocks)


class StructureType(Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"
    NONE = "none"


class SchemeParams(NamedTuple):
    """Eigenmatrices plus derived data for one parameter set; ``intersections``
    holds the intersection numbers when they are known already (counted by
    an oracle, or computed by :func:`intersection_tensor`)."""

    d: int
    n: Fraction
    multiplicities: tuple
    valencies: tuple
    Q: Matrix
    P: Matrix
    kreins: KreinTensor
    intersections: IntersectionTensor | None = None


class FeasibilityCheck(NamedTuple):
    name: str
    passed: bool
    witnesses: tuple[str, ...] = ()


class FeasibilityReport(NamedTuple):
    checks: tuple[FeasibilityCheck, ...]

    @property
    def feasible(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> FeasibilityCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            tag = "pass" if c.passed else "FAIL"
            line = f"[{tag}] {c.name}"
            if c.witnesses:
                line += ": " + "; ".join(c.witnesses)
            out.append(line)
        return out


# ---------------------------------------------------------------------------
# ladder and eigensystems
# ---------------------------------------------------------------------------


def _cleared_levels(spec: KreinTridiagonal, start: list):
    """Yield ``(P_i, delta^i c1*..ci*, packing)`` for ``1 <= i <= d``:
    ``P_i`` is a list of rows, ``P_i / (delta^i c1*..ci*) = Bi* S`` for the
    rows ``S`` of ``start``, whose entries are 0 and 1.

    ``P_i`` follows the monic recurrence of ``delta B1*``: ``P(i+1) =
    (delta B1* - delta a_i*) P_i - delta^2 b(i-1)* ci* P(i-1)``.  ``delta``
    is the lcm of all denominators over Q, so every ``P_i`` holds ints; of
    the polynomial denominators over Q(x1, ..., xk), so every ``P_i`` is
    polynomial and takes no gcd; 1 over Q(sqrt D).  ``B1*`` is tridiagonal,
    so row j of ``delta B1* P_i`` combines rows j-1, j and j+1 of ``P_i``:
    four products per entry, not d + 1.

    The cleared polynomial entries are scaled by the common denominator of
    their coefficients, and ``packing`` is ``(names, width)`` (else None),
    with ``names`` the sorted names of their variables.

    In one variable x each entry is packed as the int p(2^K) (Kronecker
    substitution), so the same int recurrence runs as over Q, and width is
    K.  Evaluation at 2^K is a ring map, so a packed ``P_i`` holds the
    values of the polynomial ``P_i`` there.  Width: let S = B + 2A + C + BC
    with A, B, C the largest coefficient 1-norm of a scaled a*, b*, c*.  An
    entry of ``P(i+1)`` adds four products whose 1-norms are at most B N_i,
    2A N_i, C N_i and BC N(i-1), with N_i the largest 1-norm in ``P_i``;
    N_0 = 1 and N(-1) = 0, so N_i <= S^i by induction, and the divisor's
    1-norm is at most C^i <= S^i.  Every coefficient up to level d is thus
    below S^d < 2^(d bitlen(S)), and K = d bitlen(S) + 2 makes each a
    balanced base-2^K digit, read back exactly by :func:`_divided`.

    In several variables (or none) each entry is a :class:`PackedPoly`, a
    sparse map from exponent vectors packed into one int, ``width`` bits
    per variable, to int coefficients.  Width: let D be the largest
    exponent of any variable in the scaled a*, b*, c*.  The steps to
    ``P(i+1)`` multiply by entries of a*, b*, c* and by the coupling
    b(i-1)* ci* of exponent at most 2D, so by induction every exponent in
    ``P_i`` and in its divisor is at most i D <= d D < 2^width with
    width = bitlen(d D): no sum of packed exponents carries into the next
    field.
    """
    d, c, a, b = spec.d, spec.c, spec.a, spec.b
    entries, packing, zero, one = None, None, 0, 1
    parts = integer_parts(c + a + b)
    if parts is None:  # over Q(x1, ..., xk)
        delta = Fraction(1)
        for x in c + a + b:
            if isinstance(x, RatFunc):
                # Henrici cancellation leaves exactly the part of x's
                # denominator that delta does not cover yet
                delta *= RatFunc((delta * x).den)
        if delta != 1:
            c, a, b = ([delta * x for x in xs] for xs in (c, a, b))
        if polys := integer_terms(c + a + b):
            names, terms = polys
            if len(names) == 1:
                lists = [[t.get((k,), 0) for k in range(max(t, default=(-1,))[0] + 1)]
                         for t in terms]
                norms = [sum(map(abs, p)) for p in lists]
                nc, na, nb = (max(norms[k:k + d]) for k in (0, d, 2 * d))
                width = d * (nb + 2 * na + nc + nb * nc).bit_length() + 2
                entries = [kronecker_pack(p, width) for p in lists]
            else:
                width = (d * max((k for t in terms for e in t for k in e), default=0)).bit_length()
                entries = [monomial_pack(t, width) for t in terms]
                zero, one = PackedPoly(), PackedPoly({0: 1})
                start = [[one if x else zero for x in r] for r in start]
            packing = names, width
    elif not parts[3]:  # over Q: int numerators over one delta
        entries = parts[0]
    if entries is not None:
        c, a, b = entries[:d], entries[d:2 * d], entries[2 * d:]
    # row j of delta B1* is lo[j], mid[j], hi[j] at columns j-1, j, j+1;
    # step i shifts by mid[i] (zero before P_1)
    lo, mid, hi = (zero, *b), (zero, *a), (*c, zero)
    coupling = (zero, *(x * y for x, y in zip(b, c)))
    blank = [zero] * len(start[0])
    prev, cur, div = [blank] * (d + 1), start, one
    for i in range(d):
        g, nxt = coupling[i], []
        for j in range(d + 1):
            l, s, h = lo[j], mid[j] - mid[i], hi[j]
            up = cur[j - 1] if j else blank
            down = cur[j + 1] if j < d else blank
            nxt.append([l * u + s * x + h * w - g * y
                        for u, x, w, y in zip(up, cur[j], down, prev[j])])
        prev, cur = cur, nxt
        div *= c[i]
        yield cur, div, packing


def _divided(p: list, div, packing) -> Matrix:
    """The matrix ``p / div``: one Fraction per entry for int rows; for
    packed rows each entry and ``div`` are unpacked once, and each quotient
    is a RatFunc in normal form, built from coefficient lists in one
    variable (:func:`ratfuncs_over`) and from MultiPolys in several."""
    if packing is not None:
        names, width = packing
        flat = [x for r in p for x in r]
        if len(names) == 1:
            flat = ratfuncs_over(names[0], [kronecker_unpack(x, width) for x in flat],
                                 kronecker_unpack(div, width))
        else:
            den = monomial_unpack(div, names, width)
            flat = [RatFunc(monomial_unpack(x, names, width), den) for x in flat]
        n = len(p[0])
        return Matrix([flat[k:k + n] for k in range(0, len(flat), n)])
    if isinstance(div, int):
        return Matrix([[Fraction(x, div) for x in r] for r in p])
    inv = 1 / div
    return Matrix([[x * inv for x in r] for r in p])


def krein_ladder(spec: KreinTridiagonal) -> KreinTensor:
    """``B0* = I`` and ``Bi* = v_i*(B1*)`` for ``1 <= i <= d``.

    In a Q-polynomial scheme every Krein matrix is the value polynomial of
    the first one (Bannai-Ito III.1; BCN 2.7), so the ladder is the
    three-term recurrence of ``B1*`` run at ``B1*``; the tensor is read off
    as ``q^k_ij = Bi*[j, k]``.  The recurrence runs on cleared numerators
    (see :func:`_cleared_levels`), O(d^3) in all, on ints over Q and over
    Q(x) with one variable x, on packed exponent vectors over Q(x1, ...,
    xk), and each level is divided once.
    """
    n = spec.d + 1
    start = [[int(j == k) for k in range(n)] for j in range(n)]
    levels = (_divided(*level) for level in _cleared_levels(spec, start))
    return KreinTensor([Matrix.identity(n), *levels])


def krein_column(spec: KreinTridiagonal, i: int, k: int) -> tuple:
    """Column ``k`` of ``Bi*``: the Krein parameters ``q^k_ij`` for
    ``j = 0..d``, equal to ``krein_ladder(spec).mats[i].col(k)``.

    The same cleared recurrence as :func:`krein_ladder`, started at the
    unit column ``e_k``, so each level costs O(d); only level i is divided.
    """
    d = spec.d
    if not (0 <= i <= d and 0 <= k <= d):
        raise IndexError(f"no column {k} of B{i}* for d = {d}")
    if not i:  # column k of B0* = I
        return tuple(Fraction(j == k) for j in range(d + 1))
    col = [[int(j == k)] for j in range(d + 1)]
    return _divided(*next(itertools.islice(_cleared_levels(spec, col), i - 1, None))).col(0)


def value_sequence(spec: KreinTridiagonal, x):
    """Yield ``v0..v(d+1)`` at ``x`` from the three-term recurrence
    ``x v_i = b(i-1) v(i-1) + a_i v_i + c(i+1) v(i+1)`` with ``c(d+1) := 1``.

    ``x`` may be an exact number, a RatFunc, a MultiPoly variable (which
    gives the value polynomials) or a Matrix (``v0 = 1`` then stands for
    the identity).  ``v(d+1)`` annihilates the tridiagonal matrix, so its
    zeros are the eigenvalues.  Each value is computed only when asked for.
    """
    d, c, a, b = spec.d, spec.c, spec.a, spec.b
    prev, cur = Fraction(1), x
    yield prev
    for i in range(1, d + 1):
        yield cur
        nxt = (x - a[i - 1]) * cur - b[i - 1] * prev
        prev, cur = cur, (nxt / c[i] if i < d else nxt)
    yield cur


def dual_eigensystem(spec: KreinTridiagonal):
    """Dual eigenvalues and the second eigenmatrix ``Q`` from ``B1*``.

    The annihilator's d+1 roots are the dual eigenvalues; ``Q[j, i] =
    v_i*(theta_j)`` with ``theta_0 = b0* (= m1)`` first and the rest in
    descending exact order, quadratic conjugates adjacent (larger first).
    Roots in two different quadratic fields raise UnsupportedAlgebraicDegree.
    """
    if not all(isinstance(x, Fraction) for x in spec.c + spec.a + spec.b):
        raise InvariantViolation("dual eigensystem needs rational tridiagonal entries")
    *_, annihilator = value_sequence(spec, MultiPoly.var("x"))
    roots = roots_low_degree(annihilator)
    if len(set(roots)) != len(roots):
        raise RepeatedEigenvalue(f"annihilator {annihilator} has a repeated root")
    if len(roots) != spec.d + 1:
        raise RepeatedEigenvalue("annihilator degree does not match class count")
    b0 = Fraction(spec.b[0])
    if b0 not in roots:
        raise InvariantViolation(
            f"b0* = {b0} is not a dual eigenvalue; column sums are not constant"
        )
    fields = sorted({r.radicand for r in roots if isinstance(r, QuadraticNumber)})
    if len(fields) > 1:
        raise UnsupportedAlgebraicDegree(
            f"dual eigenvalues lie in {' and '.join(f'Q(sqrt {f})' for f in fields)}, "
            "not in one quadratic field"
        )
    # each conjugate pair is placed by its larger member, then by its own value
    rest = sorted(
        (r for r in roots if r != b0),
        key=lambda r: (max(r, r.conjugate()) if isinstance(r, QuadraticNumber) else r, r),
        reverse=True,
    )
    thetas = [b0] + rest
    q_rows = [list(itertools.islice(value_sequence(spec, t), spec.d + 1)) for t in thetas]
    return tuple(thetas), Matrix(q_rows)


def first_eigenmatrix(Q: Matrix, n) -> Matrix:
    """``P = n * Q^{-1}``; ``P Q = n I`` and the top row of P is the valencies."""
    top = sum(Q.row(0), Fraction(0))
    if top != n:
        raise InvariantViolation(
            f"n = {n} does not match the top-row sum {top} of Q"
        )
    return Q.inverse().scale(n)


def scheme_params(spec: KreinTridiagonal) -> SchemeParams:
    """Full parameter set (Q, P, multiplicities, valencies, Krein tensor)."""
    _, Q = dual_eigensystem(spec)
    mults = Q.row(0)
    n = sum(mults, Fraction(0))
    P = first_eigenmatrix(Q, n)
    valencies = P.row(0)
    return SchemeParams(
        d=spec.d,
        n=n,
        multiplicities=mults,
        valencies=valencies,
        Q=Q,
        P=P,
        kreins=krein_ladder(spec),
    )


def triple_sums(rows, weights, radicand: int = 0):
    """``t[i][j][k] = sum_u w_u r_u[i] r_u[j] r_u[k]`` over equal-length rows
    of exact numbers in one field, Q or Q(sqrt D), as integer pairs.

    Returns ``(t, L, D)`` with ``t[i][j][k] = (A, B)``, the value
    ``(A + B sqrt D)/L`` over one common ``L``; ``D`` is the radicand of the
    inputs, else ``radicand``, and 0 over Q
    (:func:`~asx.scalars.integer_parts`).  The weighted pair products
    ``w_u r_u[i] r_u[j]`` are formed once per ``(i, j, u)``; every entry is a
    full sum (none is filled in by symmetry).
    """
    n = len(rows[0])
    wa, wb, wden, rad = integer_parts(weights, radicand)
    ra, rb, rden, rad = integer_parts([x for r in rows for x in r], rad)
    cols = [(ra[i::n], rb[i::n]) for i in range(n)]  # r_u[i] over u
    out = []
    for ia, ib in cols:
        wi = times_parts(wa, wb, ia, ib, rad)
        plane = []
        for ja, jb in cols:
            wij = times_parts(*wi, ja, jb, rad)
            plane.append([dot_parts(*wij, ka, kb, rad) for ka, kb in cols])
        out.append(plane)
    return out, wden * rden ** 3, rad


def intersection_tensor(params: SchemeParams) -> IntersectionTensor:
    """``p^k_ij`` from the eigenmatrices, cross-checked by two formulas.

    Primary:  p^k_ij = (1 / (n k_k)) sum_u m_u p_i(u) p_j(u) p_k(u)
    Dual:     p^k_ij = (k_i k_j / n) sum_u q_u(i) q_u(j) q_u(k) / m_u^2

    Both are evaluated exactly on every entry and must agree.  They run on
    integer pairs (:func:`triple_sums`): each side is a pair ``(A, B)`` over
    its own denominator, the two are compared by cross-multiplying both
    components, and each ``p^k_ij`` is rebuilt once.
    """
    d, n = params.d, params.n
    P, Q = params.P, params.Q
    m, k = params.multiplicities, params.valencies
    if not all(k):
        raise InvariantViolation("zero valency")
    if not all(m):
        raise InvariantViolation("zero multiplicity")
    rng = range(d + 1)
    primary, den1, rad = triple_sums([P.row(u) for u in rng], m)
    dual, den2, rad = triple_sums([Q.col(u) for u in rng], [1 / (mu * mu) for mu in m], rad)
    ca, cb, lc, rad = integer_parts([1 / (n * kk) for kk in k], rad)
    ea, eb, le, rad = integer_parts([ki * kj / n for ki in k for kj in k], rad)
    # v1 = primary * c_k / (den1 lc) and v2 = dual * e_ij / (den2 le), both
    # brought over den = den1 lc den2 le
    s1, s2 = den2 * le, den1 * lc
    den = s1 * s2
    c = [(x * s1, y * s1) for x, y in zip(ca, cb)]
    p = [[[None] * (d + 1) for _ in rng] for _ in rng]
    for i in rng:
        for j in rng:
            ua, ub = ea[i * (d + 1) + j] * s2, eb[i * (d + 1) + j] * s2
            for kk in rng:
                (a1, b1), (xa, xb), (a2, b2) = primary[i][j][kk], c[kk], dual[i][j][kk]
                v1 = a1 * xa + rad * b1 * xb, a1 * xb + b1 * xa
                v2 = a2 * ua + rad * b2 * ub, a2 * ub + b2 * ua
                if v1 != v2:
                    raise InconsistentEigenmatrices(
                        f"p^{kk}_{{{i},{j}}}: {from_integer_parts(*v1, den, rad)} (eigen form) "
                        f"vs {from_integer_parts(*v2, den, rad)} (dual form)"
                    )
                p[i][j][kk] = from_integer_parts(*v1, den, rad)
    return IntersectionTensor(map(Matrix, p))


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------


def _is_nonneg_integer(x) -> bool:
    return is_integer_scalar(x) and x >= 0


def _has_no_negative_sign(x) -> bool:
    """Symbolic entries have no sign and pass."""
    return isinstance(x, RatFunc) or x >= 0


def _entry_check(name: str, tensor: KreinTensor, sym: str, ok) -> FeasibilityCheck:
    """Every entry ``x^k_ij`` of ``tensor`` passes ``ok``; each failure is
    witnessed as ``sym^k_{i,j} = value``."""
    rng = range(tensor.d + 1)
    bad = []
    for i in rng:
        for j in rng:
            for k in rng:
                v = tensor.q(i, j, k)
                if not ok(v):
                    bad.append(f"{sym}^{k}_{{{i},{j}}} = {v}")
    return FeasibilityCheck(name, not bad, tuple(bad))


def _positive_integer_check(name: str, values, sym: str) -> FeasibilityCheck:
    """Every ``values[i]`` is a positive integer; failures read ``sym_i = value``."""
    bad = [
        f"{sym}_{i} = {v}"
        for i, v in enumerate(values)
        if not (is_integer_scalar(v) and v > 0)
    ]
    return FeasibilityCheck(name, not bad, tuple(bad))


def _column_sum_check(name: str, tensor, totals, sym: str, total: str) -> FeasibilityCheck:
    """Every column of every ``Bi`` of ``tensor`` sums to ``totals[i]``."""
    bad = []
    for i, (mat, total_i) in enumerate(zip(tensor.mats, totals)):
        for k, s in enumerate(mat.column_sums()):
            if s != total_i:
                bad.append(f"sum_j {sym}^{k}_{{{i},j}} = {s} != {total}_{i}")
    return FeasibilityCheck(name, not bad, tuple(bad))


def _krein_checks(tensor: KreinTensor, mults) -> tuple[FeasibilityCheck, FeasibilityCheck]:
    """Krein nonnegativity and the column sums of every ``Bi*`` against ``mults``."""
    return (
        _entry_check("krein-nonnegativity", tensor, "q", _has_no_negative_sign),
        _column_sum_check("krein-column-sums", tensor, mults, "q", "m"),
    )


def feasibility_report(params: SchemeParams) -> FeasibilityReport:
    """Run the standard feasibility battery; failures are report content.

    Checks, in order: Krein nonnegativity, multiplicity integrality, valency
    integrality, intersection-number integrality, the Krein column sums and
    the intersection column sums, whether or not the two intersection
    formulas agree.  Every check always runs and every failure is witnessed
    (indices and exact value).
    """
    nonneg, krein_sums = _krein_checks(params.kreins, params.multiplicities)
    try:
        inter = params.intersections or intersection_tensor(params)
    except InconsistentEigenmatrices as exc:
        disagree = (f"formulas disagree: {exc}",)
        integrality = FeasibilityCheck("intersection-integrality", False, disagree)
        inter_sums = FeasibilityCheck("intersection-column-sums", False, disagree)
    else:
        integrality = _entry_check("intersection-integrality", inter, "p", _is_nonneg_integer)
        inter_sums = _column_sum_check("intersection-column-sums", inter, params.valencies, "p", "k")
    return FeasibilityReport((
        nonneg,
        _positive_integer_check("multiplicity-integrality", params.multiplicities, "m"),
        _positive_integer_check("valency-integrality", params.valencies, "k"),
        integrality,
        krein_sums,
        inter_sums,
    ))


def tensor_checks(tensor: KreinTensor) -> FeasibilityReport:
    """Reduced battery for a bare Krein tensor (no eigensystem needed):
    nonnegativity and self-consistent column sums."""
    return FeasibilityReport(_krein_checks(tensor, tensor.multiplicities()))


# ---------------------------------------------------------------------------
# orderings
# ---------------------------------------------------------------------------


@lru_cache
def q_positions(d: int) -> tuple[tuple[int, int, int, bool], ...]:
    """The entries ``(i, j, k, must_vanish)`` that (Q1)/(Q2) constrain, in
    index order: ``q^k_ij`` must vanish when the largest index exceeds the
    sum of the other two (Q1), and must not vanish when it equals it (Q2)."""
    out = []
    for i, j, k in itertools.product(range(d + 1), repeat=3):
        hi = max(i, j, k)
        rest = i + j + k - hi
        if hi >= rest:
            out.append((i, j, k, hi > rest))
    return tuple(out)


def q_condition_failure(tensor: KreinTensor, seq: tuple) -> tuple[int, int, int, bool] | None:
    """The first position ``(i, j, k, must_vanish)`` of :func:`q_positions`
    where the relabeling ``q-hat^k_ij = q^{seq[k]}_{seq[i] seq[j]}`` breaks
    (Q1)/(Q2), or None when it satisfies both."""
    q = tensor.q
    for i, j, k, vanish in q_positions(tensor.d):
        if (not q(seq[i], seq[j], seq[k])) != vanish:
            return i, j, k, vanish
    return None


def enumerate_q_orderings(tensor: KreinTensor) -> list[Ordering]:
    """All orderings (sigma(0)=0) whose relabeled tensor satisfies (Q1)/(Q2).

    In a Q-polynomial ordering E0, E_s1, ..., E_sd the product
    E_s1 o E_sj lies in the span of E_s(j-1), E_sj and E_s(j+1), with a
    nonzero E_s(j+1) coefficient (Bannai-Ito; BCN 2.7).  So s1 forces the
    rest: the next index is the only unused k with q^k_{s1, seq[-1]} != 0,
    and a sequence stops when there is no such k or more than one.  Each of
    the at most d full sequences is then checked against (Q1)/(Q2), which
    makes O(d^4) work in all and no bound on d.  The result is sorted,
    because sigma(1) = s1 increases.
    """
    d, q = tensor.d, tensor.q
    found = []
    for s1 in range(1, d + 1):
        seq = [0, s1]
        while len(seq) <= d:
            nxt = [
                k
                for k in range(1, d + 1)
                if k not in seq and q(s1, seq[-1], k)
            ]
            if len(nxt) != 1:
                break
            seq.append(nxt[0])
        if len(seq) == d + 1 and q_condition_failure(tensor, tuple(seq)) is None:
            found.append(Ordering(tuple(seq)))
    return found


def _zigzag(hi: int, lo: int, step: int, count: int) -> list[int]:
    """``count`` values taken alternately from the top and the bottom:
    ``hi, lo, hi - step, lo + step, hi - 2 step, ...``."""
    return [hi - n // 2 * step if n % 2 == 0 else lo + n // 2 * step for n in range(count)]


def _pattern_sequences(d: int) -> dict[StructureType, tuple[int, ...]]:
    """Candidate second-ordering patterns; invalid instantiations are dropped."""
    cands: dict[StructureType, list[int]] = {}
    evens = list(range(0, d + 1, 2))
    odds = list(range(d if d % 2 else d - 1, 0, -2))
    cands[StructureType.I] = evens + odds

    cands[StructureType.II] = [0] + _zigzag(d, 1, 1, d)
    cands[StructureType.III] = [0] + _zigzag(d, 2, 2, d)
    cands[StructureType.IV] = [0] + _zigzag(d - 1, 2, 2, d - 1) + [d]

    if d == 5:
        cands[StructureType.V] = [0, 5, 3, 2, 4, 1]

    out = {}
    for t, s in cands.items():
        if sorted(s) == list(range(d + 1)):
            out[t] = tuple(s)
    return out


def classify_structure_pair(ordering: Ordering) -> StructureType:
    """Match an ordering against the known second-structure patterns."""
    if ordering.is_identity():
        return StructureType.NONE
    for t, seq in _pattern_sequences(ordering.d).items():
        if ordering.sigma == seq:
            return t
    return StructureType.NONE


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------


def fuse(tensor: KreinTensor, partition: FusionPartition) -> KreinTensor:
    """Merge idempotent classes along a partition.

    ``s^k_ij = sum_{alpha in T_i, beta in T_j} q^gamma_{alpha beta}`` must be
    independent of the representative ``gamma in T_k``
    (WellDefinednessViolation otherwise).  Returns the fused tensor.  Its
    multiplicities are the block sums of the tensor's: ``T0 = {0}``, so
    column 0 of ``Ci*`` adds up column 0 of every ``B_alpha*``, alpha in Ti.
    """
    blocks = partition.blocks
    covered = sum(map(len, blocks))
    if covered != tensor.d + 1:
        raise InvalidPartition(f"partition covers {covered} classes, tensor has {tensor.d + 1}")

    def entry(i: int, j: int, k: int):
        sums = [sum((tensor.q(a, b, g) for a in blocks[i] for b in blocks[j]), Fraction(0))
                for g in blocks[k]]
        for g, s in zip(blocks[k], sums):
            if s != sums[0]:
                raise WellDefinednessViolation(
                    f"s^{k}_{{{i},{j}}}: gamma={blocks[k][0]} gives {sums[0]}, "
                    f"gamma={g} gives {s}"
                )
        return sums[0]

    rng = range(len(blocks))
    return KreinTensor(
        Matrix([[entry(i, j, k) for k in rng] for j in rng]) for i in rng
    )


def tridiagonal_from_tensor(tensor: KreinTensor) -> KreinTridiagonal:
    """Read the ``c*/a*/b*`` arrays off ``B1*``; the matrix must be tridiagonal."""
    d = tensor.d
    b1 = tensor.mats[min(d, 1)]  # d = 0 has no B1*; KreinTridiagonal rejects it
    for j in range(d + 1):
        for k in range(d + 1):
            if abs(j - k) > 1 and b1[j, k]:
                raise InvariantViolation(
                    f"B1* is not tridiagonal: entry ({j},{k}) = {b1[j, k]}"
                )
    c = tuple(b1[k - 1, k] for k in range(1, d + 1))
    a = tuple(b1[k, k] for k in range(1, d + 1))
    b = tuple(b1[k + 1, k] for k in range(0, d))
    return KreinTridiagonal(d, c, a, b)
