"""Association-scheme parameter algebra.

Everything here works on exact scalars.  The central objects:

* :class:`KreinTridiagonal` -- the arrays ``c*``, ``a*``, ``b*`` defining the
  first Krein matrix of a Q-polynomial ordering.
* :class:`KreinTensor` -- the full array ``q^k_ij`` together with the view
  matrices ``B0*..Bd*`` (``Bi*`` has ``(j,k)`` entry ``q^k_ij``); produced
  from a tridiagonal spec by the three-term ladder recurrence.
* :class:`SchemeParams` -- eigenmatrices ``P``/``Q``, valencies,
  multiplicities and the order ``n``, with ``P Q = n I`` exactly.
* :class:`IntersectionTensor` -- the array ``p^k_ij``, computed from the
  eigenmatrices by two independent formulas that must agree.

All operations are pure functions over immutable values; candidate loops
(ordering enumeration, feasibility checks) are order-independent and their
results are reported in a fixed deterministic order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .errors import (
    InconsistentEigenmatrices,
    InvalidPartition,
    InvariantViolation,
    RepeatedEigenvalue,
    WellDefinednessViolation,
)
from .linalg import Matrix, scalar_is_zero
from .poly import MultiPoly, RatFunc, roots_low_degree
from .scalars import (
    QuadraticNumber,
    as_exact,
    format_scalar,
    is_integer_scalar,
    scalar_sign,
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
        c, a, b = (tuple(map(as_exact, xs)) for xs in (c, a, b))
        if len(c) != d or len(a) != d or len(b) != d:
            raise InvariantViolation(
                f"need d={d} values in each of c (c1..cd), a (a1..ad), b (b0..b(d-1))"
            )
        self.d = d
        self.c = c
        self.a = a
        self.b = b
        if c[0] != 1:
            raise InvariantViolation(f"c1* must be 1, got {format_scalar(c[0])}")
        for i, x in enumerate(c, start=1):
            if scalar_is_zero(x):
                raise InvariantViolation(f"(Q2) violated: c{i}* = 0")
        for i, x in enumerate(b):
            if scalar_is_zero(x):
                raise InvariantViolation(f"(Q2) violated: b{i}* = 0")

    @property
    def b0(self):
        """``b0* = m1``, the rank of the first idempotent."""
        return self.b[0]

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
        m = self.first_matrix()
        return tuple(sum(m.col(k), Fraction(0)) for k in range(self.d + 1))

    def __eq__(self, other):
        if not isinstance(other, KreinTridiagonal):
            return NotImplemented
        return (self.d, self.c, self.a, self.b) == (other.d, other.c, other.a, other.b)

    def __repr__(self):
        return (
            f"KreinTridiagonal(d={self.d}, c=({', '.join(format_scalar(x) for x in self.c)}), "
            f"a=({', '.join(format_scalar(x) for x in self.a)}), "
            f"b=({', '.join(format_scalar(x) for x in self.b)}))"
        )


class KreinTensor:
    """Full Krein array ``q^k_ij`` stored as the matrices ``B0*..Bd*``."""

    __slots__ = ("d", "mats")

    def __init__(self, mats):
        mats = tuple(mats)
        self.d = len(mats) - 1
        for m in mats:
            if m.nrows != self.d + 1 or m.ncols != self.d + 1:
                raise ValueError("Krein matrices must all be (d+1) x (d+1)")
        self.mats = mats

    def q(self, i: int, j: int, k: int):
        """The Krein parameter ``q^k_ij`` (``(j, k)`` entry of ``Bi*``)."""
        return self.mats[i][j, k]

    def multiplicities(self) -> tuple:
        """``m_i`` as the column sums of ``Bi*`` (column 0)."""
        return tuple(
            sum((self.mats[i][j, 0] for j in range(self.d + 1)), Fraction(0))
            for i in range(self.d + 1)
        )

    def __eq__(self, other):
        if not isinstance(other, KreinTensor):
            return NotImplemented
        return self.d == other.d and all(a == b for a, b in zip(self.mats, other.mats))

    def __repr__(self):
        return f"KreinTensor(d={self.d})"


class IntersectionTensor:
    """Full intersection array ``p^k_ij`` stored as the matrices ``B0..Bd``."""

    __slots__ = ("d", "mats")

    def __init__(self, mats):
        mats = tuple(mats)
        self.d = len(mats) - 1
        self.mats = mats

    def p(self, i: int, j: int, k: int):
        return self.mats[i][j, k]

    def valencies(self) -> tuple:
        """``k_i`` as the column sums of ``Bi`` (column 0)."""
        return tuple(
            sum((self.mats[i][j, 0] for j in range(self.d + 1)), Fraction(0))
            for i in range(self.d + 1)
        )

    def __eq__(self, other):
        if not isinstance(other, IntersectionTensor):
            return NotImplemented
        return self.d == other.d and all(a == b for a, b in zip(self.mats, other.mats))

    def __repr__(self):
        return f"IntersectionTensor(d={self.d})"


@dataclass(frozen=True)
class Ordering:
    """A permutation of {0..d} with sigma(0) = 0, as the sequence of images."""

    sigma: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.sigma) != list(range(len(self.sigma))) or self.sigma[0] != 0:
            raise InvariantViolation(f"not an ordering: {self.sigma}")

    @property
    def d(self) -> int:
        return len(self.sigma) - 1

    def __call__(self, i: int) -> int:
        return self.sigma[i]

    def inverse(self) -> "Ordering":
        inv = [0] * len(self.sigma)
        for i, s in enumerate(self.sigma):
            inv[s] = i
        return Ordering(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == s for i, s in enumerate(self.sigma))

    def __str__(self):
        return "(" + ",".join(map(str, self.sigma)) + ")"


@dataclass(frozen=True)
class FusionPartition:
    """Blocks ``T0..Te`` partitioning {0..d}, with ``T0 = {0}``."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(sorted(b)) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks or blocks[0] != (0,):
            raise InvalidPartition("the first block must be exactly {0}")
        seen: list[int] = []
        for b in blocks:
            if not b:
                raise InvalidPartition("empty block")
            seen.extend(b)
        if sorted(seen) != list(range(len(seen))):
            raise InvalidPartition(f"blocks do not partition 0..{len(seen) - 1}: {blocks}")

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

    @classmethod
    def singletons(cls, d: int) -> "FusionPartition":
        return cls(tuple((i,) for i in range(d + 1)))

    @property
    def e(self) -> int:
        return len(self.blocks) - 1

    def __str__(self):
        return "|".join(",".join(map(str, b)) for b in self.blocks)


class StructureType(Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"
    NONE = "none"


@dataclass
class SchemeParams:
    """Eigenmatrices plus derived data for one parameter set."""

    d: int
    n: Fraction
    multiplicities: tuple
    valencies: tuple
    Q: Matrix
    P: Matrix
    kreins: KreinTensor
    intersections: IntersectionTensor | None = None


@dataclass(frozen=True)
class FeasibilityCheck:
    name: str
    passed: bool
    witnesses: tuple[str, ...] = ()


@dataclass(frozen=True)
class FeasibilityReport:
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


def krein_ladder(spec: KreinTridiagonal) -> KreinTensor:
    """Generate ``B0*..Bd*`` from the three-term recurrence.

    ``B0* = I`` and ``Bi* = (B1* B(i-1)* - a(i-1)* B(i-1)* - b(i-2)* B(i-2)*) / ci*``
    for ``2 <= i <= d``; the tensor is read off as ``q^k_ij = Bi*[j, k]``.
    """
    d = spec.d
    mats = [Matrix.identity(d + 1), spec.first_matrix()]
    for i in range(2, d + 1):
        b1, prev, prev2 = mats[1], mats[i - 1], mats[i - 2]
        a_im1 = spec.a[i - 2]  # a_{i-1}*
        b_im2 = spec.b[i - 2]  # b_{i-2}*
        num = (b1 * prev) - prev.scale(a_im1) - prev2.scale(b_im2)
        mats.append(num.scale(1 / spec.c[i - 1]))
    return KreinTensor(mats)


def value_sequence(spec: KreinTridiagonal, x) -> list:
    """``v0..v(d+1)`` at ``x`` from the three-term recurrence
    ``x v_i = b(i-1) v(i-1) + a_i v_i + c(i+1) v(i+1)`` with ``c(d+1) := 1``.

    ``x`` may be an exact number, a RatFunc, or a MultiPoly variable (which
    gives the value polynomials).  ``v(d+1)`` annihilates the tridiagonal
    matrix, so its zeros are the eigenvalues.
    """
    d, c, a, b = spec.d, spec.c, spec.a, spec.b
    vals = [Fraction(1), x]
    for i in range(1, d + 1):
        nxt = (x - a[i - 1]) * vals[i] - b[i - 1] * vals[i - 1]
        vals.append(nxt / c[i] if i < d else nxt)
    return vals


def _conjugate_grouped_desc(values: list) -> list:
    """Sort exact reals descending, keeping quadratic conjugates adjacent
    (larger first); groups are ordered by their larger member."""
    remaining = list(values)
    groups = []
    while remaining:
        r = remaining.pop(0)
        if isinstance(r, QuadraticNumber) and not r.is_rational:
            conj = r.conjugate()
            if conj in remaining:
                remaining.remove(conj)
                pair = sorted([r, conj], reverse=True)
                groups.append(pair)
                continue
        groups.append([r])
    groups.sort(key=lambda g: g[0], reverse=True)
    return [v for g in groups for v in g]


def dual_eigensystem(spec: KreinTridiagonal):
    """Dual eigenvalues and the second eigenmatrix ``Q`` from ``B1*``.

    The annihilator's d+1 roots are the dual eigenvalues; ``Q[j, i] =
    v_i*(theta_j)`` with ``theta_0 = b0* (= m1)`` first and the rest in
    descending exact order, quadratic conjugates adjacent (larger first).
    """
    if not all(isinstance(x, Fraction) for x in spec.c + spec.a + spec.b):
        raise InvariantViolation("dual eigensystem needs rational tridiagonal entries")
    annihilator = value_sequence(spec, MultiPoly.var("x"))[-1]
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
    rest = [r for r in roots if r != b0]
    thetas = [b0] + _conjugate_grouped_desc(rest)
    q_rows = [[as_exact(v) for v in value_sequence(spec, t)[:-1]] for t in thetas]
    return tuple(thetas), Matrix(q_rows)


def first_eigenmatrix(Q: Matrix, n) -> Matrix:
    """``P = n * Q^{-1}``; ``P Q = n I`` and the top row of P is the valencies."""
    top = sum(Q.row(0), Fraction(0))
    if top != n:
        raise InvariantViolation(
            f"n = {format_scalar(n)} does not match the top-row sum {format_scalar(top)} of Q"
        )
    return Q.inverse().scale(n)


def scheme_params(spec: KreinTridiagonal) -> SchemeParams:
    """Full parameter set (Q, P, multiplicities, valencies, Krein tensor)."""
    _, Q = dual_eigensystem(spec)
    mults = tuple(as_exact(x) for x in Q.row(0))
    n = sum(mults, Fraction(0))
    P = first_eigenmatrix(Q, n)
    valencies = tuple(as_exact(x) for x in P.row(0))
    return SchemeParams(
        d=spec.d,
        n=n,
        multiplicities=mults,
        valencies=valencies,
        Q=Q,
        P=P,
        kreins=krein_ladder(spec),
    )


def triple_sums(rows, weights) -> list:
    """``t[i][j][k] = sum_u w_u r_u[i] r_u[j] r_u[k]`` over equal-length rows.

    The weighted pair products ``w_u r_u[i] r_u[j]`` are formed once per
    ``(i, j, u)``; every entry is a full sum (none is filled in by symmetry).
    """
    rng = range(len(rows[0]))
    out = []
    for i in rng:
        wi = [w * r[i] for w, r in zip(weights, rows)]
        plane = []
        for j in rng:
            wij = [x * r[j] for x, r in zip(wi, rows)]
            plane.append([sum((x * r[k] for x, r in zip(wij, rows)), Fraction(0)) for k in rng])
        out.append(plane)
    return out


def intersection_tensor(params: SchemeParams) -> IntersectionTensor:
    """``p^k_ij`` from the eigenmatrices, cross-checked by two formulas.

    Primary:  p^k_ij = (1 / (n k_k)) sum_u m_u p_i(u) p_j(u) p_k(u)
    Dual:     p^k_ij = (k_i k_j / n) sum_u q_u(i) q_u(j) q_u(k) / m_u^2

    Both are evaluated exactly and must agree entrywise.
    """
    d, n = params.d, params.n
    P, Q = params.P, params.Q
    m, k = params.multiplicities, params.valencies
    if any(scalar_is_zero(x) for x in k):
        raise InvariantViolation("zero valency")
    if any(scalar_is_zero(x) for x in m):
        raise InvariantViolation("zero multiplicity")
    rng = range(d + 1)
    primary = triple_sums([P.row(u) for u in rng], m)
    dual = triple_sums([Q.col(u) for u in rng], [1 / (mu * mu) for mu in m])
    p = [[[None] * (d + 1) for _ in rng] for _ in rng]
    for i in rng:
        for j in rng:
            for kk in rng:
                v1 = as_exact(primary[i][j][kk] / (n * k[kk]))
                v2 = as_exact(dual[i][j][kk] * k[i] * k[j] / n)
                if v1 != v2:
                    raise InconsistentEigenmatrices(
                        f"p^{kk}_{{{i},{j}}}: {format_scalar(v1)} (eigen form) vs {format_scalar(v2)} (dual form)"
                    )
                p[i][j][kk] = v1
    mats = [Matrix([[p[i][j][kk] for kk in rng] for j in rng]) for i in rng]
    tensor = IntersectionTensor(mats)
    if params.intersections is None:
        params.intersections = tensor
    return tensor


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------


def _is_positive_integer(x) -> bool:
    return is_integer_scalar(x) and scalar_sign(as_exact(x)) > 0


def _is_nonneg_integer(x) -> bool:
    return is_integer_scalar(x) and scalar_sign(as_exact(x)) >= 0


def _column_sum_check(name: str, entry, totals, sym: str, total: str) -> FeasibilityCheck:
    """Every column of every ``B_i`` (entries ``entry(i, j, k)``) sums to ``totals[i]``."""
    rng = range(len(totals))
    bad = []
    for i in rng:
        for k in rng:
            s = sum((entry(i, j, k) for j in rng), Fraction(0))
            if s != totals[i]:
                bad.append(f"sum_j {sym}^{k}_{{{i},j}} = {format_scalar(s)} != {total}_{i}")
    return FeasibilityCheck(name, not bad, tuple(bad))


def _krein_checks(tensor: KreinTensor, mults) -> tuple[FeasibilityCheck, FeasibilityCheck]:
    """Krein nonnegativity (symbolic entries have no sign and are skipped)
    and the column sums of every ``Bi*`` against ``mults``."""
    rng = range(tensor.d + 1)
    bad = []
    for i in rng:
        for j in rng:
            for k in rng:
                v = tensor.q(i, j, k)
                if not isinstance(v, (RatFunc, MultiPoly)) and scalar_sign(v) < 0:
                    bad.append(f"q^{k}_{{{i},{j}}} = {format_scalar(v)}")
    nonneg = FeasibilityCheck("krein-nonnegativity", not bad, tuple(bad))
    return nonneg, _column_sum_check("krein-column-sums", tensor.q, mults, "q", "m")


def feasibility_report(params: SchemeParams) -> FeasibilityReport:
    """Run the standard feasibility battery; failures are report content.

    Checks, in order: Krein nonnegativity, multiplicity integrality, valency
    integrality, intersection-number integrality, and the column-sum
    identities of both tensors.  Every check always runs and every failure
    is witnessed (indices and exact value).
    """
    rng = range(params.d + 1)
    nonneg, krein_sums = _krein_checks(params.kreins, params.multiplicities)
    checks = [nonneg]

    bad = [
        f"m_{i} = {format_scalar(v)}"
        for i, v in enumerate(params.multiplicities)
        if not _is_positive_integer(v)
    ]
    checks.append(FeasibilityCheck("multiplicity-integrality", not bad, tuple(bad)))

    bad = [
        f"k_{i} = {format_scalar(v)}"
        for i, v in enumerate(params.valencies)
        if not _is_positive_integer(v)
    ]
    checks.append(FeasibilityCheck("valency-integrality", not bad, tuple(bad)))

    inter = params.intersections
    inconsistency = None
    if inter is None:
        try:
            inter = intersection_tensor(params)
        except InconsistentEigenmatrices as exc:
            inconsistency = str(exc)
    if inconsistency is not None:
        checks.append(
            FeasibilityCheck(
                "intersection-integrality", False, (f"formulas disagree: {inconsistency}",)
            )
        )
        checks.append(
            FeasibilityCheck(
                "intersection-column-sums", False, (f"formulas disagree: {inconsistency}",)
            )
        )
    else:
        bad = []
        for i in rng:
            for j in rng:
                for k in rng:
                    v = inter.p(i, j, k)
                    if not _is_nonneg_integer(v):
                        bad.append(f"p^{k}_{{{i},{j}}} = {format_scalar(v)}")
        checks.append(FeasibilityCheck("intersection-integrality", not bad, tuple(bad)))

    checks.append(krein_sums)
    if inconsistency is None:
        checks.append(
            _column_sum_check("intersection-column-sums", inter.p, params.valencies, "p", "k")
        )
    return FeasibilityReport(tuple(checks))


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


def _q_conditions_hold(tensor: KreinTensor, seq: tuple[int, ...]) -> bool:
    """(Q1)/(Q2) for the relabeling ``q-hat^k_ij = q^{seq[k]}_{seq[i] seq[j]}``."""
    q = tensor.q
    return all(
        scalar_is_zero(q(seq[i], seq[j], seq[k])) == vanish
        for i, j, k, vanish in q_positions(tensor.d)
    )


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
                if k not in seq and not scalar_is_zero(q(s1, seq[-1], k))
            ]
            if len(nxt) != 1:
                break
            seq.append(nxt[0])
        if len(seq) == d + 1 and _q_conditions_hold(tensor, tuple(seq)):
            found.append(Ordering(tuple(seq)))
    return found


def _pattern_sequences(d: int) -> dict[StructureType, tuple[int, ...]]:
    """Candidate second-ordering patterns; invalid instantiations are dropped."""
    cands: dict[StructureType, list[int]] = {}
    evens = list(range(0, d + 1, 2))
    odds = list(range(d if d % 2 else d - 1, 0, -2))
    cands[StructureType.I] = evens + odds

    seq = [0]
    lo, hi = 1, d
    take_hi = True
    while lo <= hi:
        if take_hi:
            seq.append(hi)
            hi -= 1
        else:
            seq.append(lo)
            lo += 1
        take_hi = not take_hi
    cands[StructureType.II] = seq

    seq = [0]
    hi, lo = d, 2
    take_hi = True
    while len(seq) < d + 1:
        if take_hi:
            seq.append(hi)
            hi -= 2
        else:
            seq.append(lo)
            lo += 2
        take_hi = not take_hi
    cands[StructureType.III] = seq

    seq = [0]
    hi, lo = d - 1, 2
    take_hi = True
    while len(seq) < d:
        if take_hi:
            seq.append(hi)
            hi -= 2
        else:
            seq.append(lo)
            lo += 2
        take_hi = not take_hi
    seq.append(d)
    cands[StructureType.IV] = seq

    if d == 5:
        cands[StructureType.V] = [0, 5, 3, 2, 4, 1]

    out = {}
    for t, s in cands.items():
        if sorted(s) == list(range(d + 1)):
            out[t] = tuple(s)
    return out


def classify_structure_pair(ordering: Ordering, d: int) -> StructureType:
    """Match an ordering against the known second-structure patterns."""
    if ordering.is_identity():
        return StructureType.NONE
    for t, seq in _pattern_sequences(d).items():
        if ordering.sigma == seq:
            return t
    return StructureType.NONE


def relabel_tensor(tensor: KreinTensor, ordering: Ordering) -> KreinTensor:
    """``q-hat^k_ij = q^{sigma(k)}_{sigma(i) sigma(j)}``."""
    d = tensor.d
    s = ordering.sigma
    mats = [
        Matrix(
            [[tensor.q(s[i], s[j], s[k]) for k in range(d + 1)] for j in range(d + 1)]
        )
        for i in range(d + 1)
    ]
    return KreinTensor(mats)


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------


def fuse(tensor: KreinTensor, multiplicities, partition: FusionPartition):
    """Merge idempotent classes along a partition.

    ``s^k_ij = sum_{alpha in T_i, beta in T_j} q^gamma_{alpha beta}`` must be
    independent of the representative ``gamma in T_k``
    (WellDefinednessViolation otherwise).  Returns the fused tensor and the
    fused multiplicities (block sums).
    """
    e = partition.e
    if sum(len(b) for b in partition.blocks) != tensor.d + 1:
        raise InvalidPartition(
            f"partition covers {sum(len(b) for b in partition.blocks)} classes, tensor has {tensor.d + 1}"
        )
    vals = [[[None] * (e + 1) for _ in range(e + 1)] for _ in range(e + 1)]
    for i, Ti in enumerate(partition.blocks):
        for j, Tj in enumerate(partition.blocks):
            for k, Tk in enumerate(partition.blocks):
                ref = None
                ref_gamma = None
                for gamma in Tk:
                    s = Fraction(0)
                    for alpha in Ti:
                        for beta in Tj:
                            s = s + tensor.q(alpha, beta, gamma)
                    if ref is None:
                        ref, ref_gamma = s, gamma
                    elif s != ref:
                        raise WellDefinednessViolation(
                            f"s^{k}_{{{i},{j}}}: gamma={ref_gamma} gives {format_scalar(ref)}, "
                            f"gamma={gamma} gives {format_scalar(s)}"
                        )
                vals[i][j][k] = ref
    mats = [
        Matrix([[vals[i][j][k] for k in range(e + 1)] for j in range(e + 1)])
        for i in range(e + 1)
    ]
    fused_mults = tuple(
        sum((multiplicities[a] for a in block), Fraction(0))
        for block in partition.blocks
    )
    return KreinTensor(mats), fused_mults


def tridiagonal_from_tensor(tensor: KreinTensor) -> KreinTridiagonal:
    """Read the ``c*/a*/b*`` arrays off ``B1*``; the matrix must be tridiagonal."""
    d = tensor.d
    b1 = tensor.mats[1]
    for j in range(d + 1):
        for k in range(d + 1):
            if abs(j - k) > 1 and not scalar_is_zero(b1[j, k]):
                raise InvariantViolation(
                    f"B1* is not tridiagonal: entry ({j},{k}) = {format_scalar(b1[j, k])}"
                )
    c = tuple(b1[k - 1, k] for k in range(1, d + 1))
    a = tuple(b1[k, k] for k in range(1, d + 1))
    b = tuple(b1[k + 1, k] for k in range(0, d))
    return KreinTridiagonal(d, c, a, b)
