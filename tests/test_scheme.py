import itertools
import math
import random
import signal
from fractions import Fraction

import pytest

import asx.scheme
from asx.casev import CASE_V_ORDERING, CASE_V_PARTITION, _free_tridiagonal, casev_spec
from asx.errors import (
    InconsistentEigenmatrices,
    InvalidPartition,
    InvariantViolation,
    MixedScalars,
    RepeatedEigenvalue,
    UnsupportedAlgebraicDegree,
    WellDefinednessViolation,
)
from asx.linalg import Matrix
from asx.oracles import named_scheme, scheme_from_relations
from asx.poly import MultiPoly, RatFunc
from asx.scalars import QuadraticNumber, is_integer_scalar
from asx.scheme import (
    FusionPartition,
    IntersectionTensor,
    KreinTensor,
    KreinTridiagonal,
    Ordering,
    StructureType,
    _pattern_sequences,
    classify_structure_pair,
    dual_eigensystem,
    enumerate_q_orderings,
    feasibility_report,
    first_eigenmatrix,
    fuse,
    intersection_tensor,
    krein_column,
    krein_ladder,
    q_condition_failure,
    scheme_params,
    tensor_checks,
    tridiagonal_from_tensor,
    value_sequence,
)
from test_kernels import BIG_DENOMINATORS

K4 = KreinTridiagonal(1, c=[1], a=[2], b=[3])
C5 = KreinTridiagonal(2, c=[1, 1], a=[0, 1], b=[2, 1])
CUBE = KreinTridiagonal(3, c=[1, 2, 3], a=[0, 0, 0], b=[3, 2, 1])


def hamming(d: int, q: int) -> KreinTridiagonal:
    """H(d, q) is self-dual: its Krein array is its intersection array."""
    return KreinTridiagonal(
        d,
        c=list(range(1, d + 1)),
        a=[i * (q - 2) for i in range(1, d + 1)],
        b=[(d - i) * (q - 1) for i in range(d)],
    )


CASEV5 = KreinTridiagonal(
    5,
    c=[1, 2, Fraction(5, 3), Fraction(4, 3), 5],
    a=[0, Fraction(4, 3), 0, Fraction(8, 3), 0],
    b=[5, 4, Fraction(5, 3), Fraction(10, 3), 1],
)


class TestKreinTridiagonal:
    def test_invariants(self):
        with pytest.raises(InvariantViolation):
            KreinTridiagonal(2, c=[2, 1], a=[0, 0], b=[2, 1])  # c1 != 1
        with pytest.raises(InvariantViolation):
            KreinTridiagonal(2, c=[1, 0], a=[0, 0], b=[2, 1])  # zero c2
        with pytest.raises(InvariantViolation):
            KreinTridiagonal(2, c=[1, 1], a=[0, 0], b=[0, 1])  # zero b0
        with pytest.raises(InvariantViolation):
            KreinTridiagonal(2, c=[1], a=[0, 0], b=[2, 1])  # wrong length

    def test_column_sums(self):
        assert set(CASEV5.column_sums()) == {Fraction(5)}
        assert set(CUBE.column_sums()) == {Fraction(3)}


class TestLadder:
    def test_base_case_is_identity(self):
        for spec in (K4, C5, CUBE, CASEV5):
            assert krein_ladder(spec).mats[0] == Matrix.identity(spec.d + 1)

    def test_m5_displayed_entry(self):
        # (m-1)m/c2* at m = 5
        t = krein_ladder(CASEV5)
        assert t.q(2, 2, 0) == 10
        assert t.mats[2][2, 0] == 10

    def test_multiplicities_from_column_sums(self):
        assert krein_ladder(CASEV5).multiplicities() == (1, 5, 10, 10, 25, 5)
        assert krein_ladder(C5).multiplicities() == (1, 2, 2)

    def test_ladder_matrices_commute(self):
        for spec in (C5, CUBE, CASEV5):
            t = krein_ladder(spec)
            for a, b in itertools.combinations(t.mats, 2):
                assert a * b == b * a


def _random_array(rng: random.Random, d=None, dens=(1, 1, 2, 3, 7), top=9) -> KreinTridiagonal:
    """A tridiagonal array with signed rational entries (c1* = 1, no zero
    c* or b*) over the denominators ``dens``, of ``d`` classes (1 to 6 when
    None); not the array of a scheme, only of the recurrence."""

    def value(nonzero):
        while True:
            x = Fraction(rng.randint(-top, top), rng.choice(dens))
            if x or not nonzero:
                return x

    d = d or rng.randint(1, 6)
    return KreinTridiagonal(
        d,
        c=[1] + [value(True) for _ in range(d - 1)],
        a=[value(False) for _ in range(d)],
        b=[value(True) for _ in range(d)],
    )


def _univariate_array(rng: random.Random, d: int, top: int) -> KreinTridiagonal:
    """A tridiagonal array whose entries are rationals and quotients p(t)/q(t),
    p of degree <= 2 with signed coefficients up to ``top`` over 1, 2, 3
    or 7, q of degree <= 1 with small integer coefficients: the ladder runs
    it packed, since only t occurs."""

    def poly(degree, bound, dens):
        while True:
            cs = [Fraction(rng.randint(-bound, bound), rng.choice(dens)) for _ in range(degree + 1)]
            if any(cs):
                return MultiPoly.univariate("t", cs)

    def value(nonzero):
        if rng.random() < 0.2:
            return Fraction(rng.randint(1, top), rng.choice((1, 2, 3, 7))) * rng.choice((1, -1))
        if not nonzero and rng.random() < 0.2:
            return Fraction(0)
        return poly(rng.randint(0, 2), top, (1, 2, 3, 7)) / poly(rng.randint(0, 1), 9, (1,))

    return KreinTridiagonal(
        d,
        c=[1] + [value(True) for _ in range(d - 1)],
        a=[value(False) for _ in range(d)],
        b=[value(True) for _ in range(d)],
    )


UNIVARIATE_SPECS = {
    f"univariate-{k}": (lambda k=k, top=top:
                        _univariate_array(random.Random(200 + k), 2 + k % 4, top))
    for k, top in enumerate((9, 10**12, 10**3, 10**12, 10**6, 10**12, 9, 10**12, 10**3, 10**12))
}


def _several_variable_array(rng: random.Random, d: int, names: tuple) -> KreinTridiagonal:
    """A tridiagonal array in the variables ``names``: rationals, and
    polynomials of total degree <= 2 with signed coefficients over 1, 2, 3
    or 7, now and then divided by a linear polynomial.  b0* is the sum of
    the variables plus a constant, so every variable occurs and the ladder
    runs on packed exponent vectors."""
    xs = [MultiPoly.var(v) for v in names]
    monomials = [MultiPoly.one(), *xs, *(x * y for x, y in itertools.combinations_with_replacement(xs, 2))]

    def number(nonzero):
        while True:
            q = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
            if q or not nonzero:
                return q

    def poly(pool):
        while True:
            p = sum((number(True) * t for t in rng.sample(pool, rng.randint(1, 2))), MultiPoly.zero())
            if p:
                return p

    def value(nonzero):
        if rng.random() < 0.2:
            return number(nonzero)
        p = RatFunc(poly(monomials))
        return p / poly(monomials[:len(names) + 1]) if rng.random() < 0.15 else p

    return KreinTridiagonal(
        d,
        c=[1] + [value(True) for _ in range(d - 1)],
        a=[value(False) for _ in range(d)],
        b=[sum(xs, RatFunc.const(number(False)))] + [value(True) for _ in range(d - 1)],
    )


SEVERAL_VARIABLE_SPECS = {
    f"several-{k}": (lambda k=k: _several_variable_array(
        random.Random(500 + k), 2 + k % 4, ("u", "v", "w", "x")[:2 + k % 3]))
    for k in range(12)
}

# One-variable arrays whose packed coefficients come within a few bits of
# the Kronecker width, most with every coefficient of one sign so that the
# 1-norm bound is nearly attained: a width any narrower in b*, a*, c*, the
# coupling b*c* or the final + 2 reads some coefficient back wrong.  Each
# entry is a coefficient list in t, lowest power first.
NEAR_WIDTH_ARRAYS = {
    "wide b*": ([[1], [0, 2]], [[0, 1], [1, 2]], [[0, 2**30], [2]]),
    "wide a*": ([[1], [0, 1], [1], [1]], [[0], [0], [1, 2**30 - 1], [1, 2**30 + 1]],
                [[0, 1, 2], [1, 0, 2**30], [1, 1], [1, 1, 1]]),
    "wide a*, mixed signs": (
        [[1], [0, -1], [0, -1], [-1, -1], [0, -1]],
        [[-1, 0, 1 - 2**37], [1 - 2**37], [-1 - 2**37], [-1, -2**37], [0, 2**37]],
        [[-1, 0, -1], [-1, -1, -1], [1], [-1, -1], [0, -1]]),
    "d = 1, small": ([[1]], [[0]], [[2, 1]]),
    "wide coupling": ([[1]], [[1, 1, 2]], [[2**24 + 1, 1]]),
    "wide c*": ([[1], [1 - 2**24], [0, 2**24 - 1], [-1]], [[-1, -1], [1, 1], [0, -1], [1]],
                [[0, 1], [-1], [-1], [-1]]),
}


def _coefficient_array(c, a, b) -> KreinTridiagonal:
    """The array whose entries are the polynomials in t with the integer
    coefficient lists ``c``, ``a``, ``b`` (lowest power first)."""
    c, a, b = ([RatFunc(MultiPoly.univariate("t", p)) for p in xs] for xs in (c, a, b))
    return KreinTridiagonal(len(c), c, a, b)


SQRT5 = QuadraticNumber(0, 1, 5)
LADDER_ROUTE_SPECS = {
    "casev-symbolic": lambda: casev_spec(None).spec,
    "free": lambda: _free_tridiagonal({}),
    "free-b4": lambda: _free_tridiagonal({"b4": 1}),
    "free-b4-a3": lambda: _free_tridiagonal({"b4": 1, "a3": 0}),
    **{f"casev-m{m}": (lambda m=m: casev_spec(m).spec)
       for m in (Fraction(3, 2), 2, 3, 5, 7)},
    **{f"H({d},{q})": (lambda d=d, q=q: hamming(d, q)) for d in range(1, 7) for q in (2, 3, 4)},
    "pentagon": lambda: C5,
    "constant RatFuncs": lambda: KreinTridiagonal(
        2, c=[1, RatFunc.const(Fraction(2, 3))], a=[0, RatFunc.const(1)], b=[RatFunc.const(3), 1]
    ),
    "Q(sqrt 5)": lambda: KreinTridiagonal(
        3, c=[1, (1 + SQRT5) / 2, SQRT5], a=[SQRT5 - 1, 0, Fraction(1, 3)], b=[2, -SQRT5, 3]
    ),
    "petersen": lambda: tridiagonal_from_tensor(
        scheme_from_relations(named_scheme("petersen", None)).kreins
    ),
    **{f"random-{k}": (lambda k=k: _random_array(random.Random(k))) for k in range(20)},
    # large coprime denominators: the ladder's common denominator delta^i
    # runs to hundreds of digits
    **{f"big-d{d}": (lambda d=d: _random_array(
        random.Random(100 + d), d, (1, 2, 3, *BIG_DENOMINATORS), 10**4)) for d in range(5, 11)},
    **UNIVARIATE_SPECS,
    **SEVERAL_VARIABLE_SPECS,
    **{f"near-width {name}": (lambda name=name: _coefficient_array(*NEAR_WIDTH_ARRAYS[name]))
       for name in NEAR_WIDTH_ARRAYS},
}


@pytest.mark.parametrize("name", LADDER_ROUTE_SPECS)
def test_ladder_matches_the_plain_recurrence(name):
    # the cleared monic ladder against Bi* = v_i*(B1*) divided at every step
    spec = LADDER_ROUTE_SPECS[name]()
    d = spec.d
    plain = [Matrix.identity(d + 1),
             *itertools.islice(value_sequence(spec, spec.first_matrix()), 1, d + 1)]
    got = krein_ladder(spec).mats
    assert list(got) == plain
    for g, p in zip(got, plain):
        assert [list(map(str, r)) for r in g.rows] == [list(map(str, r)) for r in p.rows]
        assert [list(map(hash, r)) for r in g.rows] == [list(map(hash, r)) for r in p.rows]


@pytest.mark.parametrize("name", ["H(3,3)", "casev-m5", "casev-symbolic", "free-b4", "free-b4-a3",
                                  "Q(sqrt 5)", *(f"big-d{d}" for d in range(5, 11)),
                                  *(f"univariate-{k}" for k in (1, 2, 3, 4, 7)),
                                  *(f"several-{k}" for k in (0, 1, 5, 10))])
def test_krein_column_is_the_ladder_column(name):
    spec = LADDER_ROUTE_SPECS[name]()
    mats = krein_ladder(spec).mats
    for i, k in itertools.product(range(spec.d + 1), repeat=2):
        got = krein_column(spec, i, k)
        assert got == mats[i].col(k)
        assert list(map(str, got)) == list(map(str, mats[i].col(k)))


def _value_battery(mats, valencies=None) -> list[str]:
    """Two battery lines computed from the divided matrices alone.  For a
    Krein tensor (no ``valencies``) those of tensor_checks: a symbolic entry
    has no sign, and every column of Bi* must sum to m_i, the sum of its
    column 0.  For an intersection tensor the intersection lines of
    feasibility_report: every p^k_ij is a nonnegative integer, and every
    column of Bi sums to k_i."""
    rng = range(len(mats))
    if valencies is None:
        kind, sym, total, totals = "krein", "q", "m", [m.column_sums()[0] for m in mats]
        name, ok = "krein-nonnegativity", lambda x: isinstance(x, RatFunc) or x >= 0
    else:
        kind, sym, total, totals = "intersection", "p", "k", valencies
        name, ok = "intersection-integrality", lambda x: is_integer_scalar(x) and x >= 0
    entries = [f"{sym}^{k}_{{{i},{j}}} = {mats[i][j, k]}" for i in rng for j in rng for k in rng
               if not ok(mats[i][j, k])]
    sums = [f"sum_j {sym}^{k}_{{{i},j}} = {s} != {total}_{i}"
            for i in rng for k, s in enumerate(mats[i].column_sums()) if s != totals[i]]
    return [f"[{'FAIL' if bad else 'pass'}] {line}" + (": " + "; ".join(bad) if bad else "")
            for line, bad in ((name, entries), (f"{kind}-column-sums", sums))]


def _intersection_lines(params, tensor) -> list[str]:
    """The intersection lines of feasibility_report with ``tensor`` as the
    intersection numbers of ``params``."""
    lines = feasibility_report(params._replace(intersections=tensor)).lines()
    return [line for line in lines if "] intersection-" in line]


def _assert_levels_match_the_values(tensor, mats, params=None):
    """The zero pattern, signs, column sums and multiplicities that
    ``tensor`` reads from its levels are those of the divided ``mats``; with
    ``params``, ``tensor`` holds their intersection numbers, and its
    integrality and column sums are compared too."""
    rng = range(len(mats))
    assert [tensor.nonzero(i, j, k) for i in rng for j in rng for k in rng] == [
        bool(mats[i][j, k]) for i in rng for j in rng for k in rng]
    for i in rng:
        sums = [tensor.value(i, s) for s in tensor.numerator_sums(i)]
        assert list(map(str, sums)) == list(map(str, mats[i].column_sums()))
    assert list(map(str, tensor.multiplicities())) == [str(m.column_sums()[0]) for m in mats]
    if params is None:
        assert tensor_checks(tensor).lines() == _value_battery(mats)
    else:
        assert _intersection_lines(params, tensor) == _value_battery(mats, params.valencies)


@pytest.mark.parametrize("name", LADDER_ROUTE_SPECS)
def test_levels_give_the_support_signs_and_column_sums(name):
    # read from the cleared levels of a fresh tensor, before any division
    spec = LADDER_ROUTE_SPECS[name]()
    tensor = krein_ladder(spec)
    _assert_levels_match_the_values(tensor, krein_ladder(spec).mats)


# every named family, with each cycle whose eigenvalues are rational or quadratic
ORACLE_SCHEMES = [("complete", n) for n in range(2, 6)] + [
    ("cycle", n) for n in (3, 4, 5, 6, 8, 10, 12)] + [("hypercube", n) for n in range(1, 5)] + [
    ("petersen", None)]


@pytest.mark.parametrize("name, parameter", ORACLE_SCHEMES)
def test_levels_of_every_oracle_scheme(name, parameter):
    # the oracle's tensors (the counts over 1, the Krein numbers over the
    # dual's denominator), the intersection numbers computed from its
    # eigenmatrices, and the ladder of the distance scheme's tridiagonal B1,
    # which runs the same recurrence
    counted = scheme_from_relations(named_scheme(name, parameter))
    _assert_levels_match_the_values(counted.kreins, counted.kreins.mats)
    _assert_levels_match_the_values(counted.intersections, counted.intersections.mats, counted)
    computed = intersection_tensor(counted)
    _assert_levels_match_the_values(computed, intersection_tensor(counted).mats, counted)
    spec = tridiagonal_from_tensor(counted.intersections)
    _assert_levels_match_the_values(krein_ladder(spec), counted.intersections.mats)


def test_levels_of_a_symbolic_tensor_built_from_matrices():
    # the fused case-V tensor holds RatFunc values over divisor 1
    fused = fuse(krein_ladder(casev_spec(None).spec), CASE_V_PARTITION)
    _assert_levels_match_the_values(fused, fused.mats)


# Krein battery lines for a negative q, negative divisors (c2* < 0), a bad
# column sum and entries in Q(sqrt 5) and Q(sqrt 2): the witnesses as the battery wrote
# them when it divided the whole ladder first
R5, R2 = QuadraticNumber(0, 1, 5), QuadraticNumber(0, 1, 2)
FAILING_KREIN_SPECS = {
    "negative q": (KreinTridiagonal(3, c=[1, 2, 3], a=[0, 0, 0], b=[3, -1, 1]), [
        "[FAIL] krein-nonnegativity: q^1_{1,2} = -1; q^1_{2,1} = -1; q^0_{2,2} = -3/2; "
        "q^2_{2,2} = -1; q^1_{2,3} = -1/2; q^1_{3,2} = -1/2; q^0_{3,3} = -1/2",
        "[FAIL] krein-column-sums: sum_j q^1_{1,j} = 0 != m_1; sum_j q^2_{2,j} = 0 != m_2; "
        "sum_j q^3_{2,j} = 3 != m_2; sum_j q^2_{3,j} = 1 != m_3; sum_j q^3_{3,j} = 1 != m_3"]),
    "negative divisor": (KreinTridiagonal(3, c=[1, Fraction(-2, 3), 5], a=[Fraction(1, 2), 0, -1],
                                          b=[2, Fraction(7, 5), -3]), [
        "[FAIL] krein-nonnegativity: q^2_{1,1} = -2/3; q^2_{1,3} = -3; q^3_{1,3} = -1; "
        "q^0_{2,2} = -21/5; q^2_{2,3} = -27/4; q^2_{3,1} = -3; q^3_{3,1} = -1; q^2_{3,2} = -27/4; "
        "q^1_{3,3} = -63/50; q^2_{3,3} = -279/20; q^3_{3,3} = -278/25",
        "[FAIL] krein-column-sums: sum_j q^1_{1,j} = 29/10 != m_1; sum_j q^2_{1,j} = -11/3 != m_1; "
        "sum_j q^3_{1,j} = 4 != m_1; sum_j q^1_{2,j} = 77/10 != m_2; sum_j q^2_{2,j} = 423/20 != m_2; "
        "sum_j q^3_{2,j} = 79/2 != m_2; sum_j q^1_{3,j} = 126/25 != m_3; "
        "sum_j q^2_{3,j} = -237/10 != m_3; sum_j q^3_{3,j} = 1213/100 != m_3"]),
    "bad column sum": (KreinTridiagonal(2, c=[1, 1], a=[0, 2], b=[2, 1]), [
        "[pass] krein-nonnegativity",
        "[FAIL] krein-column-sums: sum_j q^2_{1,j} = 3 != m_1; sum_j q^1_{2,j} = 3 != m_2; "
        "sum_j q^2_{2,j} = 6 != m_2"]),
    "Q(sqrt 5)": (KreinTridiagonal(3, c=[1, (1 + R5) / 2, R5], a=[R5 - 1, 0, Fraction(1, 3)],
                                   b=[2, -R5, 3]), [
        "[FAIL] krein-nonnegativity: q^1_{1,2} = -sqrt(5); q^1_{2,1} = -sqrt(5); "
        "q^0_{2,2} = -5+sqrt(5); q^3_{2,2} = 35/6-19/6*sqrt(5); q^1_{2,3} = -15/2+3/2*sqrt(5); "
        "q^2_{2,3} = -19/2+7/2*sqrt(5); q^1_{3,2} = -15/2+3/2*sqrt(5); "
        "q^2_{3,2} = -19/2+7/2*sqrt(5); q^0_{3,3} = 3-3*sqrt(5); q^1_{3,3} = 1/2-1/2*sqrt(5); "
        "q^3_{3,3} = -533/54+1079/270*sqrt(5)",
        "[FAIL] krein-column-sums: sum_j q^1_{1,j} = 0 != m_1; "
        "sum_j q^2_{1,j} = 7/2+1/2*sqrt(5) != m_1; sum_j q^3_{1,j} = 1/3+sqrt(5) != m_1; "
        "sum_j q^1_{2,j} = -15/2+1/2*sqrt(5) != m_2; sum_j q^2_{2,j} = 0 != m_2; "
        "sum_j q^3_{2,j} = 239/18-77/18*sqrt(5) != m_2; sum_j q^1_{3,j} = -7+sqrt(5) != m_3; "
        "sum_j q^2_{3,j} = -77/6+239/30*sqrt(5) != m_3; "
        "sum_j q^3_{3,j} = -59/54+509/270*sqrt(5) != m_3"]),
    "divisor -1": (KreinTridiagonal(2, c=[1, -1], a=[1, 2], b=[2, 3]), [
        "[FAIL] krein-nonnegativity: q^2_{1,1} = -1; q^0_{2,2} = -6; q^1_{2,2} = -6",
        "[FAIL] krein-column-sums: sum_j q^1_{1,j} = 5 != m_1; sum_j q^2_{1,j} = 1 != m_1; "
        "sum_j q^1_{2,j} = -3 != m_2; sum_j q^2_{2,j} = 6 != m_2"]),
    # divisors 1/2 and sqrt(2)/6, between 0 and 1
    "Q(sqrt 2), divisors below 1": (KreinTridiagonal(3, c=[1, Fraction(1, 2), R2 / 3],
                                                     a=[R2, -1, Fraction(2, 3)], b=[3, R2 - 2, 1]), [
        "[FAIL] krein-nonnegativity: q^1_{1,2} = -2+sqrt(2); q^2_{1,2} = -1; q^1_{2,1} = -2+sqrt(2); "
        "q^2_{2,1} = -1; q^0_{2,2} = -12+6*sqrt(2); q^2_{2,2} = -6+11/3*sqrt(2); "
        "q^3_{2,2} = -4/3-2/9*sqrt(2); q^1_{2,3} = -4+2*sqrt(2); q^2_{2,3} = -2/3-2*sqrt(2); "
        "q^3_{2,3} = -46/9-2/3*sqrt(2); q^1_{3,2} = -4+2*sqrt(2); q^2_{3,2} = -2/3-2*sqrt(2); "
        "q^3_{3,2} = -46/9-2/3*sqrt(2); q^0_{3,3} = 18-18*sqrt(2); q^1_{3,3} = 4-4*sqrt(2); "
        "q^2_{3,3} = -2-23/3*sqrt(2); q^3_{3,3} = -6-115/9*sqrt(2)",
        "[FAIL] krein-column-sums: sum_j q^1_{1,j} = -1+2*sqrt(2) != m_1; sum_j q^2_{1,j} = 1/2 != m_1; "
        "sum_j q^3_{1,j} = 2/3+1/3*sqrt(2) != m_1; sum_j q^1_{2,j} = -2+sqrt(2) != m_2; "
        "sum_j q^2_{2,j} = -20/3+5/3*sqrt(2) != m_2; sum_j q^3_{2,j} = -58/9-5/9*sqrt(2) != m_2; "
        "sum_j q^1_{3,j} = -2*sqrt(2) != m_3; sum_j q^2_{3,j} = -5/3-29/3*sqrt(2) != m_3; "
        "sum_j q^3_{3,j} = -85/9-121/9*sqrt(2) != m_3"]),
}


@pytest.mark.parametrize("name", FAILING_KREIN_SPECS)
def test_failing_krein_checks_keep_their_witnesses(name):
    spec, lines = FAILING_KREIN_SPECS[name]
    tensor = krein_ladder(spec)
    assert tensor_checks(tensor).lines() == lines
    assert tensor._mats is None  # only the witnesses were divided
    _assert_levels_match_the_values(tensor, krein_ladder(spec).mats)


# the ladder route specs with a dual eigensystem; the rest are symbolic,
# have roots in two quadratic fields or none, or (big-d*) a constant term
# too large to factor in test time
EIGENSYSTEM_SPECS = ["casev-m5", "pentagon", "petersen",
                     *(f"H({d},{q})" for d in range(1, 7) for q in (2, 3, 4))]


def _assert_integer_numerators(tensor):
    """Every level of ``tensor`` holds ints, and QuadraticNumbers with
    integer parts where a value is irrational, over one int divisor."""
    for rows, div, packing in tensor.levels:
        assert type(div) is int and packing is None
        for x in itertools.chain.from_iterable(rows):
            assert type(x) is int or (
                isinstance(x, QuadraticNumber) and x.rational_part.denominator == 1
                and x.sqrt_coefficient.denominator == 1), x


@pytest.mark.parametrize("name", EIGENSYSTEM_SPECS)
def test_levels_of_a_computed_intersection_tensor(name):
    params = scheme_params(LADDER_ROUTE_SPECS[name]())
    tensor = intersection_tensor(params)
    _assert_integer_numerators(tensor)
    _assert_levels_match_the_values(tensor, intersection_tensor(params).mats, params)


# intersection battery lines for m = 5 (the 72/7 witness), for p^k_ij and
# valencies in Q(sqrt 105), and for valencies that the column sums miss: the
# witnesses as the battery wrote them when it divided the whole tensor first
R105 = KreinTridiagonal(2, c=[1, Fraction(1, 2)], a=[-3, Fraction(7, 2)], b=[4, 6])
R105_INTEGRALITY = (
    "[FAIL] intersection-integrality: p^0_{1,1} = 26+58/35*sqrt(105); "
    "p^1_{1,1} = 149/10+431/210*sqrt(105); p^2_{1,1} = 159/10+53/42*sqrt(105); "
    "p^1_{1,2} = 101/10-83/210*sqrt(105); p^2_{1,2} = 101/10+83/210*sqrt(105); "
    "p^1_{2,1} = 101/10-83/210*sqrt(105); p^2_{2,1} = 101/10+83/210*sqrt(105); "
    "p^0_{2,2} = 26-58/35*sqrt(105); p^1_{2,2} = 159/10-53/42*sqrt(105); "
    "p^2_{2,2} = 149/10-431/210*sqrt(105)")
FAILING_INTERSECTION_SPECS = {
    "m = 5": (CASEV5, None, [
        "[FAIL] intersection-integrality: p^1_{1,1} = 40/21; p^2_{1,1} = -20/63; "
        "p^3_{1,1} = 4/7; p^4_{1,1} = -2/9; p^1_{1,2} = -20/63; p^2_{1,2} = -20/63; "
        "p^3_{1,2} = 5/21; p^4_{1,2} = 10/9; p^5_{1,2} = 10/9; p^1_{1,3} = 20/7; "
        "p^2_{1,3} = 25/21; p^3_{1,3} = 20/7; p^4_{1,3} = 10/3; p^1_{1,4} = -4/9; "
        "p^2_{1,4} = 20/9; p^3_{1,4} = 4/3; p^4_{1,4} = 2/9; p^5_{1,4} = 5/9; "
        "p^2_{1,5} = 20/9; p^4_{1,5} = 5/9; p^5_{1,5} = 10/3; p^1_{2,1} = -20/63; "
        "p^2_{2,1} = -20/63; p^3_{2,1} = 5/21; p^4_{2,1} = 10/9; p^5_{2,1} = 10/9; "
        "p^1_{2,2} = -20/63; p^2_{2,2} = 40/21; p^3_{2,2} = 4/7; p^5_{2,2} = -2/9; "
        "p^1_{2,3} = 25/21; p^2_{2,3} = 20/7; p^3_{2,3} = 20/7; p^5_{2,3} = 10/3; "
        "p^1_{2,4} = 20/9; p^4_{2,4} = 10/3; p^5_{2,4} = 5/9; p^1_{2,5} = 20/9; "
        "p^2_{2,5} = -4/9; p^3_{2,5} = 4/3; p^4_{2,5} = 5/9; p^5_{2,5} = 2/9; "
        "p^1_{3,1} = 20/7; p^2_{3,1} = 25/21; p^3_{3,1} = 20/7; p^4_{3,1} = 10/3; "
        "p^1_{3,2} = 25/21; p^2_{3,2} = 20/7; p^3_{3,2} = 20/7; p^5_{3,2} = 10/3; "
        "p^1_{3,3} = 100/7; p^2_{3,3} = 100/7; p^3_{3,3} = 72/7; p^1_{3,4} = 20/3; "
        "p^5_{3,4} = 20/3; p^2_{3,5} = 20/3; p^4_{3,5} = 20/3; p^1_{4,1} = -4/9; "
        "p^2_{4,1} = 20/9; p^3_{4,1} = 4/3; p^4_{4,1} = 2/9; p^5_{4,1} = 5/9; "
        "p^1_{4,2} = 20/9; p^4_{4,2} = 10/3; p^5_{4,2} = 5/9; p^1_{4,3} = 20/3; "
        "p^5_{4,3} = 20/3; p^1_{4,4} = 4/9; p^2_{4,4} = 20/3; p^4_{4,4} = -2/3; "
        "p^5_{4,4} = 10/9; p^1_{4,5} = 10/9; p^2_{4,5} = 10/9; p^3_{4,5} = 8/3; "
        "p^4_{4,5} = 10/9; p^5_{4,5} = 10/9; p^2_{5,1} = 20/9; p^4_{5,1} = 5/9; "
        "p^5_{5,1} = 10/3; p^1_{5,2} = 20/9; p^2_{5,2} = -4/9; p^3_{5,2} = 4/3; "
        "p^4_{5,2} = 5/9; p^5_{5,2} = 2/9; p^2_{5,3} = 20/3; p^4_{5,3} = 20/3; "
        "p^1_{5,4} = 10/9; p^2_{5,4} = 10/9; p^3_{5,4} = 8/3; p^4_{5,4} = 10/9; "
        "p^5_{5,4} = 10/9; p^1_{5,5} = 20/3; p^2_{5,5} = 4/9; p^4_{5,5} = 10/9; "
        "p^5_{5,5} = -2/3",
        "[pass] intersection-column-sums"]),
    "Q(sqrt 105)": (R105, None, [R105_INTEGRALITY, "[pass] intersection-column-sums"]),
    "Q(sqrt 105), k_1 and k_2 swapped": (R105, lambda k: (k[0], k[2], k[1]), [
        R105_INTEGRALITY,
        "[FAIL] intersection-column-sums: sum_j p^0_{1,j} = 26+58/35*sqrt(105) != k_1; "
        "sum_j p^1_{1,j} = 26+58/35*sqrt(105) != k_1; sum_j p^2_{1,j} = 26+58/35*sqrt(105) != k_1; "
        "sum_j p^0_{2,j} = 26-58/35*sqrt(105) != k_2; sum_j p^1_{2,j} = 26-58/35*sqrt(105) != k_2; "
        "sum_j p^2_{2,j} = 26-58/35*sqrt(105) != k_2"]),
    "pentagon, k = (1, 3, 1)": (C5, lambda k: (1, 3, 1), [
        "[pass] intersection-integrality",
        "[FAIL] intersection-column-sums: sum_j p^0_{1,j} = 2 != k_1; sum_j p^1_{1,j} = 2 != k_1; "
        "sum_j p^2_{1,j} = 2 != k_1; sum_j p^0_{2,j} = 2 != k_2; sum_j p^1_{2,j} = 2 != k_2; "
        "sum_j p^2_{2,j} = 2 != k_2"]),
}


@pytest.mark.parametrize("name", FAILING_INTERSECTION_SPECS)
def test_failing_intersection_checks_keep_their_witnesses(name):
    spec, valencies, lines = FAILING_INTERSECTION_SPECS[name]
    params = scheme_params(spec)
    tensor, mats = intersection_tensor(params), intersection_tensor(params).mats
    if valencies:  # valencies the column sums do not reach
        params = params._replace(valencies=valencies(params.valencies))
    assert _intersection_lines(params, tensor) == lines
    assert tensor._mats is None  # only the witnesses were divided
    _assert_integer_numerators(tensor)
    _assert_levels_match_the_values(tensor, mats, params)


@pytest.mark.parametrize("levels, line", [
    # divisor -3: -6/-3 = 2 counts, 6/-3 = -2 and 4/-3 do not
    ([([[-3, 0], [0, -9]], -3, None), ([[0, -21], [6, 4]], -3, None)],
     "[FAIL] intersection-integrality: p^0_{1,1} = -2; p^1_{1,1} = -4/3"),
    # divisor 7: -14/7 = -2 is an integer but negative
    ([([[7, 0], [0, 21]], 7, None), ([[0, 21], [-14, 0]], 7, None)],
     "[FAIL] intersection-integrality: p^0_{1,1} = -2"),
    ([([[2, 0], [0, 6]], 2, None), ([[0, 6], [2, 4]], 2, None)],
     "[pass] intersection-integrality"),
])
def test_integrality_is_read_from_the_numerators(levels, line):
    # an integer multiple of the divisor with the divisor's sign counts
    tensor = IntersectionTensor(levels=levels)
    assert _intersection_lines(scheme_params(K4), tensor)[0] == line
    assert tensor._mats is None


def test_tridiagonal_from_tensor_divides_only_b1(monkeypatch):
    # the oracle's Krein tensor is kept undivided; reading c*, a*, b* off
    # B1* divides that one level of the 6-cube, (d+1)^2 = 49 entries
    kreins = scheme_from_relations(named_scheme("hypercube", 6)).kreins
    sizes = []
    divided = asx.scheme._divided

    def spy(p, div, packing):
        sizes.append(len(p) * len(p[0]))
        return divided(p, div, packing)

    monkeypatch.setattr(asx.scheme, "_divided", spy)
    assert tridiagonal_from_tensor(kreins) == hamming(6, 2)
    assert sizes == [49]
    assert kreins._mats is None


def test_one_variable_ladder_runs_on_packed_ints(monkeypatch):
    # casev's entries are polynomials in m once cleared, so the recurrence
    # runs on ints: the only MultiPoly products left build delta and the
    # cleared entries (1,273 when the recurrence ran on RatFuncs)
    spec = casev_spec(None).spec
    products = 0
    multiply = MultiPoly.__mul__

    def counted(self, other):
        nonlocal products
        products += 1
        return multiply(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    krein_ladder(spec)
    assert products < 100


def test_ladder_refuses_a_symbol_with_a_square_root():
    # Q(sqrt D)(x1, ..., xk) is not supported, with or without a
    # polynomial denominator to clear
    u = RatFunc.var("u")
    for c2 in (u + 1, 1 / (u + 1)):
        spec = KreinTridiagonal(2, c=[1, c2], a=[0, SQRT5], b=[u, 1])
        with pytest.raises(MixedScalars):
            krein_ladder(spec)


def test_several_variable_ladder_runs_on_packed_exponents(monkeypatch):
    # the four Krein columns of derive_section32's steps 1-4 are polynomials
    # in up to ten unknowns once cleared, so the recurrence runs on packed
    # exponent vectors: RatFunc sums are left only in building delta and in
    # the final quotients (359 when the recurrence ran on RatFuncs)
    sig = CASE_V_ORDERING
    columns = [(_free_tridiagonal(), 2, 5), (_free_tridiagonal({"b4": 1}), sig(1), sig(1)),
               (_free_tridiagonal({"b4": 1}), sig(1), sig(4)),
               (_free_tridiagonal({"b4": 1, "a3": 0}), sig(1), sig(1))]
    sums = 0
    add = RatFunc.__add__

    def counted(self, other):
        nonlocal sums
        sums += 1
        return add(self, other)

    monkeypatch.setattr(RatFunc, "__add__", counted)
    for spec, i, k in columns:
        krein_column(spec, i, k)
    assert sums < 20


def _hamming_intersection(d: int, q: int, i: int, j: int, k: int) -> int:
    """p^k_ij of H(d, q) by counting: for x, y at distance k, the words z
    at distance i from x and j from y.  On the k coordinates where x and y
    differ, z agrees with x on alpha, with y on beta and with neither on
    gamma; off them it differs from both on epsilon of the d - k."""
    total = 0
    for alpha in range(k + 1):
        for beta in range(k - alpha + 1):
            gamma = k - alpha - beta
            eps = i - beta - gamma
            if eps >= 0 and alpha + gamma + eps == j:
                total += (math.factorial(k) // (math.factorial(alpha) * math.factorial(beta)
                                                 * math.factorial(gamma))
                          * (q - 2) ** gamma * math.comb(d - k, eps) * (q - 1) ** eps)
    return total


@pytest.mark.parametrize("d, q", [(16, 2), (9, 3), (6, 4)])
def test_hamming_ladder_matches_the_counting_formula(d, q):
    # H(d, q) is formally self-dual, so q^k_ij = p^k_ij, counted independently
    tensor = krein_ladder(hamming(d, q))
    for i, j, k in itertools.product(range(d + 1), repeat=3):
        assert tensor.q(i, j, k) == _hamming_intersection(d, q, i, j, k), (i, j, k)


@pytest.mark.parametrize("i, k", [(3, 0), (0, 3), (-1, 0), (0, -1)])
def test_krein_column_out_of_range(i, k):
    with pytest.raises(IndexError):
        krein_column(C5, i, k)


class TestDualEigensystem:
    def test_complete_graph_dual(self):
        thetas, Q = dual_eigensystem(K4)
        assert thetas == (3, -1)
        assert Q == Matrix([[1, 3], [1, -1]])

    def test_pentagon_dual(self):
        thetas, Q = dual_eigensystem(C5)
        assert thetas[0] == 2
        golden = QuadraticNumber(Fraction(-1, 2), Fraction(1, 2), 5)
        assert set(thetas[1:]) == {golden, golden.conjugate()}
        assert Q.row(0) == (1, 2, 2)

    @pytest.mark.parametrize(
        "n, thetas",
        [
            (8, "2, sqrt(2), -sqrt(2), 0, -2"),
            (10, "2, 1/2+1/2*sqrt(5), 1/2-1/2*sqrt(5), -1/2+1/2*sqrt(5), -1/2-1/2*sqrt(5), -2"),
            (12, "2, sqrt(3), -sqrt(3), 1, 0, -1, -2"),
        ],
    )
    def test_cycle_eigenvalue_order(self, n, thetas):
        # b0* first, then descending with each conjugate pair adjacent (larger
        # first) and placed by its larger member; the 10-cycle interleaves
        # two pairs of Q(sqrt 5)
        counted = scheme_from_relations(named_scheme("cycle", n)).intersections
        got, _ = dual_eigensystem(tridiagonal_from_tensor(counted))
        assert ", ".join(map(str, got)) == thetas

    def test_repeated_eigenvalue(self):
        bad = KreinTridiagonal(1, c=[1], a=[2], b=[-1])  # x^2 - 2x + 1
        with pytest.raises(RepeatedEigenvalue):
            dual_eigensystem(bad)

    def test_b0_must_be_an_eigenvalue(self):
        # column sums not constant: 3 is not a root of the annihilator
        bad = KreinTridiagonal(1, c=[1], a=[1], b=[3])
        with pytest.raises(InvariantViolation):
            dual_eigensystem(bad)

    def test_casev_family_in_bounded_time(self):
        # The annihilator over casev_spec(m) is a sextic with coefficients up
        # to about 10^5; only at m = 5 does it split into factors of degree
        # <= 2.  SIGALRM fails the test after 2 s instead of letting a slow
        # quadratic-factor search stall the suite.
        def too_slow(signum, frame):
            raise TimeoutError("dual_eigensystem over casev_spec(2..9) took more than 2 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(2)
        try:
            for mm in range(2, 10):
                spec = casev_spec(mm).spec
                if mm == 5:
                    thetas, _ = dual_eigensystem(spec)
                    assert len(thetas) == 6
                else:
                    with pytest.raises(UnsupportedAlgebraicDegree):
                        dual_eigensystem(spec)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestEigenmatrices:
    def test_self_dual_complete_graph(self):
        params = scheme_params(K4)
        assert params.P == params.Q == Matrix([[1, 3], [1, -1]])
        assert params.n == 4

    def test_pq_is_n_times_identity(self):
        for spec in (K4, C5, CUBE, CASEV5):
            params = scheme_params(spec)
            assert params.P * params.Q == Matrix.identity(spec.d + 1).scale(params.n)

    def test_top_rows(self):
        params = scheme_params(CASEV5)
        assert params.multiplicities == (1, 5, 10, 10, 25, 5)
        assert sorted(params.valencies) == [1, 5, 5, 10, 10, 25]

    def test_first_eigenmatrix_guard(self):
        _, Q = dual_eigensystem(K4)
        with pytest.raises(InvariantViolation):
            first_eigenmatrix(Q, 5)


class TestIntersectionTensor:
    def test_k4_edge_count(self):
        params = scheme_params(K4)
        assert intersection_tensor(params).p(1, 1, 1) == 2

    def test_pentagon(self):
        params = scheme_params(C5)
        assert intersection_tensor(params).p(1, 1, 2) == 1

    @pytest.mark.parametrize("delta", [QuadraticNumber(0, Fraction(1, 7), 5), Fraction(1, 7)])
    def test_one_entry_of_p_off_in_one_component(self, delta):
        # P[1][1] of the pentagon (over Q(sqrt 5)) moved by a purely irrational
        # or a purely rational delta.  Column 0 of P is all ones, so the first
        # entry the move reaches is p^1_{0,0} = 0: the eigen form gains
        # m_1 delta / (n k_1) = delta / 5 and the dual form is unchanged.  The
        # two sides then differ in one integer component only.
        params = scheme_params(C5)
        rows = [list(r) for r in params.P.rows]
        rows[1][1] += delta
        with pytest.raises(InconsistentEigenmatrices) as exc:
            intersection_tensor(params._replace(P=Matrix(rows)))
        assert str(exc.value) == f"p^1_{{0,0}}: {delta / 5} (eigen form) vs 0 (dual form)"

    def test_column_sums_are_valencies(self):
        params = scheme_params(CUBE)
        tensor = intersection_tensor(params)
        assert tensor.valencies() == params.valencies
        d = params.d
        for i in range(d + 1):
            for k in range(d + 1):
                s = sum(tensor.p(i, j, k) for j in range(d + 1))
                assert s == params.valencies[i]


class TestFeasibility:
    def test_cube_passes(self):
        report = feasibility_report(scheme_params(CUBE))
        assert report.feasible

    def test_casev_m5_fails_intersection_integrality(self):
        report = feasibility_report(scheme_params(CASEV5))
        assert not report.feasible
        check = report.check("intersection-integrality")
        assert not check.passed
        assert any("72/7" in w for w in check.witnesses)
        for name in (
            "krein-nonnegativity",
            "multiplicity-integrality",
            "valency-integrality",
            "krein-column-sums",
            "intersection-column-sums",
        ):
            assert report.check(name).passed

    def test_injected_negative_krein_parameter(self):
        # b1* = -1 injected; the eigensystem need not exist, so this is
        # checked at the tensor level
        bad = KreinTridiagonal(3, c=[1, 2, 3], a=[0, 0, 0], b=[3, -1, 1])
        report = tensor_checks(krein_ladder(bad))
        assert not report.check("krein-nonnegativity").passed


class TestOrderings:
    def test_casev_m5_has_exactly_two(self):
        found = enumerate_q_orderings(krein_ladder(CASEV5))
        assert [o.sigma for o in found] == [(0, 1, 2, 3, 4, 5), (0, 5, 3, 2, 4, 1)]

    def test_pentagon_has_both(self):
        found = enumerate_q_orderings(krein_ladder(C5))
        assert [o.sigma for o in found] == [(0, 1, 2), (0, 2, 1)]

    def test_complete_bipartite_loses_the_swap(self):
        # K_{3,3}: q^1_22 = 0, so the swapped ordering fails (Q2) and only
        # the identity survives; Petersen (all relevant Kreins nonzero)
        # keeps both
        from asx.oracles import RelationSet, named_scheme, scheme_from_relations

        n, part = 6, lambda v: v // 3
        ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        a1 = tuple(
            tuple(1 if part(i) != part(j) else 0 for j in range(n)) for i in range(n)
        )
        a2 = tuple(
            tuple(1 if (part(i) == part(j) and i != j) else 0 for j in range(n))
            for i in range(n)
        )
        k33 = scheme_from_relations(RelationSet(n, (ident, a1, a2)))
        assert k33.kreins.q(2, 2, 1) == 0
        assert [o.sigma for o in enumerate_q_orderings(k33.kreins)] == [(0, 1, 2)]
        petersen = scheme_from_relations(named_scheme("petersen"))
        assert [o.sigma for o in enumerate_q_orderings(petersen.kreins)] == [
            (0, 1, 2),
            (0, 2, 1),
        ]

    @staticmethod
    def _scan(tensor):
        """Reference: every permutation with sigma(0) = 0, checked against
        (Q1)/(Q2) written out from the definition."""
        d, q = tensor.d, tensor.q
        rng = range(d + 1)
        found = []
        for tail in itertools.permutations(range(1, d + 1)):
            s = (0,) + tail
            if all(
                (q(s[i], s[j], s[k]) == 0) == (2 * max(i, j, k) > i + j + k)
                for i, j, k in itertools.product(rng, repeat=3)
                if 2 * max(i, j, k) >= i + j + k
            ):
                found.append(s)
        return found

    @pytest.mark.parametrize(
        "spec",
        [hamming(d, q) for d in range(2, 7) for q in range(2, 6)]
        + [hamming(7, 2), hamming(7, 3)]
        + [casev_spec(m).spec for m in (2, 3, 5, 7, 11)]
        + [C5],
        ids=[f"H({d},{q})" for d in range(2, 7) for q in range(2, 6)]
        + ["H(7,2)", "H(7,3)"]
        + [f"casev-m{m}" for m in (2, 3, 5, 7, 11)]
        + ["pentagon"],
    )
    def test_agrees_with_the_permutation_scan(self, spec):
        tensor = krein_ladder(spec)
        assert [o.sigma for o in enumerate_q_orderings(tensor)] == self._scan(tensor)

    def test_q_condition_failure(self):
        # both case-V orderings at m = 5 pass; swapping E1 and E2 first
        # breaks (Q1) at q-hat^3_{1,1} = q^3_{2,2} != 0
        tensor = krein_ladder(CASEV5)
        assert q_condition_failure(tensor, (0, 1, 2, 3, 4, 5)) is None
        assert q_condition_failure(tensor, (0, 5, 3, 2, 4, 1)) is None
        assert q_condition_failure(tensor, (0, 2, 1, 3, 4, 5)) == (1, 1, 3, True)
        assert tensor.q(2, 2, 3)

    def test_hypercubes_d9_to_d16(self):
        # Past the old d <= 8 cap: the d-cube keeps only the identity for
        # odd d; for even d it also has sigma(i) = i (i even), d - i (i odd)
        for d in range(9, 17):
            found = [o.sigma for o in enumerate_q_orderings(krein_ladder(hamming(d, 2)))]
            identity = tuple(range(d + 1))
            if d % 2:
                assert found == [identity]
            else:
                second = tuple(i if i % 2 == 0 else d - i for i in range(d + 1))
                assert found == [identity, second]


# The second-ordering patterns for d = 1..16, type -> sequence in insertion
# order; a pattern that is not a permutation of 0..d is absent.
PATTERNS = {
    1: {"I": (0, 1), "II": (0, 1), "III": (0, 1), "IV": (0, 1)},
    2: {"I": (0, 2, 1), "II": (0, 2, 1), "IV": (0, 1, 2)},
    3: {"I": (0, 2, 3, 1), "II": (0, 3, 1, 2), "III": (0, 3, 2, 1)},
    4: {"I": (0, 2, 4, 3, 1), "II": (0, 4, 1, 3, 2), "IV": (0, 3, 2, 1, 4)},
    5: {"I": (0, 2, 4, 5, 3, 1), "II": (0, 5, 1, 4, 2, 3), "III": (0, 5, 2, 3, 4, 1), "V": (0, 5, 3, 2, 4, 1)},
    6: {"I": (0, 2, 4, 6, 5, 3, 1), "II": (0, 6, 1, 5, 2, 4, 3), "IV": (0, 5, 2, 3, 4, 1, 6)},
    7: {"I": (0, 2, 4, 6, 7, 5, 3, 1), "II": (0, 7, 1, 6, 2, 5, 3, 4), "III": (0, 7, 2, 5, 4, 3, 6, 1)},
    8: {"I": (0, 2, 4, 6, 8, 7, 5, 3, 1), "II": (0, 8, 1, 7, 2, 6, 3, 5, 4), "IV": (0, 7, 2, 5, 4, 3, 6, 1, 8)},
    9: {"I": (0, 2, 4, 6, 8, 9, 7, 5, 3, 1), "II": (0, 9, 1, 8, 2, 7, 3, 6, 4, 5), "III": (0, 9, 2, 7, 4, 5, 6, 3, 8, 1)},
    10: {"I": (0, 2, 4, 6, 8, 10, 9, 7, 5, 3, 1), "II": (0, 10, 1, 9, 2, 8, 3, 7, 4, 6, 5), "IV": (0, 9, 2, 7, 4, 5, 6, 3, 8, 1, 10)},
    11: {"I": (0, 2, 4, 6, 8, 10, 11, 9, 7, 5, 3, 1), "II": (0, 11, 1, 10, 2, 9, 3, 8, 4, 7, 5, 6), "III": (0, 11, 2, 9, 4, 7, 6, 5, 8, 3, 10, 1)},
    12: {"I": (0, 2, 4, 6, 8, 10, 12, 11, 9, 7, 5, 3, 1), "II": (0, 12, 1, 11, 2, 10, 3, 9, 4, 8, 5, 7, 6), "IV": (0, 11, 2, 9, 4, 7, 6, 5, 8, 3, 10, 1, 12)},
    13: {"I": (0, 2, 4, 6, 8, 10, 12, 13, 11, 9, 7, 5, 3, 1), "II": (0, 13, 1, 12, 2, 11, 3, 10, 4, 9, 5, 8, 6, 7), "III": (0, 13, 2, 11, 4, 9, 6, 7, 8, 5, 10, 3, 12, 1)},
    14: {"I": (0, 2, 4, 6, 8, 10, 12, 14, 13, 11, 9, 7, 5, 3, 1), "II": (0, 14, 1, 13, 2, 12, 3, 11, 4, 10, 5, 9, 6, 8, 7), "IV": (0, 13, 2, 11, 4, 9, 6, 7, 8, 5, 10, 3, 12, 1, 14)},
    15: {"I": (0, 2, 4, 6, 8, 10, 12, 14, 15, 13, 11, 9, 7, 5, 3, 1), "II": (0, 15, 1, 14, 2, 13, 3, 12, 4, 11, 5, 10, 6, 9, 7, 8), "III": (0, 15, 2, 13, 4, 11, 6, 9, 8, 7, 10, 5, 12, 3, 14, 1)},
    16: {"I": (0, 2, 4, 6, 8, 10, 12, 14, 16, 15, 13, 11, 9, 7, 5, 3, 1), "II": (0, 16, 1, 15, 2, 14, 3, 13, 4, 12, 5, 11, 6, 10, 7, 9, 8), "IV": (0, 15, 2, 13, 4, 11, 6, 9, 8, 7, 10, 5, 12, 3, 14, 1, 16)},
}


class TestClassification:
    @pytest.mark.parametrize(
        "seq, d, expected",
        [
            ((0, 5, 3, 2, 4, 1), 5, StructureType.V),
            ((0, 5, 1, 4, 2, 3), 5, StructureType.II),
            ((0, 1, 2, 3, 4, 5), 5, StructureType.NONE),
            ((0, 2, 4, 5, 3, 1), 5, StructureType.I),
            ((0, 5, 2, 3, 4, 1), 5, StructureType.III),
            ((0, 5, 2, 3, 4, 1, 6), 6, StructureType.IV),
            ((0, 2, 1), 2, StructureType.I),
            ((0, 4, 2, 3, 1, 5), 5, StructureType.NONE),
        ],
    )
    def test_patterns(self, seq, d, expected):
        assert Ordering(seq).d == d
        assert classify_structure_pair(Ordering(seq)) == expected

    @pytest.mark.parametrize("d", range(1, 17))
    def test_pattern_table(self, d):
        got = [(t.value, seq) for t, seq in _pattern_sequences(d).items()]
        assert got == list(PATTERNS[d].items())

    def test_invalid_ordering(self):
        with pytest.raises(InvariantViolation):
            Ordering((1, 0))
        with pytest.raises(InvariantViolation):
            Ordering((0, 2, 2))
        with pytest.raises(InvariantViolation):
            Ordering(())
        for d in (0, -1):
            with pytest.raises(InvariantViolation):
                KreinTridiagonal(d, (), (), ())


class TestFusion:
    def test_singleton_partition_is_identity(self):
        t = krein_ladder(C5)
        fused = fuse(t, FusionPartition(((0,), (1,), (2,))))
        assert fused == t and fused.multiplicities() == t.multiplicities()

    def test_invalid_partition(self):
        with pytest.raises(InvalidPartition):
            FusionPartition(((0, 1), (2,)))
        with pytest.raises(InvalidPartition):
            FusionPartition.from_string("0|1", 2)
        with pytest.raises(InvalidPartition):
            FusionPartition.from_string("0|1,x", 2)

    def test_from_string(self):
        p = FusionPartition.from_string("0|1,5|2,3|4", 5)
        assert p.blocks == ((0,), (1, 5), (2, 3), (4,))
        assert str(p) == "0|1,5|2,3|4"

    def test_well_definedness_violation(self):
        # hand-built non-fusable tensor: B2* column sums disagree with B1*'s
        # pattern so gamma = 1 and gamma = 2 give different block sums
        b0 = Matrix.identity(3)
        b1 = Matrix([[0, 1, 0], [2, 0, 1], [0, 1, 1]])
        b2 = Matrix([[0, 0, 1], [0, 2, 1], [2, 1, 0]])
        t = KreinTensor([b0, b1, b2])
        with pytest.raises(WellDefinednessViolation):
            fuse(t, FusionPartition(((0,), (1, 2))))


def _set_partitions(items):
    """Every partition of the list ``items`` into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for p in _set_partitions(rest):
        for i in range(len(p)):
            yield p[:i] + [[first] + p[i]] + p[i + 1:]
        yield [[first]] + p


@pytest.mark.parametrize(
    "spec, fusing",
    [
        (CASEV5, ["0|1,2,3,4,5", "0|2,3,4|1,5", "0|2,3|4|1,5", "0|1|2|3|4|5"]),
        (hamming(4, 2), ["0|1,2,3,4", "0|1,2|3,4", "0|1,2,3|4", "0|2,3|1,4",
                         "0|1,3|2,4", "0|2|1,3|4", "0|1|2|3|4"]),
    ],
    ids=["casev-m5", "H(4,2)"],
)
def test_fused_multiplicities_are_the_block_sums(spec, fusing):
    # T0 = {0}, so column 0 of each fused Ci* adds up column 0 of the
    # B_alpha*, alpha in Ti: the fused tensor's multiplicities are the
    # block sums of the tensor's, for every partition that fuses
    tensor = krein_ladder(spec)
    mults = tensor.multiplicities()
    fused_ok = []
    for blocks in _set_partitions(list(range(1, spec.d + 1))):
        partition = FusionPartition(((0,), *map(tuple, blocks)))
        try:
            fused = fuse(tensor, partition)
        except WellDefinednessViolation:
            continue
        fused_ok.append(str(partition))
        assert fused.multiplicities() == tuple(
            sum((mults[a] for a in block), Fraction(0)) for block in partition.blocks
        )
    assert fused_ok == fusing


def test_tridiagonal_from_tensor_roundtrip():
    for spec in (K4, C5, CUBE, CASEV5):
        t = krein_ladder(spec)
        back = tridiagonal_from_tensor(t)
        assert back == spec
