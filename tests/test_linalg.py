import random
from fractions import Fraction

import pytest

from asx.errors import InvariantViolation, MixedScalars, SingularMatrix
from asx.linalg import Matrix, _exact_quotients, nullspace
from asx.poly import MultiPoly, RatFunc
from asx.scalars import QuadraticNumber
from asx.scheme import KreinTensor


def test_identity_inverse():
    assert Matrix.identity(4).inverse() == Matrix.identity(4)


def test_2x2_adjugate():
    m = Matrix([[1, 2], [3, 4]])
    assert m.inverse() == Matrix([[-2, 1], [Fraction(3, 2), Fraction(-1, 2)]])
    assert m.determinant() == -2


def test_fused_eigenmatrix_inversion_at_m5():
    # S built from the closed form at m = 5 (delta = 72), rows ordered so the
    # valencies come out (1, 25, 20, 10); the inverse is checked against the
    # defining property S S^-1 = I
    S = Matrix(
        [
            [1, 10, 20, 25],
            [1, 2, -4, 1],
            [1, -4, Fraction(4, 3), Fraction(5, 3)],
            [1, 2, Fraction(16, 3), Fraction(-25, 3)],
        ]
    )
    Sinv = S.inverse()
    assert S * Sinv == Matrix.identity(4)
    assert Sinv * S == Matrix.identity(4)
    top = (Sinv.scale(56)).row(0)
    assert top == (1, 25, 20, 10)


def test_random_rational_inverses():
    rng = random.Random(7)
    done = 0
    while done < 12:
        n = rng.randint(1, 5)
        m = Matrix(
            [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
                for _ in range(n)
            ]
        )
        if m.determinant() == 0:
            continue
        inv = m.inverse()
        assert m * inv == Matrix.identity(n)
        assert inv * m == Matrix.identity(n)
        done += 1


def test_singular_matrix():
    with pytest.raises(SingularMatrix):
        Matrix([[1, 2], [2, 4]]).inverse()
    assert Matrix([[1, 2], [2, 4]]).determinant() == 0


def test_quadratic_entries():
    m = Matrix([[QuadraticNumber(1, 1, 2), 1], [1, 1]])
    assert m * m.inverse() == Matrix.identity(2)
    assert m.determinant() == QuadraticNumber(0, 1, 2)


def test_mixed_scalars_rejected():
    with pytest.raises(MixedScalars):
        Matrix([[QuadraticNumber(0, 1, 2), QuadraticNumber(0, 1, 3)]])
    with pytest.raises(MixedScalars):
        Matrix([[QuadraticNumber(0, 1, 2), RatFunc.var("m")]])
    # rationals mix freely with a single radicand
    Matrix([[QuadraticNumber(0, 1, 2), Fraction(1, 2)], [3, QuadraticNumber(1)]])


R2, R3, R5 = QuadraticNumber(0, 1, 2), QuadraticNumber(1, 1, 3), QuadraticNumber(0, 1, 5)
M = RatFunc.var("m")
SYMBOLIC_SQRT5 = "cannot combine sqrt(5) with a symbolic scalar"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Matrix([[R2, 0]]) - Matrix([[0, R3]]), "matrix mixes sqrt(2) and sqrt(3)"),
        (lambda: Matrix([[R5, 0]]) - Matrix([[0, M]]),
         "matrix mixes quadratic irrationals with symbolic entries"),
        (lambda: Matrix([[1, R2], [1, 1]]) - R3, "matrix mixes sqrt(3) and sqrt(2)"),
        (lambda: Matrix([[1, M], [1, 1]]) - R5,
         "matrix mixes quadratic irrationals with symbolic entries"),
        (lambda: R3 * Matrix([[R2, 1]]), "cannot combine sqrt(2) with sqrt(3)"),
        (lambda: Matrix([[R2, 1]]) / R3, "cannot combine sqrt(2) with sqrt(3)"),
        (lambda: Matrix([[1, 2]]).scale(0.5), "unsupported entry type float"),
        (lambda: Matrix([[1, 2], [3, 4]]) - 0.5, "unsupported entry type float"),
        # a sqrt(D) entry meeting a symbolic one at the same position
        (lambda: Matrix([[R5, 0]]) - Matrix([[M, 1]]), SYMBOLIC_SQRT5),
        (lambda: Matrix([[R5, 1], [1, 1]]) - M, SYMBOLIC_SQRT5),
        (lambda: Matrix([[R5, 1]]).scale(M), SYMBOLIC_SQRT5),
        (lambda: Matrix([[R5, 1]]) * Matrix([[1], [M]]), SYMBOLIC_SQRT5),
        (lambda: R5 + M, SYMBOLIC_SQRT5),
        (lambda: M * R5, SYMBOLIC_SQRT5),
        (lambda: R5 - MultiPoly.var("m"), SYMBOLIC_SQRT5),
        (lambda: R5 / MultiPoly.var("m"), SYMBOLIC_SQRT5),
        (lambda: R5 / M, SYMBOLIC_SQRT5),
    ],
)
def test_results_whose_fields_do_not_join_raise(build, message):
    # differences, scalar shifts and scalings across two fields: the same
    # MixedScalars, with the same message, as a matrix built from the rows
    with pytest.raises(MixedScalars) as exc:
        build()
    assert str(exc.value) == message


def test_quadratic_and_symbolic_scalars_are_never_equal():
    # no MixedScalars here: tuple equality of matrix rows reaches these
    assert R5 != M and M != R5 and R5 != MultiPoly.var("m")
    assert Matrix([[R5, 1]]) != Matrix([[M, 1]])


def test_exact_quotients():
    assert _exact_quotients([6, -9, 0], 3) == [2, -3, 0]
    assert _exact_quotients([6, -9, 0], -3) == [-2, 3, 0]
    with pytest.raises(InvariantViolation):
        _exact_quotients([6, 7], 3)
    with pytest.raises(InvariantViolation):
        _exact_quotients([6, 7], -3)
    # a RatFunc pivot divides with /, exactly, since Q(m) is a field
    m = RatFunc.var("m")
    assert _exact_quotients([m * m - 1, Fraction(3), m], m + 1) == [
        m - 1, 3 / (m + 1), m / (m + 1)]
    assert _exact_quotients([m, Fraction(2)], RatFunc.one()) == [m, Fraction(2)]


def test_ratfunc_elimination_swaps_rows():
    # a zero in the first column's top entry: the pivot comes from row 1
    m = RatFunc.var("m")
    a = Matrix([[0, m, 1], [m, 1, 0], [1, 0, m]])
    det = a.determinant()
    assert det == -(m ** 3) - 1  # expanded along the first column
    assert a * a.inverse() == Matrix.identity(3)
    assert a.inverse() * a == Matrix.identity(3)


def test_singular_ratfunc_matrix():
    m = RatFunc.var("m")
    # column 1 is (m + 1)/m times column 0, so it has no pivot; column 2 has one
    a = Matrix([[m, m + 1, 1], [1, (m + 1) / m, 2], [m * m, m * (m + 1), 3]])
    with pytest.raises(SingularMatrix) as exc:
        a.inverse()
    assert str(exc.value) == "no pivot in column 1"
    assert a.determinant() == 0
    (v,) = nullspace(a)
    assert all(sum((x * y for x, y in zip(r, v)), Fraction(0)) == 0 for r in a.rows)


def test_ratfunc_matrix_inverse():
    m = RatFunc.var("m")
    a = Matrix([[m, 1], [1, m]])
    assert a * a.inverse() == Matrix.identity(2)


def test_equal_matrices_with_mixed_zeros_hash_alike():
    m = RatFunc.var("m")
    a, b = Matrix([[RatFunc.zero(), m]]), Matrix([[Fraction(0), m]])
    assert a == b and len({a, b}) == 1


def test_shape_checks():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3, 4]]) * Matrix([[1, 2, 3]])
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix([[1, 2, 3]]).inverse()
    # equality of unequal shapes is False, not an error or a prefix match
    assert Matrix([[1, 2]]) != Matrix([[1], [2]])
    assert Matrix([[1]]) != Matrix([[1, 0]])
    one = KreinTensor([Matrix.identity(1)])
    two = KreinTensor([Matrix.identity(2), Matrix([[0, 1], [1, 0]])])
    assert one != two and two != one and two == KreinTensor(two.mats)


def test_nullspace():
    a = Matrix([[1, 2, 3], [2, 4, 6]])
    basis = nullspace(a)
    assert len(basis) == 2
    for v in basis:
        assert all(
            sum((a[i, j] * v[j] for j in range(3)), Fraction(0)) == 0 for i in range(2)
        )
    assert nullspace(Matrix.identity(3)) == []


def _random_matrices(field: str):
    """Seeded square and non-square matrices over one field, with singular
    and rank-deficient ones (products through a narrower middle dimension,
    a repeated row, a zero column, a column twice the one before it, so
    that a column without a pivot comes before columns with one) mixed in.
    Over Q and Q(sqrt 21) there are 8 x 8 ones too: entries of the size of
    an H(7, 3) eigenmatrix, ones with numerators near 10**20 (the exact
    divisions of the elimination run on multi-word ints), and an
    upper-triangular matrix with its last row moved to the top, so that the
    first-nonzero pivot rule swaps rows at every column but the last."""
    rng = random.Random(sum(map(ord, field)))
    if field == "Q":
        sizes = range(1, 8)

        def entry():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    elif field == "Q(m)":
        sizes = range(2, 5)
        m = RatFunc.var("m")

        def entry():
            x = rng.randint(-3, 3) + rng.randint(-2, 2) * m + rng.choice([0, 0, 1]) * m * m
            return x / (m + rng.randint(1, 3)) if rng.random() < 0.3 else x
    else:
        d = int(field[len("Q(sqrt ") : -1])
        sizes = range(1, 6)

        def entry():
            return QuadraticNumber(
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)), rng.randint(-3, 3), d
            )

    def rand(nr, nc):
        return [[entry() for _ in range(nc)] for _ in range(nr)]

    def product(a, b):
        return [[sum((x * y for x, y in zip(r, c)), Fraction(0)) for c in zip(*b)] for r in a]

    out = []
    for n in sizes:
        out.append(rand(n, n))
        out.append(rand(n, n))
        if n > 1:
            out.append(product(rand(n, n - 1), rand(n - 1, n)))
            rows = rand(n, n)
            rows[-1] = list(rows[0])
            out.append(rows)
            out.append([[Fraction(0)] + r[1:] for r in rand(n, n)])
            out.append([r[:1] + [r[0] * 2] + r[2:] for r in rand(n, n + 1)])
            out.append(rand(n - 1, n))
            out.append(product(rand(n + 1, 1), rand(1, n)))
    if field in ("Q", "Q(sqrt 21)"):
        rad = 21 if field != "Q" else 0

        def big(size):
            a = Fraction(rng.randint(-size, size), rng.randint(1, 7))
            return QuadraticNumber(a, rng.randint(-size, size), rad) if rad else a

        for size in (2187, 10**20):
            out.append([[big(size) for _ in range(8)] for _ in range(8)])
        upper = [[big(2187) if j > i else Fraction(0) for j in range(8)] for i in range(8)]
        for i in range(8):
            upper[i][i] = big(2187) or Fraction(1)
        out.append([upper[-1]] + upper[:-1])
    return [Matrix(rows) for rows in out]


@pytest.mark.parametrize(
    "field, s",
    [
        ("Q", Fraction(-7, 3)),
        ("Q", 3),
        ("Q(sqrt 5)", QuadraticNumber(Fraction(1, 2), 3, 5)),
        ("Q(m)", (RatFunc.var("m") + 2) / (RatFunc.var("m") - 1)),
    ],
)
def test_scalar_operands_stand_for_multiples_of_the_identity(field, s):
    # M - s, s * M and M / s against the explicit s I and scale forms
    for a in _random_matrices(field):
        if a.nrows == a.ncols:
            assert a - s == a - Matrix.identity(a.nrows).scale(s)
        assert s * a == a.scale(s)
        assert a / s == a.scale(Fraction(1) / s)
    assert 3 * Matrix.identity(2) == Matrix([[3, 0], [0, 3]])


def _cancelled(a):
    """Results of ``a`` whose irrational or symbolic parts cancel, each with
    the matrix it equals: ``a - a`` and ``a.scale(0)`` are zero, ``a a^-1``
    is the identity."""
    zero = Matrix([[0] * a.ncols] * a.nrows)
    out = [(a - a, zero), (a.scale(0), zero)]
    if a.nrows == a.ncols and a.determinant():
        out.append((a * a.inverse(), Matrix.identity(a.nrows)))
    return out


def _combine(x, b):
    """Every difference and product of ``x`` and ``b`` that their shapes allow."""
    out = []
    if (x.nrows, x.ncols) == (b.nrows, b.ncols):
        out += [x - b, b - x]
    if x.ncols == b.nrows:
        out.append(x * b)
    if b.ncols == x.nrows:
        out.append(b * x)
    return out


@pytest.mark.parametrize("other", ["Q(sqrt 2)", "Q(m)"])
def test_cancelled_irrational_parts_leave_fractions(other):
    # a result over Q(sqrt 5) whose sqrt parts cancel holds only Fractions,
    # so it combines with a matrix over another field without MixedScalars
    others = _random_matrices(other)
    for a in _random_matrices("Q(sqrt 5)"):
        for x, value in _cancelled(a):
            assert x == value
            assert all(type(v) is Fraction for r in x.rows for v in r)
            for b in others:
                assert _combine(x, b) == _combine(value, b)


def test_cancelled_symbolic_parts_leave_constants():
    # a result over Q(m) whose symbolic parts cancel holds constants, equal to
    # and hashing as Fractions, and combines with a rational matrix; RatFunc
    # arithmetic keeps its type, so a sqrt(D) matrix still raises MixedScalars
    rational = _random_matrices("Q")
    for a in _random_matrices("Q(m)"):
        for x, value in _cancelled(a):
            assert x == value and hash(x) == hash(value)
            for b in rational:
                assert _combine(x, b) == _combine(value, b)
            with pytest.raises(MixedScalars, match="with a symbolic scalar"):
                x - Matrix([[R5] * x.ncols] * x.nrows)


def test_results_over_q_hold_only_fractions():
    # ints are turned into Fractions, also in scalar operands and identities
    results = [3 * Matrix.identity(2), Matrix([[1, 2], [3, 4]]) - 1, Matrix([[1, 2], [3, 4]])]
    for a in _random_matrices("Q"):
        results += [Matrix.identity(a.nrows), a - 1 if a.nrows == a.ncols else a, 3 * a,
                    a.scale(0), a - a, a * Matrix.identity(a.ncols)]
        if a.nrows == a.ncols and a.determinant():
            results += [a.inverse(), a * a.inverse()]
    for x in results:
        assert all(type(v) is Fraction for r in x.rows for v in r)


@pytest.mark.parametrize("field", ["Q", "Q(sqrt 2)", "Q(sqrt 5)", "Q(sqrt 21)", "Q(m)"])
def test_elimination_agrees_with_sympy(field):
    # Differential check of the product, inverse, determinant and nullspace
    # against sympy's exact domain matrices over QQ, QQ<sqrt(d)> and QQ(m).
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    m_sym = sympy.Symbol("m")
    if field == "Q":
        K = sympy.QQ
    elif field == "Q(m)":
        K = sympy.QQ.frac_field(m_sym)
    else:
        sqrt_d = sympy.sqrt(int(field[len("Q(sqrt ") : -1]))
        K = sympy.QQ.algebraic_field(sqrt_d)
        root = K.from_sympy(sqrt_d)

    def to_sympy(x):
        if isinstance(x, Fraction):
            return K.from_sympy(sympy.Rational(x.numerator, x.denominator))
        if isinstance(x, QuadraticNumber):
            return to_sympy(x.rational_part) + to_sympy(x.sqrt_coefficient) * root
        num, den = (
            sum(
                (
                    sympy.Rational(c.numerator, c.denominator) * m_sym**k
                    for k, c in enumerate(p.coeff_list())
                ),
                sympy.Integer(0),
            )
            for p in (x.num, x.den)
        )
        return K.from_sympy(num / den)

    def to_domain(a):
        return DomainMatrix([[to_sympy(x) for x in r] for r in a.rows], (a.nrows, a.ncols), K)

    mats = _random_matrices(field)
    refs = [to_domain(a) for a in mats]
    n = len(mats)
    for i, (a, ref) in enumerate(zip(mats, refs)):
        # a times the next matrix in the list (cyclically) that it fits
        j = next(k % n for k in range(i + 1, i + 1 + n) if mats[k % n].nrows == a.ncols)
        assert to_domain(a * mats[j]) == ref * refs[j]
        basis = nullspace(a)
        assert len(basis) == a.ncols - ref.rank()
        for v in basis:
            assert all(
                sum((x * y for x, y in zip(r, v)), Fraction(0)) == 0 for r in a.rows
            )
        if a.nrows != a.ncols:
            continue
        det = ref.det()
        assert to_sympy(a.determinant()) == det
        if not det:
            with pytest.raises(SingularMatrix):
                a.inverse()
            continue
        assert [[to_sympy(x) for x in r] for r in a.inverse().rows] == ref.inv().to_list()
