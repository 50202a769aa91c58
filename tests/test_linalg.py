import random
from fractions import Fraction

import pytest

from asx.errors import MixedScalars, SingularMatrix
from asx.linalg import Matrix, nullspace
from asx.poly import RatFunc
from asx.scalars import QuadraticNumber


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


def test_ratfunc_matrix_inverse():
    m = RatFunc.var("m")
    a = Matrix([[m, 1], [1, m]])
    assert a * a.inverse() == Matrix.identity(2)


def test_shape_checks():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3, 4]]) * Matrix([[1, 2, 3]])
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix([[1, 2, 3]]).inverse()


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
    a repeated row, a zero column) mixed in."""
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
            out.append(rand(n - 1, n))
            out.append(product(rand(n + 1, 1), rand(1, n)))
    return [Matrix(rows) for rows in out]


@pytest.mark.parametrize("field", ["Q", "Q(sqrt 2)", "Q(sqrt 5)", "Q(sqrt 21)", "Q(m)"])
def test_elimination_agrees_with_sympy(field):
    # Differential check of inverse, determinant and nullspace against
    # sympy's exact domain matrices over QQ, QQ<sqrt(d)> and QQ(m).
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

    for a in _random_matrices(field):
        ref = DomainMatrix([[to_sympy(x) for x in r] for r in a.rows], (a.nrows, a.ncols), K)
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
