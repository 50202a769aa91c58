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
