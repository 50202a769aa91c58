from fractions import Fraction

import pytest

from asx.errors import (
    InvalidParameter,
    NotAScheme,
    NotPPolynomial,
    UnknownName,
    UnsupportedAlgebraicDegree,
)
from asx.linalg import Matrix
from asx.oracles import RelationSet, _count_intersections, named_scheme, scheme_from_relations
from asx.scalars import QuadraticNumber
from asx.scheme import (
    IntersectionTensor,
    feasibility_report,
    intersection_tensor,
    krein_ladder,
    tridiagonal_from_tensor,
)

NAMED = [("complete", 4), ("cycle", 5), ("petersen", None), ("hypercube", 3)]
ALL_NAMED = (
    [("complete", n) for n in range(2, 13)]
    + [("cycle", n) for n in range(3, 13)]
    + [("hypercube", n) for n in range(1, 7)]
    + [("petersen", None)]
)


class TestNamedSchemes:
    def test_complete(self):
        rels = named_scheme("complete", 4)
        assert rels.d == 1 and rels.n == 4
        rels.validate()

    def test_bad_names_and_parameters(self):
        with pytest.raises(UnknownName):
            named_scheme("paley", 13)
        with pytest.raises(InvalidParameter):
            named_scheme("cycle", 2)
        with pytest.raises(InvalidParameter):
            named_scheme("hypercube", 10)
        with pytest.raises(InvalidParameter):
            named_scheme("complete", 1)

    def test_not_a_scheme(self):
        # a pair violating closure: I plus an asymmetric-by-content split
        ident = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
        a1 = tuple(
            tuple(1 if (i, j) in ((0, 1), (1, 0), (2, 3), (3, 2), (0, 2), (2, 0)) else 0 for j in range(4))
            for i in range(4)
        )
        a2 = tuple(
            tuple(1 - ident[i][j] - a1[i][j] for j in range(4)) for i in range(4)
        )
        with pytest.raises(NotAScheme):
            scheme_from_relations(RelationSet(4, (ident, a1, a2)))

    def test_empty_relation(self):
        # I, the triangle's edges J - I, and an all-zero relation: the three
        # partition every pair, but relation 2 has no pair to count from
        ident = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
        edges = tuple(tuple(int(i != j) for j in range(3)) for i in range(3))
        zero = ((0, 0, 0),) * 3
        with pytest.raises(NotAScheme, match="^relation 2 is empty$"):
            scheme_from_relations(RelationSet(3, (ident, edges, zero)))


class TestSchemeFromRelations:
    def test_complete_graph(self):
        sp = scheme_from_relations(named_scheme("complete", 4))
        assert sp.P == sp.Q == Matrix([[1, 3], [1, -1]])
        assert sp.valencies == (1, 3) and sp.multiplicities == (1, 3)
        assert sp.intersections.p(1, 1, 1) == 2

    def test_pentagon(self):
        sp = scheme_from_relations(named_scheme("cycle", 5))
        assert sp.intersections.p(1, 1, 2) == 1
        golden = QuadraticNumber(Fraction(-1, 2), Fraction(1, 2), 5)
        assert golden in sp.P.col(1)
        # rational Krein numbers despite the irrational eigenvalues
        assert sp.kreins.q(1, 1, 2) == 1

    def test_petersen(self):
        sp = scheme_from_relations(named_scheme("petersen", None))
        assert sp.valencies == (1, 3, 6)
        assert sp.multiplicities == (1, 5, 4)
        assert sp.kreins.q(1, 1, 1) == Fraction(20, 9)

    def test_hypercube_is_self_dual(self):
        sp = scheme_from_relations(named_scheme("hypercube", 3))
        assert sp.valencies == (1, 3, 3, 1)
        assert sp.kreins == krein_ladder(
            tridiagonal_from_tensor(sp.kreins)
        )
        assert sp.intersections.p(1, 1, 2) == 2
        assert sp.kreins.q(1, 1, 2) == 2

    def test_seven_cycle_needs_a_cubic_field(self):
        with pytest.raises(UnsupportedAlgebraicDegree):
            scheme_from_relations(named_scheme("cycle", 7))

    def test_reordered_relations_are_not_p_polynomial(self):
        cube = named_scheme("hypercube", 3)
        shuffled = RelationSet(
            cube.n,
            (cube.relations[0], cube.relations[2], cube.relations[1], cube.relations[3]),
        )
        with pytest.raises(NotPPolynomial):
            scheme_from_relations(shuffled)


class TestCrossValidation:
    @pytest.mark.parametrize("name, param", NAMED)
    def test_ladder_reproduces_the_oracle_tensor(self, name, param):
        sp = scheme_from_relations(named_scheme(name, param))
        spec = tridiagonal_from_tensor(sp.kreins)
        assert krein_ladder(spec) == sp.kreins

    @pytest.mark.parametrize("name, param", NAMED)
    def test_feasibility_passes(self, name, param):
        sp = scheme_from_relations(named_scheme(name, param))
        assert feasibility_report(sp).feasible

    @pytest.mark.parametrize("name, param", NAMED)
    def test_pq_identity_and_formula_agreement(self, name, param):
        sp = scheme_from_relations(named_scheme(name, param))
        assert sp.P * sp.Q == Matrix.identity(sp.d + 1).scale(sp.n)
        counted = sp.intersections
        assert intersection_tensor(sp) == counted

    @pytest.mark.parametrize("name, param", NAMED)
    def test_krein_symmetry_under_index_permutations(self, name, param):
        sp = scheme_from_relations(named_scheme(name, param))
        d, m, q = sp.d, sp.multiplicities, sp.kreins.q
        for i in range(d + 1):
            for j in range(d + 1):
                for k in range(d + 1):
                    v = m[k] * q(i, j, k)
                    assert v == m[k] * q(j, i, k)
                    assert v == m[j] * q(i, k, j)
                    assert v == m[i] * q(k, j, i)

    @pytest.mark.parametrize(
        "name, param", NAMED + [("complete", 7), ("cycle", 8), ("cycle", 12), ("hypercube", 5)]
    )
    def test_kreins_match_the_dual_orthogonality_sum(self, name, param):
        # q^k_ij = sum_u k_u Q_ui Q_uj Q_uk / (n m_k), summed entry by entry
        # in the exact scalars, independently of intersection_tensor
        sp = scheme_from_relations(named_scheme(name, param))
        rng = range(sp.d + 1)
        k, m, Q = sp.valencies, sp.multiplicities, sp.Q
        for a in rng:
            for b in rng:
                for c in rng:
                    want = sum(
                        (k[u] * Q[u, a] * Q[u, b] * Q[u, c] for u in rng), Fraction(0)
                    ) / (sp.n * m[c])
                    assert sp.kreins.q(a, b, c) == want


@pytest.mark.parametrize("name, param", ALL_NAMED)
def test_counted_tensor_is_the_ladder_on_its_own_b1(name, param):
    # In a P-polynomial scheme B_i = v_i(B1), so the ladder run on the
    # counted B1 rebuilds every counted B_i.  No eigenvalue is computed,
    # so this also covers the cycles 7, 9 and 11, whose eigenvalues lie
    # in cubic fields.
    counted = IntersectionTensor(map(Matrix, _count_intersections(named_scheme(name, param))))
    assert krein_ladder(tridiagonal_from_tensor(counted)).mats == counted.mats
