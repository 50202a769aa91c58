from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from asx.errors import (
    InvalidParameter,
    NotAScheme,
    NotPPolynomial,
    UnknownName,
    UnsupportedAlgebraicDegree,
)
from asx.linalg import Matrix
from asx.oracles import (
    RelationSet,
    _count_intersections,
    _distance_scheme,
    named_scheme,
    scheme_from_relations,
)
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
    [("complete", n) for n in range(2, 17)]
    + [("cycle", n) for n in range(3, 17)]
    + [("hypercube", n) for n in range(1, 7)]
    + [("petersen", None)]
)

# a pair violating closure: I plus an asymmetric-by-content split
NOT_A_SCHEME = _distance_scheme(
    4, 2, lambda i, j: 0 if i == j else 1 if {i, j} in ({0, 1}, {2, 3}, {0, 2}) else 2
)
# the complete bipartite graph K_{3,3}: across the parts, then within a part
K33 = _distance_scheme(6, 2, lambda x, y: 0 if x == y else 1 if x // 3 != y // 3 else 2)


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
        with pytest.raises(NotAScheme):
            scheme_from_relations(NOT_A_SCHEME)

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

    def test_one_point_scheme_has_no_b1(self):
        # d = 0: there is no B1 to be tridiagonal
        with pytest.raises(NotPPolynomial, match="need d >= 1 classes, got d=0"):
            scheme_from_relations(RelationSet(1, (((1,),),)))


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


def _dense_count(rels):
    """The counter's reference: every A_i A_j as a dense integer product,
    then the same span check and message as the counter."""
    n, d, relations = rels.n, rels.d, rels.relations
    rep = [next((x, y) for x, row in enumerate(A) for y, v in enumerate(row) if v)
           for A in relations]
    p = [[[0] * (d + 1) for _ in range(d + 1)] for _ in range(d + 1)]
    for i in range(d + 1):
        for j in range(d + 1):
            cols = list(zip(*relations[j]))
            M = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in relations[i]]
            coeffs = [M[x][y] for x, y in rep]
            for x in range(n):
                for y in range(n):
                    if M[x][y] != sum(c * relations[k][x][y] for k, c in enumerate(coeffs)):
                        raise NotAScheme(f"A{i} A{j} is not in the span of the relations")
            for k, c in enumerate(coeffs):
                p[i][j][k] = Fraction(c)
    return p


def _outcome(count, rels):
    """The counted tensor, or the NotAScheme message."""
    try:
        return count(rels)
    except NotAScheme as exc:
        return str(exc)


@pytest.mark.parametrize("name, param", ALL_NAMED)
def test_counter_is_the_dense_product(name, param):
    rels = named_scheme(name, param)
    assert _count_intersections(rels) == _dense_count(rels)


@pytest.mark.parametrize(
    "rels, is_scheme", [(NOT_A_SCHEME, False), (K33, True)], ids=["not-a-scheme", "K33"]
)
def test_counter_is_the_dense_product_off_the_named_list(rels, is_scheme):
    got = _outcome(_count_intersections, rels)
    assert got == _outcome(_dense_count, rels)
    assert isinstance(got, list) == is_scheme


@st.composite
def three_relations(draw):
    """I plus two relations partitioning the other pairs of n <= 7 points
    at random, so neither need be symmetric; both are non-empty."""
    n = draw(st.integers(2, 7))
    pairs = n * (n - 1)
    labels = iter(draw(st.lists(st.sampled_from((1, 2)), min_size=pairs, max_size=pairs)))
    label = [[0 if x == y else next(labels) for y in range(n)] for x in range(n)]
    rels = RelationSet(
        n, tuple(tuple(tuple(int(v == k) for v in row) for row in label) for k in range(3))
    )
    assume(all(any(map(any, A)) for A in rels.relations))
    return rels


@settings(max_examples=300, deadline=None)
@given(three_relations())
def test_counter_is_the_dense_product_on_random_partitions(rels):
    # called without validate(), which would refuse the non-symmetric ones
    assert _outcome(_count_intersections, rels) == _outcome(_dense_count, rels)
