import itertools
import random
import signal
from fractions import Fraction

import pytest

from asx.casev import casev_spec
from asx.errors import (
    InvalidPartition,
    InvariantViolation,
    RepeatedEigenvalue,
    UnsupportedAlgebraicDegree,
    WellDefinednessViolation,
)
from asx.linalg import Matrix
from asx.scalars import QuadraticNumber
from asx.scheme import (
    FusionPartition,
    KreinTensor,
    KreinTridiagonal,
    Ordering,
    StructureType,
    classify_structure_pair,
    dual_eigensystem,
    enumerate_q_orderings,
    feasibility_report,
    first_eigenmatrix,
    fuse,
    intersection_tensor,
    krein_ladder,
    relabel_tensor,
    scheme_params,
    tensor_checks,
    tridiagonal_from_tensor,
)

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
        assert classify_structure_pair(Ordering(seq), d) == expected

    def test_invalid_ordering(self):
        with pytest.raises(InvariantViolation):
            Ordering((1, 0))
        with pytest.raises(InvariantViolation):
            Ordering((0, 2, 2))


class TestRelabel:
    def test_identity(self):
        t = krein_ladder(CASEV5)
        assert relabel_tensor(t, Ordering((0, 1, 2, 3, 4, 5))) == t

    def test_involution(self):
        t = krein_ladder(CASEV5)
        sigma = Ordering((0, 5, 3, 2, 4, 1))
        assert relabel_tensor(relabel_tensor(t, sigma), sigma) == t

    def test_random_inverse(self):
        rng = random.Random(3)
        t = krein_ladder(CUBE)
        for _ in range(6):
            tail = list(range(1, 4))
            rng.shuffle(tail)
            sigma = Ordering((0, *tail))
            assert relabel_tensor(relabel_tensor(t, sigma), sigma.inverse()) == t


class TestFusion:
    def test_singleton_partition_is_identity(self):
        t = krein_ladder(C5)
        fused, mults = fuse(t, t.multiplicities(), FusionPartition.singletons(2))
        assert fused == t and mults == t.multiplicities()

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
            fuse(t, t.multiplicities(), FusionPartition(((0,), (1, 2))))


def test_tridiagonal_from_tensor_roundtrip():
    for spec in (K4, C5, CUBE, CASEV5):
        t = krein_ladder(spec)
        back = tridiagonal_from_tensor(t)
        assert back == spec
