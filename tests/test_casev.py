import math
import random
import tracemalloc
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asx import casev
from asx.casev import (
    CASE_V_ORDERING,
    CASE_V_PARTITION,
    EXPECTED_B1_M5,
    EXPECTED_Q_M5,
    MAX_SEARCH,
    casev_spec,
    derive_section32,
    expected_fused_eigenmatrix,
    fused_krein_reference_report,
    fusion_pipeline,
    reject_case_v,
    reported_fused_krein,
    SCREEN_GROUPS,
    SCREEN_MODULI,
    SEARCH_BLOCK,
    SECOND_SCREEN_MODULI,
    search_m,
    square_screen,
    verify_dual_consistency,
)
from asx.errors import (
    ConsistencyFailure,
    DegenerateParameter,
    InconsistentEigenmatrices,
    InvalidParameter,
    VerificationFailure,
)
from asx.linalg import Matrix
from asx.poly import MultiPoly, RatFunc
from asx.scheme import KreinTridiagonal, krein_ladder


class TestCaseVSpec:
    def test_m5_arrays(self):
        spec = casev_spec(5).spec
        assert spec.c == (1, 2, Fraction(5, 3), Fraction(4, 3), 5)
        assert spec.a == (0, Fraction(4, 3), 0, Fraction(8, 3), 0)
        assert spec.b == (5, 4, Fraction(5, 3), Fraction(10, 3), 1)
        assert set(spec.column_sums()) == {Fraction(5)}

    @pytest.mark.parametrize("m", [1, 0, -1, Fraction(1, 2)])
    def test_degenerate_parameters(self, m):
        with pytest.raises(DegenerateParameter):
            casev_spec(m)

    def test_symbolic_column_sums(self):
        cspec = casev_spec(None)
        assert cspec.symbolic
        m = RatFunc.var("m")
        assert all(s == m for s in cspec.spec.column_sums())

    def test_derived_relations(self):
        spec = casev_spec(None).spec
        assert spec.b[2] == spec.c[2]  # b2* = c3*
        assert spec.b[3] == spec.c[1] * spec.c[2]  # b3* = c2* c3*
        assert spec.a[3] == 2 * spec.a[1] == spec.c[1] * spec.c[3]
        m = RatFunc.var("m")
        assert m * spec.c[3] == spec.c[2] * (m - 1)


class TestDualConsistency:
    def test_symbolic_family_is_fixed_by_the_second_ordering(self):
        report = verify_dual_consistency(casev_spec(None))
        assert report.invariance_checks == 216
        assert report.zero_pattern_checks == 6

    def test_numeric_specialization(self):
        report = verify_dual_consistency(casev_spec(5))
        assert report.invariance_checks == 216

    def test_perturbed_b4_fails_at_q5_25(self):
        cspec = casev_spec(None)
        c, a, b = cspec.spec.c, cspec.spec.a, cspec.spec.b
        perturbed = KreinTridiagonal(5, c, a, b[:4] + (RatFunc.const(2),))
        from asx.casev import CaseVSpec

        with pytest.raises(ConsistencyFailure) as exc:
            verify_dual_consistency(CaseVSpec(cspec.m, perturbed, True))
        assert "q^5_{2,5}" in str(exc.value)


class TestSymbolicChain:
    def test_transcript_shape(self):
        tr = derive_section32()
        assert len(tr.steps) == 7
        assert [s.index for s in tr.steps] == list(range(1, 8))

    def test_step1_reproduces_the_forcing_entry(self):
        tr = derive_section32()
        assert "(b4*m - m)/(c2)" in tr.steps[0].identities[0]
        assert tr.steps[0].verified

    def test_step4_reproduces_the_first_equation(self):
        tr = derive_section32()
        s4 = tr.steps[3]
        assert s4.verified
        assert "-a2*b3*c4 - a4*b2*c3 + a4*m" in s4.identities[0]

    def test_reads_krein_columns_without_a_ladder(self, monkeypatch):
        import asx.casev
        import asx.scheme

        def forbidden(spec):
            raise AssertionError("derive_section32 must not build a full Krein ladder")

        monkeypatch.setattr(asx.casev, "krein_ladder", forbidden)
        monkeypatch.setattr(asx.scheme, "krein_ladder", forbidden)
        tr = derive_section32()
        assert [s.verified for s in tr.steps] == [True] * 4 + [False] + [True] * 2

    def test_steps_2_3_6_7_verify(self):
        tr = derive_section32()
        for idx in (2, 3, 6, 7):
            assert tr.steps[idx - 1].verified

    def test_step5_records_the_source_defect(self):
        # the displayed factored numerator is provably not the recurrence
        # value of v6*(m); the transcript documents the exact gap instead of
        # silently patching it (see README: The symbolic branch)
        tr = derive_section32()
        s5 = tr.steps[4]
        assert not s5.verified
        assert s5.discrepancy is not None
        assert "v6*(m), exact" in s5.identities[0]
        assert not tr.verified

    def test_step5_displayed_equation_fails_on_the_family(self):
        # decisive refutation of the displayed step-5 equation: the
        # one-parameter family satisfies every constraint the branch has in
        # hand (checked by verify_dual_consistency), makes the honest
        # v6*(m) vanish, yet gives the displayed numerator the nonzero
        # value -2 m^2 (m-1)^2/(m+1)^2
        m = RatFunc.var("m")
        family = {
            "a2": (m - 1) ** 2 / (2 * (m + 1)),
            "a4": (m - 1) ** 2 / (m + 1),
            "b2": 2 * m / (m + 1),
            "b3": m * (m - 1) / (m + 1),
            "c2": (m - 1) / 2,
            "c3": 2 * m / (m + 1),
            "c4": 2 * (m - 1) / (m + 1),
        }
        a2, a4 = family["a2"], family["a4"]
        b2, b3 = family["b2"], family["b3"]
        c2, c3, c4 = family["c2"], family["c3"], family["c4"]
        displayed_numerator = (
            -(m ** 2) * a4 + m * a4 * c2 - m * b3 * c4 + m * a2 * a4
            + a2 * b3 * c4 + a4 * b2 * c3 + c4 * b3 * c2
        )
        assert displayed_numerator == -2 * m ** 2 * (m - 1) ** 2 / (m + 1) ** 2
        assert displayed_numerator
        # while the true recurrence value of v6*(m) vanishes identically
        vals = [RatFunc.one(), m]
        carr = [RatFunc.one(), c2, c3, c4, m, RatFunc.one()]
        aarr = [RatFunc.zero(), a2, RatFunc.zero(), a4, RatFunc.zero()]
        barr = [m, m - 1, b2, b3, RatFunc.one()]
        for i in range(1, 6):
            vals.append(
                (m * vals[i] - aarr[i - 1] * vals[i] - barr[i - 1] * vals[i - 1])
                / carr[i]
            )
        assert not vals[6]

    def test_conclusion_text(self):
        tr = derive_section32()
        assert "a4* + c4* = 0" in tr.steps[-1].conclusion


class TestFusionPipeline:
    def test_m5(self):
        r = fusion_pipeline(5)
        assert r.delta == 72
        assert r.delta_squared == 5184
        assert r.radicand is None
        assert r.valencies == (1, 25, 20, 10)
        assert r.valency_sum == 56
        assert r.integral
        assert r.matches_expected_s
        assert r.fused_multiplicities == (1, 10, 20, 25)

    def test_m2_is_irrational(self):
        r = fusion_pipeline(2)
        assert r.delta_squared == 297
        assert r.radicand == 33
        assert not r.integral
        assert r.matches_expected_s

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 7, 10, Fraction(7, 2)])
    def test_valency_sum_invariant(self, m):
        r = fusion_pipeline(m)
        mm = Fraction(m)
        assert r.valency_sum == mm * mm + 6 * mm + 1
        assert r.matches_expected_s

    def test_m1_degenerate(self):
        with pytest.raises(DegenerateParameter):
            fusion_pipeline(1)

    def test_m5_needs_no_unfused_eigensystem(self, monkeypatch):
        import asx.casev

        def forbidden(spec):
            raise AssertionError("fusion_pipeline must not build the unfused eigensystem")

        monkeypatch.setattr(asx.casev, "scheme_params", forbidden)
        r = fusion_pipeline(5)
        assert r.valencies == (1, 25, 20, 10)
        assert r.matches_expected_s

    def test_c1_star_column_sums(self):
        r = fusion_pipeline(5)
        for k in range(4):
            assert sum(r.c1_star[j, k] for j in range(4)) == 10  # 2m at m = 5

    def test_c1_star_is_not_tridiagonal(self):
        # the fusion is not Q-polynomial in the fused order: the (1,3)
        # entry is the constant 2, so S comes from eigenvectors, not from
        # a three-term ladder
        r = fusion_pipeline(7)
        assert r.c1_star[1, 3] == 2

    def test_route_coverage(self):
        # generic m: the unfused eigensystem needs a quartic field, so S must
        # come from the fused Krein matrices alone; at m = 5 C1* has a
        # repeated eigenvalue, and a combination of C1*, C2*, C3* separates
        # the rows instead
        from asx.errors import UnsupportedAlgebraicDegree
        from asx.scheme import scheme_params

        with pytest.raises(UnsupportedAlgebraicDegree):
            scheme_params(casev_spec(2).spec)
        assert fusion_pipeline(2).matches_expected_s
        assert fusion_pipeline(5).matches_expected_s


@cache
def _plain_hits():
    """The unscreened loop's hits for m up to three search blocks and 5."""
    hits = []
    for m in range(1, 3 * SEARCH_BLOCK + 6):
        value = (m * m - 2 * m + 9) * (9 * m * m - 2 * m + 1)
        r = math.isqrt(value)
        if r * r == value and (m * (7 * m * m - 22 * m + 7)) % r == 0:
            hits.append(m)
    return hits


class TestSearch:
    def test_first_hundred(self):
        assert search_m(100) == [1, 5]

    def test_monotone_and_stable(self):
        small = search_m(50)
        big = search_m(2000)
        assert set(small) <= set(big)
        assert 5 in big

    def test_invalid_bound(self):
        with pytest.raises(InvalidParameter):
            search_m(0)

    def test_bound_above_the_limit(self):
        # every m is visited, so a bound past MAX_SEARCH would run for hours;
        # it is refused before any work, by the search and the theorem run
        for call in (search_m, reject_case_v):
            with pytest.raises(InvalidParameter, match=f"must be <= {MAX_SEARCH}, got {10**22}"):
                call(10**22)
        with pytest.raises(InvalidParameter):
            search_m(MAX_SEARCH + 1)

    def test_bound_at_the_limit(self, monkeypatch):
        # the limit itself is a valid bound and the next integer is not; a
        # small limit keeps the search short
        monkeypatch.setattr(casev, "MAX_SEARCH", 1000)
        assert search_m(casev.MAX_SEARCH) == [1, 5]
        with pytest.raises(InvalidParameter, match="must be <= 1000, got 1001"):
            search_m(casev.MAX_SEARCH + 1)

    def test_residue_screen_rejects_only_non_squares(self):
        # the tables only skip isqrt: every m that any group the sieve ANDs
        # rejects has a non-square (m^2-2m+9)(9m^2-2m+1), so no survivor can
        # be lost
        assert SCREEN_GROUPS[:2] == (SCREEN_MODULI, SECOND_SCREEN_MODULI)
        groups = [[(q, square_screen(q)) for q in moduli] for moduli in SCREEN_GROUPS]
        rejected, plain = [0] * len(groups), []
        for m in range(1, 10**4 + 1):
            value = (m * m - 2 * m + 9) * (9 * m * m - 2 * m + 1)
            r = math.isqrt(value)
            if r * r == value and (m * (7 * m * m - 22 * m + 7)) % r == 0:
                plain.append(m)
            for n, tables in enumerate(groups):
                if not all(t[m % q] for q, t in tables):
                    rejected[n] += 1
                    assert r * r != value, (m, n)
        # every group admits both survivors
        for tables in groups:
            assert all(t[m % q] for q, t in tables for m in (1, 5))
        # about 89% of m are screened out by the first group, 83% by the second
        assert rejected[0] > 8000 and rejected[1] > 8000
        assert search_m(10**4) == plain == [1, 5]

    def test_search_is_the_unscreened_loop(self):
        plain = []
        for m in range(1, 10**5 + 1):
            value = (m * m - 2 * m + 9) * (9 * m * m - 2 * m + 1)
            r = math.isqrt(value)
            if r * r == value and (m * (7 * m * m - 22 * m + 7)) % r == 0:
                plain.append(m)
        assert search_m(10**5) == plain

    @pytest.mark.parametrize(
        "n", [SEARCH_BLOCK - 1, SEARCH_BLOCK, SEARCH_BLOCK + 1, 3 * SEARCH_BLOCK + 5]
    )
    def test_search_at_block_edges(self, n, monkeypatch):
        assert search_m(n) == [m for m in _plain_hits() if m <= n]
        # isqrt runs on exactly the m that every group admits, across the
        # block boundaries too
        tables = [(q, square_screen(q)) for moduli in SCREEN_GROUPS for q in moduli]
        admitted = [m for m in range(1, n + 1) if all(t[m % q] for q, t in tables)]
        visited = []
        value = casev._delta_squared
        monkeypatch.setattr(casev, "_delta_squared", lambda m: visited.append(m) or value(m))
        search_m(n)
        assert visited == admitted

    @settings(deadline=None)
    @given(st.integers(1, 3 * SEARCH_BLOCK + 5))
    def test_search_matches_the_plain_loop_up_to_three_blocks(self, n):
        assert search_m(n) == [m for m in _plain_hits() if m <= n]

    def test_working_memory_is_a_block_not_the_bound(self):
        # the sieve allocates a few blocks' bytes, never bytes(max_m): after
        # a warm-up call has built the masks, a search of 10^7 m peaks
        # below 1 MB
        search_m(10)
        tracemalloc.start()
        try:
            assert search_m(10**7) == [1, 5]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_no_modulus_64_screen(self):
        # the value is a square mod 64 for every m, so 64 would reject nothing
        assert all(square_screen(64)) and 64 not in SCREEN_MODULI


class TestRejectCaseV:
    def test_default_run(self):
        v = reject_case_v(1000)
        assert v.branch_a_verified
        assert v.survivors == [1, 5]
        assert "degenerate" in v.rejections[1]
        assert "72/7" in v.rejections[5]
        # the symbolic branch carries the documented step-5 defect
        assert not v.verified
        assert sum(1 for s in v.branch_b.steps if s.verified) == 6

    def test_intersection_tensor_built_once(self, monkeypatch):
        import asx.casev
        import asx.scheme

        calls = []
        real = asx.scheme.intersection_tensor

        def counted(params):
            calls.append(params.d)
            return real(params)

        monkeypatch.setattr(asx.casev, "intersection_tensor", counted)
        monkeypatch.setattr(asx.scheme, "intersection_tensor", counted)
        assert "72/7" in reject_case_v(100).rejections[5]
        assert calls == [5]  # m = 5 only: m = 1 is degenerate

    def test_formulas_disagree_is_a_failed_check(self, monkeypatch):
        # the battery witnesses the disagreement instead of raising it, so
        # the run stops at the missing 72/7 witness, as it always has
        import asx.casev
        import asx.scheme

        def disagree(params):
            raise InconsistentEigenmatrices("p^0_{0,0}: 1 (eigen form) vs 2 (dual form)")

        monkeypatch.setattr(asx.casev, "intersection_tensor", disagree)
        monkeypatch.setattr(asx.scheme, "intersection_tensor", disagree)
        with pytest.raises(VerificationFailure, match="witness 72/7 missing at m = 5"):
            reject_case_v(100)

    def test_expected_matrices_are_consistent(self):
        # the frozen reference matrices satisfy their own structure
        assert EXPECTED_Q_M5.row(0) == (1, 5, 10, 10, 25, 5)
        for k in range(6):
            assert sum(EXPECTED_B1_M5[j, k] for j in range(6)) == 25
        for j in range(1, 6):
            assert sum(EXPECTED_Q_M5.row(j), Fraction(0)) == 0


class TestFusedErratumReport:
    def test_column_sums_hold_symbolically(self):
        rep = fused_krein_reference_report()
        assert rep.column_sums_ok

    def test_mismatches_are_the_final_column(self):
        rep = fused_krein_reference_report()
        assert {(j, k) for j, k, *_ in rep.mismatches} == {(2, 3), (3, 3)}

    def test_report_never_fails(self):
        rep = fused_krein_reference_report()
        assert len(rep.entries) == 16

    def test_reported_matrix_final_column_sum_defect(self):
        # the reported matrix's last column sums to 2m only at m = 1
        for m in (Fraction(2), Fraction(5), Fraction(9)):
            mat = reported_fused_krein(m)
            assert sum(mat[j, 3] for j in range(4)) != 2 * m
        mat = reported_fused_krein(Fraction(1))
        assert sum(mat[j, 3] for j in range(4)) == 2


def test_expected_fused_eigenmatrix_row_sums():
    for m in (2, 3, 5, 8):
        S = expected_fused_eigenmatrix(Fraction(m))
        assert sum(S.row(0), Fraction(0)) == m * m + 6 * m + 1
        for j in range(1, 4):
            assert sum(S.row(j), Fraction(0)) == 0


def test_partition_and_ordering_constants():
    assert CASE_V_ORDERING.sigma == (0, 5, 3, 2, 4, 1)
    assert CASE_V_PARTITION.blocks == ((0,), (1, 5), (2, 3), (4,))


def test_ladder_entry_matches_displayed_symbolic_value():
    # entry (5,5) of B2* for the staged free family: m (b4* - 1)/c2*
    from asx.casev import _free_tridiagonal

    t = krein_ladder(_free_tridiagonal())
    m, b4, c2 = RatFunc.var("m"), RatFunc.var("b4"), RatFunc.var("c2")
    assert t.q(2, 5, 5) == m * (b4 - 1) / c2


def test_annihilator_of_the_m5_candidate_factors_as_expected():
    # characteristic polynomial of B1*(5) = lc (x-5)(x-1)(x^2+4x+5/3)(x^2-2x-25/3),
    # whose roots are the second column of the expected Q
    from asx.linalg import Matrix
    from asx.poly import MultiPoly, factor_low_degree

    b1 = casev_spec(5).spec.first_matrix()
    x = RatFunc.var("x")
    xi = Matrix(
        [
            [(x if i == j else RatFunc.zero()) - RatFunc.const(b1[i, j]) for j in range(6)]
            for i in range(6)
        ]
    )
    char = xi.determinant()
    assert char.is_polynomial()
    lc, factors = factor_low_degree(char.num)
    xx = MultiPoly.var("x")
    assert factors == sorted(
        [
            xx - 5,
            xx - 1,
            xx ** 2 + 4 * xx + MultiPoly.const(Fraction(5, 3)),
            xx ** 2 - 2 * xx - MultiPoly.const(Fraction(25, 3)),
        ],
        key=lambda f: (f.total_degree(), f.coeff_list()),
    )
    from asx.poly import roots_low_degree

    assert sorted(map(str, roots_low_degree(char.num))) == sorted(
        str(EXPECTED_Q_M5[j, 1]) for j in range(6)
    )


@cache
def _charpoly_inputs() -> tuple:
    """Seeded rational matrices up to 6 x 6, B1*(5), and every M_t that
    fusion_pipeline(m) forms for m = 2..9."""
    rng = random.Random(19)
    mats = [
        Matrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(n)])
        for n in range(1, 7)
        for _ in range(3)
    ]
    mats.append(casev_spec(5).spec.first_matrix())
    charpoly = casev._charpoly

    def record(mt):
        mats.append(mt)
        return charpoly(mt)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(casev, "_charpoly", record)
        for m in range(2, 10):
            fusion_pipeline(m)
    assert len(mats) >= 19 + 8  # at least one M_t for each m
    return tuple(mats)


def test_charpoly_is_the_symbolic_determinant():
    # Faddeev-LeVerrier against det(x I - M) eliminated over Q(x)
    x = RatFunc.var("x")
    for m in _charpoly_inputs():
        det = (Matrix.identity(m.nrows).scale(x) - m).determinant()
        assert det == MultiPoly.univariate("x", casev._charpoly(m))


def test_charpoly_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("x")
    for m in _charpoly_inputs():
        ref = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in r]
                            for r in m.rows]).charpoly(X).all_coeffs()
        assert casev._charpoly(m) == [Fraction(int(c.p), int(c.q)) for c in reversed(ref)]
