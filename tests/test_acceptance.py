"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every comparison is exact; the stated runtime budgets are asserted.

Criterion 4 replays the symbolic branch exactly in the free unknowns and
asserts that steps 1-4, 6 and 7 verify while step 5 alone does not, with its
discrepancy recorded.  It then certifies step 5's verdict a second way, from
RatFunc alone: step 5's premise v6*(m) = 0 is a tautology, because every
column of B1* sums to m, so b*_{i-1} v*_{i-1}(m) = c*_i v*_i(m) and
v*_6(m) = c*_5 v*_5(m) - b*_4 v*_4(m) = 0; under the same column sums the
displayed numerator N reduces to -(m-1) b2* b3* != 0, so N = 0 does not
follow.  See the README section 'The symbolic branch'.
"""

import itertools
import time

from asx.casev import (
    CASE_V_PARTITION,
    EXPECTED_B1_M5,
    EXPECTED_Q_M5,
    casev_spec,
    derive_section32,
    fused_krein_reference_report,
    fusion_pipeline,
    reject_case_v,
    search_m,
    verify_dual_consistency,
)
from asx.errors import DegenerateParameter
from asx.linalg import Matrix
from asx.oracles import named_scheme, scheme_from_relations
from asx.poly import RatFunc
from asx.scheme import (
    StructureType,
    classify_structure_pair,
    enumerate_q_orderings,
    fuse,
    intersection_tensor,
    krein_ladder,
    scheme_params,
    tridiagonal_from_tensor,
)


def _verdict(n: int, ok: bool, detail: str, elapsed: float):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail} ({elapsed:.2f}s)")


def _match_rows(got: Matrix, expected: Matrix):
    used, rho = set(), []
    for j in range(got.nrows):
        hit = None
        for jj in range(expected.nrows):
            if jj not in used and all(
                a == b for a, b in zip(got.row(j), expected.row(jj))
            ):
                hit = jj
                break
        if hit is None:
            return None
        used.add(hit)
        rho.append(hit)
    return rho


def test_criterion_1_branch_a_numeric(capsys):
    from asx.cli import run

    t0 = time.monotonic()
    cli_code = run(["casev", "--reject"])
    cli_out = capsys.readouterr().out
    verdict = reject_case_v(10000)
    params = scheme_params(casev_spec(5).spec)
    inters = intersection_tensor(params)
    rho = _match_rows(params.Q, EXPECTED_Q_M5)
    q_ok = rho is not None and tuple(EXPECTED_Q_M5.row(0)) == (1, 5, 10, 10, 25, 5)
    b1_ok = False
    if q_ok:
        rinv = [rho.index(x) for x in range(6)]
        b1_ok = all(
            inters.p(rinv[1], rinv[j], rinv[k]) == EXPECTED_B1_M5[j, k]
            for j in range(6)
            for k in range(6)
        )
    rejected = "72/7" in verdict.rejections.get(5, "")
    elapsed = time.monotonic() - t0
    ok = q_ok and b1_ok and rejected and verdict.branch_a_verified and elapsed < 5
    _verdict(1, ok, "m=5 rejected; B1 and Q reproduce the displayed matrices", elapsed)
    assert "m = 5 rejected" in cli_out and "72/7" in cli_out
    assert cli_code == 3  # branch B's step 5 never verifies (see criterion 4)
    assert rejected and verdict.branch_a_verified
    assert q_ok, "computed Q must match the expected matrix up to row order"
    assert b1_ok, "intersection matrix must match the displayed B1 entrywise"
    assert elapsed < 5


def test_criterion_2_integer_search(capsys):
    from asx.cli import run

    t0 = time.monotonic()
    code = run(["casev", "--search-max", "1000000"])
    out = capsys.readouterr().out.strip()
    hits = search_m(10**6)
    elapsed = time.monotonic() - t0
    degenerate = False
    try:
        casev_spec(1)
    except DegenerateParameter:
        degenerate = True
    ok = hits == [1, 5] and out == "1 5" and code == 0 and degenerate and elapsed < 60
    _verdict(2, ok, f"search to 1e6 -> {hits}; m=1 degenerate", elapsed)
    assert code == 0 and out == "1 5"
    assert hits == [1, 5]
    assert degenerate
    assert elapsed < 60


def test_criterion_3_fusion_pipeline_at_m5():
    t0 = time.monotonic()
    r = fusion_pipeline(5)
    elapsed = time.monotonic() - t0
    ok = (
        r.delta == 72
        and r.valencies == (1, 25, 20, 10)
        and r.valency_sum == 56
        and elapsed < 5
    )
    _verdict(3, ok, "delta = 72, fused valencies (1, 25, 20, 10) sum 56", elapsed)
    assert r.delta == 72
    assert r.valencies == (1, 25, 20, 10)
    assert r.valency_sum == 56
    assert elapsed < 5


def test_criterion_4_branch_b_symbolic():
    t0 = time.monotonic()
    transcript = derive_section32()
    step1 = transcript.steps[0]
    step4 = transcript.steps[3]
    step5 = transcript.steps[4]
    step1_ok = step1.verified and "(b4*m - m)/(c2)" in step1.identities[0]
    step4_ok = step4.verified and "-a2*b3*c4 - a4*b2*c3 + a4*m" in step4.identities[0]
    conclusion_ok = transcript.steps[-1].conclusion.startswith("a4* + c4* = 0")
    unverified = [s.index for s in transcript.steps if not s.verified]
    gap_recorded = step5.discrepancy is not None

    # independent certificate of step 5, from RatFunc alone: v*_0(m)..v*_6(m)
    # by the three-term recurrence in the free unknowns, with a1* = a3* =
    # a5* = 0, b1* = m - 1, b4* = 1, c5* = m (zero pattern, steps 1 and 3)
    # and c6* := 1; v6*(m) then vanishes identically modulo the column sums,
    # while the displayed numerator N does not
    m, a2, a4 = RatFunc.var("m"), RatFunc.var("a2"), RatFunc.var("a4")
    b2, b3 = RatFunc.var("b2"), RatFunc.var("b3")
    c2, c3, c4 = RatFunc.var("c2"), RatFunc.var("c3"), RatFunc.var("c4")
    one, zero = RatFunc.one(), RatFunc.zero()
    a = [zero, zero, a2, zero, a4, zero]  # a0*..a5*
    b = [m, m - 1, b2, b3, one]  # b0*..b4*
    c = [one, c2, c3, c4, m, one]  # c1*..c6*
    v = [one, m]
    for i in range(1, 6):
        v.append(((m - a[i]) * v[i] - b[i - 1] * v[i - 1]) / c[i])
    v6 = v[6]
    exact_ok = step5.identities[0] == f"v6*(m), exact: {v6}"
    column_sums = {"a2": m - b2 - c2, "c3": m - b3, "a4": m - 1 - c4}
    tautology = not v6.subs(column_sums)
    n_displayed = (
        -m * m * a4 + m * a4 * c2 - m * b3 * c4 + m * a2 * a4
        + a2 * b3 * c4 + a4 * b2 * c3 + c4 * b3 * c2
    )
    n_reduced = n_displayed.subs(column_sums)
    gap_ok = n_reduced == -(m - 1) * b2 * b3 and bool(n_reduced)
    elapsed = time.monotonic() - t0

    ok = (
        step1_ok and step4_ok and conclusion_ok
        and unverified == [5] and gap_recorded
        and exact_ok and tautology and gap_ok
        and elapsed < 30
    )
    _verdict(
        4,
        ok,
        f"{7 - len(unverified)}/7 steps verify; step 5's premise v6*(m) = 0 "
        "is a tautology modulo the column sums, while the displayed numerator "
        "reduces to -(m-1) b2* b3* != 0 (certified independently)",
        elapsed,
    )
    assert step1_ok and step4_ok
    assert elapsed < 30
    assert conclusion_ok
    assert unverified == [5], f"unverified steps: {unverified}"
    assert gap_recorded, "step 5 must carry its discrepancy"
    assert exact_ok, "transcript's v6*(m) differs from the recurrence value"
    assert tautology, "v6*(m) must vanish identically modulo the column sums"
    assert gap_ok, f"displayed numerator reduces to {n_reduced}, not -(m-1) b2* b3*"


def test_criterion_5_symbolic_consistency():
    t0 = time.monotonic()
    report = verify_dual_consistency(casev_spec(None))
    elapsed = time.monotonic() - t0
    ok = report.invariance_checks == 216 and report.zero_pattern_checks == 6 and elapsed < 60
    _verdict(5, ok, "all 216 relabeling identities and the zero pattern hold", elapsed)
    assert report.invariance_checks == 216
    assert report.zero_pattern_checks == 6
    assert elapsed < 60


def test_criterion_6_ordering_enumeration():
    t0 = time.monotonic()
    tensor = krein_ladder(casev_spec(5).spec)
    found = enumerate_q_orderings(tensor)
    elapsed = time.monotonic() - t0
    seqs = [o.sigma for o in found]
    types = [classify_structure_pair(o) for o in found]
    ok = (
        seqs == [(0, 1, 2, 3, 4, 5), (0, 5, 3, 2, 4, 1)]
        and types[1] == StructureType.V
        and elapsed < 5
    )
    _verdict(6, ok, "exactly the identity and (1 5)(2 3); the latter is type V", elapsed)
    assert seqs == [(0, 1, 2, 3, 4, 5), (0, 5, 3, 2, 4, 1)]
    assert types[1] == StructureType.V
    assert elapsed < 5


ORACLES = [("complete", 4), ("cycle", 5), ("petersen", None), ("hypercube", 3)]


def test_criterion_7_oracle_equivalence():
    t0 = time.monotonic()
    failures = []
    for name, param in ORACLES:
        sp = scheme_from_relations(named_scheme(name, param))
        spec = tridiagonal_from_tensor(sp.kreins)
        if krein_ladder(spec) != sp.kreins:
            failures.append(f"{name}: ladder tensor differs")
        from asx.scheme import feasibility_report

        if not feasibility_report(sp).feasible:
            failures.append(f"{name}: feasibility failed")
        if sp.P * sp.Q != Matrix.identity(sp.d + 1).scale(sp.n):
            failures.append(f"{name}: PQ != nI")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 10
    _verdict(7, ok, "ladder == oracle tensors; feasibility passes; PQ = nI", elapsed)
    assert not failures, failures
    assert elapsed < 10


def _krein_properties(tensor, mults):
    d = tensor.d
    for a, b in itertools.combinations(tensor.mats, 2):
        assert a * b == b * a
    for i in range(d + 1):
        for k in range(d + 1):
            assert sum(tensor.q(i, j, k) for j in range(d + 1)) == mults[i]
    for i in range(d + 1):
        for j in range(d + 1):
            for k in range(d + 1):
                v = mults[k] * tensor.q(i, j, k)
                assert v == mults[k] * tensor.q(j, i, k)
                assert v == mults[j] * tensor.q(i, k, j)
                assert v == mults[i] * tensor.q(k, j, i)


def test_criterion_8_property_suite():
    t0 = time.monotonic()
    # tensors from criteria 1-7: the m = 5 candidate, the four oracle
    # schemes, and the 3-class fusion at m = 5
    jobs = []
    m5 = scheme_params(casev_spec(5).spec)
    jobs.append((m5.kreins, m5.multiplicities, m5))
    for name, param in ORACLES:
        sp = scheme_from_relations(named_scheme(name, param))
        jobs.append((sp.kreins, sp.multiplicities, sp))
    t5 = krein_ladder(casev_spec(5).spec)
    fused = fuse(t5, CASE_V_PARTITION)
    jobs.append((fused, fused.multiplicities(), None))
    for tensor, mults, params in jobs:
        _krein_properties(tensor, mults)
        if params is not None:
            inter = intersection_tensor(params)  # re-checks both formulas
            d = tensor.d
            for i in range(d + 1):
                for k in range(d + 1):
                    s = sum(inter.p(i, j, k) for j in range(d + 1))
                    assert s == params.valencies[i]
    elapsed = time.monotonic() - t0
    ok = elapsed < 30
    _verdict(8, ok, "commutation, column sums, full Krein symmetry, formula agreement", elapsed)
    assert elapsed < 30


def test_criterion_9_erratum_handling():
    t0 = time.monotonic()
    report = fused_krein_reference_report()
    elapsed = time.monotonic() - t0
    mismatch_cells = {(j, k) for j, k, *_ in report.mismatches}
    ok = report.column_sums_ok and elapsed < 10
    _verdict(
        9,
        ok,
        f"fused C1* column sums are 2m; reported-value mismatches at {sorted(mismatch_cells)}",
        elapsed,
    )
    for line in report.lines():
        print("   ", line)
    assert report.column_sums_ok
    assert len(report.entries) == 16
    assert elapsed < 10
