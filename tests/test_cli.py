import json
import signal

import pytest

from asx.casev import casev_spec
from asx.cli import run
from asx.params import render_params

M5 = render_params(casev_spec(5).spec)

CUBE = """\
format: asx-params v1
d: 3
field: Q
c: 1 2 3
a: 0 0 0
b: 3 2 1
"""

# an irrational tridiagonal entry, so check skips the eigensystem and one
# multiplicity is irrational
QUAD_ENTRIES = """\
format: asx-params v1
d: 2
field: Q(sqrt 5)
c: 1 1+sqrt(5)
a: 0 1
b: 2 1
"""


@pytest.fixture
def m5_file(tmp_path):
    p = tmp_path / "casev-m5.params"
    p.write_text(M5)
    return str(p)


@pytest.fixture
def cube_file(tmp_path):
    p = tmp_path / "cube.params"
    p.write_text(CUBE)
    return str(p)


class TestCheck:
    def test_infeasible_m5(self, m5_file, capsys):
        code = run(["check", m5_file])
        out = capsys.readouterr().out
        assert code == 1
        assert "intersection-integrality" in out
        assert "72/7" in out
        assert "verdict: infeasible" in out

    def test_feasible_cube(self, cube_file, capsys):
        code = run(["check", cube_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: feasible" in out

    def test_json_report_contains_exact_strings(self, m5_file, capsys):
        code = run(["--report", "json", "check", m5_file])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["command"] == "check"
        assert payload["verdict"] == "infeasible"
        integ = [c for c in payload["checks"] if c["name"] == "intersection-integrality"]
        assert integ and integ[0]["pass"] is False and "72/7" in integ[0]["witness"]
        assert payload["data"]["multiplicities"] == ["1", "5", "10", "10", "25", "5"]

    def test_missing_file(self, capsys):
        assert run(["check", "/nonexistent/x.params"]) == 2

    def test_malformed_file(self, tmp_path, capsys):
        p = tmp_path / "bad.params"
        p.write_text("format: asx-params v1\nd: nope\n")
        assert run(["check", str(p)]) == 2

    def test_zero_c_entry(self, tmp_path, capsys):
        p = tmp_path / "zero.params"
        p.write_text(M5.replace("c: 1 2 5/3 4/3 5", "c: 1 0 5/3 4/3 5"))
        assert run(["check", str(p)]) == 2

    def test_d_above_16_is_an_input_error(self, tmp_path, capsys):
        # the 17-cube: a valid array, but past the parser's bound on d
        d = 17
        p = tmp_path / "h17.params"
        p.write_text(
            f"format: asx-params v1\nd: {d}\nfield: Q\n"
            f"c: {' '.join(str(i) for i in range(1, d + 1))}\n"
            f"a: {' '.join(['0'] * d)}\n"
            f"b: {' '.join(str(d - i) for i in range(d))}\n"
        )
        partition = "0|" + "|".join(str(i) for i in range(1, d + 1))
        for argv in (["check"], ["orderings"], ["fuse", "--partition", partition]):
            assert run([argv[0], str(p)] + argv[1:]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: line 2, col 4: d must be <= 16, got 17\n"

    @pytest.mark.parametrize(
        "name, a, b, message",
        [
            ("complex", "1", "-2", "complex roots in factor x^2 - x + 2"),
            ("repeated", "2", "-1", "annihilator x^2 - 2*x + 1 has a repeated root"),
        ],
    )
    def test_not_a_scheme(self, tmp_path, capsys, name, a, b, message):
        p = tmp_path / f"{name}.params"
        p.write_text(f"format: asx-params v1\nd: 1\nfield: Q\nc: 1\na: {a}\nb: {b}\n")
        for report in ("text", "json"):
            assert run(["--report", report, "check", str(p)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"not a scheme: {message}\n"

    def test_quadratic_field_file_runs_tensor_checks(self, tmp_path, capsys):
        p = tmp_path / "quad.params"
        p.write_text(
            "format: asx-params v1\nd: 2\nfield: Q(sqrt 5)\n"
            "c: 1 1\na: 0 1\nb: 2 1\n"
        )
        code = run(["check", str(p)])
        out = capsys.readouterr().out
        assert code == 0
        assert "krein-column-sums" in out

    def test_rational_value_written_as_quadratic_literal(self, tmp_path, capsys):
        # 1/2*sqrt(4) is the rational 1: the pentagon, feasible as with "a: 0 1"
        outs = []
        for a2 in ("1", "1/2*sqrt(4)"):
            p = tmp_path / "pentagon.params"
            p.write_text(f"format: asx-params v1\nd: 2\nfield: Q\nc: 1 1\na: 0 {a2}\nb: 2 1\n")
            assert run(["check", str(p)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "verdict: feasible" in outs[1]

    def test_zero_multiplicity_is_an_input_error(self, tmp_path, capsys):
        # b0* = 3 is a dual eigenvalue but m_2 = v2*(3) = 0 (columns of B1*
        # do not all sum to 3)
        p = tmp_path / "zero-mult.params"
        p.write_text("format: asx-params v1\nd: 3\nfield: Q\nc: 1 3 2\na: 2 2 3\nb: 3 -2 2\n")
        assert run(["check", str(p)]) == 2
        assert capsys.readouterr().err == "error: zero multiplicity\n"

    def test_irreducible_sextic_annihilator_in_bounded_time(self, tmp_path, capsys):
        # The annihilator of this d = 5 array is 1/12 times an irreducible
        # integer sextic, so the quadratic-factor search must exhaust its
        # candidates.  SIGALRM fails the test after 2 s.
        p = tmp_path / "sextic.params"
        p.write_text(
            "format: asx-params v1\nd: 5\nfield: Q\n"
            "c: 1 1/2 2/3 -6 -1\na: -2 0 3 3 -4\nb: -6 -5/3 -2 -4/3 -6\n"
        )

        def too_slow(signum, frame):
            raise TimeoutError("check on an irreducible sextic took more than 2 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(2)
        try:
            code = run(["check", str(p)])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 2
        assert capsys.readouterr().err == (
            "error: irreducible factor of degree >= 3 in "
            "1/2*x^6 - 149/12*x^4 - 137/6*x^3 - 335/4*x^2 + 331/6*x - 72\n"
        )

    @pytest.mark.parametrize(
        "field, message",
        [
            (
                "Q(sqrt 2305843009213693951)",
                "line 3, col 8: field radicand must be <= 1000000000000",
            ),
            (
                "Q(sqrt 2)",
                "line 5, col 6: radicand must be <= 1000000000000 in "
                "'sqrt(2305843009213693951)'",
            ),
        ],
    )
    def test_radicand_past_the_bound_is_an_input_error(self, tmp_path, capsys, field, message):
        # 2^61 - 1 is prime, so reducing it to its square-free part by trial
        # division would not end; SIGALRM fails the test after 2 s.
        p = tmp_path / "huge-radicand.params"
        p.write_text(
            f"format: asx-params v1\nd: 2\nfield: {field}\n"
            "c: 1 1\na: 0 sqrt(2305843009213693951)\nb: 2 1\n"
        )

        def too_slow(signum, frame):
            raise TimeoutError("parsing a radicand past the bound took more than 2 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(2)
        try:
            code = run(["check", str(p)])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "field, a, b, message",
        [
            ("Q", "0 0", "2 " + "9" * 5000, "line 6, col 6: integer of 5000 digits, more than 4300"),
            ("Q", "0 0", "2 1/" + "9" * 5000, "line 6, col 6: integer of 5000 digits, more than 4300"),
            (
                "Q(sqrt " + "7" * 5000 + ")",
                "0 0",
                "2 1",
                "line 3, col 8: integer of 5000 digits, more than 4300",
            ),
            (
                "Q(sqrt 3)",
                "0 sqrt(" + "3" * 5000 + ")",
                "2 1",
                "line 5, col 6: integer of 5000 digits, more than 4300",
            ),
        ],
        ids=["integer", "denominator", "field-radicand", "literal-radicand"],
    )
    def test_integer_past_the_digit_limit_is_an_input_error(
        self, tmp_path, capsys, field, a, b, message
    ):
        # Python refuses by default to convert a string of more than 4300
        # digits to int; the parser reports such an integer at its token.
        p = tmp_path / "long-integer.params"
        p.write_text(f"format: asx-params v1\nd: 2\nfield: {field}\nc: 1 1\na: {a}\nb: {b}\n")
        assert run(["check", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_intersection_formulas_disagree(self, tmp_path, capsys):
        # b0* = 2 is a dual eigenvalue, but the columns of B1* sum to 2, 3
        # and 1, so the eigen and dual forms of p^k_{ij} differ
        p = tmp_path / "disagree.params"
        p.write_text("format: asx-params v1\nd: 2\nfield: Q\nc: 1 1\na: 0 0\nb: 2 2\n")
        assert run(["--report", "json", "check", str(p)]) == 1
        payload = json.loads(capsys.readouterr().out)
        witness = "formulas disagree: p^0_{0,0}: 65/64 (eigen form) vs 25/16 (dual form)"
        checks = {c["name"]: c for c in payload["checks"]}
        for name in ("intersection-integrality", "intersection-column-sums"):
            assert checks[name]["pass"] is False
            assert checks[name]["witness"] == witness

    def test_quadratic_entries_skip_the_eigensystem_checks(self, tmp_path, capsys):
        p = tmp_path / "quad-entries.params"
        p.write_text(QUAD_ENTRIES)
        assert run(["--report", "json", "check", str(p)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["data"]["note"] == "quadratic field spec: eigensystem checks skipped"
        assert payload["data"]["multiplicities"] == ["1", "2", "-1/2+1/2*sqrt(5)"]
        assert [c["name"] for c in payload["checks"]] == [
            "krein-nonnegativity",
            "krein-column-sums",
        ]


class TestOrderings:
    def test_m5(self, m5_file, capsys):
        code = run(["orderings", m5_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 found" in out
        assert "(0,1,2,3,4,5)  type: reference" in out
        assert "(0,5,3,2,4,1)  type: V" in out

    def test_json(self, m5_file, capsys):
        run(["--report", "json", "orderings", m5_file])
        payload = json.loads(capsys.readouterr().out)
        assert payload["data"]["orderings"] == [
            {"sigma": "(0,1,2,3,4,5)", "type": "reference"},
            {"sigma": "(0,5,3,2,4,1)", "type": "V"},
        ]


class TestFuse:
    def test_case_v_partition(self, m5_file, capsys):
        code = run(["fuse", m5_file, "--partition", "0|1,5|2,3|4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fused multiplicities: 1 10 20 25" in out

    def test_invalid_partition(self, m5_file, capsys):
        assert run(["fuse", m5_file, "--partition", "0,1|2,3|4,5"]) == 2

    def test_partition_not_covering(self, m5_file, capsys):
        assert run(["fuse", m5_file, "--partition", "0|1,2"]) == 2

    def test_partition_that_does_not_fuse(self, m5_file, capsys):
        assert run(["fuse", m5_file, "--partition", "0|1,2|3,4,5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "fusion is not well-defined: s^1_{1,1}: gamma=1 gives 32/3, gamma=2 gives 76/9\n"
        )

    def test_approx_irrational_multiplicity(self, tmp_path, capsys):
        p = tmp_path / "quad-entries.params"
        p.write_text(QUAD_ENTRIES)
        assert run(["--approx", "fuse", str(p), "--partition", "0|1|2"]) == 0
        out = capsys.readouterr().out
        assert "fused multiplicities: 1 2 -1/2+1/2*sqrt(5) (~0.618034)\n" in out


class TestCaseV:
    def test_search(self, capsys):
        code = run(["casev", "--search-max", "200"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1 5"

    def test_search_bad_bound(self, capsys):
        assert run(["casev", "--search-max", "0"]) == 2

    def test_no_mode(self, capsys):
        assert run(["casev"]) == 2

    def test_symbolic_exit_code_reflects_the_documented_defect(self, capsys):
        code = run(["casev", "--symbolic"])
        out = capsys.readouterr().out
        assert code == 3
        assert "step 1 [ok]" in out
        assert "step 7 [ok]" in out
        assert "step 5 [DOES NOT VERIFY]" in out

    def test_reject(self, capsys):
        code = run(["casev", "--reject", "--search-max", "500"])
        out = capsys.readouterr().out
        assert code == 3  # symbolic branch carries the documented defect
        assert "m = 5 rejected" in out and "72/7" in out
        assert "m = 1 rejected" in out
        assert "nonexistence verified on the numeric branch" in out

    def test_reject_json(self, capsys):
        code = run(["--report", "json", "casev", "--reject", "--search-max", "500"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["data"]["survivors"] == [1, 5]
        assert "72/7" in payload["data"]["rejections"]["5"]


def test_approx_hint(tmp_path, capsys):
    p = tmp_path / "quad.params"
    p.write_text(
        "format: asx-params v1\nd: 2\nfield: Q(sqrt 5)\n"
        "c: 1 1\na: 0 1\nb: 2 1\n"
    )
    run(["--approx", "fuse", str(p), "--partition", "0|1,2"])
    out = capsys.readouterr().out
    assert "fused multiplicities" in out


def test_json_and_text_share_exact_strings(m5_file, capsys):
    run(["check", m5_file])
    text = capsys.readouterr().out
    run(["--report", "json", "check", m5_file])
    payload = json.loads(capsys.readouterr().out)
    integ = next(c for c in payload["checks"] if c["name"] == "intersection-integrality")
    for fragment in integ["witness"].split("; ")[:5]:
        assert fragment in text


def test_help_paths(capsys):
    assert run([]) == 2
    assert run(["--help"]) == 0
    capsys.readouterr()
    assert run(["nonsense"]) == 2
