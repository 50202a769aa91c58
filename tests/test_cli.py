import contextlib
import io
import json
import random
import signal
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asx.scheme
from asx.casev import MAX_SEARCH, casev_spec
from asx.cli import _build_parser, run
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


def _valid_array(seed: int, d: int, digits: int) -> str:
    """A params file of ``d`` classes with c1* = 1, seeded random b_i* and
    c_i* of ``digits`` digits, and each a_i* from its column sum b0*."""
    rng = random.Random(seed)
    c = [1] + [rng.randrange(10 ** (digits - 1), 10 ** digits) for _ in range(d - 1)]
    b = [rng.randrange(10 ** (digits - 1), 10 ** digits) for _ in range(d)]
    a = [b[0] - c[i] - (b[i + 1] if i + 1 < d else 0) for i in range(d)]
    return (f"format: asx-params v1\nd: {d}\nfield: Q\n"
            + "".join(f"{key}: {' '.join(map(str, xs))}\n" for key, xs in zip("cab", (c, a, b))))


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
        assert capsys.readouterr().err == (
            "error: [Errno 2] No such file or directory: '/nonexistent/x.params'\n"
        )

    @pytest.mark.parametrize("error", [TimeoutError, BrokenPipeError])
    def test_os_errors_past_the_file_read_propagate(self, m5_file, monkeypatch, error):
        # Only reading the params file maps an OSError to exit 2; a test's
        # SIGALRM timeout or a closed stdout later on is not an input error.
        def raise_error(text):
            raise error("raised after the file was read")

        monkeypatch.setattr("asx.params.parse_params_file", raise_error)
        with pytest.raises(error):
            run(["check", m5_file])

    def test_directory_is_an_input_error(self, tmp_path, capsys):
        assert run(["check", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_non_utf8_file_is_an_input_error(self, tmp_path, capsys):
        p = tmp_path / "utf16.params"
        p.write_bytes(b"\xff\xfe" + "format: asx-params v1\n".encode("utf-16-le"))
        assert run(["check", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        )

    def test_dual_eigenvalues_in_two_quadratic_fields(self, tmp_path, capsys):
        # annihilator (x-4)(x^2+x-28)(2x^2-x-2)/2: roots in Q(sqrt 113) and
        # Q(sqrt 17), which no one quadratic field holds
        p = tmp_path / "two-fields.params"
        p.write_text(
            "format: asx-params v1\nd: 4\nfield: Q\n"
            "c: 1 3/2 4 4\na: 5 -7/2 2 0\nb: 4 -2 6 -2\n"
        )
        for report in ("text", "json"):
            assert run(["--report", report, "check", str(p)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: dual eigenvalues lie in Q(sqrt 17) and Q(sqrt 113), "
                "not in one quadratic field\n"
            )

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

    def test_huge_discriminant_is_an_input_error_in_bounded_time(self, tmp_path, capsys):
        # The annihilator's quadratic factor has a discriminant near 10^80
        # with no prime factor below the trial-division limit, so its
        # square-free part is unknown: exit 2 with the radicand's size, not
        # a division to its cube root.  SIGALRM fails the test after 5 s.
        p = tmp_path / "huge-discriminant.params"
        p.write_text(
            "format: asx-params v1\nd: 2\nfield: Q\nc: 1 1\n"
            "a: -10000000000000000000000000000000000000005 2\n"
            "b: 3 10000000000000000000000000000000000000007\n"
        )

        def too_slow(signum, frame):
            raise TimeoutError("check on a discriminant near 10^80 took more than 5 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(5)
        try:
            code = run(["check", str(p)])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot split a radicand of about 81 digits"), err
        assert "Traceback" not in err

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
        # the same order as when the formulas agree: the Krein column sums
        # sit between the two failed intersection checks
        assert [c["name"] for c in payload["checks"]] == [
            "krein-nonnegativity",
            "multiplicity-integrality",
            "valency-integrality",
            "intersection-integrality",
            "krein-column-sums",
            "intersection-column-sums",
        ]
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

    @pytest.mark.parametrize("seed", [1, 2])
    def test_d16_with_1000_digit_entries(self, tmp_path, capsys, seed):
        # At the params bounds' corner the Krein ladder's entries reach about
        # 16,000 digits.  Orderings reads only which of them vanish, from
        # the cleared integers, so no entry is divided; SIGALRM fails the
        # test after 3 s.
        p = tmp_path / "d16.params"
        p.write_text(_valid_array(seed, 16, 1000))

        def too_slow(signum, frame):
            raise TimeoutError("orderings on a d = 16 array took more than 3 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(3)
        try:
            assert run(["orderings", str(p)]) == 0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        reference = "(" + ",".join(map(str, range(17))) + ")"
        assert capsys.readouterr().out.splitlines()[1:] == [f"  {reference}  type: reference"]


@pytest.mark.parametrize("command", ["check", "orderings"])
@pytest.mark.parametrize("text", [CUBE, QUAD_ENTRIES, M5])
def test_check_and_orderings_divide_no_ladder(tmp_path, monkeypatch, capsys, command, text):
    # the Krein battery and the ordering search read zeros, signs and column
    # sums from the cleared levels: a Krein value is divided only for a
    # witness or a multiplicity, one entry at a time
    sizes = []
    divided = asx.scheme._divided

    def spy(p, div, packing):
        sizes.append(len(p) * len(p[0]))
        return divided(p, div, packing)

    monkeypatch.setattr(asx.scheme, "_divided", spy)
    p = tmp_path / "array.params"
    p.write_text(text)
    run([command, str(p)])
    assert set(sizes) <= {1}


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

    @pytest.mark.parametrize("report", ["text", "json"])
    def test_result_past_the_digit_limit_is_an_input_error(self, tmp_path, capsys, report):
        # every integer in the file is under params.MAX_DIGITS, but the
        # fused matrices hold entries of more than 4300 digits, which
        # Python refuses to convert to str
        big = " ".join(["9" * 3000] * 3)
        p = tmp_path / "long-result.params"
        p.write_text(f"format: asx-params v1\nd: 3\nfield: Q\nc: 1 1 1\na: {big}\nb: {big}\n")
        code = run(["--report", report, "fuse", str(p), "--partition", "0|1|2|3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: a result has an integer of more than 4300 digits, too long to print\n"
        )

    def test_other_value_errors_propagate(self, m5_file, monkeypatch):
        def broken(*args):
            raise ValueError("not a digit limit")

        monkeypatch.setattr("asx.cli.fuse", broken)
        with pytest.raises(ValueError, match="not a digit limit"):
            run(["fuse", m5_file, "--partition", "0|1,5|2,3|4"])


class TestCaseV:
    def test_search(self, capsys):
        code = run(["casev", "--search-max", "200"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1 5"

    def test_search_bad_bound(self, capsys):
        assert run(["casev", "--search-max", "0"]) == 2

    def test_reject_zero_bound_is_an_input_error(self, capsys):
        # an explicit 0 is a bound, not "use the default of 10000"
        assert run(["casev", "--reject", "--search-max", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: search bound must be >= 1, got 0\n"

    @pytest.mark.parametrize("report", ["text", "json"])
    @pytest.mark.parametrize("mode", [[], ["--reject"]])
    def test_search_bound_above_the_limit_is_an_input_error(self, report, mode, capsys):
        big = "10000000000000000000000"
        assert run(["--report", report, "casev", *mode, "--search-max", big]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: search bound must be <= {MAX_SEARCH}, got {big}\n"

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


def test_one_parser_serves_every_call(m5_file, capsys):
    # run builds its parser once per process; calls on the shared parser
    # print and return exactly what calls on fresh parsers do
    argvs = [
        ["--report", "json", "check", m5_file],
        ["check", m5_file],
        ["check", m5_file, "--partition", "0|1"],  # an argparse error
        [],
        ["casev", "--search-max", "100"],
    ]

    def outcomes(fresh):
        out = []
        for argv in argvs:
            if fresh:
                _build_parser.cache_clear()
            code = run(argv)
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    _build_parser.cache_clear()
    shared = outcomes(fresh=False)
    assert _build_parser.cache_info().misses == 1
    assert shared == outcomes(fresh=True)
    assert [code for code, _, _ in shared] == [1, 1, 2, 2, 0]
    assert "unrecognized arguments" in shared[2][2]
    assert shared[3][1].startswith("usage: asx")
    assert shared[4][1] == "1 5\n"


# --- fuzz: random small params files end in a documented exit code --------

SMALL = st.fractions(min_value=-6, max_value=6, max_denominator=4)
ZERO = Fraction(0)


def _literal(value, radicand) -> str:
    """``a + b*sqrt(radicand)`` for the pair ``(a, b)``, in params syntax."""
    a, b = value
    if not b:
        return str(a)
    return f"{a}{'+' if b > 0 else '-'}{abs(b)}*sqrt({radicand})"


@st.composite
def params_files(draw):
    """A params file with d in 1..5 over Q or Q(sqrt D), D in {2, 5, 21}, and
    a random partition of its classes for ``fuse``.  Entries are pairs
    (a, b) standing for a + b*sqrt(D); most files have c1* = 1, and half of
    them have every column of B1* summing to b0*."""
    d = draw(st.integers(1, 5))
    radicand = draw(st.sampled_from([None, 2, 5, 21]))
    irrational = st.one_of(st.just(ZERO), SMALL) if radicand else st.just(ZERO)
    row = st.lists(st.tuples(SMALL, irrational), min_size=d, max_size=d)
    c, a, b = draw(row), draw(row), draw(row)
    if draw(st.integers(0, 3)):
        c[0] = (Fraction(1), ZERO)
    if draw(st.booleans()):
        # column k holds c_k*, a_k*, b_k* (b_d* := 0)
        a = [
            (b[0][0] - ck[0] - bk[0], b[0][1] - ck[1] - bk[1])
            for ck, bk in zip(c, b[1:] + [(ZERO, ZERO)])
        ]
    c, a, b = (" ".join(_literal(v, radicand) for v in xs) for xs in (c, a, b))
    field = "Q" if radicand is None else f"Q(sqrt {radicand})"
    text = f"format: asx-params v1\nd: {d}\nfield: {field}\nc: {c}\na: {a}\nb: {b}\n"
    labels = draw(st.lists(st.integers(0, d - 1), min_size=d, max_size=d))
    blocks = [[str(k) for k in range(1, d + 1) if labels[k - 1] == x] for x in sorted(set(labels))]
    return text, "|".join(["0"] + [",".join(block) for block in blocks])


@settings(max_examples=150, deadline=None)
@given(
    params_files(),
    st.sampled_from(["check", "orderings", "fuse"]),
    st.sampled_from(["text", "json"]),
)
def test_random_params_files_end_in_a_documented_exit_code(case, command, report):
    # Every command on a random small params file returns 0, 1 or 2 without
    # raising.  SIGALRM fails a case that takes more than 5 s.
    text, partition = case

    def too_slow(signum, frame):
        raise TimeoutError(f"{command} took more than 5 s on\n{text}")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.params"
        path.write_text(text)
        argv = ["--report", report, command, str(path)]
        if command == "fuse":
            argv += ["--partition", partition]
        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(5)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = run(argv)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), (argv, text)
