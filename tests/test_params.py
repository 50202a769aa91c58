from fractions import Fraction

import pytest

from asx.casev import casev_spec
from asx.errors import InvariantViolation, ParseError, ZeroDenominator
from asx.params import parse_params_file, parse_scalar, render_params
from asx.scalars import QuadraticNumber

M5_TEXT = """\
# the 5-class candidate at m = 5
format: asx-params v1
d: 5
field: Q
c: 1 2 5/3 4/3 5
a: 0 4/3 0 8/3 0
b: 5 4 5/3 10/3 1
"""


class TestScalarLiterals:
    @pytest.mark.parametrize(
        "text, value",
        [
            ("5", Fraction(5)),
            ("-72/7", Fraction(-72, 7)),
            ("1/2+3/2*sqrt(5)", QuadraticNumber(Fraction(1, 2), Fraction(3, 2), 5)),
            ("-2-1/3*sqrt(21)", QuadraticNumber(-2, Fraction(-1, 3), 21)),
            ("sqrt(2)", QuadraticNumber(0, 1, 2)),
            ("-sqrt(2)", QuadraticNumber(0, -1, 2)),
            ("0+1/3*sqrt(21)", QuadraticNumber(0, Fraction(1, 3), 21)),
        ],
    )
    def test_valid(self, text, value):
        assert parse_scalar(text) == value

    @pytest.mark.parametrize("text", ["", "x", "1.5", "1+2", "sqrt(-3)", "1*sqrt(2)*3"])
    def test_invalid(self, text):
        with pytest.raises(ParseError):
            parse_scalar(text)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            parse_scalar("1/0")


class TestParseFile:
    def test_m5_roundtrip_with_casev_spec(self):
        spec = parse_params_file(M5_TEXT)
        assert spec == casev_spec(5).spec

    def test_serialization_idempotent(self):
        spec = parse_params_file(M5_TEXT)
        text = render_params(spec)
        assert parse_params_file(text) == spec
        assert render_params(parse_params_file(text)) == text

    def test_quadratic_field_file(self):
        text = (
            "format: asx-params v1\n"
            "d: 1\n"
            "field: Q(sqrt 2)\n"
            "c: 1\n"
            "a: 1+1/2*sqrt(2)\n"
            "b: 2-1/2*sqrt(2)\n"
        )
        spec = parse_params_file(text)
        assert spec.a[0] == QuadraticNumber(1, Fraction(1, 2), 2)
        assert render_params(spec).splitlines()[2] == "field: Q(sqrt 2)"

    def test_zero_denominator_position(self):
        bad = M5_TEXT.replace("c: 1 2 5/3 4/3 5", "c: 1 1/0 5/3 4/3 5")
        with pytest.raises(ZeroDenominator) as exc:
            parse_params_file(bad)
        assert exc.value.line == 5
        assert exc.value.col == 6
        # columns count every space, also runs of them
        spaced = M5_TEXT.replace("c: 1 2 5/3 4/3 5", "c:  1  1/0 5/3 4/3 5")
        with pytest.raises(ZeroDenominator) as exc:
            parse_params_file(spaced)
        assert (exc.value.line, exc.value.col) == (5, 8)

    def test_zero_c2_names_q2(self):
        bad = M5_TEXT.replace("c: 1 2 5/3 4/3 5", "c: 1 0 5/3 4/3 5")
        with pytest.raises(InvariantViolation) as exc:
            parse_params_file(bad)
        assert "(Q2)" in str(exc.value)

    @pytest.mark.parametrize(
        "mutation, fragment",
        [
            (("format: asx-params v1", "format: asx-params v2"), "unsupported format"),
            (("d: 5", "d: five"), "must be an integer"),
            (("field: Q", "field: R"), "field must be"),
            (("c: 1 2 5/3 4/3 5", "c: 1 2 5/3"), "needs 5 values"),
            (("a: 0 4/3 0 8/3 0", "a: 0 4/3 0 8/3 0\nz: 1"), "unknown key"),
        ],
    )
    def test_structural_errors(self, mutation, fragment):
        bad = M5_TEXT.replace(*mutation)
        with pytest.raises(ParseError) as exc:
            parse_params_file(bad)
        assert fragment in str(exc.value)

    def test_quadratic_literal_in_rational_field(self):
        bad = M5_TEXT.replace("b: 5 4 5/3 10/3 1", "b: 5 4 5/3 10/3 sqrt(2)")
        with pytest.raises(ParseError) as exc:
            parse_params_file(bad)
        assert "rational field" in str(exc.value)

    def test_wrong_radicand(self):
        text = (
            "format: asx-params v1\nd: 1\nfield: Q(sqrt 2)\n"
            "c: 1\na: sqrt(3)\nb: 2\n"
        )
        with pytest.raises(ParseError) as exc:
            parse_params_file(text)
        assert "does not match" in str(exc.value)

    def test_declared_field_is_reduced(self):
        # Q(sqrt 8) is Q(sqrt 2), and Q(sqrt 4) is Q
        def spec(field, a2):
            return parse_params_file(
                f"format: asx-params v1\nd: 2\nfield: {field}\nc: 1 1\na: 0 {a2}\nb: 2 1\n"
            )

        assert spec("Q(sqrt 8)", "1+sqrt(8)") == spec("Q(sqrt 2)", "1+2*sqrt(2)")
        assert spec("Q(sqrt 4)", "1") == spec("Q", "1")
        with pytest.raises(ParseError) as exc:
            spec("Q(sqrt 4)", "sqrt(2)")
        assert "rational field" in str(exc.value)

    def test_comments_and_whitespace(self):
        text = "\n\n  # leading noise\n" + M5_TEXT + "   # trailing\n"
        assert parse_params_file(text) == casev_spec(5).spec

    def test_missing_line(self):
        with pytest.raises(ParseError) as exc:
            parse_params_file("format: asx-params v1\nd: 2\nfield: Q\nc: 1 1\na: 0 1\n")
        assert "missing required line" in str(exc.value)
