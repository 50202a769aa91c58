"""Parameter file format: exact tridiagonal data as text.

::

    # comment
    format: asx-params v1
    d: 5
    field: Q            (or: field: Q(sqrt 21))
    c: 1 2 5/3 4/3 5
    a: 0 4/3 0 8/3 0
    b: 5 4 5/3 10/3 1

Values are exact rationals ``p/q`` or quadratic literals
``p/q+r/s*sqrt(D)``; no floating point anywhere.  Whitespace-insensitive,
``#`` starts a comment.

``d`` must lie in 1..MAX_D (16).  Every command that reads a file runs
the Krein ladder, which is O(d^4), and ``check`` also factors the
annihilator; the bound keeps the work of any accepted file small.

Every radicand, the field's and each ``sqrt(D)`` literal's, must lie in
2..MAX_RADICAND (10^12): radicands are reduced to their square-free part by
trial division up to sqrt(D), and the bound keeps that below a second.  The
declared field is reduced too, so ``Q(sqrt 8)`` declares Q(sqrt 2) and
``Q(sqrt 4)`` declares Q.

Every integer in a file, ``d``, a radicand, a numerator or a denominator,
has at most MAX_DIGITS (4300) digits, Python's default limit on converting
between ``int`` and ``str``; a longer one is a ParseError at its token.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, ZeroDenominator
from .scalars import QuadraticNumber, exact_sqrt, format_scalar, square_free_split
from .scheme import KreinTridiagonal

MAX_D = 16
MAX_RADICAND = 10**12
MAX_DIGITS = 4300

_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_QUAD_RE = re.compile(
    r"^(?P<rat>[+-]?\d+(?:/\d+)?)?(?P<sign>[+-])?"
    r"(?:(?P<coef>\d+(?:/\d+)?)\*)?sqrt\((?P<rad>\d+)\)$"
)


def _int(text: str, line: int, col: int) -> int:
    """``int(text)``; a digit string of more than MAX_DIGITS digits is a
    ParseError at the token's line and column."""
    digits = len(text.lstrip("+-"))
    if digits > MAX_DIGITS:
        raise ParseError(f"integer of {digits} digits, more than {MAX_DIGITS}", line, col)
    return int(text)


def _parse_fraction(text: str, line: int, col: int) -> Fraction:
    if "/" in text:
        num, den = (_int(t, line, col) for t in text.split("/", 1))
        if den == 0:
            raise ZeroDenominator(f"denominator zero in {text!r}", line, col)
        return Fraction(num, den)
    return Fraction(_int(text, line, col))


def parse_scalar(text: str, line: int = 0, col: int = 0):
    """Parse ``p/q``, ``p/q+r/s*sqrt(D)``, or ``r/s*sqrt(D)`` exactly."""
    if _RAT_RE.match(text):
        return _parse_fraction(text, line, col)
    m = _QUAD_RE.match(text)
    if not m:
        raise ParseError(f"cannot parse scalar {text!r}", line, col)
    if m.group("rat") is not None and m.group("sign") is None:
        raise ParseError(f"missing sign before the sqrt part in {text!r}", line, col)
    rat = Fraction(0)
    if m.group("rat") is not None:
        rat = _parse_fraction(m.group("rat"), line, col)
    coef = Fraction(1)
    if m.group("coef") is not None:
        coef = _parse_fraction(m.group("coef"), line, col)
    if m.group("sign") == "-":
        coef = -coef
    rad = _int(m.group("rad"), line, col)
    if rad < 2:
        raise ParseError(f"radicand must be >= 2 in {text!r}", line, col)
    if rad > MAX_RADICAND:
        raise ParseError(f"radicand must be <= {MAX_RADICAND} in {text!r}", line, col)
    return rat + coef * exact_sqrt(rad)


def parse_params_file(text: str) -> KreinTridiagonal:
    """Parse an asx-params document into a tridiagonal spec.

    Raises ParseError/ZeroDenominator with position info on bad syntax or
    ``d`` outside 1..MAX_D, and InvariantViolation when the parsed arrays violate the (Q2) nonzero
    requirements or c1* != 1.
    """
    # key -> (value, line, 1-based column of the value, [(token, column), ...])
    fields: dict[str, tuple[str, int, int, list[tuple[str, int]]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0]
        if not content.strip():
            continue
        if ":" not in content:
            raise ParseError("expected 'key: value'", lineno, 1)
        key, value = content.split(":", 1)
        start = len(key) + 1
        tokens = [(t.group(), start + t.start() + 1) for t in re.finditer(r"\S+", value)]
        col = tokens[0][1] if tokens else start + 1
        key = key.strip()
        if key in fields:
            raise ParseError(f"duplicate key {key!r}", lineno, 1)
        fields[key] = (value.strip(), lineno, col, tokens)

    def need(key: str) -> tuple[str, int, int, list[tuple[str, int]]]:
        if key not in fields:
            raise ParseError(f"missing required line {key!r}")
        return fields[key]

    fmt, lineno, col, _ = need("format")
    if fmt != "asx-params v1":
        raise ParseError(f"unsupported format {fmt!r}", lineno, col)
    dtext, lineno, col, _ = need("d")
    try:
        d = _int(dtext, lineno, col)
    except ValueError:
        raise ParseError(f"d must be an integer, got {dtext!r}", lineno, col)
    if d < 1:
        raise ParseError(f"d must be >= 1, got {d}", lineno, col)
    if d > MAX_D:
        raise ParseError(f"d must be <= {MAX_D}, got {d}", lineno, col)

    ftext, lineno, col, _ = need("field")
    field = None  # the declared radicand, square-free; None for Q
    if ftext != "Q":
        fm = re.match(r"^Q\(sqrt (\d+)\)$", ftext)
        if not fm:
            raise ParseError(f"field must be 'Q' or 'Q(sqrt D)', got {ftext!r}", lineno, col)
        declared = _int(fm.group(1), lineno, col)
        if declared < 2:
            raise ParseError("field radicand must be >= 2", lineno, col)
        if declared > MAX_RADICAND:
            raise ParseError(f"field radicand must be <= {MAX_RADICAND}", lineno, col)
        field = square_free_split(declared)[1]
        if field == 1:
            field = None

    arrays = {}
    for key in ("c", "a", "b"):
        _, lineno, col, tokens = need(key)
        if len(tokens) != d:
            raise ParseError(
                f"array {key!r} needs {d} values, got {len(tokens)}", lineno, col
            )
        parsed = []
        for tok, pos in tokens:
            s = parse_scalar(tok, lineno, pos)
            if isinstance(s, QuadraticNumber):
                if field is None:
                    raise ParseError(
                        f"quadratic literal {tok!r} in a rational field", lineno, pos
                    )
                if s.radicand != field:
                    raise ParseError(
                        f"radicand {s.radicand} does not match the declared field "
                        f"Q(sqrt {declared})",
                        lineno,
                        pos,
                    )
            parsed.append(s)
        arrays[key] = tuple(parsed)

    unknown = set(fields) - {"format", "d", "field", "c", "a", "b"}
    if unknown:
        key = sorted(unknown)[0]
        raise ParseError(f"unknown key {key!r}", fields[key][1], 1)
    return KreinTridiagonal(d, arrays["c"], arrays["a"], arrays["b"])


def render_params(spec: KreinTridiagonal) -> str:
    """Serialize a spec back to the file format (normalized form)."""
    quads = [x for arr in (spec.c, spec.a, spec.b) for x in arr if isinstance(x, QuadraticNumber)]
    field = f"Q(sqrt {quads[-1].radicand})" if quads else "Q"
    fmt = lambda xs: " ".join(format_scalar(x) for x in xs)
    return (
        "format: asx-params v1\n"
        f"d: {spec.d}\n"
        f"field: {field}\n"
        f"c: {fmt(spec.c)}\n"
        f"a: {fmt(spec.a)}\n"
        f"b: {fmt(spec.b)}\n"
    )
