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
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, ZeroDenominator
from .scalars import QuadraticNumber, as_exact, format_scalar
from .scheme import KreinTridiagonal

MAX_D = 16

_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_QUAD_RE = re.compile(
    r"^(?P<rat>[+-]?\d+(?:/\d+)?)?(?P<sign>[+-])?"
    r"(?:(?P<coef>\d+(?:/\d+)?)\*)?sqrt\((?P<rad>\d+)\)$"
)


def _parse_fraction(text: str, line: int, col: int) -> Fraction:
    if "/" in text:
        num, den = text.split("/", 1)
        if int(den) == 0:
            raise ZeroDenominator(f"denominator zero in {text!r}", line, col)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


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
    rad = int(m.group("rad"))
    if rad < 2:
        raise ParseError(f"radicand must be >= 2 in {text!r}", line, col)
    return QuadraticNumber(rat, coef, rad)


def parse_params_file(text: str) -> KreinTridiagonal:
    """Parse an asx-params document into a tridiagonal spec.

    Raises ParseError/ZeroDenominator with position info on bad syntax or
    ``d`` outside 1..MAX_D, and InvariantViolation when the parsed arrays violate the (Q2) nonzero
    requirements or c1* != 1.
    """
    fields: dict[str, tuple[str, int, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0]
        if not content.strip():
            continue
        if ":" not in content:
            raise ParseError("expected 'key: value'", lineno, 1)
        key, value = content.split(":", 1)
        key = key.strip()
        col = content.index(":") + 2
        if key in fields:
            raise ParseError(f"duplicate key {key!r}", lineno, 1)
        fields[key] = (value.strip(), lineno, col)

    def need(key: str) -> tuple[str, int, int]:
        if key not in fields:
            raise ParseError(f"missing required line {key!r}")
        return fields[key]

    fmt, lineno, col = need("format")
    if fmt != "asx-params v1":
        raise ParseError(f"unsupported format {fmt!r}", lineno, col)
    dtext, lineno, col = need("d")
    try:
        d = int(dtext)
    except ValueError:
        raise ParseError(f"d must be an integer, got {dtext!r}", lineno, col)
    if d < 1:
        raise ParseError(f"d must be >= 1, got {d}", lineno, col)
    if d > MAX_D:
        raise ParseError(f"d must be <= {MAX_D}, got {d}", lineno, col)

    ftext, lineno, col = need("field")
    radicand = None
    if ftext != "Q":
        fm = re.match(r"^Q\(sqrt (\d+)\)$", ftext)
        if not fm:
            raise ParseError(f"field must be 'Q' or 'Q(sqrt D)', got {ftext!r}", lineno, col)
        radicand = int(fm.group(1))
        if radicand < 2:
            raise ParseError("field radicand must be >= 2", lineno, col)

    arrays = {}
    for key in ("c", "a", "b"):
        value, lineno, col = need(key)
        tokens = value.split()
        if len(tokens) != d:
            raise ParseError(
                f"array {key!r} needs {d} values, got {len(tokens)}", lineno, col
            )
        parsed = []
        pos = col
        for tok in tokens:
            s = parse_scalar(tok, lineno, pos)
            if isinstance(s, QuadraticNumber) and s.radicand is not None:
                if radicand is None:
                    raise ParseError(
                        f"quadratic literal {tok!r} in a rational field", lineno, pos
                    )
                if s.radicand != radicand:
                    raise ParseError(
                        f"radicand {s.radicand} does not match the declared field "
                        f"Q(sqrt {radicand})",
                        lineno,
                        pos,
                    )
            parsed.append(s)
            pos += len(tok) + 1
        arrays[key] = tuple(parsed)

    unknown = set(fields) - {"format", "d", "field", "c", "a", "b"}
    if unknown:
        key = sorted(unknown)[0]
        raise ParseError(f"unknown key {key!r}", fields[key][1], 1)
    return KreinTridiagonal(d, arrays["c"], arrays["a"], arrays["b"])


def render_params(spec: KreinTridiagonal) -> str:
    """Serialize a spec back to the file format (normalized form)."""
    radicand = None
    for arr in (spec.c, spec.a, spec.b):
        for x in arr:
            if isinstance(x, QuadraticNumber) and x.radicand is not None:
                radicand = x.radicand
    field = "Q" if radicand is None else f"Q(sqrt {radicand})"
    fmt = lambda xs: " ".join(format_scalar(as_exact(x)) for x in xs)
    return (
        "format: asx-params v1\n"
        f"d: {spec.d}\n"
        f"field: {field}\n"
        f"c: {fmt(spec.c)}\n"
        f"a: {fmt(spec.a)}\n"
        f"b: {fmt(spec.b)}\n"
    )
