"""Expected answers for the generated inputs, computed without asx.

Run as a child process: ``python reference.py <inputs.json> <refs.json>``.
It fills every ``expect`` that ``inputs.py`` left open:

* ``check`` on a random draw: sympy factors the characteristic polynomial
  of B1*.  An irreducible factor of degree > 2 means exit 2 (asx supports
  quadratic extensions only).  Complex or repeated dual eigenvalues mean
  the data is not a scheme: exit 1.  Otherwise the feasibility battery
  runs, and the verdict is recomputed here from the definitions (Krein
  nonnegativity, multiplicities, valencies, intersection numbers, both
  column-sum identities).
* ``orderings``: every ordering with sigma(0) = 0 whose relabeled Krein
  tensor satisfies the triangle conditions (Q1)/(Q2), by brute force over
  a Krein tensor built here with plain fractions.

This is the only file of the benchmark that imports sympy, and it runs in
its own process so that sympy's memory does not count in peak_rss_mb.
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction as F

import sympy

X = sympy.Symbol("x")


def _arrays(arr):
    return ([F(v) for v in arr["c"]], [F(v) for v in arr["a"]], [F(v) for v in arr["b"]])


def first_matrix(arr) -> list[list[F]]:
    c, a, b = _arrays(arr)
    d = arr["d"]
    m = [[F(0)] * (d + 1) for _ in range(d + 1)]
    for k in range(1, d + 1):
        m[k - 1][k] = c[k - 1]
        m[k][k] = a[k - 1]
    for k in range(d):
        m[k + 1][k] = b[k]
    return m


def _matmul(x, y):
    n = len(x)
    return [[sum(x[i][t] * y[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def krein_tensor(arr):
    """B0*..Bd* with q^k_ij = Bi*[j][k], from the three-term recurrence."""
    c, a, b = _arrays(arr)
    d = arr["d"]
    ident = [[F(int(i == j)) for j in range(d + 1)] for i in range(d + 1)]
    mats = [ident, first_matrix(arr)]
    for i in range(2, d + 1):
        prod = _matmul(mats[1], mats[i - 1])
        mats.append([
            [(prod[j][k] - a[i - 2] * mats[i - 1][j][k] - b[i - 2] * mats[i - 2][j][k]) / c[i - 1]
             for k in range(d + 1)]
            for j in range(d + 1)
        ])
    return mats


def q_orderings(arr) -> list[str]:
    """All Q-polynomial orderings of the ladder tensor, by brute force."""
    d = arr["d"]
    mats = krein_tensor(arr)
    nonzero = [[[mats[i][j][k] != 0 for k in range(d + 1)] for j in range(d + 1)] for i in range(d + 1)]
    conds = []
    for t in itertools.product(range(d + 1), repeat=3):
        twice_max, total = 2 * max(t), sum(t)
        if twice_max > total:
            conds.append((t, False))
        elif twice_max == total:
            conds.append((t, True))
    conds.sort(key=lambda ct: ct[0][0] != 1)  # B1-hat first: most orderings fail there
    found = []
    for tail in itertools.permutations(range(1, d + 1)):
        s = (0,) + tail
        if all(nonzero[s[i]][s[j]][s[k]] == want for (i, j, k), want in conds):
            found.append("(" + ",".join(map(str, s)) + ")")
    return sorted(found)


def _is_pos_int(v) -> bool:
    return v.is_integer and v > 0


def _battery_feasible(arr, mats) -> bool:
    """The feasibility battery from its definitions; stops at the first
    failed check, since one failure already makes the verdict."""
    c, a, b = _arrays(arr)
    d = arr["d"]
    rng = range(d + 1)
    if any(mats[i][j][k] < 0 for i in rng for j in rng for k in rng):
        return False
    mult = [F(1)]
    for i in range(1, d + 1):
        mult.append(mult[-1] * b[i - 1] / c[i - 1])
    if not all(m.denominator == 1 and m > 0 for m in mult):
        return False
    if any(sum(mats[i][j][k] for j in rng) != mult[i] for i in rng for k in rng):
        return False
    # eigenvalues of B1* give Q through the dual value polynomials, then
    # P = n Q^-1 gives the valencies and the intersection numbers
    theta = [sympy.Rational(b[0].numerator, b[0].denominator)]
    roots = sympy.roots(sympy.Poly(sympy.Matrix(first_matrix(arr)).charpoly(X).as_expr(), X))
    theta += [r for r in roots if sympy.simplify(r - theta[0]) != 0]
    rat = lambda v: sympy.Rational(v.numerator, v.denominator)
    vals = []
    for t in theta:
        row = [sympy.Integer(1), t]
        for i in range(1, d):
            row.append(sympy.expand((t * row[i] - rat(a[i - 1]) * row[i] - rat(b[i - 1]) * row[i - 1]) / rat(c[i])))
        vals.append(row)
    Q = sympy.Matrix(vals)
    n = sum(mult)
    P = (Q.inv() * int(n)).applyfunc(sympy.radsimp)
    k = [sympy.nsimplify(sympy.simplify(P[0, i])) for i in rng]
    if not all(_is_pos_int(v) for v in k):
        return False
    m = [sympy.Integer(int(v)) for v in mult]
    for i in rng:
        for j in rng:
            for kk in rng:
                p = sympy.nsimplify(sympy.simplify(
                    sum(m[u] * P[u, i] * P[u, j] * P[u, kk] for u in rng) / (n * k[kk])))
                if not (p.is_integer and p >= 0):
                    return False
    return True


def expected_check(arr) -> dict:
    cp = sympy.Matrix(first_matrix(arr)).charpoly(X).as_expr()
    _, factors = sympy.factor_list(cp, X)
    degrees = [sympy.degree(f, X) for f, _ in factors]
    if max(degrees) > 2:
        return {"exit": 2, "why": "an irreducible factor of degree > 2"}
    if any(e > 1 for _, e in factors):
        return {"exit": 1, "why": "repeated dual eigenvalue: not a scheme"}
    for f, _ in factors:
        if sympy.degree(f, X) == 2 and sympy.discriminant(f, X) < 0:
            return {"exit": 1, "why": "complex dual eigenvalues: not a scheme"}
    if _battery_feasible(arr, krein_tensor(arr)):
        return {"exit": 0, "verdict": "feasible"}
    return {"exit": 1, "verdict": "infeasible"}


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    ordering_refs: dict[str, list[str]] = {}
    for op in spec["ops"] + spec["warmup"]:
        arr = op.get("input")
        if arr is None:
            continue
        command = op["argv"][-2]
        if command == "orderings":
            if arr["name"] not in ordering_refs:
                ordering_refs[arr["name"]] = q_orderings(arr)
            found = ordering_refs[arr["name"]]
            if op["expect"] is not None and op["expect"]["orderings"] != found:
                raise SystemExit(f"reference disagrees with the paper on {arr['name']}: {found}")
            op["expect"] = {"exit": 0, "orderings": found}
        elif command == "check" and op["expect"] is None:
            op["expect"] = expected_check(arr)
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
