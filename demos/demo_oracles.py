#!/usr/bin/env python3
"""Cross-validate the parameter algebra against schemes built from scratch.

Small named schemes are generated as explicit 0/1 relation matrices; their
intersection numbers are counted directly, and their eigenmatrices come from
``dual_eigensystem`` run on the counted B1.  The Krein tensor computed that
way must agree, entry for entry, with the three-term ladder run on the same
tridiagonal data -- a closed loop between counting and algebra.
"""

from asx import (
    feasibility_report,
    krein_ladder,
    named_scheme,
    scheme_from_relations,
    tridiagonal_from_tensor,
)
from asx.linalg import Matrix

for name, param in [("complete", 4), ("cycle", 5), ("petersen", None), ("hypercube", 3)]:
    label = f"{name}({param})" if param is not None else name
    sp = scheme_from_relations(named_scheme(name, param))
    spec = tridiagonal_from_tensor(sp.kreins)
    ladder = krein_ladder(spec)
    report = feasibility_report(sp)
    pq = sp.P * sp.Q == Matrix.identity(sp.d + 1).scale(sp.n)
    print(f"{label:<14} n = {str(sp.n):<4} d = {sp.d}")
    print(f"  valencies      {tuple(map(str, sp.valencies))}")
    print(f"  multiplicities {tuple(map(str, sp.multiplicities))}")
    print(f"  ladder == counted tensor: {ladder == sp.kreins}")
    print(f"  P Q == n I: {pq};  feasibility: {'pass' if report.feasible else 'FAIL'}")
    print()

print("The pentagon's eigenmatrices live in Q(sqrt 5):")
print(scheme_from_relations(named_scheme("cycle", 5)).Q)
