#!/usr/bin/env python3
"""The 3-class fusion of the one-parameter family, across several m.

Merging the idempotent classes {0}, {1,5}, {2,3}, {4} of the candidate
family gives a 3-class fusion whose second eigenmatrix lives in the
quadratic field of sqrt((m^2-2m+9)(9m^2-2m+1)).  The fused valencies must
be positive integers for a real scheme; watching them across m shows why
only m = 5 survives the arithmetic (and then dies on integrality upstream).
"""

from asx import fusion_pipeline, fused_krein_reference_report

for m in (2, 3, 4, 5, 6, 7, 10):
    r = fusion_pipeline(m)
    vals = ", ".join(map(str, r.valencies))
    print(f"m = {m:>2}: delta^2 = {r.delta_squared}, delta = {r.delta}")
    print(f"        fused valencies ({vals}), sum {r.valency_sum}"
          f" = m^2+6m+1, integral: {r.integral}")

print()
print("At m = 5 the fused Krein matrix C1* has a repeated eigenvalue, so the")
print("pipeline reads S off the common eigenvectors of C1* + t C2* + t^2 C3*")
print("at t = 2, the first t that separates them; each row is a checked character.")
r5 = fusion_pipeline(5)
print("C1* at m = 5:")
print(r5.c1_star)
print("S at m = 5:")
print(r5.s_matrix)

print()
print("Erratum check against the reported symbolic C1*:")
rep = fused_krein_reference_report()
for line in rep.lines():
    print(" ", line)
