"""Pushing forward powers of the hyperplane class.

The pushforward along P(V) -> M sends x^(r-1) to 1, lower powers to 0, and
packages everything above into the Segre classes of V: summing the whole
geometric series in x gives the inverse total Chern class.  This script
computes the table for a rank-3 bundle three ways and shows they agree.
"""

from pushkit import (
    ClassExpr,
    bundle_ring,
    pushforward,
    segre_oracle,
    series_inverse,
)

RANK = 3
CUTOFF = 8

table = bundle_ring(RANK)
x = table.var("x")

print(f"pushforward of x^k for a rank-{RANK} bundle")
print("=" * 60)
for k in range(0, 7):
    result = pushforward(ClassExpr(x.pow(k)), RANK)
    marker = "ok" if result.checks["presentation_oracle"] == "pass" else "MISMATCH"
    print(f"  f_*(x^{k}) = {result.chern_form.render():40s} [{marker}]")

print()
print("summing the geometric series reproduces the inverse total Chern class:")
geometric = series_inverse(table.one() - x, CUTOFF)
result = pushforward(ClassExpr(geometric, CUTOFF), RANK)
print(f"  f_*(1/(1-x)) = {result.chern_form.render()}")
print(f"  valid through degree {result.valid_through}")

oracle = segre_oracle(RANK, result.valid_through)
print(f"  series inverse of 1 + c1 + c2 + c3 agrees: {result.chern_form == oracle}")
print(f"  checks: {dict(result.checks)}")
