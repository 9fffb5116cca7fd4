"""The fixed-point sum behind the pushforward, shown at rank 3.

The torus acting on the fiber has three fixed points.  A class restricts to
a polynomial in the roots u_j at each of them; dividing by the equivariant
Euler class of the normal bundle and summing gives the pushforward to the
classifying-space level.  The denominators cancel exactly: ``localize``
evaluates the sum by its closed form over the Segre series, read in the
roots, and the sum for 1/(1+y) collapses to the product of three geometric
series.
"""

from pushkit import (
    bundle_ring,
    fixed_point_charts,
    localize,
    root_generators,
    series_inverse,
)

RANK = 3
CUTOFF = 8

table = bundle_ring(RANK)
y = table.var("y")

print("fixed-point data at rank 3")
print("=" * 60)
for chart in fixed_point_charts(RANK):
    print(f"  point {chart.index}:")
    print(f"    y  |->  {chart.restriction['y'].render()}")
    print(f"    q1 |->  {chart.restriction['q1'].render()}")
    print(f"    q2 |->  {chart.restriction['q2'].render()}")
    print(f"    Euler class: {chart.euler.render()}")

print()
print("localizing 1/(1+y):")
result = localize(series_inverse(1 + y, CUTOFF), RANK, CUTOFF)
print(f"  sum over fixed points = {result.value.render()}")
print(f"  valid through degree {result.valid_through}")

product = table.one()
for u in root_generators(table):
    product = product.mul_trunc(series_inverse(1 + u, CUTOFF), CUTOFF)
expected = product.truncate(result.valid_through)
print(f"  equals the expansion of 1/((1+u1)(1+u2)(1+u3)): {result.value == expected}")

print()
print("single monomials:")
for k in range(0, 5):
    value = localize(y.pow(k), RANK).value
    print(f"  sum for y^{k} = {value.render()}")
