"""Torus fixed-point data and the localization pushforward for a
projective-space fiber of rank r (fiber dimension r - 1).

The fiber ring has generators x and y (opposite first Chern classes of the
tautological line and its dual), the quotient-bundle classes q1..q(r-1), the
base Chern classes c1..cr, and the Chern roots u1..ur.  The torus action on
the fiber has r isolated fixed points; at the j-th one, y restricts to u_j
and the normal bundle has equivariant Euler class prod_{i != j} (u_i - u_j).

The sum over fixed points of (restriction / Euler class) has a closed form
over the Segre series (``_closed_form``); ``localize`` reads it in the roots
by sending each c_i to e_i(u).  The literal sum, organized over the
Vandermonde denominator, is the test suite's reference; ``_vandermonde`` and
``_cofactors`` stay here as its building blocks.

The reference evaluator reads the first fixed point only: for a class without
roots, the sum is (-1)^(r-1) d_(r-1) ... d_1 of the first restriction, the
divided-difference form of Gysin maps (Fulton-Pragacz, LNM 1689).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import SymmetryError, TableMismatchError, UnsupportedVariableError
from .polyring import Polynomial, VariableTable, _split, divide_exact_linear
from .symfun import Permutation, apply_permutation, elementary_symmetric, is_symmetric
from .symfun import root_generators

__all__ = [
    "bundle_ring",
    "FixedPointChart",
    "LocalizationResult",
    "fixed_point_charts",
    "localize",
    "localize_divided_differences",
    "relation_check",
]


@lru_cache(maxsize=None)
def bundle_ring(rank: int) -> VariableTable:
    """The working ring for a rank-``rank`` projective bundle.

    Generators, with complex degrees: x, y (degree 1), q1..q(rank-1)
    (degree i), c1..c(rank) (degree i), u1..u(rank) (degree 1).
    """
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise ValueError("rank must be a positive integer")
    entries: list[tuple[str, int]] = [("x", 1), ("y", 1)]
    entries += [(f"q{i}", i) for i in range(1, rank)]
    entries += [(f"c{i}", i) for i in range(1, rank + 1)]
    entries += [(f"u{i}", 1) for i in range(1, rank + 1)]
    return VariableTable(entries)


@dataclass(frozen=True)
class FixedPointChart:
    """Per-fixed-point substitution data.

    ``restriction`` maps every generator to its value at the fixed point
    p_index (a read-only view, since charts are cached per rank); ``euler``
    is the equivariant Euler class of the normal bundle.
    """

    index: int
    restriction: Mapping[str, Polynomial]
    euler: Polynomial

    def restrict(self, p: Polynomial) -> Polynomial:
        return p.substitute(self.restriction)


def _root_product(table: VariableTable, pairs: Iterable[tuple[str, str]]) -> Polynomial:
    """prod (a - b) over the root-name pairs (a, b)."""
    product = table.one()
    for a, b in pairs:
        product = product * (table.var(a) - table.var(b))
    return product


@lru_cache(maxsize=None)
def _charts(rank: int) -> tuple[FixedPointChart, ...]:
    table = bundle_ring(rank)
    roots = root_generators(table)
    total = [elementary_symmetric(i, roots) for i in range(rank + 1)]
    charts = []
    for j in range(1, rank + 1):
        complement = tuple(roots[i] for i in range(rank) if i != j - 1)
        mapping: dict[str, Polynomial] = {
            "x": -roots[j - 1],
            "y": roots[j - 1],
        }
        for i in range(1, rank):
            mapping[f"q{i}"] = elementary_symmetric(i, complement)
        for i in range(1, rank + 1):
            mapping[f"c{i}"] = total[i]
        for i in range(1, rank + 1):
            mapping[f"u{i}"] = roots[i - 1]
        factors = tuple((f"u{i}", f"u{j}") for i in range(1, rank + 1) if i != j)
        charts.append(
            FixedPointChart(
                index=j,
                restriction=MappingProxyType(mapping),
                euler=_root_product(table, factors),
            )
        )
    return tuple(charts)


def fixed_point_charts(rank: int) -> list[FixedPointChart]:
    """The ``rank`` fixed-point charts, indexed 1..rank."""
    return list(_charts(rank))


@lru_cache(maxsize=None)
def _vandermonde(rank: int) -> tuple[tuple[str, str], ...]:
    """The linear factors (u_a, u_b), a < b, of prod_{a<b} (u_a - u_b).

    No evaluator here divides by them: with ``_cofactors`` they build the
    test suite's literal fixed-point sum, and the benchmark tracer counts
    both as set-up caches by name."""
    return tuple((f"u{a}", f"u{b}") for a in range(1, rank + 1) for b in range(a + 1, rank + 1))


@lru_cache(maxsize=None)
def _cofactors(rank: int) -> tuple[Polynomial, ...]:
    """Per chart j, the Vandermonde divided by that chart's Euler class.

    That is (-1)^(rank - j) times the product of the Vandermonde factors not
    involving u_j: the Euler class lists each factor u_j - u_b (b > j) as
    u_b - u_j, and there are rank - j of them.  Kept for the test suite's
    literal sum and the benchmark tracer, like ``_vandermonde``.
    """
    table = bundle_ring(rank)
    factors = _vandermonde(rank)
    out = []
    for j in range(1, rank + 1):
        root = f"u{j}"
        cof = _root_product(table, [pair for pair in factors if root not in pair])
        out.append(-cof if (rank - j) % 2 else cof)
    return tuple(out)


@dataclass(frozen=True)
class LocalizationResult:
    """The fixed-point sum, with the degree bound through which it is exact.

    ``valid_through`` is None when the input was an exact polynomial rather
    than a truncated series.
    """

    value: Polynomial
    valid_through: int | None


def _closed_form(payload: Polynomial, rank: int) -> Polynomial:
    """The fixed-point sum in c1..cr by the closed form.

    With x = -y and each q_i eliminated by the Whitney relation
    q_i = sum_(m <= i) (-y)^m c_(i-m), the class is sum_k a_k y^k with each
    a_k in c1..cr and any roots u_i, which are constants in y.  At the fixed
    points, sum_j u_j^k / prod_(i != j) (u_i - u_j) = (-1)^(r-1) h_(k-r+1)(u)
    (Lagrange interpolation), so f_*(y^k) = (-1)^k s_(k-r+1), s = 1/c(V) the
    Segre series (Fulton, *Intersection Theory*, Prop. 3.1(a)).
    """
    table = payload.table
    y = table.var("y")
    chern = [table.one()] + [table.var(f"c{i}") for i in range(1, rank + 1)]
    images = {name: table.var(name) for name in payload.variables()}
    images["x"] = -y
    for i in range(1, rank):
        images[f"q{i}"] = sum(((-y).pow(m) * chern[i - m] for m in range(i + 1)), table.zero())
    buckets = _split(payload.substitute(images), table.index("y"))

    segre = [table.one()]  # s_m = -sum_(1 <= i <= min(m, r)) c_i s_(m-i)
    for m in range(1, max(buckets, default=0) - rank + 2):
        lower = (chern[i] * segre[m - i] for i in range(1, min(m, rank) + 1))
        segre.append(-sum(lower, table.zero()))
    value = table.zero()
    for k, terms in buckets.items():
        if k >= rank - 1:
            part = Polynomial._raw(table, terms) * segre[k - rank + 1]
            value = value - part if k % 2 else value + part
    return value


def localize(phi: Polynomial, rank: int, cutoff: int | None = None) -> LocalizationResult:
    """Sum of restriction/Euler over the fixed points, computed exactly.

    ``phi`` lives in ``bundle_ring(rank)``; series inputs must already be
    truncated at ``cutoff``.  The sum is the closed form read in the roots:
    ``_closed_form`` with each c_i sent to e_i(u1..ur).  The result is exact
    through ``cutoff - (rank - 1)`` and is truncated there; it must be
    invariant under permuting the roots, which is asserted.
    """
    table = bundle_ring(rank)
    if phi.table is not table and phi.table != table:
        raise TableMismatchError("phi must live in bundle_ring(rank)")
    if cutoff is not None:
        if not isinstance(cutoff, int) or isinstance(cutoff, bool) or cutoff < 0:
            raise ValueError("cutoff must be a non-negative integer or None")
        if cutoff < rank - 1:
            raise ValueError(f"cutoff must be at least rank - 1 = {rank - 1}, the fiber dimension")
        if phi.degree() > cutoff:
            raise ValueError("series input must be pre-truncated at the cutoff")

    value = _closed_form(phi, rank)
    roots = root_generators(table)
    images = {name: table.var(name) for name in value.variables()}
    for i in range(1, rank + 1):
        if f"c{i}" in images:
            images[f"c{i}"] = elementary_symmetric(i, roots)
    value = value.substitute(images)

    valid_through: int | None = None
    if cutoff is not None:
        valid_through = cutoff - (rank - 1)
        value = value.truncate(valid_through)
    if not is_symmetric(value):
        raise SymmetryError("localization result is not invariant under permuting the roots")
    return LocalizationResult(value=value, valid_through=valid_through)


def localize_divided_differences(phi: Polynomial, rank: int) -> Polynomial:
    """Reference evaluation of the fixed-point sum, for input without roots:
    (-1)^(rank-1) d_(rank-1) ... d_1 (phi|_1), with d_i f = (f - s_i f) /
    (u_i - u_(i+1)) and s_i swapping u_i and u_(i+1).  It needs phi|_j to be
    phi|_1 with u_1 and u_j swapped, true for every class in x, y, q_i, c_i."""
    table = bundle_ring(rank)
    if phi.table is not table and phi.table != table:
        raise TableMismatchError("phi must live in bundle_ring(rank)")
    if set(phi.variables()) & {f"u{i}" for i in range(1, rank + 1)}:
        raise UnsupportedVariableError("the divided-difference reference takes no roots u_i")
    value = _charts(rank)[0].restrict(phi)
    for i in range(1, rank):
        swapped = apply_permutation(value, Permutation.transposition(rank, i, i + 1))
        value = divide_exact_linear(value - swapped, table.var(f"u{i}") - table.var(f"u{i + 1}"))
    return -value if rank % 2 == 0 else value


def relation_check(rank: int) -> bool:
    """True when the defining relation of the fiber ring restricts to a true
    identity at every fixed point: (1 + u_j) * (1 + sum of complementary
    elementary symmetric polynomials) equals prod_i (1 + u_i), exactly."""
    table = bundle_ring(rank)
    roots = root_generators(table)
    rhs = table.one()
    for u in roots:
        rhs = rhs * (1 + u)
    lhs_class = table.one() + table.var("y")
    q_total = table.one()
    for i in range(1, rank):
        q_total = q_total + table.var(f"q{i}")
    lhs_class = lhs_class * q_total
    return all(chart.restrict(lhs_class) == rhs for chart in _charts(rank))
