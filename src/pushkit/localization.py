"""Torus fixed-point data and the localization pushforward for a
projective-space fiber of rank r (fiber dimension r - 1).

The fiber ring has generators x and y (opposite first Chern classes of the
tautological line and its dual), the quotient-bundle classes q1..q(r-1), the
base Chern classes c1..cr, and the Chern roots u1..ur.  The torus action on
the fiber has r isolated fixed points; at the j-th one, y restricts to u_j
and the normal bundle has equivariant Euler class prod_{i != j} (u_i - u_j).

The pushforward is evaluated as the exact sum over fixed points of
(restriction / Euler class), organized over the Vandermonde denominator so
that only exact division by linear factors is ever needed.  Euler classes and
cofactors are products of root differences; the r!-term Vandermonde is never
built.

The reference evaluator reads the first fixed point only: for a class without
roots, the sum is (-1)^(r-1) d_(r-1) ... d_1 of the first restriction, the
divided-difference form of Gysin maps (Fulton-Pragacz, LNM 1689).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import (
    LocalizationIntegralityError,
    NotDivisibleError,
    SymmetryError,
    TableMismatchError,
    UnsupportedVariableError,
)
from .polyring import Polynomial, VariableTable, divide_exact_linear
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
    """The linear factors (u_a, u_b), a < b, of prod_{a<b} (u_a - u_b)."""
    return tuple((f"u{a}", f"u{b}") for a in range(1, rank + 1) for b in range(a + 1, rank + 1))


@lru_cache(maxsize=None)
def _cofactors(rank: int) -> tuple[Polynomial, ...]:
    """Per chart j, the Vandermonde divided by that chart's Euler class.

    That is (-1)^(rank - j) times the product of the Vandermonde factors not
    involving u_j: the Euler class lists each factor u_j - u_b (b > j) as
    u_b - u_j, and there are rank - j of them.
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


def localize(phi: Polynomial, rank: int, cutoff: int | None = None) -> LocalizationResult:
    """Sum of restriction/Euler over the fixed points, computed exactly.

    ``phi`` lives in ``bundle_ring(rank)``; series inputs must already be
    truncated at ``cutoff``.  The result is exact through
    ``cutoff - (rank - 1)`` and is truncated there; it must be invariant
    under permuting the roots, which is asserted.
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

    value = table.zero()
    for chart, cofactor in zip(_charts(rank), _cofactors(rank)):
        value = value + chart.restrict(phi) * cofactor

    try:
        for a, b in _vandermonde(rank):
            value = divide_exact_linear(value, table.var(a) - table.var(b))
    except NotDivisibleError as exc:
        raise LocalizationIntegralityError(
            f"fixed-point sum did not reduce to a polynomial: {exc}"
        ) from exc

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
