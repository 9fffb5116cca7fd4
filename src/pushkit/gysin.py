"""End-to-end pushforward pipeline for projective bundles, plus the two
independent classical oracles used to verify it.

The pushforward of a class is the sum of restriction/Euler over the torus
fixed points.  Its Chern-class form comes from the closed form of that sum
over the Segre series; the same sum in the roots, evaluated by divided
differences at the first fixed point, checks it.  Two classical facts serve as
oracles: the inverse total Chern class is the pushforward of the geometric
series in x (the Segre series), and the ring presentation with the single
relation x^r + c1 x^(r-1) + ... + cr determines the pushforward of every
power of x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import ArityError, PushkitError, SymmetryError, UnsupportedVariableError
from .localization import _closed_form, bundle_ring, localize, localize_divided_differences
from .localization import relation_check
from .polyring import Monomial, Polynomial, _accumulate, _split, series_inverse
from .symfun import expand_elementary, is_symmetric, root_generators

__all__ = [
    "ClassExpr",
    "PushforwardResult",
    "pushforward",
    "segre_oracle",
    "presentation_oracle",
    "VerificationCheck",
    "VerificationReport",
    "verify_classical",
]


def _chern_names(rank: int) -> set[str]:
    return {f"c{i}" for i in range(1, rank + 1)}


@dataclass(frozen=True)
class ClassExpr:
    """A cohomology class of the projectivized bundle, already expanded.

    ``payload`` is a polynomial in the rank-r working ring; ``cutoff`` is the
    degree through which a series expansion is exact, or None for an exact
    polynomial.  x and y never co-occur (the front end normalizes one away).
    """

    payload: Polynomial
    cutoff: int | None = None

    def __post_init__(self) -> None:
        if self.cutoff is not None:
            if not isinstance(self.cutoff, int) or isinstance(self.cutoff, bool) or self.cutoff < 0:
                raise ValueError("cutoff must be a non-negative integer or None")
            if self.payload.degree() > self.cutoff:
                raise ValueError("payload has terms above the declared cutoff")
        support = set(self.payload.variables())
        if "x" in support and "y" in support:
            raise ValueError("payload may use x or y but not both")


@dataclass(frozen=True)
class PushforwardResult:
    """The pushforward in Chern-class form, with intermediates and checks.

    ``u_form`` is the same fixed-point sum in the roots, evaluated
    independently by ``localize_divided_differences``; expanding
    ``chern_form`` into roots reproduces it exactly.  ``checks`` records
    which verifications ran and their outcomes ("pass" or "fail").
    """

    chern_form: Polynomial
    u_form: Polynomial
    valid_through: int | None
    checks: Mapping[str, str] = field(default_factory=dict)


def _rename_fiber_variable(payload: Polynomial, old: str, new: str) -> Polynomial:
    """Substitute old -> -new, leaving every other occurring generator fixed."""
    if old not in payload.variables():
        return payload
    table = payload.table
    images = {name: table.var(name) for name in payload.variables()}
    images[old] = -table.var(new)
    return payload.substitute(images)


def pushforward(expr: ClassExpr, rank: int) -> PushforwardResult:
    """Push a fiber class forward to the base, in Chern-class form.

    ``chern_form`` is the closed form of the fixed-point sum (the Segre
    series, see ``_closed_form``).  ``u_form`` is the same sum evaluated
    independently in the roots by divided differences, which restrict q_i
    through the first chart rather than by the Whitney relation; it must be
    invariant under permuting the roots (``weyl_invariance``) and equal
    ``chern_form`` expanded into the roots (``chern_expansion``).  The
    answer is also cross-checked against the presentation oracle when the
    input involves only x (or y) and the Chern generators; the outcome is
    recorded as ``checks["presentation_oracle"]``.  The payload is already
    truncated at ``expr.cutoff`` and both evaluators lower every degree by
    exactly r - 1, so both results stop at ``valid_through``.
    """
    table = bundle_ring(rank)
    if expr.payload.table is not table and expr.payload.table != table:
        raise ArityError(f"expression does not live in the rank-{rank} working ring")
    support = set(expr.payload.variables())
    root_names = {f"u{i}" for i in range(1, rank + 1)}
    if support & root_names:
        raise UnsupportedVariableError(
            "root variables u_i cannot be pushed forward; use localize for those"
        )
    valid_through = None
    if expr.cutoff is not None:
        if expr.cutoff < rank - 1:
            raise ValueError(f"cutoff must be at least rank - 1 = {rank - 1}, the fiber dimension")
        valid_through = expr.cutoff - (rank - 1)

    u_form = localize_divided_differences(expr.payload, rank)
    if not is_symmetric(u_form):
        raise SymmetryError("localization result is not invariant under permuting the roots")
    checks: dict[str, str] = {"weyl_invariance": "pass"}

    chern_form = _closed_form(expr.payload, rank)
    if expand_elementary(chern_form) != u_form:
        raise PushkitError("internal invariant broken: Chern form does not expand back")
    checks["chern_expansion"] = "pass"

    q_names = {f"q{i}" for i in range(1, rank)}
    if not (support & q_names):
        x_payload = _rename_fiber_variable(expr.payload, "y", "x")
        oracle = presentation_oracle(ClassExpr(x_payload, expr.cutoff), rank)
        checks["presentation_oracle"] = "pass" if oracle == chern_form else "fail"

    return PushforwardResult(
        chern_form=chern_form,
        u_form=u_form,
        valid_through=valid_through,
        checks=checks,
    )


def segre_oracle(rank: int, cutoff: int) -> Polynomial:
    """The inverse total Chern class 1/(1 + c1 + ... + cr) through ``cutoff``,
    computed by series inversion alone (no fixed-point machinery)."""
    table = bundle_ring(rank)
    total = table.one()
    for i in range(1, rank + 1):
        total = total + table.var(f"c{i}")
    return series_inverse(total, cutoff)


def _presentation_reduce(payload: Polynomial, rank: int) -> Polynomial:
    """Reduce a polynomial in x and c1..cr modulo
    x^r + c1 x^(r-1) + ... + cr, then return the coefficient of x^(r-1).

    This realizes the classical description of the pushforward: x^(r-1) maps
    to 1, lower powers to 0, extended linearly over Chern-class coefficients.
    """
    table = payload.table
    support = set(payload.variables())
    allowed = {"x"} | _chern_names(rank)
    extra = support - allowed
    if extra:
        raise UnsupportedVariableError(
            f"presentation oracle accepts only x and c1..c{rank}; got {sorted(extra)}"
        )
    x_idx = table.index("x")
    chern_mons = [Monomial(((table.index(f"c{i}"), 1),)) for i in range(1, rank + 1)]

    buckets = _split(payload, x_idx)
    for k in range(max(buckets, default=0), rank - 1, -1):
        head = buckets.pop(k, {})
        for i, c_mon in enumerate(chern_mons, 1):
            target = buckets.setdefault(k - i, {})
            _accumulate(target, ((mon * c_mon, c) for mon, c in head.items()), sign=-1)
    return Polynomial._raw(table, buckets.get(rank - 1, {}))


def presentation_oracle(expr: ClassExpr, rank: int) -> Polynomial:
    """Independent pushforward of a class in x and c1..cr via the ring
    presentation; truncated at ``expr.cutoff - (rank - 1)`` when the class
    has a cutoff."""
    table = bundle_ring(rank)
    if expr.payload.table is not table and expr.payload.table != table:
        raise ArityError(f"expression does not live in the rank-{rank} working ring")
    value = _presentation_reduce(expr.payload, rank)
    if expr.cutoff is not None:
        value = value.truncate(expr.cutoff - (rank - 1))
    return value


@dataclass(frozen=True)
class VerificationCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the classical cross-checks at one rank and cutoff."""

    rank: int
    cutoff: int
    checks: tuple[VerificationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)


def verify_classical(rank: int, cutoff: int) -> VerificationReport:
    """Run the classical identities at the given rank and return a report.

    Checks: the pushforward of the geometric series in x equals the inverse
    total Chern class degree by degree; every power x^k (k <= cutoff) passes
    the presentation-oracle check that ``pushforward`` records; the
    fiber-ring relation restricts to a true identity at every fixed point;
    and, at rank 3, the raw root-variable sum for 1/(1 + y) equals the
    expanded product of the three geometric series 1/(1 + u_j).  The callees
    raise ValueError for a rank below 1 or a cutoff below rank - 1.
    """
    table = bundle_ring(rank)
    x = table.var("x")
    checks: list[VerificationCheck] = []

    # Pushforward of the geometric series in x against the Segre series.
    geometric = series_inverse(table.one() - x, cutoff)
    result = pushforward(ClassExpr(geometric, cutoff), rank)
    vt = cutoff - (rank - 1)
    oracle = segre_oracle(rank, vt)
    mismatch = ""
    for d in range(vt + 1):
        if result.chern_form.homogeneous_component(d) != oracle.homogeneous_component(d):
            mismatch = f"first mismatch in degree {d}"
            break
    checks.append(
        VerificationCheck(
            name="segre_series",
            passed=not mismatch,
            detail=mismatch or f"degrees 0..{vt} agree",
        )
    )

    # Powers of x against the presentation oracle, both exact.
    mismatch = ""
    for k in range(cutoff + 1):
        if pushforward(ClassExpr(x.pow(k)), rank).checks["presentation_oracle"] != "pass":
            mismatch = f"first mismatch at x^{k}"
            break
    checks.append(
        VerificationCheck(
            name="hyperplane_powers",
            passed=not mismatch,
            detail=mismatch or f"k = 0..{cutoff} agree",
        )
    )

    checks.append(
        VerificationCheck(
            name="chart_relation",
            passed=relation_check(rank),
            detail="restricted Whitney relation at every fixed point",
        )
    )

    if rank == 3:
        y = table.var("y")
        loc = localize(series_inverse(table.one() + y, cutoff), rank, cutoff)
        product = table.one()
        for u in root_generators(table):
            product = product.mul_trunc(series_inverse(table.one() + u, cutoff), cutoff)
        expected = product.truncate(loc.valid_through)
        checks.append(
            VerificationCheck(
                name="u_series_rank3",
                passed=loc.value == expected,
                detail="root-variable series for 1/(1+y) matches the product expansion",
            )
        )

    return VerificationReport(rank=rank, cutoff=cutoff, checks=tuple(checks))
