"""End-to-end pushforward pipeline for projective bundles, plus the two
independent classical oracles used to verify it.

The pushforward of a class is the sum of restriction/Euler over the torus
fixed points.  Its Chern-class form comes from the closed form of that sum
over the Segre series.  The sum itself, evaluated exactly at one integer
point fixed per rank (``localization.fixed_point_sample``), checks it.
Two classical facts serve as oracles: the inverse total Chern class is the
pushforward of the geometric series in x (the Segre series), and the ring
presentation with the single relation x^r + c1 x^(r-1) + ... + cr determines
the pushforward of every power of x.  Both evaluators, the closed form and
that presentation's long division, live in ``localization`` and run on one
read of the class, which ``pushforward`` makes once; ``localization``'s
``_valid_through`` holds the cutoff rule and the guards they share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import UnsupportedVariableError
from .localization import _fold, _read_in_x, _result, _segre_sum, _valid_through, bundle_ring
from .localization import fixed_point_sample, localize, relation_check
from .polyring import Polynomial, _Value, series_inverse
from .symfun import expand_elementary, root_generators

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


class ClassExpr(_Value):
    """A cohomology class of the projectivized bundle, already expanded.

    ``payload`` is a polynomial in the rank-r working ring, x and y together
    included, since every evaluator reads y as -x; ``cutoff`` is the degree
    through which a series expansion is exact, or None for an exact polynomial.
    """

    __slots__ = ("payload", "cutoff")

    def __init__(self, payload: Polynomial, cutoff: int | None = None) -> None:
        if cutoff is not None and (not isinstance(cutoff, int) or isinstance(cutoff, bool) or cutoff < 0):
            raise ValueError("cutoff must be a non-negative integer or None")
        if cutoff is not None and payload.degree() > cutoff:
            raise ValueError("payload has terms above the declared cutoff")
        _Value.__init__(self, payload, cutoff)


@dataclass(frozen=True)
class PushforwardResult:
    """The pushforward in Chern-class form, with its checks.

    ``checks`` records which verifications ran and their outcomes ("pass" or
    "fail"): ``fixed_point_sample`` always, ``presentation_oracle`` (the fold
    on the same read) for a class without q_i.  ``u_form`` is the same answer
    in the roots, ``expand_elementary(chern_form)``, built each time it is read.
    """

    chern_form: Polynomial
    valid_through: int | None
    checks: Mapping[str, str] = field(default_factory=dict)

    @property
    def u_form(self) -> Polynomial:
        return expand_elementary(self.chern_form)


def pushforward(expr: ClassExpr, rank: int) -> PushforwardResult:
    """Push a fiber class forward to the base, in Chern-class form.

    ``_valid_through`` checks the ring and the cutoff and gives
    ``valid_through``; one scan of the generators refuses roots u_i.  The
    class is read once (``_read_in_x``), and ``chern_form`` is the closed
    form on that read (``_segre_sum``).  ``fixed_point_sample`` checks it
    against the sum itself, restricted at every fixed point and divided by
    the Euler classes, at one integer point fixed per rank: a wrong answer
    passes with probability at most d / |S|, |S| = 2^40 - 1, in its lowest
    wrong degree d, over that seeded choice of point (not against an input
    built to vanish there).  Without a q_i, the presentation oracle
    (``_fold``) runs on the same read and must give the same integer sum.
    Each outcome is recorded in ``checks`` as "pass" or "fail".  Every
    evaluator lowers degree by exactly r - 1, so a payload truncated at
    ``expr.cutoff`` gives results that stop at ``valid_through``.
    """
    valid_through = _valid_through(expr.payload, rank, expr.cutoff)
    kinds = {name[0] for name in expr.payload.variables()}
    if "u" in kinds:
        raise UnsupportedVariableError("root variables u_i cannot be pushed forward; use localize for those")
    buckets, d, width = _read_in_x(expr.payload)
    packed = _segre_sum(buckets, rank, width)
    chern_form = _result(expr.payload.table, packed, d, width)
    sample = fixed_point_sample(expr.payload, rank, chern_form)
    checks = {"fixed_point_sample": "pass" if sample else "fail"}
    if "q" not in kinds:
        checks["presentation_oracle"] = "pass" if _fold(buckets, rank, width) == packed else "fail"
    return PushforwardResult(chern_form=chern_form, valid_through=valid_through, checks=checks)


def segre_oracle(rank: int, cutoff: int) -> Polynomial:
    """The inverse total Chern class 1/(1 + c1 + ... + cr) through ``cutoff``,
    computed by series inversion alone (no fixed-point machinery)."""
    table = bundle_ring(rank)
    total = table.one()
    for i in range(1, rank + 1):
        total = total + table.var(f"c{i}")
    return series_inverse(total, cutoff)


def presentation_oracle(expr: ClassExpr, rank: int) -> Polynomial:
    """Pushforward of a class in x, y and c1..cr via the ring presentation:
    the class read as sum_k a_k x^k, y = -x (``_read_in_x``), reduced modulo
    x^r + c1 x^(r-1) + ... + cr (``_fold``); a q_i or a root u_i raises
    ``UnsupportedVariableError``.

    The arguments pass ``_valid_through`` as in ``pushforward``; the reduction
    lowers degree by exactly r - 1, so the value stops at the ``valid_through``
    bound when the class has a cutoff.  It shares only the read with the
    closed form, which sums Segre products instead.
    """
    payload = expr.payload
    _valid_through(payload, rank, expr.cutoff)
    extra = {name for name in payload.variables() if name[0] in "qu"}
    if extra:
        raise UnsupportedVariableError(
            f"presentation oracle accepts only x, y and c1..c{rank}; got {sorted(extra)}"
        )
    buckets, d, width = _read_in_x(payload)
    return _result(payload.table, _fold(buckets, rank, width), d, width)


class VerificationCheck(_Value):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = "") -> None:
        _Value.__init__(self, name, passed, detail)


class VerificationReport(_Value):
    """Outcome of the classical cross-checks at one rank and cutoff."""

    __slots__ = ("rank", "cutoff", "checks")

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)


def verify_classical(rank: int, cutoff: int) -> VerificationReport:
    """Run the classical identities at the given rank and return a report.

    Checks: the pushforward of the geometric series in x equals the inverse
    total Chern class degree by degree; every power x^k (k <= cutoff) passes
    both checks that ``pushforward`` records, the presentation oracle and
    the fixed-point sample at one integer point; the fiber-ring relation
    restricts to a true identity at every fixed point; and, at rank 3, the
    closed form read in the roots for 1/(1 + y) equals the expanded product
    of the three geometric series 1/(1 + u_j).  Each comparison is exact
    equality; only the fixed-point sample is a check at one point (see
    ``pushforward`` for its bound).  The callees raise ValueError for a rank
    below 1 or a cutoff below rank - 1.
    """
    table = bundle_ring(rank)
    x = table.var("x")
    checks: list[VerificationCheck] = []

    # Pushforward of the geometric series in x against the Segre series.
    geometric = series_inverse(table.one() - x, cutoff)
    result = pushforward(ClassExpr(geometric, cutoff), rank)
    vt = result.valid_through
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

    # Powers of x against the presentation oracle and the fixed-point sample.
    mismatch = ""
    for k in range(cutoff + 1):
        if set(pushforward(ClassExpr(x.pow(k)), rank).checks.values()) != {"pass"}:
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

    return VerificationReport(rank, cutoff, tuple(checks))
