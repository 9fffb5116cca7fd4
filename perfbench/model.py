"""Input classes of the benchmark, their seeded generation, and the
independent answer check.

A class is kept in structured form (a list of terms, optionally times the
series inverse of a second list of terms).  The program only ever sees the
class as expression text; the benchmark builds the same class itself from
the structure, so a parse or elaboration fault shows up as a wrong answer.

The answer check never calls the fixed-point sum:

- ``inv(1-x)`` is compared with ``segre_oracle``;
- ``x^(r-1+m)`` with the degree-m part of ``segre_oracle``;
- every other class is rewritten in x and c1..cr by the Whitney relation
  q_i = sum_m x^m c_(i-m) and y = -x, and compared with
  ``presentation_oracle``.  This also covers q classes, which the program's
  own verification skips.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from pushkit.gysin import ClassExpr, presentation_oracle, segre_oracle
from pushkit.localization import bundle_ring
from pushkit.polyring import Monomial, Polynomial, series_inverse

# A term is (coefficient, ((generator, exponent), ...)), generators in the
# order they are written.
Term = tuple[Fraction, tuple[tuple[str, int], ...]]


def _term_text(coeff: Fraction, mono: tuple[tuple[str, int], ...], first: bool) -> str:
    sign = "-" if coeff < 0 else ("" if first else "+")
    mag = abs(coeff)
    factors = [f"{name}^{e}" if e > 1 else name for name, e in mono if e]
    if mag != 1 or not factors:
        factors.insert(0, str(mag))
    body = " ".join(factors)
    if first:
        return f"{sign}{body}"
    return f"{sign} {body}"


def terms_text(terms: tuple[Term, ...]) -> str:
    return " ".join(_term_text(c, m, k == 0) for k, (c, m) in enumerate(terms))


@dataclass(frozen=True)
class ClassSpec:
    """One input class: ``terms`` times ``inv(inverse)`` when ``inverse`` is set.

    ``kind`` selects the oracle: "segre" for inv(1-x), "power" for a power of
    x, "general" for everything else.
    """

    kind: str
    terms: tuple[Term, ...]
    inverse: tuple[Term, ...] | None = None

    @property
    def text(self) -> str:
        if self.kind == "segre":
            return "inv(1-x)"
        if self.inverse is None:
            return terms_text(self.terms)
        series = f"inv({terms_text(self.inverse)})"
        if self.terms == ((Fraction(1), ()),):
            return series
        return f"({terms_text(self.terms)}) {series}"

    def power(self) -> int:
        """The exponent k of a "power" class x^k."""
        ((_, ((_, k),)),) = self.terms
        return k


def segre_class() -> ClassSpec:
    return ClassSpec("segre", ((Fraction(1), ()),), ((Fraction(1), ()), (Fraction(-1), (("x", 1),))))


def power_class(k: int) -> ClassSpec:
    return ClassSpec("power", ((Fraction(1), (("x", k),)),))


def general_class(terms: list[Term], inverse: list[Term] | None = None) -> ClassSpec:
    return ClassSpec("general", tuple(terms), None if inverse is None else tuple(inverse))


def _build_terms(terms: tuple[Term, ...], rank: int, cutoff: int) -> Polynomial:
    table = bundle_ring(rank)
    out = table.zero()
    for coeff, mono in terms:
        p = table.const(coeff)
        for name, e in mono:
            p = p.mul_trunc(table.var(name).pow(e, cutoff), cutoff)
        out = out + p
    return out


def build_payload(spec: ClassSpec, rank: int, cutoff: int) -> Polynomial:
    """The class as a truncated ring element, built without the parser."""
    payload = _build_terms(spec.terms, rank, cutoff)
    if spec.inverse is not None:
        series = series_inverse(_build_terms(spec.inverse, rank, cutoff), cutoff)
        payload = payload.mul_trunc(series, cutoff)
    return payload


def whitney_to_x(payload: Polynomial, rank: int) -> Polynomial:
    """Rewrite y and q_i in x and the Chern classes: y = -x and
    q_i = sum_{m=0..i} x^m c_(i-m), with c_0 = 1."""
    table = bundle_ring(rank)
    x = table.var("x")
    images = {"x": x, "y": -x}
    chern = [table.one()] + [table.var(f"c{i}") for i in range(1, rank + 1)]
    for i in range(1, rank + 1):
        images[f"c{i}"] = chern[i]
    for i in range(1, rank):
        images[f"q{i}"] = sum((x.pow(m) * chern[i - m] for m in range(i + 1)), table.zero())
    return payload.substitute(images)


def expected_chern_form(spec: ClassSpec, rank: int, cutoff: int) -> Polynomial:
    """The pushforward of ``spec`` in c1..cr, through cutoff - (rank - 1)."""
    valid_through = cutoff - (rank - 1)
    if spec.kind == "segre":
        return segre_oracle(rank, valid_through)
    if spec.kind == "power":
        if spec.power() > cutoff:
            return bundle_ring(rank).zero()
        return segre_part(rank, spec.power() - (rank - 1)).truncate(valid_through)
    payload = whitney_to_x(build_payload(spec, rank, cutoff), rank)
    return presentation_oracle(ClassExpr(payload, cutoff), rank)


def segre_part(rank: int, m: int) -> Polynomial:
    """The pushforward of x^(rank-1+m): the degree-m part of 1/c(V)."""
    if m < 0:
        return bundle_ring(rank).zero()
    return segre_oracle(rank, m).homogeneous_component(m)


def polynomial_from_json_terms(rows: list[dict], rank: int) -> Polynomial:
    """Rebuild a polynomial from the ``terms`` list of ``--format json``."""
    table = bundle_ring(rank)
    terms = {}
    for row in rows:
        mono = Monomial({table.index(name): e for name, e in row["exps"].items()})
        terms[mono] = Fraction(row["coeff"])
    return Polynomial(table, terms)


# -- seeded generation -----------------------------------------------------
#
# The shape follows the fiber-class generator of the test suite: up to four
# terms, each a product of up to three generator draws with exponents 1..2,
# and coefficients num/den with num in -6..6 (0 becomes 1) and den in 1..4.


def random_coeff(rng: random.Random) -> Fraction:
    num = rng.randint(-6, 6)
    if num == 0:
        num = 1
    return Fraction(num, rng.randint(1, 4))


def fiber_names(rank: int) -> list[str]:
    return ["y"] + [f"q{i}" for i in range(1, rank)] + [f"c{i}" for i in range(1, rank + 1)]


def random_terms(rng: random.Random, names: list[str]) -> list[Term]:
    """Random sparse terms over ``names``; like terms are combined, zero
    coefficients dropped."""
    order = {name: i for i, name in enumerate(names)}
    combined: dict[tuple[tuple[str, int], ...], Fraction] = {}
    for _ in range(rng.randint(0, 4)):
        exps: dict[str, int] = {}
        for _ in range(rng.randint(0, 3)):
            name = rng.choice(names)
            exps[name] = exps.get(name, 0) + rng.randint(1, 2)
        mono = tuple(sorted(exps.items(), key=lambda kv: order[kv[0]]))
        combined[mono] = combined.get(mono, Fraction(0)) + random_coeff(rng)
    return [(c, m) for m, c in combined.items() if c]


def term_degree(mono: tuple[tuple[str, int], ...]) -> int:
    return sum(e * (1 if name in ("x", "y") else int(name[1:])) for name, e in mono)


def restricted_support(mono: tuple[tuple[str, int], ...], rank: int) -> int:
    """Number of root monomials in the restriction of one term to the first
    fixed point (no cancellation assumed): y -> u1, q_i -> e_i(u2..ur),
    c_i -> e_i(u1..ur)."""
    support = {(0,) * rank}
    for name, e in mono:
        if name in ("x", "y"):
            choices = [tuple(1 if j == 0 else 0 for j in range(rank))]
        else:
            i = int(name[1:])
            roots = range(1, rank) if name[0] == "q" else range(rank)
            choices = [
                tuple(1 if j in combo else 0 for j in range(rank))
                for combo in itertools.combinations(roots, i)
            ]
        for _ in range(e):
            support = {tuple(a + b for a, b in zip(s, c)) for s in support for c in choices}
    return len(support)


def random_fiber_class(
    rng: random.Random, rank: int, max_degree: int, support: tuple[int, int]
) -> ClassSpec:
    """A random y/q/c class with a term of degree >= rank - 1 (so its
    pushforward can be nonzero) whose restriction to a fixed point has
    between ``support[0]`` and ``support[1]`` root monomials, so its cost
    stays in a known band.

    Terms above ``max_degree`` are dropped (at the cutoff the program would
    drop them anyway); rejected draws are redrawn from the same stream.
    """
    names = fiber_names(rank)
    lo, hi = support
    while True:
        terms = [(c, m) for c, m in random_terms(rng, names) if term_degree(m) <= max_degree]
        if not any(term_degree(m) >= rank - 1 for _, m in terms):
            continue
        if lo <= sum(restricted_support(m, rank) for _, m in terms) <= hi:
            return general_class(terms)


def random_series_class(
    rng: random.Random, rank: int, cutoff: int, support: tuple[int, int]
) -> ClassSpec:
    """A random y/q/c class times the geometric series inv(1 + a y).  A
    constant term is added when the draw has none, so the series reaches
    every degree up to the cutoff."""
    terms = list(random_fiber_class(rng, rank, cutoff, support).terms)
    if not any(not m for _, m in terms):
        terms.append((random_coeff(rng), ()))
    a = random_coeff(rng)
    return general_class(terms, [(Fraction(1), ()), (a, (("y", 1),))])
