"""Shared random generators and symbolic references for the test suite
(seeded, deterministic).  This module owns every access to pushkit's private
per-rank caches: the tests empty, list, read and perturb them through the
functions below, so a change to how a cache is stored edits only these."""

from __future__ import annotations

import contextlib
import importlib
import itertools
import math
import pkgutil
import random
from fractions import Fraction
from typing import Callable, Sequence

import pytest

import pushkit
from pushkit import (
    Monomial,
    Polynomial,
    UnsupportedVariableError,
    VariableTable,
    bundle_ring,
    divide_exact_linear,
    fixed_point_charts,
    root_generators,
)
from pushkit import localization
from pushkit.errors import NotInvertibleError
from pushkit.expressions import ExprAst, Inv, Neg, Num, Pow, Product, Sum, Var
from pushkit.gysin import ClassExpr
from pushkit.polyring import _key, _lead, _pairs, _shift, series_inverse


# Every lru_cache in pushkit by name; the suite checks that the scan of
# per_rank_caches finds these and no other, so cold_caches empties them all.
CACHES = frozenset({"bundle_ring", "_charts", "_vandermonde", "_cofactors", "_segre_table", "_sample_point"})


def per_rank_caches() -> dict[str, Callable]:
    """Every ``lru_cache`` defined in ``pushkit``, by name, found by its
    ``cache_clear`` rather than by name.  Each is keyed by the rank alone."""
    modules = [pushkit] + [importlib.import_module(f"pushkit.{info.name}")
                           for info in pkgutil.iter_modules(pushkit.__path__) if info.name != "__main__"]
    return {name: value for module in modules for name, value in vars(module).items()
            if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == module.__name__}


def cache_sizes() -> dict[str, tuple]:
    """Each cache's ``(hits, misses, maxsize, currsize)``, by name."""
    return {name: cache.cache_info() for name, cache in per_rank_caches().items()}


@contextlib.contextmanager
def cold_caches():
    """Every cache emptied on entry and on exit: the body fills them itself."""
    for cache in per_rank_caches().values():
        cache.cache_clear()
    try:
        yield
    finally:
        for cache in per_rank_caches().values():
            cache.cache_clear()


class FreshRank(int):
    """A rank equal only to itself: a new entry in any cache, built as its int."""
    __hash__, __eq__ = object.__hash__, object.__eq__


def reference_setup(rank: int) -> tuple[tuple, tuple, tuple]:
    """The cached symbolic set-up: the charts, the Vandermonde's linear factors
    (u_a, u_b), a < b, and per chart the Vandermonde over its Euler class."""
    return localization._charts(rank), localization._vandermonde(rank), localization._cofactors(rank)


def sample_table(rank: int) -> tuple:
    """``fixed_point_sample``'s cached point data: the point a, the columns (each
    key field's images at the fixed points, from the bottom), V, the cofactors."""
    return localization._sample_point(rank)[:4]


def sample_memos(rank: int, width: int) -> tuple[dict, dict] | None:
    """The kept (c/u-monomial values, fiber weights W(f)) of the sample check
    at ``rank`` and key ``width``; None before a check there."""
    return localization._sample_point(rank)[4].get(width)


def segre_series(rank: int, width: int) -> list:
    """The kept Segre series s_0, s_1, ... at ``rank`` and key ``width``, each
    s_m as (keys, coefficients); empty before a push there."""
    return localization._segre_table(rank).get(width, [])


@contextlib.contextmanager
def perturbed_segre(rank: int, width: int, m: int):
    """For the body, every rank's Segre table holds at ``width`` a copy of the
    series kept at ``rank`` with the first coefficient of s_m one more."""
    wrong = list(segre_series(rank, width))
    keys, (c, *rest) = wrong[m]
    wrong[m] = (keys, (c + 1, *rest))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(localization, "_segre_table", lambda rank: {width: wrong})
        yield


@contextlib.contextmanager
def wrong_q1_at_second_point():
    """For the body, q1's image at the second fixed point is one more, at any root
    values; the charts and the sample table are built from it past their caches."""
    fixed_points = localization._fixed_points

    def wrong(a, one):
        points = fixed_points(a, one)
        points[1][0]["q1"] += one
        return points

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(localization, "_fixed_points", wrong)
        for name in ("_charts", "_sample_point"):
            patch.setattr(localization, name, getattr(localization, name).__wrapped__)
        yield


def random_coeff(rng: random.Random) -> Fraction:
    num = rng.randint(-6, 6)
    if num == 0:
        num = 1
    return Fraction(num, rng.randint(1, 4))


def random_poly(
    rng: random.Random,
    table: VariableTable,
    names: list[str],
    max_terms: int = 4,
    max_exp: int = 3,
    max_vars_per_term: int = 3,
) -> Polynomial:
    """Random sparse polynomial supported on the given generators."""
    terms: dict[Monomial, Fraction] = {}
    for _ in range(rng.randint(0, max_terms)):
        exps: dict[int, int] = {}
        for _ in range(rng.randint(0, max_vars_per_term)):
            idx = table.index(rng.choice(names))
            exps[idx] = exps.get(idx, 0) + rng.randint(1, max_exp)
        mon = Monomial(exps)
        terms[mon] = terms.get(mon, Fraction(0)) + random_coeff(rng)
    return Polynomial(table, terms)


def random_x_class(rng: random.Random, rank: int, max_x_degree: int = 8) -> Polynomial:
    """Random polynomial in x with Chern-class coefficients at the given rank."""
    table = bundle_ring(rank)
    x = table.var("x")
    p = table.zero()
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(0, max_x_degree)
        coeff = table.const(random_coeff(rng))
        for _ in range(rng.randint(0, 2)):
            coeff = coeff * table.var(f"c{rng.randint(1, rank)}")
        p = p + coeff * x.pow(k)
    return p


def random_chern_poly(rng: random.Random, rank: int, max_terms: int = 4) -> Polynomial:
    """Random polynomial in c1..cr (a random symmetric class, once expanded)."""
    table = bundle_ring(rank)
    names = [f"c{i}" for i in range(1, rank + 1)]
    return random_poly(rng, table, names, max_terms=max_terms, max_exp=2, max_vars_per_term=2)


def random_fiber_poly(rng: random.Random, rank: int, max_terms: int = 4) -> Polynomial:
    """Random polynomial in the fiber generators y, q_i, c_i (no x, no roots)."""
    table = bundle_ring(rank)
    names = ["y"] + [f"q{i}" for i in range(1, rank)] + [f"c{i}" for i in range(1, rank + 1)]
    return random_poly(rng, table, names, max_terms=max_terms, max_exp=2, max_vars_per_term=3)


def random_class(rng: random.Random, rank: int, fiber: str = "y") -> Polynomial:
    """Random class in one fiber variable (x or y), the q_i and the c_i: one
    to three terms, each a small q/c polynomial times a power of the fiber
    variable up to rank + 3.  The evaluators also take x and y together;
    ``test_gysin`` draws such classes by a hypothesis strategy."""
    table = bundle_ring(rank)
    names = [f"q{i}" for i in range(1, rank)] + [f"c{i}" for i in range(1, rank + 1)]
    p = table.zero()
    for _ in range(rng.randint(1, 3)):
        coeff = random_coeff(rng) + random_poly(
            rng, table, names, max_terms=2, max_exp=2, max_vars_per_term=2
        )
        p = p + coeff * table.var(fiber).pow(rng.randint(0, rank + 3))
    return p


def whitney_map(rank: int) -> dict[str, Polynomial]:
    """Reference Whitney map for ``Polynomial.substitute``: q_i ->
    sum_(m <= i) x^m c_(i-m), from (1 + y)(1 + q1 + ... + q(r-1)) = c(V)
    with y = -x."""
    table = bundle_ring(rank)
    x, chern = table.var("x"), [table.one()] + [table.var(f"c{i}") for i in range(1, rank)]
    return {f"q{i}": sum((x.pow(m) * chern[i - m] for m in range(i + 1)), table.zero())
            for i in range(1, rank)}


def literal_sum(phi: Polynomial, rank: int, cutoff: int | None = None) -> Polynomial:
    """Reference fixed-point sum, the localization formula verbatim: the sum
    over charts j of phi|_j times the j-th cofactor (the Vandermonde divided
    by that chart's Euler class), then exact division by each linear factor
    of the Vandermonde; truncated at cutoff - (rank - 1) when a cutoff is
    given.  The numerator grows like rank!, so ranks above 6 are refused."""
    if rank > 6:
        raise ValueError("the literal sum is too slow above rank 6")
    table, (charts, factors, cofactors) = bundle_ring(rank), reference_setup(rank)
    value = table.zero()
    for chart, cofactor in zip(charts, cofactors):
        value = value + phi.substitute(chart.restriction) * cofactor
    for a, b in factors:
        value = divide_exact_linear(value, table.var(a) - table.var(b))
    return value if cutoff is None else value.truncate(cutoff - (rank - 1))


def complete_homogeneous(k: int, gens: Sequence[Polynomial]) -> Polynomial:
    """Reference h_k of the degree-1 generators ``gens``: the sum of every
    product of k of them, repetitions allowed, each monomial once; h_0 = 1."""
    table = gens[0].table
    return sum((math.prod(combo, start=table.one())
                for combo in itertools.combinations_with_replacement(gens, k)), table.zero())


def relation_check(rank: int) -> bool:
    """Reference for the symbolic charts: True when the defining relation of
    the fiber ring restricts to a true identity at every fixed point, (1 +
    u_j) * (1 + sum of complementary elementary symmetric polynomials) equals
    prod_i (1 + u_i), exactly.  Restriction is a ring map: the left side is a
    product of images."""
    table = bundle_ring(rank)
    rhs = math.prod((1 + u for u in root_generators(table)), start=table.one())
    return all((1 + images["y"]) * sum((images[f"q{i}"] for i in range(1, rank)), table.one()) == rhs
               for images in (chart.restriction for chart in fixed_point_charts(rank)))


def _by_degree(p: Polynomial, values: dict[int, int]) -> dict[tuple[int, int], object]:
    """The terms of ``p`` with each generator index in ``values`` (c1 on, at
    the end of the table, so in the lowest fields) set to that integer,
    summed by (degree, the key of the rest).  Those fields are read as their
    first field (``_lead``) times the rest, each part once however often used."""
    table, width = p.table, p._width
    top, low = _shift(table, width, -1), 1 << _shift(table, width, min(values) - 1)
    parts: dict[int, tuple[object, int]] = {0: (1, 0)}

    def read(key: int) -> tuple[object, int]:  # (the value of the generators in values, the key of the others)
        i, e, below = _lead(table, width, key)
        if below:
            (lead, other), (value, rest) = parts.get(key - below) or read(key - below), parts.get(below) or read(below)
            found = parts[key] = (lead * value, other + rest)
        else:
            found = parts[key] = (values[i] ** e, 0) if i in values else (1, key)
        return found

    out: dict[int, object] = {}  # keyed by the key without the fields of values
    for mon, value in p.sorted_terms():
        key = _key(table, width, mon)
        below = key % low
        factor, rest = parts.get(below) or read(below)
        key += rest - below
        out[key] = out.get(key, 0) + value * factor
    return {(key >> top, key - (key >> top << top)): value for key, value in out.items()}


def sample_by_charts(phi: Polynomial, rank: int, chern_form: Polynomial) -> bool:
    """Reference for ``localization.fixed_point_sample``, the same check
    chart by chart: each chart restricts every term of ``phi`` on its own,
    sums the numbers by degree and multiplies each sum by its cofactor,
    rebuilding the Vandermonde and dividing it by the Euler class at every
    call.  It takes only the point from ``sample_table``, builds the charts
    there with ``_fixed_points`` and gives the same bool."""
    localization._valid_through(phi, rank, None)
    localization._valid_through(chern_form, rank, None)
    scale, chern_scale = (math.lcm(*(Fraction(c).denominator for _, c in p.sorted_terms()))
                          for p in (phi, chern_form))
    phi, chern_form = phi * scale, chern_form * chern_scale
    a, index = sample_table(rank)[0], phi.table.index
    charts = [({index(n): v for n, v in images.items()}, euler) for images, euler in localization._fixed_points(a, 1)]
    shared = {i: value for i, value in charts[0][0].items() if phi.table.names[i][0] in "cu"}

    expected: dict[int, object] = {}
    chern = {i: value for i, value in shared.items() if phi.table.names[i][0] == "c"}
    for (degree, rest), value in _by_degree(chern_form, chern).items():
        if rest:
            return False  # a pushforward lives in c1..cr
        expected[degree + rank - 1] = value
    restricted = [(degree, _pairs(phi.table, phi._width, rest), value)
                  for (degree, rest), value in _by_degree(phi, shared).items()]
    vandermonde = math.prod(ai - ak for ai, ak in itertools.combinations(a, 2))
    sums: dict[int, object] = {}
    for images, euler in charts:
        cofactor = vandermonde // euler
        numerators: dict[int, object] = {}
        for degree, rest, value in restricted:
            for i, e in rest:
                value = value * images[i] ** e
            numerators[degree] = numerators.get(degree, 0) + value
        for degree, n in numerators.items():
            sums[degree] = sums.get(degree, 0) + n * cofactor
    return all(chern_scale * sums.get(d, 0) == scale * vandermonde * expected.get(d, 0)
               for d in set(sums) | set(expected))


def permute_roots(p: Polynomial, images: Sequence[int]) -> Polynomial:
    """Rename u_i to u_(images[i-1]); every other generator is fixed.
    ``images`` must be a permutation of 1..r, r the number of roots."""
    table = p.table
    if sorted(images) != list(range(1, len(root_generators(table)) + 1)):
        raise ValueError("images must be a permutation of 1..r")
    return p.substitute({f"u{i}": table.var(f"u{k}") for i, k in enumerate(images, 1)})


def _swap(r: int, i: int) -> list[int]:
    """The images of the adjacent transposition of i and i + 1 in 1..r."""
    images = list(range(1, r + 1))
    images[i - 1], images[i] = i + 1, i
    return images


def symmetrize(p: Polynomial) -> Polynomial:
    """The sum of p over every permutation of the roots u1..ur."""
    r = len(root_generators(p.table))
    out = p.table.zero()
    for images in itertools.permutations(range(1, r + 1)):
        out = out + permute_roots(p, images)
    return out


def symmetric_by_transpositions(p: Polynomial) -> bool:
    """Symmetry by definition: p is fixed by every adjacent root transposition."""
    r = len(root_generators(p.table))
    return all(permute_roots(p, _swap(r, i)) == p for i in range(1, r))


def localize_divided_differences(phi: Polynomial, rank: int) -> Polynomial:
    """Reference evaluation of the fixed-point sum, for input without roots:
    (-1)^(rank-1) d_(rank-1) ... d_1 (phi|_1), with d_i f = (f - s_i f) /
    (u_i - u_(i+1)) and s_i swapping u_i and u_(i+1) (Fulton-Pragacz, LNM
    1689).  It needs phi|_j to be phi|_1 with u_1 and u_j swapped, true for
    every class in x, y, q_i, c_i, so a class with a root is refused."""
    localization._valid_through(phi, rank, None)
    if any(name[0] == "u" for name in phi.variables()):
        raise UnsupportedVariableError("root variables u_i cannot be pushed forward; use localize for those")
    table = bundle_ring(rank)
    value = phi.substitute(fixed_point_charts(rank)[0].restriction)
    for i in range(1, rank):
        swapped = permute_roots(value, _swap(rank, i))
        value = divide_exact_linear(value - swapped, table.var(f"u{i}") - table.var(f"u{i + 1}"))
    return -value if rank % 2 == 0 else value


def graded_parts(p: Polynomial) -> list[tuple[int, Polynomial]]:
    """The nonzero homogeneous components of ``p`` as ``(degree, part)``, in increasing degree."""
    parts = ((d, p.homogeneous_component(d)) for d in range(p.degree() + 1))
    return [(d, part) for d, part in parts if part]


def random_homogeneous(rng: random.Random, table: VariableTable, degree: int) -> Polynomial:
    """Random polynomial of one to three terms, each homogeneous of ``degree``:
    a coefficient times generators whose degrees add up to it (the table must
    have a degree-1 generator)."""
    p = table.zero()
    for _ in range(rng.randint(1, 3)):
        term, left = table.const(random_coeff(rng)), degree
        while left:
            name = rng.choice([n for n in table.names if table.degree_of(n) <= left])
            term, left = term * table.var(name), left - table.degree_of(name)
        p = p + term
    return p


def substitute_by_powers(p: Polynomial, images: dict[str, Polynomial]) -> Polynomial:
    """Reference substitution, term by term: each term is its coefficient
    times cached powers of the images of its generators; a generator
    without an image is fixed."""
    table = p.table
    powers: dict[str, list[Polynomial]] = {}

    def power(name: str, e: int) -> Polynomial:
        cache = powers.setdefault(name, [table.one()])
        while len(cache) <= e:
            cache.append(cache[-1] * images.get(name, table.var(name)))
        return cache[e]

    out = table.zero()
    for mon, coeff in p.sorted_terms():
        prod = table.const(coeff)
        for i, e in mon:
            prod = prod * power(table.names[i], e)
        out = out + prod
    return out


def series_inverse_by_powers(p: Polynomial, cutoff: int) -> Polynomial:
    """Reference series inverse, the geometric sum: with p = c0 (1 - g),
    1/p = (1 + g + g^2 + ... + g^cutoff) / c0, each power truncated at
    ``cutoff``."""
    c0 = p.constant_term()
    g = p.table.one() - p.truncate(cutoff) / c0
    acc = power = p.table.one()
    for _ in range(cutoff):
        power = power.mul_trunc(g, cutoff)
        if power.is_zero():
            break
        acc = acc + power
    return acc / c0


# A plain reference for Polynomial: a dict from Monomial to nonzero Fraction,
# with no packed keys and no common denominator.
Reference = dict[Monomial, Fraction]


def reference_degree(table: VariableTable, mon: Monomial) -> int:
    return sum(e * table.degrees[i] for i, e in mon)


def reference_sum(a: Reference, b: Reference, sign: int = 1) -> Reference:
    out = dict(a)
    for mon, c in b.items():
        out[mon] = out.get(mon, 0) + sign * c
    return {mon: c for mon, c in out.items() if c}


def reference_product(table: VariableTable, a: Reference, b: Reference, cutoff: int | None = None) -> Reference:
    """``a`` times ``b``, every term above ``cutoff`` dropped."""
    out: Reference = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            exps = dict(ma)
            for i, e in mb:
                exps[i] = exps.get(i, 0) + e
            mon = Monomial(exps)
            if cutoff is None or reference_degree(table, mon) <= cutoff:
                out[mon] = out.get(mon, 0) + ca * cb
    return {mon: c for mon, c in out.items() if c}


def reference_power(table: VariableTable, a: Reference, n: int, cutoff: int | None = None) -> Reference:
    out = {Monomial(): Fraction(1)}
    for _ in range(n):
        out = reference_product(table, out, a, cutoff)
    return out


def reference_inverse(table: VariableTable, a: Reference, cutoff: int) -> Reference:
    """1/a through ``cutoff`` as (1/c0) sum_k g^k, g = 1 - a/c0, which has no constant term."""
    c0 = a[Monomial()]
    g = {mon: -c / c0 for mon, c in a.items() if mon and reference_degree(table, mon) <= cutoff}
    out, power = {Monomial(): 1 / c0}, {Monomial(): Fraction(1)}
    for _ in range(cutoff):
        power = reference_product(table, power, g, cutoff)
        out = reference_sum(out, {mon: c / c0 for mon, c in power.items()})
    return out


def reference_substitute(table: VariableTable, a: Reference, images: dict[int, Reference]) -> Reference:
    """``a`` with each generator index in ``images`` sent to its image, term by term."""
    out: Reference = {}
    for mon, c in a.items():
        term = {Monomial([(i, e) for i, e in mon if i not in images]): c}
        for i, e in mon:
            if i in images:
                term = reference_product(table, term, reference_power(table, images[i], e))
        out = reference_sum(out, term)
    return out


def assert_canonical(p: Polynomial) -> None:
    """``p`` is stored in its one canonical form: nonzero int numerators over
    a positive int denominator, gcd 1 over them all; a constant hashes as its number."""
    assert type(p._den) is int and p._den > 0, p._den
    assert all(type(c) is int and c for c in p._terms.values())
    assert math.gcd(p._den, *p._terms.values()) == 1
    if p.degree() <= 0:
        assert hash(p) == hash(p.constant_term())


def elaborate_by_polynomials(ast: ExprAst, rank: int, cutoff: int) -> ClassExpr:
    """Reference elaboration, one ``Polynomial`` per node, each laid out at
    the width of its own degree: a syntax tree evaluated in the rank-r ring,
    truncated at ``cutoff``.

    inv(...) becomes a truncated series inverse; it and X^N refuse their first
    unprintable coefficient.  The class is returned as evaluated: x and y stay
    apart, and the evaluators read y as -x.
    """
    if not isinstance(cutoff, int) or isinstance(cutoff, bool) or cutoff < 0:
        raise ValueError("cutoff must be a non-negative integer")
    table = bundle_ring(rank)

    def ev(node: ExprAst) -> Polynomial:
        if isinstance(node, Num):
            return table.const(node.value)
        if isinstance(node, Var):
            return table.var(node.name).truncate(cutoff)
        if isinstance(node, Neg):
            return -ev(node.operand)
        if isinstance(node, Sum):
            value = ev(node.terms[0][1])
            for sign, term in node.terms[1:]:
                value = value + ev(term) if sign > 0 else value - ev(term)
            return value
        if isinstance(node, Product):
            value = ev(node.factors[0])
            for factor in node.factors[1:]:
                value = value.mul_trunc(ev(factor), cutoff)
            return value
        if isinstance(node, Pow):
            return ev(node.base).pow(node.exponent, cutoff)
        if isinstance(node, Inv):
            inner = ev(node.operand)
            try:
                return series_inverse(inner, cutoff)
            except NotInvertibleError as exc:
                raise NotInvertibleError(str(exc), offset=node.offset) from None
        raise TypeError(f"unknown node {node!r}")

    return ClassExpr(ev(ast), cutoff)
