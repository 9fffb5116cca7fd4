"""Shared random generators for the test suite (seeded, deterministic)."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from pushkit import (
    Monomial,
    Permutation,
    Polynomial,
    VariableTable,
    apply_permutation,
    bundle_ring,
    divide_exact_linear,
    elementary_symmetric,
    fixed_point_charts,
    root_generators,
)
from pushkit import localization


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
    variable up to rank + 3."""
    table = bundle_ring(rank)
    names = [f"q{i}" for i in range(1, rank)] + [f"c{i}" for i in range(1, rank + 1)]
    p = table.zero()
    for _ in range(rng.randint(1, 3)):
        coeff = random_coeff(rng) + random_poly(
            rng, table, names, max_terms=2, max_exp=2, max_vars_per_term=2
        )
        p = p + coeff * table.var(fiber).pow(rng.randint(0, rank + 3))
    return p


def literal_sum(phi: Polynomial, rank: int, cutoff: int | None = None) -> Polynomial:
    """Reference fixed-point sum, the localization formula verbatim: the sum
    over charts j of phi|_j times the j-th cofactor (the Vandermonde divided
    by that chart's Euler class), then exact division by each linear factor
    of the Vandermonde; truncated at cutoff - (rank - 1) when a cutoff is
    given.  The numerator grows like rank!, so ranks above 6 are refused."""
    if rank > 6:
        raise ValueError("the literal sum is too slow above rank 6")
    table = bundle_ring(rank)
    value = table.zero()
    for chart, cofactor in zip(fixed_point_charts(rank), localization._cofactors(rank)):
        value = value + chart.restrict(phi) * cofactor
    for a, b in localization._vandermonde(rank):
        value = divide_exact_linear(value, table.var(a) - table.var(b))
    return value if cutoff is None else value.truncate(cutoff - (rank - 1))


def symmetrize(p: Polynomial) -> Polynomial:
    """The sum of p over every permutation of the roots u1..ur."""
    r = len(root_generators(p.table))
    out = p.table.zero()
    for images in itertools.permutations(range(1, r + 1)):
        out = out + apply_permutation(p, Permutation(images))
    return out


def symmetric_by_transpositions(p: Polynomial) -> bool:
    """Symmetry by definition: p is fixed by every adjacent root transposition."""
    r = len(root_generators(p.table))
    return all(
        apply_permutation(p, Permutation.transposition(r, i, i + 1)) == p for i in range(1, r)
    )


def leading_term_reduction(p: Polynomial) -> Polynomial:
    """Reference rewrite of a symmetric polynomial in u1..ur into c1..cr by
    classical leading-term subtraction: the graded-lex leading monomial is a
    partition u^lambda; subtract coeff * e_1^(l1-l2) ... e_r^lr and repeat."""
    table = p.table
    roots = root_generators(table)
    r = len(roots)
    root_idx = [table.index(f"u{i}") for i in range(1, r + 1)]
    elem = [elementary_symmetric(k, roots) for k in range(1, r + 1)]
    work, out = p, table.zero()
    while work:
        mon, coeff = work.sorted_terms()[0]
        lam = [mon.exponent(i) for i in root_idx] + [0]
        if lam != sorted(lam, reverse=True):
            raise ValueError("the leading monomial is not a partition")
        term = e_product = table.const(coeff)
        for k in range(r):
            term = term * table.var(f"c{k + 1}").pow(lam[k] - lam[k + 1])
            e_product = e_product * elem[k].pow(lam[k] - lam[k + 1])
        out = out + term
        work = work - e_product
    return out


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
    times cached powers of the images of its generators."""
    target = next(iter(images.values())).table if images else p.table
    names = p.table.names
    powers: dict[str, list[Polynomial]] = {}

    def power(name: str, e: int) -> Polynomial:
        cache = powers.setdefault(name, [target.one()])
        while len(cache) <= e:
            cache.append(cache[-1] * images[name])
        return cache[e]

    out = target.zero()
    for mon, coeff in p.sorted_terms():
        prod = target.const(coeff)
        for i, e in mon:
            prod = prod * power(names[i], e)
        out = out + prod
    return out
