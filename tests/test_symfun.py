"""Symmetric polynomials: bases, group action, symmetry test, reduction."""

from __future__ import annotations

import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pushkit import (
    Polynomial,
    SymmetryError,
    TableMismatchError,
    VariableTable,
    bundle_ring,
    elementary_symmetric,
    expand_elementary,
    is_symmetric,
    reduce_to_elementary,
    root_generators,
)

from helpers import (
    complete_homogeneous,
    random_chern_poly,
    permute_roots,
    random_poly,
    symmetric_by_transpositions,
    symmetrize,
)


@pytest.fixture
def ring3():
    return bundle_ring(3)


# -- elementary and complete homogeneous bases -------------------------------


def test_elementary_examples(ring3):
    u1, u2, u3 = root_generators(ring3)
    assert elementary_symmetric(0, (u1, u2, u3)) == ring3.one()
    assert elementary_symmetric(2, (u1, u2, u3)) == u1 * u2 + u1 * u3 + u2 * u3
    assert elementary_symmetric(1, (u2, u3)) == u2 + u3
    # any polynomials of one table, not only distinct generators
    c1 = ring3.var("c1")
    assert elementary_symmetric(2, (u1 + c1, u2, u3)) == (u1 + c1) * u2 + (u1 + c1) * u3 + u2 * u3
    assert elementary_symmetric(3, (u1, u1, 2 * u2)) == 2 * u1 * u1 * u2


def test_elementary_domain_errors(ring3):
    roots = root_generators(ring3)
    with pytest.raises(ValueError):
        elementary_symmetric(4, roots)
    with pytest.raises(ValueError):
        elementary_symmetric(-1, roots)
    with pytest.raises(ValueError, match="non-empty"):
        elementary_symmetric(0, ())
    with pytest.raises(TableMismatchError):  # from the arithmetic
        elementary_symmetric(2, (roots[0], bundle_ring(4).var("u2"), roots[1]))


def test_complete_homogeneous_examples(ring3):
    u1, u2, u3 = root_generators(ring3)
    assert complete_homogeneous(0, (u1, u2)) == ring3.one()
    assert complete_homogeneous(2, (u1, u2)) == u1 * u1 + u1 * u2 + u2 * u2
    assert complete_homogeneous(1, (u1, u2, u3)) == elementary_symmetric(1, (u1, u2, u3))


# -- permutation action --------------------------------------------------------


def test_permutation_validation(ring3):
    u1 = ring3.var("u1")
    for images in ([1, 1, 2], [1, 2], [1, 2, 3, 4], [0, 1, 2]):
        with pytest.raises(ValueError, match="images must be a permutation of 1..r"):
            permute_roots(u1, images)
    assert permute_roots(ring3.var("u2"), [1, 2, 3]) == ring3.var("u2")
    assert permute_roots(u1, [2, 1, 3]) == ring3.var("u2")


def test_apply_permutation_examples(ring3):
    u1, u2, u3 = root_generators(ring3)
    swap12 = [2, 1, 3]
    assert permute_roots(u1, swap12) == u2
    assert permute_roots(u1 * u2 + u3, [1, 2, 3]) == u1 * u2 + u3
    assert permute_roots(u1 * u1 * u2, swap12) == u2 * u2 * u1
    assert permute_roots(u1 * u1 * u2, [3, 1, 2]) == u3 * u3 * u1


def test_apply_permutation_fixes_chern_generators(ring3):
    c2, u1 = ring3.var("c2"), ring3.var("u1")
    assert permute_roots(c2 * u1, [2, 1, 3]) == c2 * ring3.var("u2")


def test_is_symmetric_examples(ring3):
    u1, u2, u3 = root_generators(ring3)
    assert is_symmetric(u1 + u2 + u3)
    assert not is_symmetric(u1 - u2)
    assert not is_symmetric((u2 - u1) * (u3 - u1))  # a single Euler class
    # the whole orbit of u1^2 u2, one member with another coefficient
    assert not is_symmetric(symmetrize(u1.pow(2) * u2) + u3.pow(2) * u1)


# -- reduction into the elementary basis --------------------------------------


def test_reduce_linear(ring3):
    u1, u2, u3 = root_generators(ring3)
    assert reduce_to_elementary(u1 + u2 + u3) == ring3.var("c1")


def test_reduce_power_sum_two(ring3):
    u1, u2, u3 = root_generators(ring3)
    c1, c2 = ring3.var("c1"), ring3.var("c2")
    result = reduce_to_elementary(u1.pow(2) + u2.pow(2) + u3.pow(2))
    expected = c1 * c1 - 2 * c2
    assert expand_elementary(expected) == u1.pow(2) + u2.pow(2) + u3.pow(2)
    assert result == expected


def test_reduce_power_sum_three(ring3):
    u1, u2, u3 = root_generators(ring3)
    c1, c2, c3 = (ring3.var(n) for n in ("c1", "c2", "c3"))
    p3 = u1.pow(3) + u2.pow(3) + u3.pow(3)
    expected = c1.pow(3) - 3 * c1 * c2 + 3 * c3
    assert expand_elementary(expected) == p3
    assert reduce_to_elementary(p3) == expected


def test_reduce_total_chern_product(ring3):
    u1, u2, u3 = root_generators(ring3)
    product = (1 + u1) * (1 + u2) * (1 + u3)
    c1, c2, c3 = (ring3.var(n) for n in ("c1", "c2", "c3"))
    assert reduce_to_elementary(product) == 1 + c1 + c2 + c3


def test_reduce_rejects_asymmetric(ring3):
    u1, u2, _ = root_generators(ring3)
    with pytest.raises(SymmetryError):
        reduce_to_elementary(u1 - u2)


def test_reduce_rejects_incomplete_orbit(ring3):
    u1, u2, u3 = root_generators(ring3)
    # Two of the six members of the orbit of u1^2 u2, with one coefficient.
    with pytest.raises(SymmetryError):
        reduce_to_elementary(u1.pow(2) * u2 + u2.pow(2) * u1)
    # The whole orbit, but one member with another coefficient.
    orbit = symmetrize(u1.pow(2) * u2)
    assert is_symmetric(orbit)
    with pytest.raises(SymmetryError):
        reduce_to_elementary(orbit + u3.pow(2) * u1)


def test_reduce_rejects_foreign_variables(ring3):
    with pytest.raises(ValueError):
        reduce_to_elementary(ring3.var("y"))


def test_expand_elementary_leaves_no_cyclic_garbage():
    # a nested function that calls itself is a reference cycle: each call
    # would leave its function, closure cells and cached image powers to the collector
    table = bundle_ring(4)
    c1, c2, c3 = (table.var(f"c{i}") for i in (1, 2, 3))
    g = (1 + c1 + c2 + c3).pow(3) - 2 * c1 * c2 * c3
    expected = expand_elementary(g)
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            assert expand_elementary(g) == expected
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- properties ----------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=4))
def test_reduction_round_trip(seed, rank):
    rng = random.Random(seed)
    g = random_chern_poly(rng, rank)
    expanded = expand_elementary(g)
    assert reduce_to_elementary(expanded) == g
    assert expand_elementary(reduce_to_elementary(expanded)) == expanded


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_symmetry_preserved_by_action(seed):
    rng = random.Random(seed)
    table = bundle_ring(3)
    p = random_poly(rng, table, ["u1", "u2", "u3"])
    images = list(range(1, 4))
    rng.shuffle(images)
    assert is_symmetric(permute_roots(p, images)) == is_symmetric(p)


def _one_orbit_member_altered(p: Polynomial, rng: random.Random) -> tuple[Polynomial, Polynomial]:
    """p with one term deleted, and p with that term's coefficient changed."""
    terms = dict(p.sorted_terms())
    mon = rng.choice(sorted(terms, key=repr))
    changed = dict(terms)
    changed[mon] = terms[mon] + 1
    del terms[mon]
    return Polynomial(p.table, terms), Polynomial(p.table, changed)


@seed(20261020)
@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=5))
def test_orbit_guard_matches_transposition_definition(seed_, rank):
    rng = random.Random(seed_)
    table = bundle_ring(rank)
    names = [f"u{i}" for i in range(1, rank + 1)] * 2 + ["y"]
    names += [f"q{i}" for i in range(1, rank)] + [f"c{i}" for i in range(1, rank + 1)]
    sym = symmetrize(random_poly(rng, table, names, max_terms=3))
    assert symmetric_by_transpositions(sym)
    candidates = [sym]
    if sym:
        candidates += _one_orbit_member_altered(sym, rng)
    for p in candidates:
        assert is_symmetric(p) == symmetric_by_transpositions(p), p.render()


@seed(20261021)
@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=1, max_value=5),
    st.booleans(),
)
def test_reduction_matches_leading_term_reference(seed_, rank, integral):
    rng = random.Random(seed_)
    table = bundle_ring(rank)
    roots = [f"u{i}" for i in range(1, rank + 1)]
    p = symmetrize(random_poly(rng, table, roots, max_terms=3)) + expand_elementary(
        random_chern_poly(rng, rank, max_terms=3)
    )
    if integral:
        p = Polynomial(table, {mon: c * c.denominator for mon, c in p.sorted_terms()})
    result = reduce_to_elementary(p)
    assert expand_elementary(result) == p
    for _, c in result.sorted_terms():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
    if integral:
        assert all(type(c) is int for _, c in result.sorted_terms())


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_elementary_complete_convolution(rank):
    # sum_{k=0..m} (-1)^k e_k h_{m-k} = 0 for every m in 1..8
    table = bundle_ring(rank)
    roots = root_generators(table)
    for m in range(1, 9):
        acc = table.zero()
        for k in range(0, m + 1):
            if k > rank:
                continue
            sign = -1 if k % 2 else 1
            acc = acc + sign * elementary_symmetric(k, roots) * complete_homogeneous(m - k, roots)
        assert acc == table.zero(), (rank, m)


def test_root_generators_requires_contiguous_block():
    table = VariableTable([("u1", 1), ("u3", 1)])
    with pytest.raises(ValueError):
        root_generators(table)
