"""Kernel arithmetic: canonical form, grading, substitution, exact division,
series inversion."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushkit import (
    GradingError,
    Monomial,
    NotDivisibleError,
    NotInvertibleError,
    Polynomial,
    TableMismatchError,
    UnboundVariableError,
    VariableTable,
    divide_exact_linear,
    series_inverse,
)

from helpers import random_poly


@pytest.fixture
def roots3() -> VariableTable:
    return VariableTable([("u1", 1), ("u2", 1), ("u3", 1)])


@pytest.fixture
def fiber3() -> VariableTable:
    return VariableTable([("y", 1), ("q1", 1), ("q2", 2)])


@pytest.fixture
def chern3() -> VariableTable:
    return VariableTable([("c1", 1), ("c2", 2), ("c3", 3)])


# -- tables and monomials ----------------------------------------------------


def test_table_rejects_duplicates_and_bad_degrees():
    with pytest.raises(ValueError):
        VariableTable([("u1", 1), ("u1", 1)])
    with pytest.raises(ValueError):
        VariableTable([("u1", 0)])
    with pytest.raises(ValueError):
        VariableTable([("", 1)])


def test_monomial_strips_zero_exponents():
    assert Monomial({0: 0, 1: 2}) == Monomial({1: 2})
    with pytest.raises(ValueError):
        Monomial({0: -1})


def test_weighted_degree(chern3):
    c1, c2, c3 = chern3.gens()
    assert (c2 * c1).degree() == 3
    assert c3.degree() == 3
    assert chern3.one().degree() == 0
    assert chern3.zero().degree() == -1


# -- arithmetic --------------------------------------------------------------


def test_add_cancellation(roots3):
    u1, u2, _ = roots3.gens()
    assert (u1 + u2) + (u1 - u2) == 2 * u1


def test_whitney_left_side_expansion(fiber3):
    y, q1, q2 = fiber3.gens()
    product = (1 + y) * (1 + q1 + q2)
    assert product == 1 + y + q1 + q2 + y * q1 + y * q2


def test_mul_absorbs_zero(roots3):
    u1, u2, u3 = roots3.gens()
    p = 3 * u1 * u2 - u3
    assert p * roots3.zero() == roots3.zero()
    assert p * 0 == roots3.zero()


def test_table_mismatch_raises(roots3, chern3):
    with pytest.raises(TableMismatchError):
        roots3.var("u1") + chern3.var("c1")


def test_float_coefficients_rejected(roots3):
    with pytest.raises(TypeError):
        roots3.const(0.5)
    with pytest.raises(TypeError):
        roots3.var("u1") * 0.5


def test_scalar_coercion_and_division(roots3):
    u1 = roots3.var("u1")
    assert u1 / 2 == Fraction(1, 2) * u1
    with pytest.raises(TypeError):
        u1 / u1
    with pytest.raises(ZeroDivisionError):
        u1 / 0


# -- truncation --------------------------------------------------------------


def test_truncate_examples(roots3, chern3):
    u1 = roots3.var("u1")
    p = 1 + u1 + u1 * u1
    assert p.truncate(1) == 1 + u1
    assert p.truncate(0) == roots3.one()
    c1, c2, _ = chern3.gens()
    assert (c2 + c1 * c1).truncate(1) == chern3.zero()


def test_truncate_of_constant_extracts_constant(roots3):
    p = 5 + roots3.var("u2")
    assert p.truncate(0) == roots3.const(5)


# -- substitution ------------------------------------------------------------


def test_substitute_restriction_example():
    table = VariableTable([("y", 1), ("u1", 1), ("u2", 1), ("u3", 1)])
    y, u2 = table.var("y"), table.var("u2")
    assert (y * y).substitute({"y": u2}) == u2 * u2


def test_substitute_identity(fiber3):
    y, q1, q2 = fiber3.gens()
    p = (1 + y) * (1 + q1 + q2)
    identity = {name: fiber3.var(name) for name in fiber3.names}
    assert p.substitute(identity) == p


def test_substitute_quotient_class_restriction():
    table = VariableTable([("q1", 1), ("u1", 1), ("u2", 1), ("u3", 1)])
    q1, u2, u3 = table.var("q1"), table.var("u2"), table.var("u3")
    assert q1.substitute({"q1": u2 + u3}) == u2 + u3


def test_substitute_missing_image_raises(fiber3):
    y = fiber3.var("y")
    with pytest.raises(UnboundVariableError):
        (y + fiber3.var("q1")).substitute({"y": y})


def test_substitute_degree_violation_raises(fiber3):
    y, q2 = fiber3.var("y"), fiber3.var("q2")
    with pytest.raises(GradingError):
        y.substitute({"y": q2})  # degree 1 variable, degree 2 image
    with pytest.raises(GradingError):
        y.substitute({"y": 1 + y})  # inhomogeneous image


# -- exact division ----------------------------------------------------------


def test_divide_constructed_product(roots3):
    u1, u2, u3 = roots3.gens()
    product = (u2 - u1) * (u3 - u1)
    assert divide_exact_linear(product, u2 - u1) == u3 - u1


def test_divide_difference_of_squares(roots3):
    u1, u2, _ = roots3.gens()
    assert divide_exact_linear(u1 * u1 - u2 * u2, u1 - u2) == u1 + u2


def test_divide_not_divisible(roots3):
    u1, u2, _ = roots3.gens()
    with pytest.raises(NotDivisibleError):
        divide_exact_linear(u1 + u2, u1 - u2)


def test_divide_rejects_bad_factors(roots3, chern3):
    u1, u2, _ = roots3.gens()
    with pytest.raises(ValueError):
        divide_exact_linear(u1, u1 + u2)
    with pytest.raises(ValueError):
        divide_exact_linear(u1, 2 * u1 - u2)
    c1, c2, _ = chern3.gens()
    with pytest.raises(ValueError):
        divide_exact_linear(c1, c1 - c2)  # c2 has degree 2


def test_divide_zero_is_zero(roots3):
    u1, u2, _ = roots3.gens()
    assert divide_exact_linear(roots3.zero(), u1 - u2) == roots3.zero()


# -- series inversion --------------------------------------------------------


def test_geometric_series():
    table = VariableTable([("x", 1)])
    x = table.var("x")
    assert series_inverse(1 - x, 3) == 1 + x + x * x + x.pow(3)


def test_inverse_of_one(roots3):
    assert series_inverse(roots3.one(), 7) == roots3.one()


def test_segre_series_of_rank_three(chern3):
    c1, c2, c3 = chern3.gens()
    total = 1 + c1 + c2 + c3
    inv = series_inverse(total, 3)
    # independent check: multiply back and truncate
    assert total.mul_trunc(inv, 3) == chern3.one()
    expected = 1 - c1 + (c1 * c1 - c2) + (-c1.pow(3) + 2 * c1 * c2 - c3)
    assert inv == expected


def test_inverse_needs_nonzero_constant(roots3):
    with pytest.raises(NotInvertibleError):
        series_inverse(roots3.var("u1"), 4)
    with pytest.raises(NotInvertibleError):
        series_inverse(roots3.zero(), 4)


# -- graded decomposition ----------------------------------------------------


def test_graded_parts(chern3):
    c1 = chern3.var("c1")
    p = 1 + c1 + c1 * c1
    assert p.graded_parts() == [(0, chern3.one()), (1, c1), (2, c1 * c1)]
    assert chern3.zero().graded_parts() == []
    c2 = chern3.var("c2")
    q = c2 + c1 * c1
    assert q.graded_parts() == [(2, q)]


# -- algebraic laws (property tests) ----------------------------------------


def _poly_strategy(table: VariableTable, names: list[str]):
    def build(seed: int) -> Polynomial:
        return random_poly(random.Random(seed), table, names)

    return st.integers(min_value=0, max_value=10**9).map(build)


_T = VariableTable([("u1", 1), ("u2", 1), ("u3", 1), ("c2", 2)])
_NAMES = ["u1", "u2", "u3", "c2"]


@settings(max_examples=60, deadline=None)
@given(_poly_strategy(_T, _NAMES), _poly_strategy(_T, _NAMES), _poly_strategy(_T, _NAMES))
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == _T.zero()
    assert a - b == a + (-b)
    assert a * _T.one() == a


@settings(max_examples=60, deadline=None)
@given(
    _poly_strategy(_T, _NAMES),
    _poly_strategy(_T, _NAMES),
    st.integers(min_value=0, max_value=6),
)
def test_truncate_laws(a, b, cutoff):
    assert a.truncate(cutoff).truncate(cutoff) == a.truncate(cutoff)
    assert (a + b).truncate(cutoff) == (a.truncate(cutoff) + b.truncate(cutoff)).truncate(cutoff)
    assert (a * b).truncate(cutoff) == (
        a.truncate(cutoff) * b.truncate(cutoff)
    ).truncate(cutoff)
    assert a.mul_trunc(b, cutoff) == (a * b).truncate(cutoff)
    assert a.pow(3, cutoff) == a.pow(3).truncate(cutoff)


@settings(max_examples=60, deadline=None)
@given(_poly_strategy(_T, _NAMES), _poly_strategy(_T, _NAMES), st.integers(0, 10**9))
def test_substitute_is_ring_homomorphism(a, b, seed):
    rng = random.Random(seed)
    # degree-preserving random images: linear in roots for u's, u-quadratics for c2
    roots = [_T.var(n) for n in ("u1", "u2", "u3")]
    images = {}
    for name in ("u1", "u2", "u3"):
        images[name] = sum(
            (Fraction(rng.randint(-3, 3)) * g for g in roots), _T.zero()
        )
    images["c2"] = sum(
        (Fraction(rng.randint(-2, 2)) * g1 * g2 for g1 in roots for g2 in roots),
        _T.zero(),
    )
    assert (a * b).substitute(images) == a.substitute(images) * b.substitute(images)
    assert (a + b).substitute(images) == a.substitute(images) + b.substitute(images)


@settings(max_examples=60, deadline=None)
@given(_poly_strategy(_T, _NAMES), st.sampled_from([("u1", "u2"), ("u2", "u3"), ("u1", "u3")]))
def test_divide_round_trip(p, pair):
    a, b = pair
    factor = _T.var(a) - _T.var(b)
    assert divide_exact_linear(p * factor, factor) == p
    with pytest.raises(NotDivisibleError):
        divide_exact_linear(p * factor + 1, factor)


@settings(max_examples=60, deadline=None)
@given(_poly_strategy(_T, _NAMES), st.integers(min_value=0, max_value=6))
def test_series_inverse_law(p, cutoff):
    q = 1 + p  # guarantee a nonzero constant term
    if not q.constant_term():
        q = q + 1
    inv = series_inverse(q, cutoff)
    assert q.mul_trunc(inv, cutoff) == _T.one()


def test_render_canonical_order(chern3):
    c1, c2, _ = chern3.gens()
    assert (c1 * c1 - c2).render() == "c1^2 - c2"
    assert (1 - c1).render() == "-c1 + 1"
    assert chern3.zero().render() == "0"
    assert (-c1).render() == "-c1"
    assert (Fraction(3, 2) * c1).render() == "3/2 c1"
