"""Kernel arithmetic: canonical form, grading, substitution, exact division,
series inversion."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings
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
    bundle_ring,
    divide_exact_linear,
    elaborate,
    elementary_symmetric,
    fixed_point_charts,
    localize,
    parse_expression,
    series_inverse,
)

from pushkit import ClassExpr, polyring, pushforward

from helpers import graded_parts, random_coeff, random_homogeneous, random_poly, series_inverse_by_powers
from helpers import substitute_by_powers
from helpers import (assert_canonical, reference_degree, reference_inverse, reference_power, reference_product,
                     reference_substitute, reference_sum)


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
    with pytest.raises(ValueError):
        Monomial([(0, 1), (0, 2)])


def test_weighted_degree(chern3):
    c1, c2, c3 = chern3.gens()
    assert (c2 * c1).degree() == 3
    assert c3.degree() == 3
    assert chern3.one().degree() == 0
    assert chern3.zero().degree() == -1


def test_monomial_outside_the_table_is_refused(chern3):
    with pytest.raises(ValueError, match="outside the table"):
        Polynomial(chern3, {Monomial({3: 1}): 1})
    with pytest.raises(ValueError, match="outside the table"):
        Polynomial(chern3, {Monomial({0: 1, 7: 2}): 1, Monomial({1: 1}): 2})
    with pytest.raises(TypeError):
        Polynomial(chern3, {((0, 1),): 1})


# -- one value, one key set: routes that meet at a field boundary ----------

_LAYOUT = bundle_ring(3)
_LX, _LY, _LC2 = _LAYOUT.var("x"), _LAYOUT.var("y"), _LAYOUT.var("c2")


def _built(table: VariableTable, terms: dict[str, int]) -> Polynomial:
    """The polynomial from ``{"x^a y^b ...": coeff}``, built term by term."""
    out = {}
    for text, coeff in terms.items():
        exps = {}
        for factor in text.split():
            name, _, e = factor.partition("^")
            exps[table.index(name)] = int(e or 1)
        out[Monomial(exps)] = coeff
    return Polynomial(table, out)


def _same_value(p: Polynomial, q: Polynomial) -> None:
    assert p == q and q == p
    assert hash(p) == hash(q)
    assert p.degree() == q.degree() and p.sorted_terms() == q.sorted_terms()
    assert len({p, q}) == 1


@pytest.mark.parametrize("k", range(1, 7))
def test_a_power_of_two_reached_by_one_more_factor_is_one_value(k):
    top = 2**k
    _same_value(_LX.pow(top - 1) * _LX, _LX.pow(top))
    _same_value(_LX.pow(top - 1).mul_trunc(_LX, top), _built(_LAYOUT, {f"x^{top}": 1}))
    _same_value((_LX.pow(top - 1) * _LY).truncate(top), _built(_LAYOUT, {f"x^{top - 1} y": 1}))
    assert _LX.pow(top - 1).mul_trunc(_LX, top - 1).is_zero()


def test_a_truncated_wider_product_is_the_value_built_narrow():
    wide = (1 + _LX + _LX.pow(9)) * (1 + _LY.pow(12))  # degree 21
    _same_value(wide.truncate(1), 1 + _LX)
    _same_value((1 + _LX + _LX.pow(9)).mul_trunc(1 + _LY.pow(12), 3), 1 + _LX)
    _same_value(wide.truncate(9), _built(_LAYOUT, {"": 1, "x": 1, "x^9": 1}))


@pytest.mark.parametrize("high", [4, 8, 16, 64])
def test_cancellation_below_a_power_of_two_is_one_value(high):
    low = _LX * _LY + _LC2
    _same_value((_LX.pow(high) + low) - _LX.pow(high), low)
    _same_value((1 + _LX.pow(high)) * (1 - _LX.pow(high)) + _LX.pow(2 * high), _LAYOUT.one())
    _same_value((_LY.pow(high) + 3) + (-_LY.pow(high)), _LAYOUT.const(3))
    assert hash((_LX.pow(high) + 3) - _LX.pow(high)) == hash(3)


@pytest.mark.parametrize("a, b", [(3, 4), (1, 6), (4, 4), (7, 8), (8, 8), (15, 16), (31, 1)])
def test_products_whose_exponents_sum_onto_a_field_boundary(a, b):
    # x^a y^b c2 times x^b y^a: every field sums to a + b, at or next to 2^j - 1 or 2^j
    p = _built(_LAYOUT, {f"x^{a} y^{b} c2": 2, "y": 1}) * _built(_LAYOUT, {f"x^{b} y^{a}": -1, "c2": 1})
    expected = {f"x^{a + b} y^{a + b} c2": -2, f"x^{a} y^{b} c2^2": 2, f"x^{b} y^{a + 1}": -1, "y c2": 1}
    _same_value(p, _built(_LAYOUT, expected))
    mon, coeff = p.sorted_terms()[0]
    assert dict(mon) == {0: a + b, 1: a + b, _LAYOUT.index("c2"): 1} and coeff == -2


@pytest.mark.parametrize("cutoff", [3, 7, 8, 15, 16])
def test_truncate_exactly_at_the_cutoff(cutoff):
    p = sum((_LX.pow(d) * _LY for d in range(cutoff - 2, cutoff + 2)), _LC2)
    kept = p.truncate(cutoff)
    assert kept.degree() == cutoff
    _same_value(kept, sum((_LX.pow(d) * _LY for d in range(cutoff - 2, cutoff)), _LC2))
    _same_value(p.mul_trunc(_LAYOUT.one(), cutoff), kept)
    assert p.truncate(cutoff + 1) == p - _LX.pow(cutoff + 1) * _LY and p.truncate(cutoff + 2) is p


@pytest.mark.parametrize("high", [3, 4, 7, 8, 16])
def test_the_degree_stays_right_when_a_generator_is_split_off(high):
    # x^high y + y^3 without x has degree 3, below the field width of degree high + 1
    p = _LX.pow(high) * _LY + _LY.pow(3)
    dropped = p.substitute({"x": _LAYOUT.zero()})
    assert dropped.degree() == 3 and dropped.truncate(2).is_zero()
    _same_value(dropped, _LY.pow(3))
    _same_value(p.substitute({"x": _LY}), _LY.pow(high + 1) + _LY.pow(3))
    u1, u2 = _LAYOUT.var("u1"), _LAYOUT.var("u2")
    quotient = divide_exact_linear(u1.pow(high + 1) - u2.pow(high + 1), u1 - u2)
    assert quotient.degree() == high and quotient.truncate(high - 1).is_zero()
    _same_value(quotient, sum((u1.pow(i) * u2.pow(high - i) for i in range(high + 1)), _LAYOUT.zero()))
    assert quotient.homogeneous_component(high) == quotient


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


def test_substitute_fixes_a_generator_without_an_image(fiber3):
    # within the polynomial's own table, a generator without an image is fixed
    y, q1, q2 = fiber3.gens()
    p = (1 + y) * (1 + q1 + q2) + q1 * q1
    assert p.substitute({"y": -y}) == (1 - y) * (1 + q1 + q2) + q1 * q1
    assert p.substitute({"q1": y}) == (1 + y) * (1 + y + q2) + y * y
    assert p.substitute({}) == p
    assert (q1 + q2).substitute({"y": q1}) == q1 + q2  # an unused image is still checked
    with pytest.raises(GradingError):
        (q1 + q2).substitute({"y": q2})


def test_substitute_degree_violation_raises(fiber3):
    y, q2 = fiber3.var("y"), fiber3.var("q2")
    with pytest.raises(GradingError):
        y.substitute({"y": q2})  # degree 1 variable, degree 2 image
    with pytest.raises(GradingError):
        y.substitute({"y": 1 + y})  # inhomogeneous image


def test_substitute_checks_every_image_not_only_the_used_ones():
    table = bundle_ring(3)
    x, y = table.var("x"), table.var("y")
    with pytest.raises(GradingError):
        (1 + x).substitute({"x": -y, "q1": 1 + y})  # q1 does not occur
    with pytest.raises(GradingError):
        table.one().substitute({"c2": y})
    with pytest.raises(UnboundVariableError):
        (1 + x).substitute({"x": -y, "z": y})
    with pytest.raises(TypeError):
        (1 + x).substitute({"x": -y, "q1": 1})
    with pytest.raises(TableMismatchError):
        (1 + x).substitute({"x": -y, "y": bundle_ring(2).var("y")})


_R2 = bundle_ring(2)
_X, _Y, _U1 = _R2.var("x"), _R2.var("y"), _R2.var("u1")
_GAPS = _X.pow(9) + _X.pow(2) + 1


@pytest.mark.parametrize(
    "p, images",
    [
        (_GAPS, {"x": -_Y}),
        (_GAPS, {"x": _Y + _U1}),
        (_GAPS, {"x": _R2.zero()}),
        (_X.pow(9) * _Y.pow(3) + _X.pow(2) * _Y, {"x": _U1, "y": _Y}),
    ],
    ids=["gaps-negated", "gaps-two-terms", "gaps-zero", "gaps-fixed-y"],
)
def test_substitute_matches_term_by_term_powers_on_fixed_cases(p, images):
    got = p.substitute(images)
    assert got == substitute_by_powers(p, images)
    assert got.table is p.table


def test_substitute_refuses_an_image_from_another_table():
    # substitution maps a table to itself: equal names do not make another table equal
    xy = VariableTable([("x", 1), ("y", 1)])
    p = xy.var("x").pow(2) * xy.var("y") + 3
    yx = VariableTable([("y", 1), ("x", 1)])  # the same names at swapped indices
    with pytest.raises(TableMismatchError):
        p.substitute({"x": yx.var("x"), "y": yx.var("y")})
    other = VariableTable([("s", 1), ("t", 1)])
    with pytest.raises(TableMismatchError):
        p.substitute({"x": other.var("s"), "y": -other.var("t")})
    with pytest.raises(TableMismatchError):  # unused, yet checked
        p.substitute({"x": xy.var("y"), "y": yx.var("y")})
    equal = VariableTable([("x", 1), ("y", 1)])  # an equal table is the same table
    assert p.substitute({"x": equal.var("y")}) == xy.var("y").pow(3) + 3


def _random_source(rng: random.Random, table: VariableTable, names: list[str]) -> Polynomial:
    """Up to five terms over ``names`` with int and Fraction coefficients;
    degree-1 generators take exponents up to 9, so exponent gaps occur."""
    terms: dict[Monomial, object] = {}
    for _ in range(rng.randint(0, 5)):
        exps: dict[int, int] = {}
        for name in rng.sample(names, min(len(names), rng.randint(0, 2))):
            high = (1, 2, 3, 9) if table.degree_of(name) == 1 else (1, 2)
            exps[table.index(name)] = rng.choice(high)
        coeff = rng.randint(-4, 4) if rng.random() < 0.5 else random_coeff(rng)
        terms[Monomial(exps)] = coeff
    return Polynomial(table, terms)


def _random_images(rng: random.Random, table: VariableTable) -> dict:
    """An image for every generator of ``table``, each homogeneous of its
    degree: itself, negated, zero, another generator of that degree or a
    multi-term polynomial."""
    images = {}
    for name in table.names:
        degree = table.degree_of(name)
        same = [n for n in table.names if table.degree_of(n) == degree]
        kind = rng.randrange(5)
        if kind == 0:
            images[name] = table.var(name)
        elif kind == 1:
            images[name] = -table.var(name)
        elif kind == 2:
            images[name] = table.zero()
        elif kind == 3:
            images[name] = table.var(rng.choice(same))
        else:
            images[name] = random_homogeneous(rng, table, degree)
    return images


@seed(20261022)
@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 5),
    st.sampled_from(["mixed", "chart", "chern"]),
    st.integers(0, 10**9),
)
@example(2, "mixed", 0)
def test_substitute_matches_term_by_term_powers(rank, kind, draw):
    rng = random.Random(draw)
    table = bundle_ring(rank)
    names = list(table.names)
    if kind == "mixed":
        images = _random_images(rng, table)
    elif kind == "chart":
        images = dict(rng.choice(fixed_point_charts(rank)).restriction)
    elif kind == "chern":
        roots = [table.var(f"u{i}") for i in range(1, rank + 1)]
        names = [f"c{i}" for i in range(1, rank + 1)]
        images = {f"c{i}": elementary_symmetric(i, roots) for i in range(1, rank + 1)}
    p = _random_source(rng, table, names)
    got = p.substitute(images)
    assert got == substitute_by_powers(p, images)
    assert got.table is table
    _assert_exact(got)


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
    with pytest.raises(ValueError):
        divide_exact_linear(u1, (u1 - u2) / 2)  # numerators 1 and -1, over 2
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
    # the test suite's graded_parts: the nonzero homogeneous components only
    c1 = chern3.var("c1")
    p = 1 + c1 + c1 * c1
    assert graded_parts(p) == [(0, chern3.one()), (1, c1), (2, c1 * c1)]
    assert graded_parts(chern3.zero()) == []
    c2 = chern3.var("c2")
    q = c2 + c1 * c1
    assert graded_parts(q) == [(2, q)]
    assert graded_parts(c1.pow(3) + 1) == [(0, chern3.one()), (3, c1.pow(3))]


# -- algebraic laws (property tests) ----------------------------------------


def _poly_strategy(table: VariableTable, names: list[str]):
    def build(seed: int) -> Polynomial:
        return random_poly(random.Random(seed), table, names)

    return st.integers(min_value=0, max_value=10**9).map(build)


_T = VariableTable([("u1", 1), ("u2", 1), ("u3", 1), ("c2", 2)])
_NAMES = ["u1", "u2", "u3", "c2"]
_BOUNDARY_CUTOFFS = [2**j + d for j in range(1, 6) for d in (-1, 0, 1)]  # field edges


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
@given(
    _poly_strategy(_T, _NAMES),
    st.sampled_from([0, 1, -1, 3, Fraction(-2, 3)]),
    st.integers(min_value=0, max_value=7),
    st.one_of(st.integers(min_value=0, max_value=6), st.sampled_from(_BOUNDARY_CUTOFFS)),
)
def test_truncated_power_is_repeated_multiplication(a, shift, exponent, cutoff):
    # a shifted constant term switches between the degree recursion and
    # squaring; the recursion packs a field of cutoff.bit_length() bits per
    # generator, so cutoffs 2^j - 1, 2^j, 2^j + 1 sit at a field's edges
    base, expected = a + shift, _T.one()
    for _ in range(exponent):
        expected = expected.mul_trunc(base, cutoff)
    assert base.pow(exponent, cutoff) == expected


def test_truncated_power_of_a_huge_exponent_is_its_binomial_expansion():
    n = 10**1000
    x = bundle_ring(2).var("x")
    assert (1 + x).pow(n, 4) == sum(math.comb(n, k) * x.pow(k) for k in range(5))
    # c0 = -1 and N even: the terms of (2x^2)^i alternate from + at i = 0
    expected = sum((-1) ** i * math.comb(n, i) * (2 * x * x).pow(i) for i in range(3))
    assert (2 * x * x - 1).pow(n, 5) == expected
    # a denominator of 3: each degree is scaled by c0^N / 3^d, never by 3^N
    expected = sum(math.comb(n, k) * Fraction(1, 3**k) * x.pow(k) for k in range(5))
    assert (1 + x / 3).pow(n, 4) == expected
    expected = sum((-1) ** k * math.comb(n, k) * (2 * x).pow(k) for k in range(5))
    assert (-1 + 2 * x).pow(n, 4) == expected


def test_truncated_power_of_a_constant_builds_degree_zero_alone(monkeypatch):
    # a base with no term above degree 0 has nothing to build above it: the
    # kernel checks c0^N by size, then degree 0, and not each degree up to the cutoff
    import pushkit.polyring as polyring

    calls, check = [], polyring._refuse_unprintable
    monkeypatch.setattr(polyring, "_refuse_unprintable", lambda *a, **k: calls.append(1) or check(*a, **k))
    assert bundle_ring(1).const(10).pow(1000, 100000) == 10**1000
    assert len(calls) == 2


@pytest.mark.parametrize("rank, text, n", [(1, "1 + x", 2), (2, "2 + x - 1/3 c2", 3), (3, "-1 + c1 x + c3", 5)])
def test_truncated_power_stops_at_the_top_degree_of_the_answer(monkeypatch, rank, text, n):
    # p^n has no term above n deg p: the kernel checks c0^n by size, then
    # degrees 0..n deg p, and not each degree up to the cutoff
    import pushkit.polyring as polyring

    p = elaborate(parse_expression(text, rank), rank, 10).payload
    expected, calls, check = p.pow(n), [], polyring._refuse_unprintable
    monkeypatch.setattr(polyring, "_refuse_unprintable", lambda *a, **k: calls.append(1) or check(*a, **k))
    assert p.pow(n, 100000) == expected
    assert len(calls) == 2 + n * p.degree()


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


# the rank-6 working ring on generators of degree 1, 1, 3 and 6, so a series
# through degree 33 stays a few thousand terms
_RANK6, _RANK6_NAMES = bundle_ring(6), ["x", "u4", "c3", "c6"]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([(_T, _NAMES), (_RANK6, _RANK6_NAMES)]),
    st.integers(min_value=0, max_value=10**9),
    st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool),
    st.one_of(st.integers(min_value=0, max_value=6), st.sampled_from(_BOUNDARY_CUTOFFS)),
)
def test_series_inverse_law(ring, draw, c0, cutoff):
    # p . inv(p) = 1 through the cutoff, with a Fraction constant term and
    # Fraction coefficients; each packed field holds exponents up to the
    # cutoff, so cutoffs 2^j - 1, 2^j, 2^j + 1 sit at a field's edges
    table, names = ring
    p = random_poly(random.Random(draw), table, names, max_terms=3, max_exp=2, max_vars_per_term=2)
    q = p - p.constant_term() + c0
    inv = series_inverse(q, cutoff)
    assert q.mul_trunc(inv, cutoff) == table.one()
    assert inv.degree() <= cutoff


_INVERSE_CASES = [  # (rank, series, cutoff)
    (3, "1 - x", 33), (4, "2/3 + c1 - 5/4 c2 x", 17), (5, "-3 + c2 - x u1 + 1/7 c5", 16),
    (6, "1 - c1 - c2 - c3 - x", 24), (6, "4/9 - 2 c3 + 3/5 c6 x^2 - u4 c3 + 2 u4 x", 33),
    (8, "1 - c1 - c2 - c3 - c4 - x", 16), (3, "5", 8), (2, "1/2 + 1/3 y q1", 0),
]


@pytest.mark.parametrize("rank,text,cutoff", _INVERSE_CASES)
def test_series_inverse_matches_the_geometric_sum(rank, text, cutoff):
    p = elaborate(parse_expression(text, rank, allow_u=True), rank, cutoff).payload
    got = series_inverse(p, cutoff)
    expected = series_inverse_by_powers(p, cutoff)
    assert got == expected
    assert [type(c) for _, c in got.sorted_terms()] == [type(c) for _, c in expected.sorted_terms()]


def test_render_canonical_order(chern3):
    c1, c2, _ = chern3.gens()
    assert (c1 * c1 - c2).render() == "c1^2 - c2"
    assert (1 - c1).render() == "-c1 + 1"
    assert chern3.zero().render() == "0"
    assert (-c1).render() == "-c1"
    assert (Fraction(3, 2) * c1).render() == "3/2 c1"


# -- the term kernel: native coefficients and pair-tuple monomials ----------


def _assert_exact(p: Polynomial) -> None:
    """Every coefficient is an int when integral and a Fraction otherwise."""
    for _, c in p.sorted_terms():
        assert type(c) is (int if c.denominator == 1 else Fraction), repr(c)


_scalars = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=6)
)


@seed(20261019)
@settings(max_examples=60, deadline=None)
@given(_poly_strategy(_T, _NAMES), _poly_strategy(_T, _NAMES), _scalars, st.integers(0, 8))
def test_no_operation_yields_a_float_or_an_integral_fraction(a, b, s, k):
    u1, u2 = _T.var("u1"), _T.var("u2")
    results = [a + b, a - b, a * b, -a, a + s, s - a, a * s, s * a, a.pow(3), a.pow(3, 4)]
    results.append(series_inverse(2 + u1, k))
    results.append(divide_exact_linear(a * (u1 - u2), u1 - u2))
    if s:
        results += [a / s, (a / s) * s]
    if (1 + a).constant_term():
        results.append(series_inverse(1 + a, k))
    for p in results:
        _assert_exact(p)


def _prime_factors(n: int) -> set[int]:
    out, f = set(), 2
    while f * f <= n:
        while n % f == 0:
            out.add(f)
            n //= f
        f += 1
    return out | ({n} if n > 1 else set())


@settings(max_examples=60, deadline=None)
@given(_poly_strategy(_T, _NAMES), _poly_strategy(_T, _NAMES), st.fractions(max_denominator=60))
def test_integral_clears_the_least_common_denominator(a, b, s):
    # _integral(p) = (D p, D) with int coefficients and D minimal: for no
    # prime r dividing D is (D / r) p integral; an integral p comes back as is
    p = a * s + b
    scaled, d = polyring._integral(p)
    assert scaled == p * d
    assert all(type(c) is int for _, c in scaled.sorted_terms())
    for r in _prime_factors(d):
        assert any((Fraction(c) * (d // r)).denominator != 1 for _, c in p.sorted_terms())
    if d == 1:
        assert scaled is p


def test_integral_fraction_constant_is_the_int_constant():
    table = VariableTable([("u1", 1)])
    assert table.const(Fraction(4, 2)) == table.const(2)
    assert hash(table.const(Fraction(4, 2))) == hash(table.const(2))
    assert type(table.const(Fraction(4, 2)).constant_term()) is int


@pytest.mark.parametrize("value", [0, 3, Fraction(1, 2)])
def test_constant_polynomial_hashes_like_its_number(value):
    constant = bundle_ring(2).const(value)
    assert constant == value and hash(constant) == hash(value)
    assert value in {constant} and constant in {value}


_fractions = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6))


@st.composite
def _rational_case(draw):
    """(table, a, b, s, n, cutoff, images): two rational classes of a rank
    1-5 working ring as references, a nonzero scalar, an exponent, a cutoff
    and images of some degree-1 generators, each a rational linear form."""
    table = bundle_ring(draw(st.integers(1, 5)))
    names = st.sampled_from(table.names)

    def reference():
        out = {}
        for _ in range(draw(st.integers(0, 4))):
            exps = {}
            for name in draw(st.lists(names, max_size=3)):
                exps[table.index(name)] = exps.get(table.index(name), 0) + draw(st.integers(1, 2))
            out[Monomial(exps)] = out.get(Monomial(exps), 0) + draw(_fractions)
        return {mon: c for mon, c in out.items() if c}

    linear = [i for i, d in enumerate(table.degrees) if d == 1]
    images = {i: {Monomial({j: 1}): draw(_fractions) for j in draw(st.lists(st.sampled_from(linear), max_size=3))}
              for i in draw(st.lists(st.sampled_from(linear), max_size=3, unique=True))}
    return table, reference(), reference(), draw(_fractions), draw(st.integers(0, 3)), draw(st.integers(0, 6)), images


@settings(max_examples=150, deadline=None)
@given(_rational_case())
def test_rational_arithmetic_matches_a_plain_fraction_reference(case):
    # every operation on numerators over one denominator gives the value a
    # plain {Monomial: Fraction} reference gives, in the one canonical form:
    # int numerators, a positive denominator, gcd 1, no zero numerator
    table, a, b, s, n, cutoff, images = case
    pa, pb = Polynomial(table, a), Polynomial(table, b)
    unit = {**a, Monomial(): s}  # a with its constant term set to s
    graded = lambda keep: {mon: c for mon, c in a.items() if keep(reference_degree(table, mon))}
    checks = [
        (pa + pb, reference_sum(a, b)),
        (pa - pb, reference_sum(a, b, -1)),
        (pa * pb, reference_product(table, a, b)),
        (pa / s, {mon: c / s for mon, c in a.items()}),
        (pa * s + pb / s, reference_sum({mon: c * s for mon, c in a.items()}, {mon: c / s for mon, c in b.items()})),
        (pa.pow(n), reference_power(table, a, n)),
        (pa.pow(n, cutoff), reference_power(table, a, n, cutoff)),
        (Polynomial(table, unit).pow(n + 1, cutoff), reference_power(table, unit, n + 1, cutoff)),
        (series_inverse(Polynomial(table, unit), cutoff), reference_inverse(table, unit, cutoff)),
        (pa.truncate(cutoff), graded(lambda d: d <= cutoff)),
        (pa.homogeneous_component(cutoff), graded(lambda d: d == cutoff)),
        (pa.substitute({table.names[i]: Polynomial(table, image) for i, image in images.items()}),
         reference_substitute(table, a, images)),
    ]
    for k, (got, want) in enumerate(checks):
        assert_canonical(got)
        assert got == Polynomial(table, want), k
        assert dict(got.sorted_terms()) == want, k
        _assert_exact(got)
    half = pa + Fraction(1, 2) - pa
    assert_canonical(half)
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))


def test_localized_integral_coefficients_are_ints():
    table = bundle_ring(4)
    y = table.var("y")
    integral = localize(series_inverse(1 + y, 8), 4, 8).value
    assert integral and all(type(c) is int for _, c in integral.sorted_terms())
    _assert_exact(localize(series_inverse(2 + y, 8), 4, 8).value)


def _width_routes():
    """(route, polynomial) pairs at degrees 15, 16, 31 and 32 among others,
    most built from operands laid out at another width."""
    table = bundle_ring(2)
    one, x, c1 = table.one(), table.var("x"), table.var("c1")
    xs = {d: Polynomial(table, {Monomial({0: d}): 1}) for d in (0, 1, 15, 16, 31, 32, 40)}
    yield from ((f"constructor x^{d}", p) for d, p in xs.items())
    yield "constructor 0", Polynomial(table)
    yield from (("const", table.const(v)) for v in (0, 3, Fraction(-1, 3)))
    yield from (("zero, one", p) for p in (table.zero(), table.one()))
    yield from (("var", table.var(name)) for name in ("x", "q1", "c2"))
    yield from (("+", a + b) for a, b in [(xs[16], xs[15] - xs[16]), (xs[31], x), (xs[31], xs[32]),
                                            (xs[32], -xs[32]), (xs[15], xs[16]), (xs[40], 2)])
    yield from (("-", a - b) for a, b in [(xs[32] + xs[16], xs[32]), (xs[16] + xs[15], xs[16]),
                                            (xs[32], xs[31]), (xs[16], xs[16])])
    yield from (("negation", -p) for p in xs.values())
    yield from (("*", a * b) for a, b in [(xs[15], x), (xs[15], xs[16]), (xs[16], xs[16]), (xs[15], 0),
                                            (xs[16], 3), (xs[31], c1)])
    yield from (("mul_trunc", a.mul_trunc(b, cutoff)) for a, b, cutoff in [
        (x + xs[16], xs[15], 16), (xs[16] + 1, xs[15], 30), (xs[16], xs[16], 31), (xs[16], xs[16], 32),
        (xs[40], x, 15)])
    yield from (("pow", x.pow(d)) for d in (0, 15, 16, 31, 32))
    yield from (("pow", base.pow(n, cutoff)) for base, n, cutoff in [
        (x, 16, 15), (one + x, 40, 15), (one + x, 40, 16), (one + x, 40, 31), (one + x, 40, 32),
        (xs[16], 2, None), (x + xs[16], 2, 31), (one + xs[16] + xs[32], 3, 31), (xs[16] + xs[15], 2, 31)])
    yield from (("truncate", (xs[15] + xs[32]).truncate(d)) for d in (15, 16, 31, 32))
    yield from (("homogeneous_component", (xs[15] + xs[32]).homogeneous_component(d)) for d in (15, 32))
    yield from (("series_inverse", series_inverse(one - x, d)) for d in (15, 16, 31, 32))
    yield from (("series_inverse", series_inverse(p, cutoff)) for p, cutoff in [
        (one - xs[16], 31), (2 + xs[32], 31), (one + xs[16], 15), (one + xs[32], 40)])
    for text, cutoff in [("inv(1 - x)", 15), ("inv(1 - x)", 16), ("inv(1 - x)", 31), ("inv(1 - x)", 32),
                         ("x^15 x", 16), ("x^16 - x^16 + x^15", 40), ("inv(2 + x^32)", 31),
                         ("x^31 c1", 32), ("(1 + x)^40", 15), ("inv(1 - x^16)", 31)]:
        yield "elaborate", elaborate(parse_expression(text, 2), 2, cutoff).payload
    for d in (15, 16, 31, 32):
        yield "pushforward", pushforward(ClassExpr(series_inverse(one - x, d + 1), d + 1), 2).chern_form
        yield "pushforward", pushforward(ClassExpr(x.pow(d + 1)), 2).chern_form


def test_every_route_lays_its_keys_out_at_the_width_of_its_degree():
    # one layout per degree, with a floor of 4 bits a field: equal classes
    # have equal keys whichever route built them, and below degree 16 every
    # class shares the layout of the constants
    degrees = set()
    for route, p in _width_routes():
        degree = max(p.degree(), 0)
        degrees.add(p.degree())
        assert p._width == polyring._width(degree) == max(4, degree.bit_length()), (route, p.render())
    assert {-1, 0, 15, 16, 31, 32} <= degrees
