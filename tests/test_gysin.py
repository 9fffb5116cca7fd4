"""Pushforward pipeline and its two classical oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushkit import (
    ArityError,
    ClassExpr,
    Polynomial,
    UnsupportedVariableError,
    bundle_ring,
    elaborate,
    expand_elementary,
    parse_expression,
    presentation_oracle,
    pushforward,
    segre_oracle,
    series_inverse,
    verify_classical,
)

from helpers import literal_sum, random_chern_poly, random_class, random_coeff, random_x_class


def _geometric_class(rank: int, cutoff: int) -> ClassExpr:
    table = bundle_ring(rank)
    return ClassExpr(series_inverse(table.one() - table.var("x"), cutoff), cutoff)


# -- pushforward ----------------------------------------------------------------


def test_pushforward_geometric_series_is_segre():
    result = pushforward(_geometric_class(3, 6), 3)
    table = bundle_ring(3)
    c1, c2, c3 = (table.var(n) for n in ("c1", "c2", "c3"))
    assert result.valid_through == 4
    parts = dict(result.chern_form.graded_parts())
    assert parts[0] == table.one()
    assert parts[1] == -c1
    assert parts[2] == c1 * c1 - c2
    assert parts[3] == -c1.pow(3) + 2 * c1 * c2 - c3
    assert parts[4] == c1.pow(4) - 3 * c1.pow(2) * c2 + c2.pow(2) + 2 * c1 * c3
    assert result.chern_form == segre_oracle(3, 4)


def test_pushforward_point_and_vanishing_powers():
    table = bundle_ring(3)
    x = table.var("x")
    assert pushforward(ClassExpr(x * x), 3).chern_form == table.one()
    assert pushforward(ClassExpr(x), 3).chern_form == table.zero()
    assert pushforward(ClassExpr(table.one()), 3).chern_form == table.zero()


def test_pushforward_records_checks():
    result = pushforward(_geometric_class(3, 5), 3)
    assert result.checks["weyl_invariance"] == "pass"
    assert result.checks["chern_expansion"] == "pass"
    assert result.checks["presentation_oracle"] == "pass"


def test_pushforward_u_form_expands_from_chern_form():
    result = pushforward(_geometric_class(3, 6), 3)
    assert expand_elementary(result.chern_form) == result.u_form


def test_pushforward_rejects_root_variables():
    table = bundle_ring(3)
    with pytest.raises(UnsupportedVariableError):
        pushforward(ClassExpr(table.var("u1")), 3)


def test_pushforward_rank_mismatch():
    expr = ClassExpr(bundle_ring(2).var("x"))
    with pytest.raises(ArityError):
        pushforward(expr, 3)


def test_class_expr_invariants():
    table = bundle_ring(3)
    with pytest.raises(ValueError):
        ClassExpr(table.var("x") + table.var("y"))
    with pytest.raises(ValueError):
        ClassExpr(table.var("c3"), 2)  # degree above cutoff


def test_pushforward_makes_one_public_substitute_call_per_caller(monkeypatch):
    # The benchmark's polyring.substitute_calls counts calls of the public
    # method: one for the closed form's Whitney substitution, one for the
    # reference's first-chart restriction and one for the expand-back guard.
    # A substitution that re-enters the public method would inflate the
    # count and make traces of different revisions incomparable.
    cls = elaborate(parse_expression("(q1 q2 y^3) inv(1 + y)", 4), 4, 14)
    calls = []
    original = Polynomial.substitute

    def counting(self, images):
        calls.append(images)
        return original(self, images)

    monkeypatch.setattr(Polynomial, "substitute", counting)
    pushforward(cls, 4)
    assert len(calls) == 3


# -- the closed form against independent evaluators ----------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=5))
def test_closed_form_matches_the_literal_sum(seed, rank):
    # the closed form eliminates q_i by the Whitney relation; the literal
    # sum restricts q_i through every chart and divides by the Euler classes
    rng = random.Random(seed)
    phi = random_class(rng, rank, rng.choice(["x", "y"]))
    top = max(rank - 1, phi.degree())
    cutoff = rng.choice([None, rng.randint(max(rank - 1, top - 3), top)])
    if cutoff is not None:
        phi = phi.truncate(cutoff)
    chern_form = pushforward(ClassExpr(phi, cutoff), rank).chern_form
    assert expand_elementary(chern_form) == literal_sum(phi, rank, cutoff)


def test_closed_form_matches_the_literal_sum_on_powers_of_y_at_rank_six():
    y = bundle_ring(6).var("y")
    for k in range(11):
        chern_form = pushforward(ClassExpr(y.pow(k)), 6).chern_form
        assert expand_elementary(chern_form) == literal_sum(y.pow(k), 6), k


@pytest.mark.parametrize("rank", [8, 12])
def test_geometric_series_is_segre_beyond_the_literal_sum(rank):
    # ranks where the literal sum, whose numerator grows like r!, is too slow to compare
    result = pushforward(_geometric_class(rank, rank + 4), rank)
    assert result.valid_through == 5
    assert result.chern_form == segre_oracle(rank, 5)
    assert set(result.checks.values()) == {"pass"}


# -- Segre oracle -----------------------------------------------------------------


def test_segre_oracle_values():
    table = bundle_ring(3)
    c1 = table.var("c1")
    assert segre_oracle(3, 1) == 1 - c1
    assert segre_oracle(3, 0) == table.one()
    assert segre_oracle(5, 0) == bundle_ring(5).one()
    s = segre_oracle(3, 3)
    total = 1 + c1 + table.var("c2") + table.var("c3")
    assert total.mul_trunc(s, 3) == table.one()


# -- presentation oracle ------------------------------------------------------------


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_presentation_oracle_normalization(rank):
    table = bundle_ring(rank)
    x = table.var("x")
    assert presentation_oracle(ClassExpr(x.pow(rank - 1)), rank) == table.one()
    for k in range(rank - 1):
        assert presentation_oracle(ClassExpr(x.pow(k)), rank) == table.zero()


def test_presentation_oracle_low_power_with_coefficient():
    table = bundle_ring(3)
    assert presentation_oracle(
        ClassExpr(table.var("c2") * table.var("x")), 3
    ) == table.zero()


def test_presentation_oracle_first_reduction():
    table = bundle_ring(3)
    x = table.var("x")
    assert presentation_oracle(ClassExpr(x.pow(3)), 3) == -table.var("c1")


def test_presentation_oracle_rejects_other_variables():
    table = bundle_ring(3)
    with pytest.raises(UnsupportedVariableError):
        presentation_oracle(ClassExpr(table.var("y")), 3)
    with pytest.raises(UnsupportedVariableError):
        presentation_oracle(ClassExpr(table.var("q1")), 3)


# -- classical verification reports ---------------------------------------------------


@pytest.mark.parametrize("rank,cutoff", [(3, 6), (1, 4), (5, 8)])
def test_verify_classical_passes(rank, cutoff):
    report = verify_classical(rank, cutoff)
    assert report.ok, [c for c in report.checks if not c.passed]
    names = {c.name for c in report.checks}
    assert {"segre_series", "hyperplane_powers", "chart_relation"} <= names
    assert ("u_series_rank3" in names) == (rank == 3)


def test_verify_classical_validates_arguments():
    # refused by the callees (bundle_ring, series_inverse, pushforward), not by a guard of its own
    for rank, cutoff in ((0, 4), (3, 1), (True, 4), (3, 2.0), (3, -1)):
        with pytest.raises(ValueError):
            verify_classical(rank, cutoff)


# -- structural properties ------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=4))
def test_oracle_triangle_random(seed, rank):
    rng = random.Random(seed)
    p = random_x_class(rng, rank, max_x_degree=6)
    expr = ClassExpr(p)
    assert pushforward(expr, rank).chern_form == presentation_oracle(expr, rank)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_pushforward_linearity(seed):
    rng = random.Random(seed)
    rank = rng.randint(1, 4)
    a = random_x_class(rng, rank, max_x_degree=5)
    b = random_x_class(rng, rank, max_x_degree=5)
    alpha, beta = random_coeff(rng), random_coeff(rng)
    lhs = pushforward(ClassExpr(alpha * a + beta * b), rank).chern_form
    rhs = alpha * pushforward(ClassExpr(a), rank).chern_form + beta * pushforward(
        ClassExpr(b), rank
    ).chern_form
    assert lhs == rhs


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_projection_formula(seed):
    rng = random.Random(seed)
    rank = rng.randint(1, 4)
    g = random_chern_poly(rng, rank, max_terms=3)
    p = random_x_class(rng, rank, max_x_degree=5)
    lhs = pushforward(ClassExpr(g * p), rank).chern_form
    rhs = g * pushforward(ClassExpr(p), rank).chern_form
    assert lhs == rhs


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=4))
def test_degree_shift(seed, rank):
    rng = random.Random(seed)
    p = random_x_class(rng, rank, max_x_degree=6)
    result = pushforward(ClassExpr(p), rank).chern_form
    input_degrees = {d for d, _ in p.graded_parts()}
    for d, _ in result.graded_parts():
        assert d + (rank - 1) in input_degrees


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_whitney_consistency(rank):
    # (1 + y)(1 + q1 + ... + q_{r-1}) and 1 + c1 + ... + cr push forward identically
    table = bundle_ring(rank)
    lhs = table.one() + table.var("y")
    q_total = table.one()
    for i in range(1, rank):
        q_total = q_total + table.var(f"q{i}")
    lhs = lhs * q_total
    rhs = table.one()
    for i in range(1, rank + 1):
        rhs = rhs + table.var(f"c{i}")
    left = pushforward(ClassExpr(lhs), rank)
    right = pushforward(ClassExpr(rhs), rank)
    assert left.u_form == right.u_form
    assert left.chern_form == right.chern_form


def test_effective_cutoff_is_minimum():
    # the class's own cutoff is the one cutoff rule: a series kept only
    # through degree 4 is exact through degree 4 - (rank - 1)
    tight = pushforward(ClassExpr(_geometric_class(3, 6).payload.truncate(4), 4), 3)
    assert tight.valid_through == 2
    assert tight.chern_form == segre_oracle(3, 2)
