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
    localize,
    parse_expression,
    presentation_oracle,
    pushforward,
    root_generators,
    segre_oracle,
    series_inverse,
    verify_classical,
)

from pushkit import localization

from helpers import literal_sum, localize_divided_differences, random_chern_poly, random_class
from helpers import graded_parts, random_coeff, random_x_class, whitney_map


def _geometric_class(rank: int, cutoff: int) -> ClassExpr:
    table = bundle_ring(rank)
    return ClassExpr(series_inverse(table.one() - table.var("x"), cutoff), cutoff)


# -- pushforward ----------------------------------------------------------------


def test_pushforward_geometric_series_is_segre():
    result = pushforward(_geometric_class(3, 6), 3)
    table = bundle_ring(3)
    c1, c2, c3 = (table.var(n) for n in ("c1", "c2", "c3"))
    assert result.valid_through == 4
    parts = dict(graded_parts(result.chern_form))
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
    assert dict(result.checks) == {"fixed_point_sample": "pass", "presentation_oracle": "pass"}
    q_class = elaborate(parse_expression("q1 y^3", 3), 3, 6)
    assert dict(pushforward(q_class, 3).checks) == {"fixed_point_sample": "pass"}


def test_pushforward_u_form_expands_from_chern_form():
    result = pushforward(_geometric_class(3, 6), 3)
    assert expand_elementary(result.chern_form) == result.u_form


def test_pushforward_rejects_root_variables():
    table = bundle_ring(3)
    with pytest.raises(UnsupportedVariableError, match="root variables u_i cannot be pushed forward"):
        pushforward(ClassExpr(table.var("u1")), 3)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda phi: pushforward(ClassExpr(phi), 3),
        lambda phi: presentation_oracle(ClassExpr(phi), 3),
        lambda phi: localize(phi, 3),
        lambda phi: localize_divided_differences(phi, 3),
    ],
    ids=["pushforward", "presentation_oracle", "localize", "localize_divided_differences"],
)
def test_pushforward_rank_mismatch(evaluate):
    # one exception and one message for a class from another rank's ring
    with pytest.raises(ArityError, match="expression does not live in the rank-3 working ring"):
        evaluate(bundle_ring(2).var("x"))


def test_class_expr_invariants():
    # a class in both x and y is accepted, since every evaluator reads y as -x
    table = bundle_ring(3)
    result = pushforward(ClassExpr(table.var("x") + table.var("y")), 3)
    assert result.chern_form == table.zero()
    assert dict(result.checks) == {"fixed_point_sample": "pass", "presentation_oracle": "pass"}
    with pytest.raises(ValueError):
        ClassExpr(table.var("c3"), 2)  # degree above cutoff


def test_elaborate_and_pushforward_make_no_public_substitute_call(monkeypatch):
    # The benchmark's polyring.substitute_calls counts calls of the public
    # method, a Horner pass.  Neither elaborate nor pushforward makes one:
    # elaborate renames x -> -y in one pass over the terms, the read writes
    # each q_i by the Whitney relation on packed keys, and the fixed-point
    # sample evaluates the class term by term.  pushforward also reads the
    # class once for both evaluators and scans its generators once.
    from pushkit import gysin

    inputs = [("(q1 q2 y^3) inv(1 + y)", 4, 14), ("inv(1 + c1 y)", 3, 8),
              ("y^5 - c2 y^3", 4, 7), ("inv(1-x)", 4, 9), ("inv(1 + c1 x + c2 x^2 - y q1)", 3, 20)]
    calls = {"substitute": 0, "_read_in_x": 0, "variables": 0}

    def counting(name, original):
        def counted(*args):
            calls[name] += 1
            return original(*args)
        return counted

    for owner, name in ((Polynomial, "substitute"), (Polynomial, "variables"), (localization, "_read_in_x")):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    monkeypatch.setattr(gysin, "_read_in_x", localization._read_in_x)
    for text, rank, cutoff in inputs:
        expr = elaborate(parse_expression(text, rank), rank, cutoff)
        assert calls["substitute"] == 0, text
        calls.update(_read_in_x=0, variables=0)
        pushforward(expr, rank)
        assert calls["substitute"] == 0 and calls["_read_in_x"] == 1 and calls["variables"] <= 1, text


def test_pushforward_runs_no_symmetry_guard(monkeypatch):
    # the answer lives in c1..cr: nothing in the roots is left to be symmetric
    from pushkit import localization, symfun

    calls = []

    def counting(p):
        calls.append(p)
        return True

    monkeypatch.setattr(symfun, "is_symmetric", counting)
    monkeypatch.setattr(localization, "is_symmetric", counting)
    pushforward(_geometric_class(4, 9), 4)
    assert calls == []


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
    x, y, q1 = table.var("x"), table.var("y"), table.var("q1")
    for k in range(1, 5):  # a class in y is read as the same class in -x
        assert presentation_oracle(ClassExpr(y.pow(k)), 3) == presentation_oracle(ClassExpr((-x).pow(k)), 3)
    assert presentation_oracle(ClassExpr(x * y), 3) == presentation_oracle(ClassExpr(-x.pow(2)), 3)
    for phi, got in ((q1 * table.var("u1"), "['q1', 'u1']"), (q1 * y.pow(2), "['q1']")):
        with pytest.raises(UnsupportedVariableError) as caught:
            presentation_oracle(ClassExpr(phi), 3)
        assert str(caught.value) == f"presentation oracle accepts only x, y and c1..c3; got {got}"


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5, 6])
def test_presentation_oracle_reads_y_classes_as_minus_x(rank):
    # Odd and even powers of y, with c_i coefficients, and a series in y: the
    # oracle's sign fold y^k = (-1)^k x^k must match both the closed form and
    # the oracle's own value on the class rewritten in x.
    table = bundle_ring(rank)
    x, y, c1, top = table.var("x"), table.var("y"), table.var("c1"), table.var(f"c{rank}")
    classes = [ClassExpr(y.pow(k)) for k in range(rank - 1, rank + 4)]
    classes.append(ClassExpr(top * y.pow(rank) - 3 * c1 * y.pow(rank + 1) + y.pow(rank - 1)))
    classes.append(elaborate(parse_expression("inv(1 + c1 y)", rank), rank, rank + 4))
    for expr in classes:
        assert pushforward(expr, rank).checks["presentation_oracle"] == "pass"
        in_x = ClassExpr(expr.payload.substitute({"y": -x}), expr.cutoff)
        assert presentation_oracle(expr, rank) == presentation_oracle(in_x, rank)


def _segre_part(rank: int, degree: int) -> Polynomial:
    """s_degree of 1/c(V) by series inversion alone; 0 below degree 0."""
    if degree < 0:
        return bundle_ring(rank).zero()
    return segre_oracle(rank, degree).homogeneous_component(degree)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_presentation_oracle_at_packed_field_boundaries(rank):
    # The oracle packs each c_i exponent into a field of deg(payload).bit_length()
    # bits; exponents of 2^j - 1, 2^j and 2^j + 1 sit at the edges of a field.
    table = bundle_ring(rank)
    x, c1 = table.var("x"), table.var("c1")
    for j in range(1, 6):
        for k in (2**j - 1, 2**j, 2**j + 1):
            assert presentation_oracle(ClassExpr(x.pow(k)), rank) == _segre_part(rank, k - rank + 1)
        top = c1.pow(2**j)
        assert presentation_oracle(ClassExpr(top * x.pow(rank - 1)), rank) == top


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_closed_form_at_packed_field_boundaries(rank):
    # The closed form packs each exponent of c1..cr and u1..ur into a field of
    # deg(class).bit_length() bits; exponents of 2^j - 1, 2^j and 2^j + 1 sit
    # at the edges of a field.  localize passes the roots into the fields.
    table = bundle_ring(rank)
    x, y, c1 = table.var("x"), table.var("y"), table.var("c1")
    for j in range(1, 6):
        for k in (2**j - 1, 2**j, 2**j + 1):
            part = _segre_part(rank, k - rank + 1)
            assert localization._closed_form(x.pow(k), rank) == part
            assert localization._closed_form(y.pow(k), rank) == (-part if k % 2 else part)
            if j < 5:  # reading s_(k-r+1) in the roots costs seconds at k = 33
                assert localize(x.pow(k), rank).value == expand_elementary(part)
        top = c1.pow(2**j)
        power_sum = sum((u.pow(2**j) for u in root_generators(table)), table.zero())
        assert localization._closed_form(top * x.pow(rank - 1), rank) == top
        assert localize(power_sum * x.pow(rank - 1), rank).value == power_sum


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_classes_in_both_x_and_y_at_packed_field_boundaries(rank):
    # x^a y^b pushes forward as (-1)^b x^(a+b); with a + b = 2^j - 1, 2^j,
    # 2^j + 1 and a factor c1^(2^j), or the power sum u_1^(2^j) + ... + u_r^(2^j)
    # through localize, the answer's exponents sit at the edges of a field
    table = bundle_ring(rank)
    x, y, c1 = table.var("x"), table.var("y"), table.var("c1")
    for j in range(1, 6):
        top = c1.pow(2**j)
        power_sum = sum((u.pow(2**j) for u in root_generators(table)), table.zero())
        for n in (2**j - 1, 2**j, 2**j + 1):
            part = _segre_part(rank, n - rank + 1)
            for b in sorted({1, n // 2, n}):
                fiber, sign = x.pow(n - b) * y.pow(b), (-1) ** b
                assert localization._closed_form(top * fiber, rank) == sign * top * part
                if j < 5:  # reading s_(n-r+1) in the roots costs seconds at n = 33
                    value = localize(power_sum * fiber, rank).value
                    assert value == sign * power_sum * expand_elementary(part)


def _q_classes_of_degree(rank: int, n: int) -> list[Polynomial]:
    """Classes of degree ``n`` built on q_i powers and q_i q_j products: each
    q_i^e times y^(n - i e), q1^a q(r-1)^b times x^(n - a - (r-1) b), and a
    Fraction multiple of c1^(n - r) q1 x^(r-1)."""
    table = bundle_ring(rank)
    x, y, c1 = table.var("x"), table.var("y"), table.var("c1")
    q = [None] + [table.var(f"q{i}") for i in range(1, rank)]
    out = [q[i].pow(n // i) * y.pow(n % i) for i in range(1, rank)]
    if rank > 2:
        b = max(n // (2 * (rank - 1)), 1)
        a = (n - (rank - 1) * b) // 2
        if a >= 0 and (rank - 1) * b <= n:
            out.append(q[1].pow(a) * q[rank - 1].pow(b) * x.pow(n - a - (rank - 1) * b))
    if n >= rank:
        out.append(Fraction(-3, 2) * c1.pow(n - rank) * q[1] * x.pow(rank - 1))
    return out


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_packed_whitney_read_at_field_boundaries(rank):
    # _read_in_x writes each q_i in x on packed keys; a class of degree
    # n = 2^j - 1, 2^j, 2^j + 1 sits at the edge of a field of
    # n.bit_length() bits.  Two references: the Whitney map substituted by
    # Horner's scheme and then the presentation oracle, and the literal
    # fixed-point sum in the roots (for n <= 17; it costs seconds at n = 33).
    images = whitney_map(rank)
    for j in range(1, 6):
        for n in (2**j - 1, 2**j, 2**j + 1):
            for phi in _q_classes_of_degree(rank, n):
                got = localization._closed_form(phi, rank)
                assert got == presentation_oracle(ClassExpr(phi.substitute(images)), rank), (n, phi)
                if n <= 17:
                    assert expand_elementary(got) == literal_sum(phi, rank), (n, phi)
                assert pushforward(ClassExpr(phi), rank).checks["fixed_point_sample"] == "pass"


@st.composite
def _classes_in_x_and_y(draw):
    """(rank, class): one to three terms x^a y^b times q_i and c_i with
    Fraction coefficients, and at times a multiple of x + y, which is 0."""
    rank = draw(st.integers(min_value=1, max_value=5))
    table = bundle_ring(rank)
    x, y = table.var("x"), table.var("y")
    names = [f"q{i}" for i in range(1, rank)] + [f"c{i}" for i in range(1, rank + 1)]
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool)

    def term():
        value = draw(coeffs) * x.pow(draw(st.integers(0, rank + 1))) * y.pow(draw(st.integers(0, rank + 1)))
        for name in draw(st.lists(st.sampled_from(names), max_size=2)):
            value = value * table.var(name)
        return value

    phi = sum((term() for _ in range(draw(st.integers(1, 3)))), table.zero())
    if draw(st.booleans()):
        phi = phi + term() * (x + y)
    return rank, phi


@settings(max_examples=30)
@given(_classes_in_x_and_y())
def test_classes_in_both_x_and_y_match_the_literal_sum(drawn):
    # the closed form and the oracle read y as -x; the literal sum restricts
    # x and y at every chart, and the q_i too, and divides by the Euler classes
    rank, phi = drawn
    result = pushforward(ClassExpr(phi), rank)
    assert expand_elementary(result.chern_form) == literal_sum(phi, rank)
    if any(name[0] == "q" for name in phi.variables()):
        assert dict(result.checks) == {"fixed_point_sample": "pass"}
    else:
        assert dict(result.checks) == {"fixed_point_sample": "pass", "presentation_oracle": "pass"}
        assert presentation_oracle(ClassExpr(phi), rank) == localization._closed_form(phi, rank)


@settings(max_examples=20)
@given(_classes_in_x_and_y(), st.integers(min_value=1, max_value=3))
def test_localize_reads_classes_in_both_x_and_y_with_a_root_term(drawn, e):
    # a power sum of the roots times x^a y^b: the closed form packs the roots
    # into fields of the same keys as the c_i
    rank, phi = drawn
    table = bundle_ring(rank)
    x, y = table.var("x"), table.var("y")
    power_sum = sum((u.pow(e) for u in root_generators(table)), table.zero())
    phi = phi + power_sum * x.pow(rank - 1) * y.pow(e)
    assert localize(phi, rank).value == literal_sum(phi, rank)


# -- classical verification reports ---------------------------------------------------


@pytest.mark.parametrize("rank,cutoff", [(3, 6), (1, 4), (5, 8)])
def test_verify_classical_passes(rank, cutoff):
    report = verify_classical(rank, cutoff)
    assert report.ok, [c for c in report.checks if not c.passed]
    names = {c.name for c in report.checks}
    assert {"segre_series", "hyperplane_powers", "gauss_bonnet"} <= names
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
    input_degrees = {d for d, _ in graded_parts(p)}
    for d, _ in graded_parts(result):
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


@pytest.mark.parametrize("rank", range(1, 21))
def test_gauss_bonnet_the_fiber_euler_class_pushes_forward_to_r(rank):
    # the relative tangent bundle of P(V) is Q (x) L, whose top Chern class
    # sum_(i=0..r-1) q_i x^(r-1-i), q_0 = 1, restricts at each fixed point to
    # the Euler class the sum divides by: f_* of it is chi(P^(r-1)) = r
    table = bundle_ring(rank)
    x = table.var("x")
    euler = x.pow(rank - 1) + sum((table.var(f"q{i}") * x.pow(rank - 1 - i) for i in range(1, rank)), table.zero())
    result = pushforward(ClassExpr(euler), rank)
    assert result.chern_form == rank
    assert set(result.checks.values()) == {"pass"}


@pytest.mark.parametrize("rank, text", [(4, "q1 q2 y^3"), (8, "q3 q5 y^8 + c2 x^9"), (20, "q3 q5 y^8 x^12"),
                                        *(pytest.param(rank, None, id=f"drawn-{rank}") for rank in range(1, 21))])
def test_projection_formula_through_the_whitney_relation(rank, text):
    # (1 + y)(1 + q1 + ... + q(r-1)) = c(V) in the fiber ring, so
    # f_*((1 + y)(1 + sum q_i) phi) = c(V) f_*(phi): the reader's Whitney map
    # on the left, a product after the push on the right; on three fixed
    # classes and on one class per rank drawn in its q_i, y and c_i
    table = bundle_ring(rank)
    if text is None:
        phi = random_class(random.Random(rank), rank, "y")
    else:
        phi = elaborate(parse_expression(text, rank), rank, 40).payload
    whitney = (1 + table.var("y")) * sum((table.var(f"q{i}") for i in range(1, rank)), table.one())
    total = sum((table.var(f"c{i}") for i in range(1, rank + 1)), table.one())
    lhs = pushforward(ClassExpr(whitney * phi), rank)
    assert lhs.chern_form == total * pushforward(ClassExpr(phi), rank).chern_form
    # at rank 1 there is no q_i, so the left side gets the oracle as well
    assert lhs.checks == {"fixed_point_sample": "pass", **({"presentation_oracle": "pass"} if rank == 1 else {})}


def test_effective_cutoff_is_minimum():
    # the class's own cutoff is the one cutoff rule: a series kept only
    # through degree 4 is exact through degree 4 - (rank - 1)
    tight = pushforward(ClassExpr(_geometric_class(3, 6).payload.truncate(4), 4), 3)
    assert tight.valid_through == 2
    assert tight.chern_form == segre_oracle(3, 2)
