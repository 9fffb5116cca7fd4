"""Expression front end: parsing, diagnostics, elaboration, round trips."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushkit import (
    ArityError,
    ExponentError,
    NotInvertibleError,
    ParseError,
    PushkitError,
    bundle_ring,
    elaborate,
    parse_expression,
)
from pushkit.cli import run
from pushkit.expressions import Add, Inv, Mul, Neg, Num, Pow, Sub, Var

from helpers import random_poly


# -- parsing -------------------------------------------------------------------


def test_parse_inverse_of_linear():
    ast = parse_expression("inv(1-x)", 3)
    assert isinstance(ast, Inv)
    assert isinstance(ast.operand, Sub)
    assert ast.operand.left == Num(Fraction(1))
    assert isinstance(ast.operand.right, Var)
    assert ast.operand.right.name == "x"


def test_parse_power():
    ast = parse_expression("x^2", 3)
    assert isinstance(ast, Pow)
    assert ast.exponent == 2


def test_negative_exponent_rejected():
    with pytest.raises(ExponentError) as info:
        parse_expression("x^-1", 3)
    assert info.value.offset == 2


def test_non_integer_exponent_rejected():
    with pytest.raises(ExponentError):
        parse_expression("x^y", 3)
    with pytest.raises(ExponentError):
        parse_expression("x^(2)", 3)


def test_implicit_multiplication():
    assert parse_expression("2x", 3) == Mul(Num(Fraction(2)), Var("x", 1))
    ast = parse_expression("c1 x^2", 3)
    assert isinstance(ast, Mul) and isinstance(ast.right, Pow)
    product = parse_expression("(1+x)(1-x)", 3)
    assert isinstance(product, Mul)


def test_rational_literal():
    assert parse_expression("3/4", 3) == Num(Fraction(3, 4))
    ast = parse_expression("3/4 c1", 3)
    assert ast == Mul(Num(Fraction(3, 4)), Var("c1", 4))
    with pytest.raises(ParseError):
        parse_expression("1/0", 3)
    with pytest.raises(ParseError):
        parse_expression("3/x", 3)


def test_minus_binds_as_subtraction_not_juxtaposition():
    ast = parse_expression("x-1", 3)
    assert isinstance(ast, Sub)


def test_unary_minus():
    ast = parse_expression("-x^2", 3)
    assert isinstance(ast, Neg) and isinstance(ast.operand, Pow)


def test_no_chained_exponentiation():
    with pytest.raises(ParseError):
        parse_expression("2^3^2", 3)


def test_subscript_range_checks():
    with pytest.raises(ArityError) as info:
        parse_expression("q4", 3)
    assert info.value.offset == 0
    with pytest.raises(ArityError):
        parse_expression("c4", 3)
    with pytest.raises(ArityError):
        parse_expression("c0", 3)
    with pytest.raises(ArityError):
        parse_expression("q1", 1)
    with pytest.raises(ArityError):
        parse_expression("u4", 3, allow_u=True)


def test_root_variables_gated():
    with pytest.raises(ParseError):
        parse_expression("u1", 3)
    ast = parse_expression("u1", 3, allow_u=True)
    assert ast == Var("u1", 0)


def test_unknown_identifiers():
    for text in ("foo", "z", "x2", "c", "q", "invx"):
        with pytest.raises(ParseError):
            parse_expression(text, 3)


def test_syntax_errors_are_positioned():
    cases = ["", "   ", "(", "1+", ")", "1)", "2..", "x$", "inv x", "inv(", "1 2 +"]
    for text in cases:
        with pytest.raises(ParseError) as info:
            parse_expression(text, 3)
        assert 0 <= info.value.offset <= len(text)


def test_deep_nesting_is_a_diagnostic_not_a_crash():
    text = "(" * 5000 + "1" + ")" * 5000
    with pytest.raises(ParseError):
        parse_expression(text, 3)


@pytest.mark.parametrize(
    "rank, text, answer",
    [
        (2, "+".join(["x"] * 3000), "3000"),
        (3, " ".join(["1"] * 3000), "0"),
        (3, "-".join(["x^2"] * 3000), "-2998"),
    ],
    ids=["sum", "product", "difference"],
)
def test_long_flat_chain_is_evaluated_not_a_crash(capsys, rank, text, answer):
    assert run(["push", "--rank", str(rank), text]) == 0
    assert f"chern_form = {answer}\n" in capsys.readouterr().out


def test_huge_integer_literal_is_handled():
    text = "9" * 1_000_000
    try:
        parse_expression(text, 3)
    except ParseError:
        pass  # acceptable when int conversion limits apply


# -- elaboration ----------------------------------------------------------------


def test_elaborate_geometric_series():
    table = bundle_ring(3)
    x = table.var("x")
    cls = elaborate(parse_expression("inv(1-x)", 3), 3, 3)
    assert cls.payload == 1 + x + x * x + x.pow(3)
    assert cls.cutoff == 3


def test_elaborate_monomial():
    table = bundle_ring(3)
    cls = elaborate(parse_expression("c1*x", 3), 3, 5)
    assert cls.payload == table.var("c1") * table.var("x")


def test_elaborate_zero_constant_inverse():
    with pytest.raises(NotInvertibleError) as info:
        elaborate(parse_expression("inv(x)", 3), 3, 5)
    assert info.value.offset == 0


def test_elaborate_normalizes_mixed_fiber_variables():
    cls = elaborate(parse_expression("x + y", 3), 3, 4)
    assert cls.payload.is_zero()
    cls = elaborate(parse_expression("x - y", 3), 3, 4)
    assert cls.payload == -2 * bundle_ring(3).var("y")


def test_elaborate_truncates_by_degree():
    cls = elaborate(parse_expression("c3", 3), 3, 2)
    assert cls.payload.is_zero()
    cls = elaborate(parse_expression("x^9", 3), 3, 4)
    assert cls.payload.is_zero()


def test_elaborate_huge_exponent_terminates():
    cls = elaborate(parse_expression("x^123456789", 3), 3, 6)
    assert cls.payload.is_zero()


# -- round trips ------------------------------------------------------------------


def _printable_poly(rng: random.Random, rank: int):
    table = bundle_ring(rank)
    pool = ["y"] + [f"q{i}" for i in range(1, rank)] + [f"c{i}" for i in range(1, rank + 1)]
    pool += [f"u{i}" for i in range(1, rank + 1)]
    return random_poly(rng, table, pool, max_terms=5, max_exp=3)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=4))
def test_render_parse_round_trip(seed, rank):
    rng = random.Random(seed)
    p = _printable_poly(rng, rank)
    text = p.render()
    cutoff = max(p.degree(), 0)
    ast = parse_expression(text, rank, allow_u=True)
    assert elaborate(ast, rank, cutoff).payload == p


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=40))
def test_parser_only_raises_positioned_diagnostics(text):
    try:
        parse_expression(text, 3, allow_u=True)
    except PushkitError as exc:
        assert isinstance(exc.offset, int)
        assert 0 <= exc.offset <= len(text)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=40))
def test_parser_survives_arbitrary_bytes(data):
    text = data.decode("latin-1")
    try:
        parse_expression(text, 3, allow_u=True)
    except PushkitError as exc:
        assert isinstance(exc.offset, int)
