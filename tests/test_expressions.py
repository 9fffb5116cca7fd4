"""Expression front end: parsing, diagnostics, elaboration, round trips."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushkit import (
    ArityError,
    ClassExpr,
    ExponentError,
    NotInvertibleError,
    ParseError,
    PushkitError,
    bundle_ring,
    elaborate,
    localize,
    parse_expression,
    pushforward,
    series_inverse,
)
from pushkit import expressions, localization
from pushkit.cli import run
from pushkit.errors import UsageError
from pushkit.expressions import _MAX_DEPTH, Inv, Neg, Num, Pow, Product, Sum, Var

from helpers import elaborate_by_polynomials, random_poly


# -- parsing -------------------------------------------------------------------


def test_parse_inverse_of_linear():
    ast = parse_expression("inv(1-x)", 3)
    assert ast == Inv(Sum(((1, Num(Fraction(1))), (-1, Var("x", 6)))), 0)


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
    assert parse_expression("2x", 3) == Product((Num(Fraction(2)), Var("x", 1)))
    ast = parse_expression("c1 x^2", 3)
    assert ast == Product((Var("c1", 0), Pow(Var("x", 3), 2)))
    product = parse_expression("(1+x)(1-x)", 3)
    one = Num(Fraction(1))
    assert product == Product(
        (Sum(((1, one), (1, Var("x", 3)))), Sum(((1, one), (-1, Var("x", 8)))))
    )


def test_rational_literal():
    assert parse_expression("3/4", 3) == Num(Fraction(3, 4))
    ast = parse_expression("3/4 c1", 3)
    assert ast == Product((Num(Fraction(3, 4)), Var("c1", 4)))
    with pytest.raises(ParseError):
        parse_expression("1/0", 3)
    with pytest.raises(ParseError):
        parse_expression("3/x", 3)


def test_minus_binds_as_subtraction_not_juxtaposition():
    ast = parse_expression("x-1", 3)
    assert ast == Sum(((1, Var("x", 0)), (-1, Num(Fraction(1)))))


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


@pytest.mark.parametrize(
    "text, error, message, offset",
    [
        ("x2", ParseError, "unknown identifier 'x2'", 0),
        ("inv2", ParseError, "unknown identifier 'inv2'", 0),
        ("c", ParseError, "'c' needs a subscript, like c1", 0),
        ("x foo", ParseError, "unknown identifier 'foo'", 2),
        ("$", ParseError, "unexpected character '$'", 0),
        ("1 \u0663", ParseError, "unexpected character '\u0663'", 2),
        ("x\xa0", ParseError, "unexpected character '\\xa0'", 1),
        ("x\x0b", ParseError, "unexpected character '\\x0b'", 1),
        ("x + " + "9" * 5000, ParseError, "integer literal too large", 4),
        ("x c" + "1" * 5000, ParseError, "subscript too large", 2),
        ("1/0", ParseError, "zero denominator", 2),
        ("3/x", ParseError, "expected a denominator", 2),
        ("x^-1", ExponentError, "exponents must be non-negative", 2),
        ("x^y", ExponentError, "exponents must be integer literals", 2),
        ("inv x", ParseError, "expected '(' after inv", 4),
        ("(", ParseError, "expected a value", 1),
        ("(x", ParseError, "expected ')'", 2),
        ("1)", ParseError, "unexpected ')'", 1),
        ("x*+", ParseError, "expected a value, found '+'", 2),
        ("", ParseError, "empty expression", 0),
        ("(" * 5000 + "1", ParseError, "expression too deeply nested", 51),
        ("q4", ArityError, "q4 is out of range at rank 3", 0),
        ("x c4", ArityError, "c4 is out of range at rank 3", 2),
        ("u1", ParseError, "u-variables are only available in the localize command", 0),
    ],
    ids=lambda v: v[:12] if isinstance(v, str) else None,
)
def test_tokenizer_and_parser_diagnostics_are_exact(text, error, message, offset):
    with pytest.raises(PushkitError) as info:
        parse_expression(text, 3)
    assert type(info.value) is error
    assert info.value.offset == offset
    suffix = f" (at offset {offset})" if issubclass(error, ParseError) else ""
    assert str(info.value) == message + suffix


def test_deep_nesting_is_a_diagnostic_not_a_crash():
    text = "(" * 5000 + "1" + ")" * 5000
    with pytest.raises(ParseError):
        parse_expression(text, 3)


@pytest.mark.parametrize(
    "opening, closing",
    [("inv(1+2", ")^2"), ("inv(1+", ")x^2"), ("-", ""), ("(", ")")],
    ids=["inv-sum-product-pow", "product-inv-sum", "neg", "paren"],
)
def test_deepest_accepted_nest_compares_hashes_and_prints(opening, closing):
    def nest(n: int) -> str:
        return opening * n + "x" + closing * n

    a, b = parse_expression(nest(_MAX_DEPTH), 2), parse_expression(nest(_MAX_DEPTH), 2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert repr(a).count("Var(") == nest(_MAX_DEPTH).count("x")
    assert a != parse_expression(nest(_MAX_DEPTH).replace("x", "y"), 2)
    with pytest.raises(ParseError, match="too deeply nested"):
        parse_expression(nest(_MAX_DEPTH + 1), 2)


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


@pytest.mark.parametrize("op", ["+", "*", "-"], ids=["sum", "product", "difference"])
def test_long_flat_chain_compares_hashes_and_prints(op):
    text = op.join(["x"] * 3000)
    a, b = parse_expression(text, 2), parse_expression(text, 2)
    assert a == b and hash(a) == hash(b)
    assert a != parse_expression(text + op + "x", 2)
    assert a != parse_expression(text.replace("x", "y", 1), 2)
    assert len(a.factors if op == "*" else a.terms) == 3000
    printed = repr(a)
    assert printed.count("Var(") == 3000
    assert printed.rsplit("Var(", 1)[1].rstrip(")") == "name='x', offset=5998"


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


def test_only_written_inversions_call_the_public_series_inverse(monkeypatch):
    # a power runs the private degree recursion, so a tracer that wraps
    # polyring.series_inverse times only the inv(...) written in the input
    from pushkit import polyring

    calls, inverse = [], polyring.series_inverse

    def counted(p, cutoff):
        calls.append(p)
        return inverse(p, cutoff)

    monkeypatch.setattr(polyring, "series_inverse", counted)
    monkeypatch.setattr(expressions, "series_inverse", counted)
    elaborate(parse_expression("(1 + x + c1)^7", 3), 3, 8)
    assert calls == []
    elaborate(parse_expression("(2 - y)^3 inv(1 + x)", 3), 3, 8)
    assert len(calls) == 1


def test_elaborate_monomial():
    table = bundle_ring(3)
    cls = elaborate(parse_expression("c1*x", 3), 3, 5)
    assert cls.payload == table.var("c1") * table.var("x")


def test_elaborate_zero_constant_inverse():
    with pytest.raises(NotInvertibleError) as info:
        elaborate(parse_expression("inv(x)", 3), 3, 5)
    assert info.value.offset == 0


def test_elaborate_normalizes_mixed_fiber_variables():
    # elaborate keeps x and y apart; the normal form in y alone is reached by
    # the evaluators, which read y as -x, so each class pushes forward and
    # localizes as its normal form
    y = bundle_ring(3).var("y")
    for text, normal in (("x + y", 0 * y), ("x - y", -2 * y), ("x^2 + x y", 0 * y), ("x^3 y", -y.pow(4))):
        payload = elaborate(parse_expression(text, 3), 3, 4).payload
        assert not payload.is_zero(), text
        assert pushforward(ClassExpr(payload, 4), 3) == pushforward(ClassExpr(normal, 4), 3), text
        assert localize(payload, 3, 4) == localize(normal, 3, 4), text


def test_x_as_minus_y_matches_the_horner_substitution():
    # the one-pass reader, which takes y as -x, against substitute({"x": -y}),
    # on classes in x, y, q_i, c_i and a root, where terms meet and may cancel
    table = bundle_ring(4)
    x, y = table.var("x"), table.var("y")
    names = ["x", "y", "q1", "q3", "c1", "c2", "u2"]
    rng = random.Random(20261019)
    for _ in range(200):
        p = random_poly(rng, table, names, max_terms=6) * x * y
        p = p + random_poly(rng, table, names, max_terms=3)
        expected = p.substitute({"x": -y})
        assert localization._closed_form(p, 4) == localization._closed_form(expected, 4), p.render()


def _mixed_classes(rank: int, cutoff: int):
    """(text, the class built by Polynomial arithmetic) pairs in x and y: the
    fixed ones at rank 3, and drawn ones, half of them times an inverse."""
    table = bundle_ring(rank)
    x, y, one = table.var("x"), table.var("y"), table.one()
    if rank == 3:
        q1, c1, c2 = (table.var(name) for name in ("q1", "c1", "c2"))
        yield "x + y", x + y
        yield "x^3 y", x.pow(3) * y
        yield "(2 - y)^3 inv(1 + x)", (2 - y).pow(3, cutoff).mul_trunc(series_inverse(one + x, cutoff), cutoff)
        yield "inv(1 + c1 x + c2 x^2 - y q1)", series_inverse(one + c1 * x + c2 * x.pow(2) - y * q1, cutoff)
        yield "inv(1 - x - y)", series_inverse(one - x - y, cutoff)
    names = ["x", "y", *(f"q{i}" for i in range(1, rank)), *(f"c{i}" for i in range(1, rank + 1))]
    rng = random.Random(20261019 + rank)
    for draw in range(4):
        p = ((random_poly(rng, table, names) + x) * x * y + random_poly(rng, table, names)).truncate(cutoff)
        if draw % 2:
            yield p.render(), p
        else:
            g = one + x + random_poly(rng, table, names, max_terms=3) * y
            yield f"({p.render()}) inv({g.render()})", p.mul_trunc(series_inverse(g, cutoff), cutoff)


@pytest.mark.parametrize("rank", range(1, 7))
def test_elaborate_returns_the_class_as_built(rank):
    # no renaming: x and y stay apart, and every evaluator reads y as -x, so
    # the class in y alone pushes forward and localizes the same
    cutoff = rank + 3
    y = bundle_ring(rank).var("y")
    for text, built in _mixed_classes(rank, cutoff):
        payload = elaborate(parse_expression(text, rank), rank, cutoff).payload
        assert payload == built, text
        in_y = payload.substitute({"x": -y})
        assert pushforward(ClassExpr(payload, cutoff), rank) == pushforward(ClassExpr(in_y, cutoff), rank)
        assert localize(payload, rank, cutoff) == localize(in_y, rank, cutoff)


def test_elaborate_truncates_by_degree():
    cls = elaborate(parse_expression("c3", 3), 3, 2)
    assert cls.payload.is_zero()
    cls = elaborate(parse_expression("x^9", 3), 3, 4)
    assert cls.payload.is_zero()


def test_elaborate_huge_exponent_terminates():
    cls = elaborate(parse_expression("x^123456789", 3), 3, 6)
    assert cls.payload.is_zero()


def _outcome(elaborator, ast, rank: int, cutoff: int) -> tuple:
    """(the class, its key width), or (the error's type, message, offset)."""
    try:
        payload = elaborator(ast, rank, cutoff).payload
    except (NotInvertibleError, UsageError) as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)
    return payload, payload._width


@lru_cache(maxsize=None)
def _trees_over(names: tuple[str, ...]):
    """Sums, products, powers, inverses and negations of fractions and the
    generators ``names``, a whole series of such a tree, or the product of
    the two: built once per tuple of names, since hypothesis validates each
    new strategy object when it first draws from it."""
    var = st.builds(Var, st.sampled_from(names), st.just(0))
    leaves = st.one_of(var, st.builds(Num, st.fractions(-3, 3, max_denominator=4)), var)
    def one_plus(node):
        return Sum(((1, Num(Fraction(1))), (1, node)))

    tree = st.recursive(leaves, lambda kids: st.one_of(
        st.builds(Neg, kids),
        st.lists(st.tuples(st.sampled_from((1, -1)), kids), min_size=2, max_size=3).map(
            lambda terms: Sum(((1, terms[0][1]), *terms[1:]))),
        st.lists(kids, min_size=2, max_size=3).map(lambda factors: Product(tuple(factors))),
        st.builds(Pow, kids, st.integers(0, 5)),
        st.builds(Inv, kids.map(one_plus) | kids, st.integers(0, 9)),
    ), max_leaves=6)
    series = st.builds(Inv, tree.map(one_plus), st.just(0))  # a whole series, up to the cutoff
    return st.one_of(tree, series, st.builds(lambda a, b: Product((a, b)), tree, series))


@st.composite
def _drawn_trees(draw):
    """(tree, rank, cutoff): a draw of ``_trees_over`` on one or two of x, y,
    q_i and c_i, so that a cutoff of 40 stays cheap."""
    rank, cutoff = draw(st.integers(1, 7)), draw(st.integers(0, 40))
    pool = ["x", "y", *(f"q{i}" for i in range(1, rank)), *(f"c{i}" for i in range(1, rank + 1))]
    names = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True))
    return draw(_trees_over(tuple(names))), rank, cutoff


@settings(max_examples=150, deadline=None)
@given(_drawn_trees())
def test_elaborate_matches_the_per_node_polynomial_evaluation(case):
    # one key layout at the cutoff's width, fitted once, against a Polynomial
    # per node: the same class, keyed alike, or the same refusal
    ast, rank, cutoff = case
    assert _outcome(elaborate, ast, rank, cutoff) == _outcome(elaborate_by_polynomials, ast, rank, cutoff)


@pytest.mark.parametrize("k", range(1, 7))
def test_a_product_past_a_power_of_two_widens_its_keys(k):
    # x^(2^k - 1) x needs one more bit a field than x^(2^k - 1)
    ast = parse_expression(f"x^{2**k - 1} x", 2)
    for cutoff in (2**k - 1, 2**k, 2**k + 1, 2 * 2**k):
        built = _outcome(elaborate, ast, 2, cutoff)
        assert built == _outcome(elaborate_by_polynomials, ast, 2, cutoff)
        assert built[0].degree() == (2**k if cutoff >= 2**k else -1)


@pytest.mark.parametrize("text, cutoff, error", [
    ("inv(x)", 5, NotInvertibleError),
    ("1 + c1 inv(c1 - x)", 5, NotInvertibleError),
    ("x inv(1 + inv(c1 - x))", 5, NotInvertibleError),
    ("inv(1 - 10^1000 x)", 100_000, UsageError),
    ("(2 + x)^20000", 3, UsageError),
    ("(10^1500 x)^3", 3, UsageError),
    ("(10^1500 + x)^3", 3, UsageError),
])
def test_elaborate_refuses_as_the_per_node_evaluation_does(text, cutoff, error):
    ast = parse_expression(text, 3)
    refused = _outcome(elaborate, ast, 3, cutoff)
    assert refused[0] is error
    assert refused == _outcome(elaborate_by_polynomials, ast, 3, cutoff)


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


# Every character class _tokenize tells apart, and the characters beyond
# latin-1 that only this test reaches (test_parser_survives_arbitrary_bytes
# covers latin-1).  A string alphabet also spares hypothesis the Unicode
# charmap it would otherwise build in a fresh checkout.
_PARSER_ALPHABET = (
    "0123456789"  # literals and subscripts
    "xyzcquinvXYZab"  # identifiers, the word inv among them
    "+-*/^()"  # operators
    " \t\r\n"  # whitespace
    ".=,_!\x00\x0b"  # other ASCII punctuation and controls
    "\u0663\uff11\u2003\u0301\u03b1\U0001d465"  # non-ASCII digits, space, combining mark, letters
)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=_PARSER_ALPHABET, max_size=40))
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
