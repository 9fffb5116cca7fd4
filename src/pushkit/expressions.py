"""Expression front end: tokenizer, recursive-descent parser, and elaboration
of the syntax tree into a truncated ring element.

Grammar:

    expr   := term (("+" | "-") term)*
    term   := factor ("*"? factor)*
    factor := base ("^" nat)?
    base   := nat | nat "/" nat | var | "(" expr ")" | "-" factor
            | "inv" "(" expr ")"
    var    := "x" | "y" | "c" nat | "q" nat | "u" nat

Multiplication may be written by juxtaposition.  Division is not an
operator: rational literals are written nat/nat, and series inversion is the
explicit inv(...) form, which makes the truncation point visible.  Every
parse failure carries the byte offset at which it occurred.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .errors import ArityError, ExponentError, NotInvertibleError, ParseError
from .gysin import ClassExpr
from .localization import bundle_ring
from .polyring import (Polynomial, VariableTable, _Value, _add, _key, _power, _product, _relaid, _shift, _width,
                       series_inverse)

__all__ = [
    "ExprAst",
    "Num",
    "Var",
    "Neg",
    "Sum",
    "Product",
    "Pow",
    "Inv",
    "parse_expression",
    "elaborate",
]

# Nesting levels ("(", "inv(" or unary "-") the parser accepts.  ==, hash and
# repr recurse down the tree, == the deepest: about 15 frames of the default
# recursion limit of 1000 per level of inv(1 + 2 X^2), so 50 leave the caller room.
_MAX_DEPTH = 50


class Num(_Value):
    __slots__ = ("value",)


class Var(_Value):
    __slots__ = ("name", "offset")


class Neg(_Value):
    __slots__ = ("operand",)


class Sum(_Value):
    """A chain t1 ± t2 ± ... of two or more terms, as ``(sign, node)`` pairs
    with sign +1 or -1 (the first sign is +1).  A flat chain is one node, so
    its length is not bounded by recursion."""

    __slots__ = ("terms",)


class Product(_Value):
    """A chain of two or more factors, written with ``*`` or juxtaposed."""

    __slots__ = ("factors",)


class Pow(_Value):
    __slots__ = ("base", "exponent")


class Inv(_Value):
    __slots__ = ("operand", "offset")


ExprAst = Union[Num, Var, Neg, Sum, Product, Pow, Inv]


class _Token:  # the parser's own, never compared or hashed: plain slots
    __slots__ = ("kind", "text", "pos", "value")  # kind: NAT VAR INV EOF, or the operator character

    def __init__(self, kind: str, text: str, pos: int, value: object = None) -> None:
        self.kind, self.text, self.pos, self.value = kind, text, pos, value


# A natural, a word (letters then digits), blanks, or one other character;
# ASCII-only classes keep non-ASCII digits and blanks unexpected characters.
_TOKEN = re.compile(r"([0-9]+)|([A-Za-z]+)([0-9]*)|[ \t\r\n]+|(.)", re.DOTALL)


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    for match in _TOKEN.finditer(text):
        nat, letters, digits, other = match.groups()
        start = match.start()
        if nat is not None:
            try:
                value = int(nat)
            except ValueError:
                raise ParseError("integer literal too large", start) from None
            out.append(_Token("NAT", nat, start, value))
        elif letters is not None:
            word = letters + digits
            if word == "inv":
                out.append(_Token("INV", word, start))
            elif letters in ("x", "y") and not digits:
                out.append(_Token("VAR", word, start, (letters, None)))
            elif letters in ("c", "q", "u"):
                if not digits:
                    raise ParseError(f"{letters!r} needs a subscript, like {letters}1", start)
                try:
                    sub = int(digits)
                except ValueError:
                    raise ParseError("subscript too large", start) from None
                out.append(_Token("VAR", word, start, (letters, sub)))
            else:
                raise ParseError(f"unknown identifier {word!r}", start)
        elif other is not None:
            if other not in "+-*/^()":
                raise ParseError(f"unexpected character {other!r}", start)
            out.append(_Token(other, other, start))
    out.append(_Token("EOF", "", len(text)))
    return out


class _Parser:
    def __init__(self, tokens: list[_Token], rank: int, allow_u: bool):
        self.tokens = tokens
        self.rank = rank
        self.allow_u = allow_u
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, message: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(message, tok.pos)
        return self.advance()

    def parse(self) -> ExprAst:
        node = self.expr(0)
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return node

    def expr(self, depth: int) -> ExprAst:
        terms = [(1, self.term(depth))]
        while self.peek().kind in ("+", "-"):
            sign = 1 if self.advance().kind == "+" else -1
            terms.append((sign, self.term(depth)))
        return terms[0][1] if len(terms) == 1 else Sum(tuple(terms))

    def term(self, depth: int) -> ExprAst:
        factors = [self.factor(depth)]
        # "*" or juxtaposition; "+"/"-" stay with the enclosing expr
        while self.peek().kind in ("*", "NAT", "VAR", "INV", "("):
            if self.peek().kind == "*":
                self.advance()
            factors.append(self.factor(depth))
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def factor(self, depth: int) -> ExprAst:
        node = self.base(depth)
        if self.peek().kind == "^":
            self.advance()
            tok = self.peek()
            if tok.kind == "-":
                raise ExponentError("exponents must be non-negative", tok.pos)
            if tok.kind != "NAT":
                raise ExponentError("exponents must be integer literals", tok.pos)
            self.advance()
            node = Pow(node, tok.value)
        return node

    def base(self, depth: int) -> ExprAst:
        tok = self.peek()
        if depth > _MAX_DEPTH:
            raise ParseError("expression too deeply nested", tok.pos)
        if tok.kind == "NAT":
            self.advance()
            if self.peek().kind == "/":
                self.advance()
                den = self.expect("NAT", "expected a denominator")
                if den.value == 0:
                    raise ParseError("zero denominator", den.pos)
                return Num(Fraction(tok.value, den.value))
            return Num(Fraction(tok.value))
        if tok.kind == "VAR":
            self.advance()
            letter, sub = tok.value
            if letter in ("x", "y"):
                return Var(letter, tok.pos)
            if letter == "u" and not self.allow_u:
                raise ParseError("u-variables are only available in the localize command", tok.pos)
            if not 1 <= sub <= (self.rank - 1 if letter == "q" else self.rank):
                raise ArityError(f"{letter}{sub} is out of range at rank {self.rank}", tok.pos)
            return Var(f"{letter}{sub}", tok.pos)
        if tok.kind == "-":
            self.advance()
            return Neg(self.factor(depth + 1))
        if tok.kind == "(":
            self.advance()
            node = self.expr(depth + 1)
            self.expect(")", "expected ')'")
            return node
        if tok.kind == "INV":
            self.advance()
            self.expect("(", "expected '(' after inv")
            node = self.expr(depth + 1)
            self.expect(")", "expected ')'")
            return Inv(node, tok.pos)
        raise ParseError(f"expected a value, found {tok.text!r}" if tok.text else "expected a value", tok.pos)


def parse_expression(text: str, rank: int, *, allow_u: bool = False) -> ExprAst:
    """Parse expression text at the given rank.

    Unknown identifiers and out-of-range subscripts are rejected with
    position-annotated errors.  Root variables u_i are accepted only with
    ``allow_u`` (the localize command sets it).
    """
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise ValueError("rank must be a positive integer")
    if not isinstance(text, str):
        raise TypeError("expression must be a string")
    if not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(_tokenize(text), rank, allow_u).parse()


def elaborate(ast: ExprAst, rank: int, cutoff: int) -> ClassExpr:
    """Evaluate a syntax tree in the rank-r ring, truncated at ``cutoff``.

    inv(...) becomes a truncated series inverse; it and X^N refuse their first
    unprintable coefficient.  The class is returned as evaluated: x and y stay
    apart, and the evaluators read y as -x.  Each node is int numerators over
    one denominator, keyed at the cutoff's width, which no node exceeds, and
    the class is reduced and fitted once.
    """
    if not isinstance(cutoff, int) or isinstance(cutoff, bool) or cutoff < 0:
        raise ValueError("cutoff must be a non-negative integer")
    table, width = bundle_ring(rank), _width(cutoff)
    return ClassExpr(Polynomial._fit(table, *_evaluate(ast, table, width, cutoff)), cutoff)


def _evaluate(node: ExprAst, table: VariableTable, width: int, cutoff: int) -> tuple[dict[int, int], int, int]:
    """``elaborate``'s (numerators, width, denominator) of ``node``, a new
    dict, not reduced; a module function, as a nested one calling itself is a cycle."""
    if isinstance(node, Num):
        value = node.value
        return {0: value.numerator} if value else {}, width, value.denominator
    if isinstance(node, Var):
        i = table.index(node.name)
        return {_key(table, width, ((i, 1),)): 1} if table.degrees[i] <= cutoff else {}, width, 1
    if isinstance(node, Neg):
        terms, _, den = _evaluate(node.operand, table, width, cutoff)
        return {key: -c for key, c in terms.items()}, width, den
    if isinstance(node, Sum):
        terms, _, den = _evaluate(node.terms[0][1], table, width, cutoff)
        for sign, term in node.terms[1:]:
            more, _, other = _evaluate(term, table, width, cutoff)
            terms, den = _add(terms, den, more, other, sign)
        return terms, width, den
    if isinstance(node, Product):
        terms, _, den = _evaluate(node.factors[0], table, width, cutoff)
        for factor in node.factors[1:]:
            more, _, other = _evaluate(factor, table, width, cutoff)
            terms, den = _product(_shift(table, width, -1), terms, more, cutoff), den * other
        return terms, width, den
    if isinstance(node, Pow):
        return _power(Polynomial._raw(table, *_evaluate(node.base, table, width, cutoff)), node.exponent, cutoff)
    if isinstance(node, Inv):
        inner = Polynomial._raw(table, *_evaluate(node.operand, table, width, cutoff))
        try:
            inverse = series_inverse(inner, cutoff)
        except NotInvertibleError as exc:
            raise NotInvertibleError(str(exc), offset=node.offset) from None
        return _relaid(table, inverse._terms, inverse._width, width), width, inverse._den
    raise TypeError(f"unknown node {node!r}")
