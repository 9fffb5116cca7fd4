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

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ArityError, ExponentError, NotInvertibleError, ParseError
from .gysin import ClassExpr, _rename_fiber_variable
from .localization import bundle_ring
from .polyring import Polynomial, series_inverse

__all__ = [
    "ExprAst",
    "Num",
    "Var",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Pow",
    "Inv",
    "parse_expression",
    "elaborate",
]

_MAX_DEPTH = 100


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str
    offset: int


@dataclass(frozen=True)
class Neg:
    operand: "ExprAst"


@dataclass(frozen=True, eq=False, repr=False)
class _Binary:
    """A binary operation.  A flat chain such as x + x + ... + x parses
    left-deep, so ``==``, ``hash``, ``repr`` and elaboration walk the left
    spine in a loop and the chain's length is not bounded by recursion."""

    left: "ExprAst"
    right: "ExprAst"

    def _spine(self) -> tuple[list["_Binary"], "ExprAst"]:
        """The nodes down the left spine, outermost first, and the first
        left operand that is not a binary operation."""
        spine, node = [], self
        while isinstance(node, _Binary):
            spine.append(node)
            node = node.left
        return spine, node

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        a, b = self, other
        while isinstance(a, _Binary) and type(a) is type(b):
            if a.right != b.right:
                return False
            a, b = a.left, b.left
        return a == b

    def __hash__(self) -> int:
        spine, leaf = self._spine()
        h = hash(leaf)
        for node in reversed(spine):
            h = hash((type(node), h, node.right))
        return h

    def __repr__(self) -> str:
        spine, leaf = self._spine()
        heads = "".join(f"{type(node).__name__}(left=" for node in spine)
        tails = "".join(f", right={node.right!r})" for node in reversed(spine))
        return heads + repr(leaf) + tails


class Add(_Binary):
    pass


class Sub(_Binary):
    pass


class Mul(_Binary):
    pass


@dataclass(frozen=True)
class Pow:
    base: "ExprAst"
    exponent: int


@dataclass(frozen=True)
class Inv:
    operand: "ExprAst"
    offset: int


ExprAst = Union[Num, Var, Neg, Add, Sub, Mul, Pow, Inv]


@dataclass(frozen=True)
class _Token:
    kind: str  # NAT VAR INV PLUS MINUS STAR SLASH CARET LPAREN RPAREN EOF
    text: str
    pos: int
    value: object = None


_SIMPLE = {
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "/": "SLASH",
    "^": "CARET",
    "(": "LPAREN",
    ")": "RPAREN",
}

_LETTERS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_DIGITS = set("0123456789")


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _SIMPLE:
            out.append(_Token(_SIMPLE[ch], ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            body = text[start:i]
            try:
                value = int(body)
            except ValueError:
                raise ParseError("integer literal too large", start) from None
            out.append(_Token("NAT", body, start, value))
            continue
        if ch in _LETTERS:
            start = i
            while i < n and text[i] in _LETTERS:
                i += 1
            letters = text[start:i]
            digit_start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            digits = text[digit_start:i]
            if letters == "inv" and not digits:
                out.append(_Token("INV", letters, start))
                continue
            if letters in ("x", "y"):
                if digits:
                    raise ParseError(f"unknown identifier {letters + digits!r}", start)
                out.append(_Token("VAR", letters, start, (letters, None)))
                continue
            if letters in ("c", "q", "u"):
                if not digits:
                    raise ParseError(f"{letters!r} needs a subscript, like {letters}1", start)
                try:
                    sub = int(digits)
                except ValueError:
                    raise ParseError("subscript too large", start) from None
                out.append(_Token("VAR", letters + digits, start, (letters, sub)))
                continue
            raise ParseError(f"unknown identifier {letters + digits!r}", start)
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(_Token("EOF", "", n))
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

    def parse(self) -> ExprAst:
        node = self.expr(0)
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return node

    def expr(self, depth: int) -> ExprAst:
        if depth > _MAX_DEPTH:
            raise ParseError("expression too deeply nested", self.peek().pos)
        node = self.term(depth)
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.advance()
            rhs = self.term(depth)
            node = Add(node, rhs) if op.kind == "PLUS" else Sub(node, rhs)
        return node

    def term(self, depth: int) -> ExprAst:
        node = self.factor(depth)
        while True:
            kind = self.peek().kind
            if kind == "STAR":
                self.advance()
                node = Mul(node, self.factor(depth))
            elif kind in ("NAT", "VAR", "INV", "LPAREN"):
                # juxtaposition; "+"/"-" stay with the enclosing expr
                node = Mul(node, self.factor(depth))
            else:
                return node

    def factor(self, depth: int) -> ExprAst:
        node = self.base(depth)
        if self.peek().kind == "CARET":
            self.advance()
            tok = self.peek()
            if tok.kind == "MINUS":
                raise ExponentError("exponents must be non-negative", tok.pos)
            if tok.kind != "NAT":
                raise ExponentError("exponents must be integer literals", tok.pos)
            self.advance()
            node = Pow(node, tok.value)
        return node

    def base(self, depth: int) -> ExprAst:
        if depth > _MAX_DEPTH:
            raise ParseError("expression too deeply nested", self.peek().pos)
        tok = self.peek()
        if tok.kind == "NAT":
            self.advance()
            if self.peek().kind == "SLASH":
                self.advance()
                den = self.peek()
                if den.kind != "NAT":
                    raise ParseError("expected a denominator", den.pos)
                self.advance()
                if den.value == 0:
                    raise ParseError("zero denominator", den.pos)
                return Num(Fraction(tok.value, den.value))
            return Num(Fraction(tok.value))
        if tok.kind == "VAR":
            self.advance()
            letter, sub = tok.value
            if letter in ("x", "y"):
                return Var(letter, tok.pos)
            if letter == "c":
                if not 1 <= sub <= self.rank:
                    raise ArityError(f"c{sub} is out of range at rank {self.rank}", tok.pos)
            elif letter == "q":
                if not 1 <= sub <= self.rank - 1:
                    raise ArityError(f"q{sub} is out of range at rank {self.rank}", tok.pos)
            else:  # u
                if not self.allow_u:
                    raise ParseError(
                        "u-variables are only available in the localize command", tok.pos
                    )
                if not 1 <= sub <= self.rank:
                    raise ArityError(f"u{sub} is out of range at rank {self.rank}", tok.pos)
            return Var(f"{letter}{sub}", tok.pos)
        if tok.kind == "MINUS":
            self.advance()
            return Neg(self.factor(depth + 1))
        if tok.kind == "LPAREN":
            self.advance()
            node = self.expr(depth + 1)
            closing = self.peek()
            if closing.kind != "RPAREN":
                raise ParseError("expected ')'", closing.pos)
            self.advance()
            return node
        if tok.kind == "INV":
            self.advance()
            opening = self.peek()
            if opening.kind != "LPAREN":
                raise ParseError("expected '(' after inv", opening.pos)
            self.advance()
            node = self.expr(depth + 1)
            closing = self.peek()
            if closing.kind != "RPAREN":
                raise ParseError("expected ')'", closing.pos)
            self.advance()
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

    inv(...) becomes a truncated series inverse.  If both x and y occur, x is
    rewritten as -y so the result satisfies the one-fiber-variable invariant.
    """
    if not isinstance(cutoff, int) or isinstance(cutoff, bool) or cutoff < 0:
        raise ValueError("cutoff must be a non-negative integer")
    table = bundle_ring(rank)
    combine = {Add: Polynomial.__add__, Sub: Polynomial.__sub__}
    combine[Mul] = lambda a, b: a.mul_trunc(b, cutoff)

    def ev(node: ExprAst) -> Polynomial:
        if isinstance(node, Num):
            return table.const(node.value)
        if isinstance(node, Var):
            return table.var(node.name).truncate(cutoff)
        if isinstance(node, Neg):
            return -ev(node.operand)
        if isinstance(node, _Binary):
            spine, leaf = node._spine()
            value = ev(leaf)
            for op in reversed(spine):
                value = combine[type(op)](value, ev(op.right))
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

    value = ev(ast)
    if "y" in value.variables():
        value = _rename_fiber_variable(value, "x", "y")
    return ClassExpr(payload=value, cutoff=cutoff)
