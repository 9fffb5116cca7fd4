"""Exact sparse multivariate polynomial arithmetic over the rationals.

Generators are registered in a :class:`VariableTable` together with a
positive integer degree (complex-degree convention: a class of topological
degree ``2k`` has degree ``k`` here).  Polynomials are sparse maps from
monomials to nonzero rational coefficients, kept in canonical form, so
equality is structural equality.  A coefficient is an ``int`` when it is
integral and a :class:`fractions.Fraction` otherwise, never a float:
arithmetic is exact and floats are rejected everywhere.

All values are immutable after construction and all operations are pure
functions of their inputs, so they are safe to share between threads.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction

from .errors import (
    GradingError,
    NotDivisibleError,
    NotInvertibleError,
    TableMismatchError,
    UnboundVariableError,
)

__all__ = [
    "VariableTable",
    "Monomial",
    "Polynomial",
    "divide_exact_linear",
    "series_inverse",
]

_Coeff = int | Fraction


def _as_coeff(value) -> _Coeff:
    """Coerce an exact scalar, integral ones to ``int``; floats are rejected."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class VariableTable:
    """Ordered, immutable registry of generators and their degrees.

    Names must be unique and degrees positive integers.  The registration
    order fixes the lexicographic part of the graded-lex term order used for
    canonical printing.
    """

    __slots__ = ("_names", "_degrees", "_index")

    def __init__(self, entries: Iterable[tuple[str, int]]):
        names: list[str] = []
        degrees: list[int] = []
        index: dict[str, int] = {}
        for name, degree in entries:
            if not isinstance(name, str) or not name:
                raise ValueError("generator names must be non-empty strings")
            if name in index:
                raise ValueError(f"duplicate generator {name!r}")
            if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
                raise ValueError(f"degree of {name!r} must be a positive integer")
            index[name] = len(names)
            names.append(name)
            degrees.append(degree)
        self._names = tuple(names)
        self._degrees = tuple(degrees)
        self._index = index

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnboundVariableError(f"{name!r} is not a generator of this table") from None

    def degree_of(self, name: str) -> int:
        return self._degrees[self.index(name)]

    def var(self, name: str) -> Polynomial:
        """The generator ``name`` as a polynomial."""
        i = self.index(name)
        return Polynomial._raw(self, {Monomial(((i, 1),)): 1})

    def gens(self) -> tuple[Polynomial, ...]:
        return tuple(self.var(name) for name in self._names)

    def const(self, value) -> Polynomial:
        c = _as_coeff(value)
        if not c:
            return Polynomial._raw(self, {})
        return Polynomial._raw(self, {_MONOMIAL_ONE: c})

    def zero(self) -> Polynomial:
        return Polynomial._raw(self, {})

    def one(self) -> Polynomial:
        return Polynomial._raw(self, {_MONOMIAL_ONE: 1})

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, VariableTable):
            return NotImplemented
        return self._names == other._names and self._degrees == other._degrees

    def __hash__(self) -> int:
        return hash((self._names, self._degrees))

    def __repr__(self) -> str:
        body = ", ".join(f"{n}:{d}" for n, d in zip(self._names, self._degrees))
        return f"VariableTable({body})"


_new = tuple.__new__
# Sorts after every pair in Monomial.__mul__'s merge: no index reaches it.
_END = (sys.maxsize, 0)


class Monomial(tuple):
    """A tuple of ``(index, exponent)`` pairs sorted by variable-table index.

    Each index occurs at most once and zero exponents are never stored, so
    two equal monomials always have identical representations.  Hashing and
    equality are the tuple's own, so a monomial compares equal to the plain
    tuple of its pairs.
    """

    __slots__ = ()

    def __new__(cls, exps: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = exps.items() if isinstance(exps, Mapping) else exps
        cleaned = []
        for idx, exp in items:
            if not isinstance(idx, int) or not isinstance(exp, int) or isinstance(exp, bool):
                raise TypeError("monomial entries must be (index, exponent) pairs of ints")
            if idx < 0:
                raise ValueError("variable indices must be non-negative")
            if exp < 0:
                raise ValueError("exponents must be non-negative")
            if exp:
                cleaned.append((idx, exp))
        cleaned.sort()
        if any(a[0] == b[0] for a, b in zip(cleaned, cleaned[1:])):
            raise ValueError("a variable index may occur only once")
        return tuple.__new__(cls, cleaned)

    @classmethod
    def _raw(cls, exps: Iterable[tuple[int, int]]) -> Monomial:
        """Wrap sorted, zero-free pairs with distinct indices without validating."""
        return tuple.__new__(cls, exps)

    @property
    def exps(self) -> tuple[tuple[int, int], ...]:
        """The ``(index, exponent)`` pairs as a plain tuple."""
        return tuple(self)

    @property
    def is_constant(self) -> bool:
        return not self

    def exponent(self, idx: int) -> int:
        for i, e in self:
            if i == idx:
                return e
        return 0

    def __mul__(self, other: Monomial) -> Monomial:
        """Exponent-wise sum, merging the two sorted pair tuples in one pass."""
        if not other:
            return self
        if not self:
            return other
        out = []
        append = out.append
        rest = iter(other)
        q = next(rest)
        for p in self:
            while q[0] < p[0]:
                append(q)
                q = next(rest, _END)
            if q[0] == p[0]:
                append((p[0], p[1] + q[1]))
                q = next(rest, _END)
            else:
                append(p)
        if q is not _END:
            append(q)
            out.extend(rest)
        return _new(Monomial, out)

    def degree(self, table: VariableTable) -> int:
        degs = table.degrees
        return sum(e * degs[i] for i, e in self)

    def dense(self, nvars: int) -> tuple[int, ...]:
        out = [0] * nvars
        for i, e in self:
            out[i] = e
        return tuple(out)

    def sort_key(self, table: VariableTable) -> tuple[int, tuple[int, ...]]:
        """Graded-lex key: total degree first, then the dense exponent vector."""
        return (self.degree(table), self.dense(len(table)))

    def __repr__(self) -> str:
        if not self:
            return "Monomial(1)"
        body = " ".join(f"#{i}^{e}" for i, e in self)
        return f"Monomial({body})"


_MONOMIAL_ONE = Monomial(())


class Polynomial:
    """Sparse polynomial over a :class:`VariableTable` with exact coefficients:
    ``int`` when integral, :class:`fractions.Fraction` otherwise.

    Canonical form: no zero coefficients are stored, so ``==`` is exact
    mathematical equality.  Supports ``+ - * **`` with other polynomials over
    the same table and with exact scalars (int, Fraction).
    """

    __slots__ = ("table", "_terms", "_degree")

    def __init__(self, table: VariableTable, terms: Mapping[Monomial, object] | None = None):
        cleaned: dict[Monomial, _Coeff] = {}
        if terms:
            n = len(table)
            for mon, coeff in terms.items():
                if not isinstance(mon, Monomial):
                    raise TypeError("term keys must be Monomial instances")
                if mon and mon[-1][0] >= n:
                    raise ValueError("monomial references a generator outside the table")
                c = _as_coeff(coeff)
                if c:
                    cleaned[mon] = c
        self.table = table
        self._terms = cleaned
        self._degree: int | None = None

    @classmethod
    def _raw(cls, table: VariableTable, terms: dict[Monomial, _Coeff]) -> Polynomial:
        """Wrap an already-canonical term dict without re-validating it."""
        p = object.__new__(cls)
        p.table = table
        p._terms = terms
        p._degree = None
        return p

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def constant_term(self) -> _Coeff:
        return self._terms.get(_MONOMIAL_ONE, 0)

    def coefficient(self, mon: Monomial) -> _Coeff:
        return self._terms.get(mon, 0)

    def degree(self) -> int:
        """Largest weighted total degree of a term; -1 for the zero polynomial."""
        if self._degree is None:
            table = self.table
            self._degree = max(
                (mon.degree(table) for mon in self._terms), default=-1
            )
        return self._degree

    def variables(self) -> tuple[str, ...]:
        """Names of the generators that actually occur, in table order."""
        seen: set[int] = set()
        for mon in self._terms:
            for i, _ in mon:
                seen.add(i)
        names = self.table.names
        return tuple(names[i] for i in sorted(seen))

    def sorted_terms(self) -> list[tuple[Monomial, _Coeff]]:
        """Terms in decreasing graded-lex order (the canonical print order)."""
        table = self.table
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key(table), reverse=True)

    def is_homogeneous_of_degree(self, degree: int) -> bool:
        """True if every term has the given degree (vacuously true for zero)."""
        table = self.table
        return all(mon.degree(table) == degree for mon in self._terms)

    # -- arithmetic --------------------------------------------------------

    def _check_table(self, other: Polynomial) -> None:
        if self.table is not other.table and self.table != other.table:
            raise TableMismatchError("polynomials use different variable tables")

    def _coerce(self, value) -> Polynomial | None:
        if isinstance(value, Polynomial):
            self._check_table(value)
            return value
        try:
            return self.table.const(value)
        except TypeError:
            return None

    def __add__(self, other) -> Polynomial:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Polynomial._raw(self.table, _accumulate(dict(self._terms), rhs._terms.items()))

    __radd__ = __add__

    def __sub__(self, other) -> Polynomial:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return Polynomial._raw(self.table, _accumulate(dict(self._terms), rhs._terms.items(), -1))

    def __rsub__(self, other) -> Polynomial:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __neg__(self) -> Polynomial:
        return Polynomial._raw(self.table, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other) -> Polynomial:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._mul(rhs, None)

    __rmul__ = __mul__

    def __truediv__(self, other) -> Polynomial:
        if isinstance(other, Polynomial):
            raise TypeError(
                "polynomial division is not defined; use divide_exact_linear or series_inverse"
            )
        c = _as_coeff(other)
        if not c:
            raise ZeroDivisionError("division by zero")
        return self * (Fraction(1) / c)

    def _mul(self, other: Polynomial, cutoff: int | None) -> Polynomial:
        """Product; with a ``cutoff``, pairs whose degrees add up past it are
        never formed (the right-hand terms are sorted by degree once)."""
        table = self.table
        right = list(other._terms.items())
        if cutoff is not None:
            right.sort(key=lambda term: term[0].degree(table))
            degrees = [mon.degree(table) for mon, _ in right]

        def fitting(ma: Monomial) -> list[tuple[Monomial, _Coeff]]:
            if cutoff is None:
                return right
            return right[: bisect_right(degrees, cutoff - ma.degree(table))]

        pairs = ((ma * mb, ca * cb) for ma, ca in self._terms.items() for mb, cb in fitting(ma))
        return Polynomial._raw(table, _accumulate({}, pairs))

    def mul_trunc(self, other: Polynomial, cutoff: int) -> Polynomial:
        """Product with every term of degree above ``cutoff`` dropped."""
        rhs = self._coerce(other)
        if rhs is None:
            raise TypeError("mul_trunc expects a polynomial or exact scalar")
        return self._mul(rhs, cutoff)

    def pow(self, exponent: int, cutoff: int | None = None) -> Polynomial:
        """``self ** exponent``, optionally truncating at ``cutoff`` throughout."""
        if not isinstance(exponent, int) or isinstance(exponent, bool) or exponent < 0:
            raise ValueError("exponents must be non-negative integers")
        result = self.table.one()
        base = self if cutoff is None else self.truncate(cutoff)
        n = exponent
        while n:
            if n & 1:
                result = result._mul(base, cutoff)
            n >>= 1
            if n:
                base = base._mul(base, cutoff)
        return result

    def __pow__(self, exponent: int) -> Polynomial:
        return self.pow(exponent)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            if self.table is not other.table and self.table != other.table:
                return False
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self._terms == self.table.const(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.table, frozenset(self._terms.items())))

    # -- grading -----------------------------------------------------------

    def truncate(self, cutoff: int) -> Polynomial:
        """Drop every term of weighted degree above ``cutoff``."""
        if not isinstance(cutoff, int) or isinstance(cutoff, bool):
            raise TypeError("cutoff must be an integer")
        if self.degree() <= cutoff:
            return self
        table = self.table
        kept = {m: c for m, c in self._terms.items() if m.degree(table) <= cutoff}
        return Polynomial._raw(table, kept)

    def graded_parts(self) -> list[tuple[int, Polynomial]]:
        """Homogeneous components as ``(degree, part)`` in increasing degree."""
        table = self.table
        buckets: dict[int, dict[Monomial, _Coeff]] = {}
        for mon, c in self._terms.items():
            buckets.setdefault(mon.degree(table), {})[mon] = c
        return [
            (d, Polynomial._raw(table, terms)) for d, terms in sorted(buckets.items())
        ]

    def homogeneous_component(self, degree: int) -> Polynomial:
        table = self.table
        kept = {m: c for m, c in self._terms.items() if m.degree(table) == degree}
        return Polynomial._raw(table, kept)

    # -- substitution ------------------------------------------------------

    def substitute(self, images: Mapping[str, Polynomial]) -> Polynomial:
        """Apply the ring homomorphism sending each generator to its image.

        Every generator occurring in the polynomial must have an image; all
        images must live in one target table; each image must be homogeneous
        of the degree of the variable it replaces, so grading is preserved.
        """
        table = self.table
        target: VariableTable | None = None
        for name, img in images.items():
            if name not in table:
                raise UnboundVariableError(f"{name!r} is not a generator of this table")
            if not isinstance(img, Polynomial):
                raise TypeError("substitution images must be polynomials")
            if target is None:
                target = img.table
            elif target is not img.table and target != img.table:
                raise TableMismatchError("substitution images use different tables")
        if target is None:
            target = table

        occurring = sorted({i for mon in self._terms for i, _ in mon})
        img_by_idx: dict[int, Polynomial] = {}
        for i in occurring:
            name = table.names[i]
            if name not in images:
                raise UnboundVariableError(f"no image for {name!r}")
            img = images[name]
            want = table.degrees[i]
            if not img.is_homogeneous_of_degree(want):
                raise GradingError(f"image of {name!r} must be homogeneous of degree {want}")
            img_by_idx[i] = img

        powers: dict[int, list[Polynomial]] = {i: [target.one()] for i in img_by_idx}

        def power(i: int, e: int) -> Polynomial:
            cache = powers[i]
            while len(cache) <= e:
                cache.append(cache[-1] * img_by_idx[i])
            return cache[e]

        out: dict[Monomial, _Coeff] = {}
        for mon, coeff in self._terms.items():
            prod = target.const(coeff)
            for i, e in mon:
                prod = prod * power(i, e)
            _accumulate(out, prod._terms.items())
        return Polynomial._raw(target, out)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Canonical text: decreasing graded-lex terms, reduced fractions,
        ``^`` for powers, multiplication by juxtaposition."""
        return _render_terms(self, str, str, lambda base, e: f"{base}^{e}")

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Polynomial({self.render()})"


def _accumulate(out: dict[Monomial, _Coeff], items: Iterable, sign: int = 1) -> dict:
    """Add ``sign`` (1 or -1) times each ``(monomial, coefficient)`` pair into
    ``out`` in place and return it; terms that cancel are deleted, so a
    zero-free ``out`` stays zero-free, and integral sums are stored as ``int``."""
    add = sign > 0
    get = out.get
    for mon, c in items:
        s = get(mon, 0) + c if add else get(mon, 0) - c
        if s:
            out[mon] = s if s.__class__ is int else _as_coeff(s)
        elif mon in out:
            del out[mon]
    return out


def _split(p: Polynomial, idx: int) -> dict[int, dict[Monomial, _Coeff]]:
    """The terms of ``p`` grouped by their exponent of generator ``idx``, which is removed."""
    buckets: dict[int, dict[Monomial, _Coeff]] = {}
    for mon, coeff in p._terms.items():
        k = bisect_left(mon, (idx,))  # the first pair whose index is >= idx
        if k < len(mon) and mon[k][0] == idx:
            buckets.setdefault(mon[k][1], {})[_new(Monomial, mon[:k] + mon[k + 1 :])] = coeff
        else:
            buckets.setdefault(0, {})[mon] = coeff
    return buckets


def _render_terms(
    p: Polynomial,
    coeff: Callable[[_Coeff], str],
    name: Callable[[str], str],
    power: Callable[[str, int], str],
) -> str:
    """Walk the terms of ``p`` in decreasing graded-lex order and join them
    with signs; a unit coefficient is shown only on the constant term.
    ``coeff`` formats a positive magnitude, ``name`` a generator and
    ``power`` a formatted generator raised to an exponent above 1."""
    if p.is_zero():
        return "0"
    names = p.table.names
    pieces: list[str] = []
    for k, (mon, c) in enumerate(p.sorted_terms()):
        neg = c < 0
        mag = -c if neg else c
        factors: list[str] = []
        if mon.is_constant or mag != 1:
            factors.append(coeff(mag))
        for i, e in mon:
            base = name(names[i])
            factors.append(base if e == 1 else power(base, e))
        body = " ".join(factors)
        if k == 0:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(pieces)


def divide_exact_linear(p: Polynomial, factor: Polynomial) -> Polynomial:
    """Divide ``p`` exactly by a factor of the form ``a - b`` for distinct
    degree-1 generators ``a`` and ``b``.

    Runs synthetic division treating ``p`` as univariate in ``a`` with
    polynomial coefficients.  Raises :class:`NotDivisibleError` when the
    remainder is nonzero, which signals a violated invariant upstream.
    """
    p._check_table(factor)
    table = p.table
    pos = neg = None
    if len(factor._terms) != 2:
        raise ValueError("factor must be a difference of two generators")
    for mon, coeff in factor._terms.items():
        if len(mon) != 1 or mon[0][1] != 1:
            raise ValueError("factor must be a difference of two generators")
        idx = mon[0][0]
        if table.degrees[idx] != 1:
            raise ValueError("factor generators must have degree 1")
        if coeff == 1:
            pos = idx
        elif coeff == -1:
            neg = idx
        else:
            raise ValueError("factor coefficients must be +1 and -1")
    if pos is None or neg is None or pos == neg:
        raise ValueError("factor must be a difference of two distinct generators")

    a, b = pos, neg
    buckets = _split(p, a)
    b_mon = Monomial._raw(((b, 1),))
    carry: dict[Monomial, _Coeff] = {}
    quotient: dict[Monomial, _Coeff] = {}
    for k in range(max(buckets, default=0), 0, -1):
        cur = _accumulate(buckets.pop(k, {}), carry.items())
        a_mon = Monomial._raw(((a, k - 1),) if k > 1 else ())
        for mon, c in cur.items():
            quotient[mon * a_mon] = c
        carry = {mon * b_mon: c for mon, c in cur.items()}
    if _accumulate(buckets.get(0, {}), carry.items()):
        raise NotDivisibleError(
            f"{table.names[a]} - {table.names[b]} does not divide the given polynomial"
        )
    return Polynomial._raw(table, quotient)


def series_inverse(p: Polynomial, cutoff: int) -> Polynomial:
    """Multiplicative inverse of ``p`` as a series, truncated at ``cutoff``.

    The constant term must be a nonzero rational.  The result ``s`` satisfies
    ``(p * s).truncate(cutoff) == 1``.
    """
    if not isinstance(cutoff, int) or isinstance(cutoff, bool) or cutoff < 0:
        raise ValueError("cutoff must be a non-negative integer")
    c0 = p.constant_term()
    if not c0:
        raise NotInvertibleError("cannot invert a series with zero constant term")
    # p / c0 = 1 - g with g of positive minimal degree; invert geometrically.
    g = p.table.one() - p.truncate(cutoff) / c0
    acc = p.table.one()
    pw = p.table.one()
    for _ in range(cutoff):
        pw = pw._mul(g, cutoff)
        if pw.is_zero():
            break
        acc = acc + pw
    return acc / c0
