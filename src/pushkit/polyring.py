"""Exact sparse multivariate polynomial arithmetic over the rationals.

Generators are registered in a :class:`VariableTable` together with a
positive integer degree (complex-degree convention: a class of topological
degree ``2k`` has degree ``k`` here).  Polynomials are sparse maps from
monomials to nonzero rational coefficients, kept in canonical form, so
equality is structural equality.  A coefficient is an ``int`` when it is
integral and a :class:`fractions.Fraction` otherwise, never a float:
arithmetic is exact and floats are rejected everywhere.

Two kernels run on packed monomials instead, ints with a fixed-width field
per exponent (Monagan and Pearce, CASC 2007): ``_series_power``, the truncated
power p^n (n >= -1) behind ``series_inverse`` and ``pow`` with a cutoff; and
the two evaluators of f_* in ``localization``, on the keys of its reader
``_read_in_x``.  ``_unpack`` turns such keys back into a polynomial.  Powers
and inverses are the one place that refuses a coefficient Python cannot print.

All values are immutable after construction and all operations are pure
functions of their inputs, so they are safe to share between threads.
"""

from __future__ import annotations

import math
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
    UsageError,
)

__all__ = [
    "VariableTable",
    "Monomial",
    "Polynomial",
    "divide_exact_linear",
    "series_inverse",
]

_Coeff = int | Fraction
_setattr = object.__setattr__


def _as_coeff(value) -> _Coeff:
    """Coerce an exact scalar, integral ones to ``int``; floats are rejected."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _refuse_unprintable(coeffs: Iterable[_Coeff] = (), log10: float = 0.0) -> None:
    """Raise UsageError if a coefficient in ``coeffs``, or a number of size
    10^``log10``, has more digits than Python prints
    (``sys.get_int_max_str_digits()``); never where there is no limit."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int() is 0: no limit
    bits = 3.32 * limit  # 10^limit has more bits, so a shorter int prints
    for c in coeffs if limit else ():
        if (c.numerator.bit_length() > bits or c.denominator.bit_length() > bits) and (
                max(abs(c.numerator), c.denominator) >= 10**limit):
            log10 = limit
            break
    if limit and log10 >= limit:
        raise UsageError(f"a coefficient would have more than {limit:,} digits, "
                         "Python's limit for printing an integer")


class _Value:
    """Base of pushkit's immutable records, written out so that importing
    pushkit generates no methods: the fields, named in ``__slots__``, are set
    once, in order; ``==`` needs the same type, and hash, repr, copy and
    pickle go by the fields, as for a frozen dataclass."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__qualname__} takes {len(self.__slots__)} fields, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(name + '=%r' for name in self.__slots__)})" % self._values()

    def __reduce__(self) -> tuple:
        return type(self), self._values()


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

    __slots__ = ("table", "_terms", "_degree_span")

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
        self._degree_span: tuple[int, int] | None = None

    @classmethod
    def _raw(cls, table: VariableTable, terms: dict[Monomial, _Coeff]) -> Polynomial:
        """Wrap an already-canonical term dict without re-validating it."""
        p = object.__new__(cls)
        p.table = table
        p._terms = terms
        p._degree_span = None
        return p

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def constant_term(self) -> _Coeff:
        return self._terms.get(_MONOMIAL_ONE, 0)

    def _span(self) -> tuple[int, int]:
        """(smallest, largest) weighted degree of a term, computed once;
        (0, -1) for the zero polynomial."""
        if self._degree_span is None:
            table = self.table
            degrees = [mon.degree(table) for mon in self._terms]
            self._degree_span = (min(degrees, default=0), max(degrees, default=-1))
        return self._degree_span

    def degree(self) -> int:
        """Largest weighted total degree of a term; -1 for the zero polynomial."""
        return self._span()[1]

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
        low, high = self._span()
        return not self._terms or low == high == degree

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
        """``self ** exponent``, optionally truncating at ``cutoff`` throughout.

        With a cutoff and a nonzero constant term by ``_series_power``, so a
        huge exponent costs what a small one does; otherwise by squaring, or 0
        at once above the cutoff.  Each refuses its first unprintable product."""
        if not isinstance(exponent, int) or isinstance(exponent, bool) or exponent < 0:
            raise ValueError("exponents must be non-negative integers")
        base = self if cutoff is None else self.truncate(cutoff)
        if cutoff is not None and base.constant_term():
            return _series_power(base, exponent, cutoff)
        if cutoff is not None and exponent * base._span()[0] > cutoff:
            return self.table.zero()
        result, n = self.table.one(), exponent
        while n:
            if n & 1:
                result = result._mul(base, cutoff)
                _refuse_unprintable(result._terms.values())
            n >>= 1
            if n:
                base = base._mul(base, cutoff)
                _refuse_unprintable(base._terms.values())
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
        if self._terms.keys() <= {_MONOMIAL_ONE}:
            return hash(self.constant_term())  # it equals that number, so hash alike
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

        All images must live in one target table; every image, used or not,
        must be homogeneous of the degree of the variable it replaces, so
        grading is preserved.  A generator given no image is fixed when the
        target table is this polynomial's own; with another target table,
        every occurring generator must have an image.

        Evaluated by Horner's scheme, one moved generator at a time in table
        order: the terms are split by that generator's exponent and folded
        from the top exponent k down, acc = acc * img^(prev - k) + inner(k),
        then acc * img^(k_min), so every product is the accumulator times a
        cached power of one image.  A generator sent to itself (the target
        generator of its own index) stays in the monomials and is never
        split on.
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
            want = table.degree_of(name)
            if not img.is_homogeneous_of_degree(want):
                raise GradingError(f"image of {name!r} must be homogeneous of degree {want}")
        if target is None:
            target = table

        # A generator without an image, or whose image is the target generator
        # of its own index, is fixed: its monomial entries already mean the image.
        same = target is table or target == table
        moved: list[int] = []
        for i in sorted({i for mon in self._terms for i, _ in mon}):
            name = table.names[i]
            if name not in images:
                if same:
                    continue
                raise UnboundVariableError(f"no image for {name!r}")
            img_terms = images[name]._terms
            if len(img_terms) != 1 or img_terms.get(((i, 1),)) != 1:
                moved.append(i)

        powers = {i: [target.one()] for i in moved}

        def power(i: int, e: int) -> Polynomial:
            cache = powers[i]
            while len(cache) <= e:
                cache.append(cache[-1] * images[table.names[i]])
            return cache[e]

        def horner(terms: dict[Monomial, _Coeff], level: int) -> Polynomial:
            if level == len(moved):
                return Polynomial._raw(target, terms)
            i = moved[level]
            buckets = _split(Polynomial._raw(table, terms), i)
            exps = sorted(buckets, reverse=True)
            acc = horner(buckets[exps[0]], level + 1)
            for prev, k in zip(exps, exps[1:]):
                acc = acc._mul(power(i, prev - k), None)  # a fresh dict: add in place
                _accumulate(acc._terms, horner(buckets[k], level + 1)._terms.items())
            return acc._mul(power(i, exps[-1]), None) if exps[-1] else acc

        if not self._terms:
            return target.zero()
        return horner(self._terms, 0)

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


def _integral(p: Polynomial) -> tuple[Polynomial, int]:
    """(D p, D), D the least common denominator of the coefficients of ``p``,
    so D p has ``int`` coefficients; (p, 1) when ``p`` has them already."""
    d = math.lcm(*(c.denominator for c in p._terms.values() if c.__class__ is not int))
    if d == 1:
        return p, 1
    terms = {m: c.numerator * (d // c.denominator) for m, c in p._terms.items()}
    return Polynomial._raw(p.table, terms), d


def _unpack(table: VariableTable, packed: Mapping[int, _Coeff], gens: Iterable[int], width: int) -> Polynomial:
    """The polynomial over ``table`` whose monomials ``packed`` keys as ints,
    a field of ``width`` bits per exponent of each generator index in
    ``gens``, in increasing order from the lowest field; zero coefficients
    are dropped."""
    mask, fields = (1 << width) - 1, [(i, width * n, {}) for n, i in enumerate(gens)]
    # each (index, exponent) pair is made once and shared by the terms that hold it
    terms = {Monomial._raw([row.get(e) or row.setdefault(e, (i, e))
                            for i, shift, row in fields if (e := key >> shift & mask)]): c
             for key, c in packed.items() if c}
    return Polynomial._raw(table, terms)


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
    ``(p * s).truncate(cutoff) == 1``; it is ``_series_power`` at n = -1.
    """
    if not isinstance(cutoff, int) or isinstance(cutoff, bool) or cutoff < 0:
        raise ValueError("cutoff must be a non-negative integer")
    if not p.constant_term():
        raise NotInvertibleError("cannot invert a series with zero constant term")
    return _series_power(p, -1, cutoff)


def _series_power(p: Polynomial, n: int, cutoff: int) -> Polynomial:
    """``p^n`` truncated at ``cutoff >= 0`` for an integer n >= -1 and a
    constant term c0 != 0, by J. C. P. Miller's recurrence (Knuth, TAOCP
    vol. 2, sec. 4.7): d c0 P_d = sum_(1 <= i <= d) ((n + 1) i - d) p_i P_(d-i).

    It runs in integers on t_d = M^d P_d / c0^n, t_0 = 1, M = L c0 with L the
    least common denominator of ``p``: d t_d = sum_i (d - (n + 1) i)
    (-L p_i M^(i-1)) t_(d-i), divided by d exactly; at n = -1 the weight d
    cancels and nothing is divided.  Each product is one pass over packed int
    keys, ``cutoff.bit_length()`` bits per generator in ``p``, and each t_d is
    scaled by c0^n / M^d once, as soon as it is built.  UsageError is raised at
    c0^n by its size (n clamped to 10^300) and at the first degree Python cannot
    print (``_refuse_unprintable``); it stops at degree n deg p for n >= 0, at 0
    for a constant p.
    """
    table, width, c0 = p.table, cutoff.bit_length(), p.constant_term()
    _refuse_unprintable(log10=min(n, 10**300) * math.log10(max(abs(c0.numerator), c0.denominator)))
    num, den = (c0.numerator ** n, c0.denominator ** n) if n >= 0 else (c0.denominator, c0.numerator)
    p, _ = _integral(p.truncate(cutoff))
    gens = sorted({i for mon in p._terms for i, _ in mon})
    shifts = {i: width * k for k, i in enumerate(gens)}
    m = p.constant_term()  # M = L c0, the constant term of L p
    parts: dict[int, list[tuple[int, int]]] = {}  # i -> the terms of -L p_i M^(i-1)
    for mon, c in p._terms.items():
        if mon:
            i = mon.degree(table)
            parts.setdefault(i, []).append((sum(e << shifts[j] for j, e in mon), -c * m ** (i - 1)))
    series: list[dict[int, int]] = []  # t_0, t_1, ...
    packed: dict[int, _Coeff] = {}
    last = cutoff if n == -1 and parts else min(cutoff, n * max(parts, default=0))  # deg p^n <= n deg p
    for d in range(last + 1):
        t: dict[int, int] = {} if d else {0: 1}
        for i, part in parts.items():
            if i <= d:
                if n != -1:
                    part = [(kg, (d - (n + 1) * i) * cg) for kg, cg in part]
                lower = series[d - i]
                for kg, cg in part:
                    for ks, cs in lower.items():
                        t[kg + ks] = t.get(kg + ks, 0) + cg * cs
        t = {key: c if n == -1 or not d else c // d for key, c in t.items() if c}
        series.append(t)
        if den != 1 or num != 1:  # P_d = c0^n t_d / M^d
            t = {key: _as_coeff(Fraction(num * c, den)) for key, c in t.items()}
        _refuse_unprintable(t.values())
        packed.update(t)
        den *= m
    return _unpack(table, packed, gens, width)
