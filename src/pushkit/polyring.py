"""Exact sparse multivariate polynomial arithmetic over the rationals.

Generators are registered in a :class:`VariableTable` together with a
positive integer degree (complex-degree convention: a class of topological
degree ``2k`` has degree ``k`` here).  Polynomials are sparse maps from
monomials to nonzero rational coefficients, kept in canonical form, so
equality is structural equality.  A coefficient is an ``int`` when it is
integral and a :class:`fractions.Fraction` otherwise, never a float:
arithmetic is exact and floats are rejected everywhere.

A monomial is stored as one int, a packed exponent vector (Monagan and
Pearce, CASC 2007), laid out here alone (``_shift``): the weighted degree
in the top field, then one field of ``width`` bits per generator, table
index 0 the most significant.  ``width`` is ``_width`` of the degree, at
least 4: no field carries, equal polynomials have equal keys and all below
degree 16 share one layout.  Int order is the graded-lex print order, and a
product adds keys.  The kernels ``_product``, ``_power`` and ``_series_power``
and the f_* evaluators of ``localization`` return dicts at one width, fitted
once.  Powers and inverses refuse a coefficient Python cannot print.

All values are immutable after construction and all operations are pure
functions of their inputs, so they are safe to share between threads.
"""

from __future__ import annotations

import math
import sys
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
        width = _width(self._degrees[i])
        return Polynomial._raw(self, {_key(self, width, ((i, 1),)): 1}, width)

    def gens(self) -> tuple[Polynomial, ...]:
        return tuple(self.var(name) for name in self._names)

    def const(self, value) -> Polynomial:
        c = _as_coeff(value)
        return Polynomial._raw(self, {0: c} if c else {}, _width(0))

    def zero(self) -> Polynomial:
        return Polynomial._raw(self, {}, _width(0))

    def one(self) -> Polynomial:
        return Polynomial._raw(self, {0: 1}, _width(0))

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


def _width(degree: int) -> int:
    """Bits per exponent field of a polynomial of weighted degree ``degree``:
    every exponent is at most the degree, so none fills its field.  At least
    4, so every polynomial below degree 16 shares one layout and a small
    class, its intermediates and its answer are never laid out again."""
    return max(4, degree.bit_length())


def _shift(table: VariableTable, width: int, index: int) -> int:
    """Where the field of generator ``index`` starts in a key of
    ``width``-bit fields over ``table``; index -1 is the degree field."""
    return width * (len(table._names) - 1 - index)


def _key(table: VariableTable, width: int, pairs: Iterable[tuple[int, int]]) -> int:
    """The key of the monomial with these ``(index, exponent)`` pairs."""
    degrees, degree, key = table._degrees, 0, 0
    for i, e in pairs:
        degree += e * degrees[i]
        key += e << _shift(table, width, i)
    return key + (degree << _shift(table, width, -1))


def _lead(table: VariableTable, width: int, key: int) -> tuple[int, int, int]:
    """(index, exponent, the rest of ``key``) for the nonzero generator field
    of ``key`` with the least index; ``key`` is nonzero and has no degree field."""
    j = (key.bit_length() - 1) // width  # the highest nonzero field, counted from the bottom
    e = key >> width * j
    return len(table._names) - 1 - j, e, key - (e << width * j)


def _pairs(table: VariableTable, width: int, key: int) -> list[tuple[int, int]]:
    """The ``(index, exponent)`` pairs of the nonzero generator fields of
    ``key``, in increasing index; the degree field is not read."""
    out, key = [], key & ((1 << _shift(table, width, -1)) - 1)
    while key:
        i, e, key = _lead(table, width, key)
        out.append((i, e))
    return out


def _relaid(table: VariableTable, terms: dict[int, _Coeff], old: int, new: int) -> dict[int, _Coeff]:
    """``terms`` keyed at ``old`` bits a field, keyed at ``new`` bits instead."""
    if old == new:
        return terms
    top, degree, out = _shift(table, old, -1), _shift(table, new, -1), {}
    low = (1 << top) - 1
    for key, c in terms.items():
        rest, moved = key & low, key >> top << degree
        while rest:  # the highest nonzero field first, as _lead finds it
            j = (rest.bit_length() - 1) // old
            e = rest >> old * j
            rest -= e << old * j
            moved += e << new * j
        out[moved] = c
    return out


class Monomial(tuple):
    """A tuple of ``(index, exponent)`` pairs sorted by variable-table index.

    Each index occurs at most once and zero exponents are never stored, so
    two equal monomials always have identical representations.  Hashing and
    equality are the tuple's own, so a monomial compares equal to the plain
    tuple of its pairs.  It is how a term is named to and by
    :class:`Polynomial`, which stores it as an int key.
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

    def __repr__(self) -> str:
        if not self:
            return "Monomial(1)"
        body = " ".join(f"#{i}^{e}" for i, e in self)
        return f"Monomial({body})"


class Polynomial:
    """Sparse polynomial over a :class:`VariableTable` with exact coefficients:
    ``int`` when integral, :class:`fractions.Fraction` otherwise.

    Canonical form: no zero coefficients are stored and the keys are laid
    out at the width of the degree, so ``==`` is exact mathematical equality.
    Supports ``+ - * **`` with other polynomials over the same table and
    with exact scalars (int, Fraction).
    """

    __slots__ = ("table", "_terms", "_width")

    def __init__(self, table: VariableTable, terms: Mapping[Monomial, object] | None = None):
        cleaned: list[tuple[Monomial, _Coeff]] = []
        n, degrees = len(table), table.degrees
        for mon, coeff in (terms or {}).items():
            if not isinstance(mon, Monomial):
                raise TypeError("term keys must be Monomial instances")
            if mon and mon[-1][0] >= n:
                raise ValueError("monomial references a generator outside the table")
            c = _as_coeff(coeff)
            if c:
                cleaned.append((mon, c))
        width = _width(max((sum(e * degrees[i] for i, e in mon) for mon, _ in cleaned), default=0))
        self.table, self._terms, self._width = table, {_key(table, width, mon): c for mon, c in cleaned}, width

    @classmethod
    def _raw(cls, table: VariableTable, terms: dict[int, _Coeff], width: int) -> Polynomial:
        """Wrap an already-canonical term dict, keyed at ``width``, without re-validating it."""
        p = object.__new__(cls)
        p.table, p._terms, p._width = table, terms, width
        return p

    @classmethod
    def _fit(cls, table: VariableTable, terms: dict[int, _Coeff], width: int) -> Polynomial:
        """Wrap a zero-free term dict keyed at ``width``, at least the width of
        its degree; its keys are laid out again if that width is narrower."""
        fit = _width(max(terms, default=0) >> _shift(table, width, -1))
        return cls._raw(table, _relaid(table, terms, width, fit), fit)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def constant_term(self) -> _Coeff:
        return self._terms.get(0, 0)

    def degree(self) -> int:
        """Largest weighted total degree of a term; -1 for the zero polynomial."""
        return max(self._terms) >> _shift(self.table, self._width, -1) if self._terms else -1

    def _monomial(self, key: int) -> Monomial:
        """The monomial that ``key`` stands for in this polynomial."""
        return Monomial._raw(_pairs(self.table, self._width, key))

    def variables(self) -> tuple[str, ...]:
        """Names of the generators that actually occur, in table order."""
        seen = 0
        for key in self._terms:
            seen |= key
        return tuple(self.table.names[i] for i, _ in _pairs(self.table, self._width, seen))

    def sorted_terms(self) -> list[tuple[Monomial, _Coeff]]:
        """Terms in decreasing graded-lex order (the canonical print order)."""
        terms = self._terms
        return [(self._monomial(key), terms[key]) for key in sorted(terms, reverse=True)]

    def is_homogeneous_of_degree(self, degree: int) -> bool:
        """True if every term has the given degree (vacuously true for zero)."""
        shift = _shift(self.table, self._width, -1)
        return all(key >> shift == degree for key in self._terms)

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

    def _plus(self, other: Polynomial, sign: int) -> Polynomial:
        width = max(self._width, other._width)
        terms = _accumulate(dict(_relaid(self.table, self._terms, self._width, width)),
                            _relaid(self.table, other._terms, other._width, width).items(), sign)
        return Polynomial._fit(self.table, terms, width)

    def __add__(self, other) -> Polynomial:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._plus(rhs, 1)

    __radd__ = __add__

    def __sub__(self, other) -> Polynomial:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._plus(rhs, -1)

    def __rsub__(self, other) -> Polynomial:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __neg__(self) -> Polynomial:
        return Polynomial._raw(self.table, {k: -c for k, c in self._terms.items()}, self._width)

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
        """Product, by ``_product`` at the width of top = min(deg a + deg b, cutoff)."""
        table, da, db = self.table, self.degree(), other.degree()
        if da < 0 or db < 0:
            return table.zero()
        if cutoff is not None and max(da, db) > cutoff:
            return self.truncate(cutoff)._mul(other.truncate(cutoff), cutoff)
        top = da + db if cutoff is None else min(da + db, cutoff)
        width = _width(top)
        terms = _product(_shift(table, width, -1), _relaid(table, self._terms, self._width, width),
                         _relaid(table, other._terms, other._width, width), top)
        return Polynomial._fit(table, terms, width)

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
        return Polynomial._fit(self.table, *_power(base, exponent, cutoff))

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
        if self._terms.keys() <= {0}:
            return hash(self.constant_term())  # it equals that number, so hash alike
        return hash((self.table, frozenset(self._terms.items())))

    # -- grading -----------------------------------------------------------

    def truncate(self, cutoff: int) -> Polynomial:
        """Drop every term of weighted degree above ``cutoff``."""
        if not isinstance(cutoff, int) or isinstance(cutoff, bool):
            raise TypeError("cutoff must be an integer")
        if self.degree() <= cutoff:
            return self
        limit = (cutoff + 1) << _shift(self.table, self._width, -1)
        return Polynomial._fit(self.table, {k: c for k, c in self._terms.items() if k < limit}, self._width)

    def homogeneous_component(self, degree: int) -> Polynomial:
        shift = _shift(self.table, self._width, -1)
        return Polynomial._fit(self.table, {k: c for k, c in self._terms.items() if k >> shift == degree}, self._width)

    # -- substitution ------------------------------------------------------

    def substitute(self, images: Mapping[str, Polynomial]) -> Polynomial:
        """Apply the endomorphism of this polynomial's table that sends each
        generator named in ``images`` to its image and fixes every other one.

        Every image, used or not, must be a polynomial of this table,
        homogeneous of the degree of the generator it replaces, so grading
        is preserved.  Evaluated by ``_horner``, one moved generator at a
        time in table order; a generator sent to itself stays in the keys
        and is never split on.
        """
        table = self.table
        for name, img in images.items():
            if name not in table:
                raise UnboundVariableError(f"{name!r} is not a generator of this table")
            if not isinstance(img, Polynomial):
                raise TypeError("substitution images must be polynomials")
            self._check_table(img)
            want = table.degree_of(name)
            if not img.is_homogeneous_of_degree(want):
                raise GradingError(f"image of {name!r} must be homogeneous of degree {want}")
        moved = [table.index(name) for name in self.variables() if name in images and images[name] != table.var(name)]
        powers = {i: [table.one()] for i in moved}

        def power(i: int, e: int) -> Polynomial:
            cache = powers[i]
            while len(cache) <= e:
                cache.append(cache[-1] * images[table.names[i]])
            return cache[e]

        return _horner(table, self._width, self._terms, moved, power, 0)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Canonical text: decreasing graded-lex terms, reduced fractions,
        ``^`` for powers, multiplication by juxtaposition."""
        return _render_terms(self, str, str, lambda base, e: f"{base}^{e}")

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Polynomial({self.render()})"


def _product(shift: int, a: dict[int, _Coeff], b: dict[int, _Coeff], top: int) -> dict[int, _Coeff]:
    """``a`` times ``b`` through degree ``top``, keyed at one width that holds
    it, the degree field at ``shift``: a product of terms adds their keys.  One
    comparison skips each group of ``b``'s terms, by degree, past the top."""
    groups: dict[int, list] = {}
    for kb, cb in b.items():
        groups.setdefault(kb >> shift, []).append((kb, cb))
    terms: dict[int, _Coeff] = {}
    get = terms.get
    for ka, ca in a.items():
        room = top - (ka >> shift)
        for degree, group in groups.items():
            if degree <= room:
                for kb, cb in group:
                    kb += ka
                    terms[kb] = get(kb, 0) + ca * cb
    return {key: c if c.__class__ is int else _as_coeff(c) for key, c in terms.items() if c}


def _power(base: Polynomial, exponent: int, cutoff: int | None) -> tuple[dict[int, _Coeff], int]:
    """``Polynomial.pow`` of ``base``, keyed at any width and none above
    ``cutoff``: the terms and their width, at least the base's, not fitted."""
    if cutoff is not None and base.constant_term():
        return _series_power(base, exponent, cutoff)
    table, high = base.table, max(base.degree(), 0)
    low = min(base._terms, default=0) >> _shift(table, base._width, -1)
    top = exponent * high if cutoff is None else min(cutoff, exponent * high)
    if exponent * low > top:
        return {}, base._width
    width = max(base._width, _width(top))
    terms, shift = _relaid(table, base._terms, base._width, width), _shift(table, width, -1)
    result, n = {0: 1}, exponent
    while n:
        if n & 1:
            result = _product(shift, result, terms, top)
            _refuse_unprintable(result.values())
        n >>= 1
        if n:
            terms = _product(shift, terms, terms, top)
            _refuse_unprintable(terms.values())
    return result, width


def _accumulate(out: dict[int, _Coeff], items: Iterable, sign: int = 1) -> dict:
    """Add ``sign`` (1 or -1) times each ``(key, coefficient)`` pair into
    ``out`` in place and return it; terms that cancel are deleted, so a
    zero-free ``out`` stays zero-free, and integral sums are stored as ``int``."""
    add = sign > 0
    get = out.get
    for key, c in items:
        s = get(key, 0) + c if add else get(key, 0) - c
        if s:
            out[key] = s if s.__class__ is int else _as_coeff(s)
        elif key in out:
            del out[key]
    return out


def _split(table: VariableTable, width: int, terms: dict[int, _Coeff], idx: int) -> dict[int, dict[int, _Coeff]]:
    """``terms``, keyed at ``width``, grouped by their exponent of generator
    ``idx``, which each key loses together with its share of the degree."""
    shift, mask = _shift(table, width, idx), (1 << width) - 1
    unit = (1 << shift) + (table.degrees[idx] << _shift(table, width, -1))
    buckets: dict[int, dict[int, _Coeff]] = {}
    for key, coeff in terms.items():
        e = key >> shift & mask
        buckets.setdefault(e, {})[key - e * unit] = coeff
    return buckets


def _horner(table: VariableTable, width: int, terms: dict[int, _Coeff], moved: list[int],
            power: Callable[[int, int], Polynomial], level: int) -> Polynomial:
    """``terms``, keyed at ``width``, with generators ``moved[level:]`` sent to
    their images, ``power(i, e)`` being image i to the e: split by the
    exponent of ``moved[level]`` and folded from the top exponent k down,
    acc = acc * img^(prev - k) + inner(k), then acc * img^(k_min), so every
    product is the accumulator times a cached power of one image.  A module
    function, so a call leaves no reference cycle for the collector."""
    if level == len(moved):
        return Polynomial._fit(table, terms, width)
    i = moved[level]
    buckets = _split(table, width, terms, i)
    exps = sorted(buckets, reverse=True)
    acc = _horner(table, width, buckets[exps[0]], moved, power, level + 1)
    for prev, k in zip(exps, exps[1:]):
        acc = acc._mul(power(i, prev - k), None) + _horner(table, width, buckets[k], moved, power, level + 1)
    return acc._mul(power(i, exps[-1]), None) if exps[-1] else acc


def _integral(p: Polynomial) -> tuple[Polynomial, int]:
    """(D p, D), D the least common denominator of the coefficients of ``p``,
    so D p has ``int`` coefficients; (p, 1) when ``p`` has them already."""
    d = math.lcm(*(c.denominator for c in p._terms.values() if c.__class__ is not int))
    if d == 1:
        return p, 1
    terms = {k: c.numerator * (d // c.denominator) for k, c in p._terms.items()}
    return Polynomial._raw(p.table, terms, p._width), d


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
        if not mon or mag != 1:
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
    table, width = p.table, p._width
    pos = neg = None
    if len(factor._terms) != 2:
        raise ValueError("factor must be a difference of two generators")
    for key, coeff in factor._terms.items():
        mon = factor._monomial(key)
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

    # on the keys of p, which every partial result fits: times a^e or b adds a key
    a, b = pos, neg
    buckets = _split(table, width, p._terms, a)
    a_key, b_key = _key(table, width, ((a, 1),)), _key(table, width, ((b, 1),))
    carry: dict[int, _Coeff] = {}
    quotient: dict[int, _Coeff] = {}
    for k in range(max(buckets, default=0), 0, -1):
        cur = _accumulate(buckets.pop(k, {}), carry.items())
        for key, c in cur.items():
            quotient[key + (k - 1) * a_key] = c
        carry = {key + b_key: c for key, c in cur.items()}
    if _accumulate(buckets.get(0, {}), carry.items()):
        raise NotDivisibleError(
            f"{table.names[a]} - {table.names[b]} does not divide the given polynomial"
        )
    return Polynomial._fit(table, quotient, width)


def series_inverse(p: Polynomial, cutoff: int) -> Polynomial:
    """Multiplicative inverse of ``p`` as a series, truncated at ``cutoff``.

    The constant term must be a nonzero rational.  The result ``s`` satisfies
    ``(p * s).truncate(cutoff) == 1``; it is ``_series_power`` at n = -1.
    """
    if not isinstance(cutoff, int) or isinstance(cutoff, bool) or cutoff < 0:
        raise ValueError("cutoff must be a non-negative integer")
    if not p.constant_term():
        raise NotInvertibleError("cannot invert a series with zero constant term")
    return Polynomial._fit(p.table, *_series_power(p, -1, cutoff))


def _series_power(p: Polynomial, n: int, cutoff: int) -> tuple[dict[int, _Coeff], int]:
    """``p^n`` truncated at ``cutoff >= 0`` for an integer n >= -1 and a
    constant term c0 != 0, by J. C. P. Miller's recurrence (Knuth, TAOCP
    vol. 2, sec. 4.7): d c0 P_d = sum_(1 <= i <= d) ((n + 1) i - d) p_i P_(d-i).
    Returns the terms and their width, at least that of ``p``, not fitted.

    It runs in integers on t_d = M^d P_d / c0^n, t_0 = 1, M = L c0 with L the
    least common denominator of ``p``: d t_d = sum_i (d - (n + 1) i)
    (-L p_i M^(i-1)) t_(d-i), divided by d exactly; at n = -1 the weight d
    cancels and nothing is divided.  Each product adds the keys of ``p``,
    laid out at the width of the top degree built, and each t_d is scaled by
    c0^n / M^d once, as soon as it is built.  UsageError is raised at c0^n
    by its size (n clamped to 10^300) and at the first degree Python cannot
    print (``_refuse_unprintable``); it stops at degree n deg p for n >= 0,
    at 0 for a constant p.
    """
    table, c0 = p.table, p.constant_term()
    _refuse_unprintable(log10=min(n, 10**300) * math.log10(max(abs(c0.numerator), c0.denominator)))
    num, den = (c0.numerator ** n, c0.denominator ** n) if n >= 0 else (c0.denominator, c0.numerator)
    p, _ = _integral(p.truncate(cutoff))
    top = p.degree()
    last = cutoff if n == -1 and top else min(cutoff, n * top)  # deg p^n <= n deg p
    width = max(p._width, _width(last))
    shift = _shift(table, width, -1)
    m = p.constant_term()  # M = L c0, the constant term of L p
    parts: dict[int, list[tuple[int, int]]] = {}  # i -> the terms of -L p_i M^(i-1)
    for key, c in _relaid(table, p._terms, p._width, width).items():
        if key:
            i = key >> shift
            parts.setdefault(i, []).append((key, -c * m ** (i - 1)))
    series: list[dict[int, int]] = []  # t_0, t_1, ...
    packed: dict[int, _Coeff] = {}
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
    return packed, width
