"""Exact sparse multivariate polynomial arithmetic over the rationals.

Generators are registered in a :class:`VariableTable` together with a
positive integer degree (complex-degree convention: a class of topological
degree ``2k`` has degree ``k`` here).  Polynomials are sparse maps from
monomials to nonzero rational coefficients, stored as nonzero ``int``
numerators over one ``int`` denominator > 0 with gcd 1 over them all, as
FLINT's ``fmpq_poly`` (Hart, ICMS 2010), so equality is structural and every
kernel runs in ints.  A coefficient read out is an ``int`` when it is
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


def _coefficient(numerator: int, den: int) -> _Coeff:
    """The coefficient ``numerator / den`` in lowest terms, an ``int`` when integral."""
    return numerator if den == 1 else _as_coeff(Fraction(numerator, den))


def _refuse_unprintable(numerators: Iterable[int] = (), log10: float = 0.0, den: int = 1) -> None:
    """Raise UsageError if a coefficient n / ``den`` (n in ``numerators``) in
    lowest terms, or a number of size 10^``log10``, has more digits than
    Python prints (``sys.get_int_max_str_digits()``); never where there is
    no limit.  Only a part longer than the limit in bits is reduced."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int() is 0: no limit
    bits = 3.32 * limit  # 10^limit has more bits, so a shorter int prints
    for n in numerators if limit else ():
        if (n.bit_length() > bits or den.bit_length() > bits) and (
                max(abs(n), den) // math.gcd(n, den) >= 10**limit):
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
        return Polynomial._raw(self, {0: c.numerator} if c else {}, _width(0), c.denominator)

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


def _relaid(table: VariableTable, terms: dict[int, int], old: int, new: int) -> dict[int, int]:
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

    Canonical form: ``_terms`` maps each key to a nonzero ``int`` numerator
    over the one denominator ``_den`` > 0, with gcd 1 over ``_den`` and the
    numerators, and the keys are laid out at the width of the degree, so
    ``==`` is exact mathematical equality.  Supports ``+ - * **`` with other
    polynomials over the same table and with exact scalars (int, Fraction).
    """

    __slots__ = ("table", "_terms", "_width", "_den")

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
        den = math.lcm(*(c.denominator for _, c in cleaned))  # the least, so gcd 1 with the numerators
        self.table, self._width, self._den, self._terms = table, width, den, {
            _key(table, width, mon): c.numerator * (den // c.denominator) for mon, c in cleaned}

    @classmethod
    def _raw(cls, table: VariableTable, terms: dict[int, int], width: int, den: int = 1) -> Polynomial:
        """Wrap already-canonical numerators over ``den``, keyed at ``width``, without re-validating them."""
        p = object.__new__(cls)
        p.table, p._terms, p._width, p._den = table, terms, width, den
        return p

    @classmethod
    def _fit(cls, table: VariableTable, terms: dict[int, int], width: int, den: int = 1) -> Polynomial:
        """Wrap zero-free numerators over ``den`` > 0 keyed at ``width``, at
        least the width of their degree: reduced by their gcd with ``den``,
        and laid out again if that width is narrower."""
        if den != 1 and (g := math.gcd(den, *terms.values())) != 1:
            terms, den = {key: c // g for key, c in terms.items()}, den // g
        fit = _width(max(terms, default=0) >> _shift(table, width, -1))
        return cls._raw(table, _relaid(table, terms, width, fit), fit, den)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def constant_term(self) -> _Coeff:
        return _coefficient(self._terms.get(0, 0), self._den)

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
        terms, den = self._terms, self._den
        return [(self._monomial(key), _coefficient(terms[key], den)) for key in sorted(terms, reverse=True)]

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
        terms, den = _add(dict(_relaid(self.table, self._terms, self._width, width)), self._den,
                          _relaid(self.table, other._terms, other._width, width), other._den, sign)
        return Polynomial._fit(self.table, terms, width, den)

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
        return Polynomial._raw(self.table, {k: -c for k, c in self._terms.items()}, self._width, self._den)

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
        return Polynomial._fit(table, terms, width, self._den * other._den)

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
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = self.table.const(other)
        if isinstance(other, Polynomial):
            if self.table is not other.table and self.table != other.table:
                return False
            return self._terms == other._terms and self._den == other._den
        return NotImplemented

    def __hash__(self) -> int:
        if self._terms.keys() <= {0}:
            return hash(self.constant_term())  # it equals that number, so hash alike
        return hash((self.table, self._den, frozenset(self._terms.items())))

    # -- grading -----------------------------------------------------------

    def truncate(self, cutoff: int) -> Polynomial:
        """Drop every term of weighted degree above ``cutoff``."""
        if not isinstance(cutoff, int) or isinstance(cutoff, bool):
            raise TypeError("cutoff must be an integer")
        if self.degree() <= cutoff:
            return self
        limit = (cutoff + 1) << _shift(self.table, self._width, -1)
        return Polynomial._fit(self.table, {k: c for k, c in self._terms.items() if k < limit}, self._width, self._den)

    def homogeneous_component(self, degree: int) -> Polynomial:
        shift = _shift(self.table, self._width, -1)
        terms = {k: c for k, c in self._terms.items() if k >> shift == degree}
        return Polynomial._fit(self.table, terms, self._width, self._den)

    # -- substitution ------------------------------------------------------

    def substitute(self, images: Mapping[str, Polynomial]) -> Polynomial:
        """Apply the endomorphism of this polynomial's table that sends each
        generator named in ``images`` to its image and fixes every other one.

        Every image, used or not, must be a polynomial of this table,
        homogeneous of the degree of the generator it replaces, so grading
        is preserved.  Evaluated by ``_horner``, one moved generator at a
        time in table order, on the numerators, then divided by ``_den``; a
        generator sent to itself stays in the keys and is never split on.
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

        value = _horner(table, self._width, self._terms, moved, power, 0)
        return value if self._den == 1 else Polynomial._fit(table, value._terms, value._width, value._den * self._den)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Canonical text: decreasing graded-lex terms, reduced fractions,
        ``^`` for powers, multiplication by juxtaposition."""
        return _render_terms(self, str, str, lambda base, e: f"{base}^{e}")

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Polynomial({self.render()})"


def _product(shift: int, a: dict[int, int], b: dict[int, int], top: int) -> dict[int, int]:
    """``a`` times ``b`` through degree ``top``, keyed at one width that holds
    it, the degree field at ``shift``: a product of terms adds their keys.  One
    comparison skips each group of ``b``'s terms, by degree, past the top."""
    groups: dict[int, list] = {}
    for kb, cb in b.items():
        groups.setdefault(kb >> shift, []).append((kb, cb))
    terms: dict[int, int] = {}
    get = terms.get
    for ka, ca in a.items():
        room = top - (ka >> shift)
        for degree, group in groups.items():
            if degree <= room:
                for kb, cb in group:
                    kb += ka
                    terms[kb] = get(kb, 0) + ca * cb
    return {key: c for key, c in terms.items() if c}


def _power(base: Polynomial, exponent: int, cutoff: int | None) -> tuple[dict[int, int], int, int]:
    """``Polynomial.pow`` of ``base``, keyed at any width and none above
    ``cutoff``: the numerators, their width, at least the base's, and their
    denominator, neither fitted nor reduced."""
    if cutoff is not None and 0 in base._terms:
        return _series_power(base, exponent, cutoff)
    table, high = base.table, max(base.degree(), 0)
    low = min(base._terms, default=0) >> _shift(table, base._width, -1)
    top = exponent * high if cutoff is None else min(cutoff, exponent * high)
    if exponent * low > top:
        return {}, base._width, 1
    width = max(base._width, _width(top))
    terms, shift = _relaid(table, base._terms, base._width, width), _shift(table, width, -1)
    result, n, den, step = {0: 1}, exponent, 1, base._den
    while n:
        if n & 1:
            result, den = _product(shift, result, terms, top), den * step
            _refuse_unprintable(result.values(), den=den)
        n >>= 1
        if n:
            terms, step = _product(shift, terms, terms, top), step * step
            _refuse_unprintable(terms.values(), den=step)
    return result, width, den


def _accumulate(out: dict[int, int], items: Iterable, sign: int = 1) -> dict:
    """Add ``sign`` (1 or -1) times each ``(key, numerator)`` pair into
    ``out`` in place and return it; terms that cancel are deleted, so a
    zero-free ``out`` stays zero-free."""
    add = sign > 0
    get = out.get
    for key, c in items:
        s = get(key, 0) + c if add else get(key, 0) - c
        if s:
            out[key] = s
        elif key in out:
            del out[key]
    return out


def _add(out: dict[int, int], den: int, terms: dict[int, int], other: int, sign: int) -> tuple[dict[int, int], int]:
    """``out`` / ``den`` plus ``sign`` times ``terms`` / ``other``, into
    ``out`` in place by ``_accumulate``, over the lcm of the denominators:
    (numerators, lcm), not reduced."""
    lcm = math.lcm(den, other)
    if lcm != den:
        scale = lcm // den
        for key in out:
            out[key] *= scale
    scale = lcm // other
    return _accumulate(out, terms.items() if scale == 1 else ((k, c * scale) for k, c in terms.items()), sign), lcm


def _split(table: VariableTable, width: int, terms: dict[int, int], idx: int) -> dict[int, dict[int, int]]:
    """``terms``, keyed at ``width``, grouped by their exponent of generator
    ``idx``, which each key loses together with its share of the degree."""
    shift, mask = _shift(table, width, idx), (1 << width) - 1
    unit = (1 << shift) + (table.degrees[idx] << _shift(table, width, -1))
    buckets: dict[int, dict[int, int]] = {}
    for key, coeff in terms.items():
        e = key >> shift & mask
        buckets.setdefault(e, {})[key - e * unit] = coeff
    return buckets


def _horner(table: VariableTable, width: int, terms: dict[int, int], moved: list[int],
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
    its ``_den``, so D p is its numerators; (p, 1) when ``p`` has no other."""
    return (p, 1) if p._den == 1 else (Polynomial._raw(p.table, p._terms, p._width), p._den)


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
    names, terms, den = p.table.names, p._terms, p._den
    pieces: list[str] = []
    for k, key in enumerate(sorted(terms, reverse=True)):
        mon, n = p._monomial(key), terms[key]
        neg = n < 0
        mag = _coefficient(-n if neg else n, den)
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
    if len(factor._terms) != 2 or factor._den != 1:
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
    carry: dict[int, int] = {}
    quotient: dict[int, int] = {}
    for k in range(max(buckets, default=0), 0, -1):
        cur = _accumulate(buckets.pop(k, {}), carry.items())
        for key, c in cur.items():
            quotient[key + (k - 1) * a_key] = c
        carry = {key + b_key: c for key, c in cur.items()}
    if _accumulate(buckets.get(0, {}), carry.items()):
        raise NotDivisibleError(
            f"{table.names[a]} - {table.names[b]} does not divide the given polynomial"
        )
    return Polynomial._fit(table, quotient, width, p._den)


def series_inverse(p: Polynomial, cutoff: int) -> Polynomial:
    """Multiplicative inverse of ``p`` as a series, truncated at ``cutoff``.

    The constant term must be a nonzero rational.  The result ``s`` satisfies
    ``(p * s).truncate(cutoff) == 1``; it is ``_series_power`` at n = -1.
    """
    if not isinstance(cutoff, int) or isinstance(cutoff, bool) or cutoff < 0:
        raise ValueError("cutoff must be a non-negative integer")
    if 0 not in p._terms:
        raise NotInvertibleError("cannot invert a series with zero constant term")
    return Polynomial._fit(p.table, *_series_power(p, -1, cutoff))


def _series_power(p: Polynomial, n: int, cutoff: int) -> tuple[dict[int, int], int, int]:
    """``p^n`` truncated at ``cutoff >= 0`` for an integer n >= -1 and a
    constant term c0 != 0, by J. C. P. Miller's recurrence (Knuth, TAOCP
    vol. 2, sec. 4.7): d c0 P_d = sum_(1 <= i <= d) ((n + 1) i - d) p_i P_(d-i).
    Returns the numerators, their width, at least that of ``p``, and their
    denominator, neither fitted nor reduced.

    It runs in integers on t_d = M^d P_d / c0^n, t_0 = 1, M = L c0 with L the
    denominator of ``p``, so L p is its numerators: d t_d = sum_i (d - (n + 1)
    i) (-L p_i M^(i-1)) t_(d-i), divided by d exactly; at n = -1 the weight d
    cancels and nothing is divided.  Each product adds the keys of ``p``,
    laid out at the width of the top degree built, last, and the series is
    returned over one denominator, P_d = c0^n M^(last-d) t_d / M^last.
    UsageError is raised at c0^n by its size (n clamped to 10^300) and at
    the first degree Python cannot print (``_refuse_unprintable``); it stops
    at degree n deg p for n >= 0, at 0 for a constant p.
    """
    table, p = p.table, p.truncate(cutoff)
    m = p._terms[0]  # M = L c0, the constant term of L p
    g = math.gcd(m, p._den)
    a, b = m // g, p._den // g  # c0 = a / b in lowest terms
    _refuse_unprintable(log10=min(n, 10**300) * math.log10(max(abs(a), b)))
    num, den = (a ** n, b ** n) if n >= 0 else (b, a)  # c0^n = num / den
    top = p.degree()
    last = cutoff if n == -1 and top else min(cutoff, n * top)  # deg p^n <= n deg p
    width = max(p._width, _width(last))
    shift = _shift(table, width, -1)
    parts: dict[int, list[tuple[int, int]]] = {}  # i -> the terms of -L p_i M^(i-1)
    for key, c in _relaid(table, p._terms, p._width, width).items():
        if key:
            i = key >> shift
            parts.setdefault(i, []).append((key, -c * m ** (i - 1)))
    series: list[dict[int, int]] = []  # t_0, t_1, ...
    below = den  # den M^d, so P_d = num t_d / below
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
        _refuse_unprintable(t.values() if num == 1 else (num * c for c in t.values()), den=abs(below))
        below *= m
    common = den * m ** last
    if common < 0:
        common, num = -common, -num
    packed: dict[int, int] = {}
    for t in reversed(series):  # c0^n M^(last-d) t_d, over den M^last
        packed.update(t if num == 1 else {key: num * c for key, c in t.items()})
        num *= m
    return packed, width, common
