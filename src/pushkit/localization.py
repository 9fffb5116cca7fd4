"""Torus fixed-point data and the localization pushforward for a
projective-space fiber of rank r (fiber dimension r - 1).

The fiber ring has generators x and y (opposite first Chern classes of the
tautological line and its dual), the quotient-bundle classes q1..q(r-1), the
base Chern classes c1..cr, and the Chern roots u1..ur.  The torus action on
the fiber has r isolated fixed points; at the j-th one, y restricts to u_j
and the normal bundle has equivariant Euler class prod_{i != j} (u_i - u_j).
``_fixed_points`` builds that data at any root values: the symbolic charts
at the roots, and ``fixed_point_sample``'s integer table at one point.

The sum over fixed points of (restriction / Euler class) has a closed form
over the Segre series (``_segre_sum``, from ``_segre_table``); ``_fold``
gets it from the ring presentation, by Horner's descent or, when two or
more powers of x have one term each, by one power's division summed against
them, which carries no term's series down.  Both run on one read of the
class, on its own int keys, as sum_k a_k x^k, y = -x, each q_i in x by the
Whitney relation (``_read_in_x``), and key their sums as the answer.
``localize`` reads ``_closed_form`` in the roots (c_i -> e_i(u));
``fixed_point_sample`` checks an answer against the sum itself at one
integer point, from one integer table (``_sample_point``).  No check reads
the Segre table.  Every cache here is an ``lru_cache`` keyed by the rank
alone, keeping ``_CACHED_RANKS`` ranks; what also depends on the key width
is a dict by width in the rank's entry, grown only by its one reader: the
Segre series by ``_segre_sum``, the c/u-monomial values and fiber weights
by ``fixed_point_sample``.
``_valid_through`` holds the one cutoff rule (every evaluator lowers degree
by r - 1) and the shared guards.  The symbolic charts, ``_vandermonde`` and
``_cofactors`` are references only: the test suite's literal sum and chart
relation, the demo and the benchmark tracer build on them, and no
``pushkit`` command does.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from types import MappingProxyType

from .errors import ArityError, SymmetryError
from .polyring import Polynomial, VariableTable, _Value, _shift
from .symfun import is_symmetric
from .symfun import _chern_to_roots, root_generators

__all__ = [
    "bundle_ring",
    "FixedPointChart",
    "LocalizationResult",
    "fixed_point_charts",
    "fixed_point_sample",
    "localize",
]


_CACHED_RANKS = 32  # ranks each per-rank cache keeps; tests use ranks 1..32


@lru_cache(maxsize=_CACHED_RANKS)
def bundle_ring(rank: int) -> VariableTable:
    """The working ring for a rank-``rank`` projective bundle.

    Generators, with complex degrees: x, y (degree 1), q1..q(rank-1)
    (degree i), c1..c(rank) (degree i), u1..u(rank) (degree 1).
    """
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise ValueError("rank must be a positive integer")
    entries: list[tuple[str, int]] = [("x", 1), ("y", 1)]
    entries += [(f"q{i}", i) for i in range(1, rank)]
    entries += [(f"c{i}", i) for i in range(1, rank + 1)]
    entries += [(f"u{i}", 1) for i in range(1, rank + 1)]
    return VariableTable(entries)


class FixedPointChart(_Value):
    """Per-fixed-point substitution data.

    ``restriction`` maps every generator to its value at the fixed point
    p_index (a read-only view, since charts are cached per rank); ``euler``
    is the equivariant Euler class of the normal bundle.
    """

    __slots__ = ("index", "restriction", "euler")

    def __init__(self, index: int, restriction: dict, euler: Polynomial) -> None:
        _Value.__init__(self, index, MappingProxyType(dict(restriction)), euler)

    def __hash__(self) -> int:
        return hash((self.index, frozenset(self.restriction.items()), self.euler))

    def __reduce__(self) -> tuple:  # a mappingproxy neither pickles nor copies
        return type(self), (self.index, dict(self.restriction), self.euler)


def _fixed_points(a: tuple, one) -> list[tuple[dict, object]]:
    """Per fixed point j, the image of every generator and the Euler class,
    at root values ``a`` = a_1..a_r: Python ints or ``Polynomial``s, with
    ``one`` their unit.  x -> -a_j, y -> a_j, q_i -> e_i(a without a_j),
    c_i -> e_i(a), u_i -> a_i; the Euler class is prod_(i != j) (a_i - a_j).
    """
    total = [one]  # e_0(a)..e_r(a), the coefficients of prod (1 + a_i z)
    for ai in a:
        total = [one] + [total[i] + ai * total[i - 1] for i in range(1, len(total))] + [ai * total[-1]]
    points = []
    for j, aj in enumerate(a):
        images = {"x": -aj, "y": aj}
        q = one  # e_i(a without a_j) = e_i(a) - a_j e_(i-1)(a without a_j)
        for i in range(1, len(a)):
            q = total[i] - aj * q
            images[f"q{i}"] = q
        images.update((f"c{i}", total[i]) for i in range(1, len(a) + 1))
        images.update((f"u{i}", ai) for i, ai in enumerate(a, 1))
        points.append((images, math.prod((ai - aj for i, ai in enumerate(a) if i != j), start=one)))
    return points


@lru_cache(maxsize=_CACHED_RANKS)
def _charts(rank: int) -> tuple[FixedPointChart, ...]:
    table = bundle_ring(rank)
    return tuple(
        FixedPointChart(j, images, euler)
        for j, (images, euler) in enumerate(_fixed_points(root_generators(table), table.one()), 1)
    )


def fixed_point_charts(rank: int) -> list[FixedPointChart]:
    """The ``rank`` fixed-point charts, indexed 1..rank."""
    return list(_charts(rank))


@lru_cache(maxsize=_CACHED_RANKS)
def _vandermonde(rank: int) -> tuple[tuple[str, str], ...]:
    """The linear factors (u_a, u_b), a < b, of prod_{a<b} (u_a - u_b).

    No evaluator here divides by them: with ``_cofactors`` they build the
    test suite's literal fixed-point sum, and the benchmark tracer counts
    both as set-up caches by name."""
    return tuple((f"u{a}", f"u{b}") for a in range(1, rank + 1) for b in range(a + 1, rank + 1))


@lru_cache(maxsize=_CACHED_RANKS)
def _cofactors(rank: int) -> tuple[Polynomial, ...]:
    """Per chart j, the Vandermonde divided by that chart's Euler class.

    That is (-1)^(rank - j) times the product of the Vandermonde factors not
    involving u_j: the Euler class lists each factor u_j - u_b (b > j) as
    u_b - u_j, and there are rank - j of them.  Kept for the test suite's
    literal sum and the benchmark tracer, like ``_vandermonde``.
    """
    table = bundle_ring(rank)
    out = []
    for j in range(1, rank + 1):
        factors = (table.var(a) - table.var(b) for a, b in _vandermonde(rank) if f"u{j}" not in (a, b))
        cof = math.prod(factors, start=table.one())
        out.append(-cof if (rank - j) % 2 else cof)
    return tuple(out)


class LocalizationResult(_Value):
    """The fixed-point sum, with the degree bound through which it is exact.

    ``valid_through`` is None when the input was an exact polynomial rather
    than a truncated series.
    """

    __slots__ = ("value", "valid_through")


def _read_in_x(payload: Polynomial) -> dict[int, dict[int, int]]:
    """``payload`` as sum_k a_k x^k with y = -x, in one pass over its keys:
    a term c x^a y^b q^beta m adds (-1)^b c times q^beta, written in x by the
    Whitney relation (1 + y)(1 + q1 + ... + q(r-1)) = c(V), to the a_k with
    k >= a + b.  Returns the buckets: bucket k >= r - 1 is D a_k, D the
    ``_den`` of ``payload``, in ints on its keys (``payload._width`` bits a
    field) with x, y and the q_i cleared and the degree lowered by r - 1, as
    f_* lowers it, so each evaluator's sum is keyed as its answer; lower
    buckets push forward to 0.  With y = -x, q_i =
    sum_(m <= i) x^m c_(i-m), c_0 = 1, each distinct q^beta expanded once.
    """
    table, width = payload.table, payload._width
    first = table.index("c1")
    rank, x, y = first - 1, _shift(table, width, 0), _shift(table, width, 1)
    low = 1 << _shift(table, width, first - 1)  # the fields of c1.. and the roots lie below
    qs, mask = (1 << y) - low, (1 << width) - 1  # the fields of the q_i; one field
    images: dict[int, dict[int, int]] = {0: {0: 1}}  # q^beta by its q fields, one lookup a term

    def expand(beta: int) -> dict[int, int]:
        """q^beta from q^beta with one power less of its first q_i, every one kept."""
        chain = []
        while beta not in images:
            j = (beta.bit_length() - 1) // width  # the first q_i's field, from the bottom
            chain.append((beta, len(table.names) - 2 - j))  # and its i
            beta -= 1 << width * j
        image = images[beta]
        for beta, j in reversed(chain):  # times q_j = x^j + sum_(m < j) x^m c_(j-m)
            q = [j << x] + [(m << x) + (1 << _shift(table, width, first + j - m - 1)) for m in range(j)]
            out: dict[int, int] = {}
            for a, c in image.items():
                for b in q:
                    b += a
                    out[b] = out.get(b, 0) + c
            image = images[beta] = out
        return image

    total: dict[int, int] = {}
    for key, c in payload._terms.items():
        b = key >> y & mask  # y^b, read as (-x)^b
        key += (b << x) - (b << y)
        c = -c if b & 1 else c
        beta = key & qs
        if beta:
            for kq, cq in (images.get(beta) or expand(beta)).items():
                kq += key - beta
                total[kq] = total.get(kq, 0) + c * cq
        else:
            total[key] = total.get(key, 0) + c
    buckets, drop = {}, (rank - 1) << _shift(table, width, -1)
    for key, c in total.items():
        k = key >> x & mask
        if c and k >= rank - 1:
            buckets.setdefault(k, {})[key - (k << x) - drop] = c
    return buckets


@lru_cache(maxsize=_CACHED_RANKS)
def _segre_table(rank: int) -> dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """The Segre series s_0, s_1, ... of rank ``rank`` by key width, each s_m
    as its keys in c1..cr at that width, with no degree field, and its
    coefficients, in two tuples (no tuple per term), as far as a read has
    needed it.  Only ``_segre_sum`` grows and reads it: neither check does."""
    return {}


def _segre_sum(buckets: dict[int, dict[int, int]], rank: int, width: int) -> dict[int, int]:
    """The closed form on a ``_read_in_x`` read, sum_k a_k s_(k-r+1) in
    integers on its keys, zeros dropped: at the fixed points, sum_j u_j^k /
    prod_(i != j) (u_i - u_j) = (-1)^(r-1) h_(k-r+1)(u) (Lagrange
    interpolation), so f_*(x^k) = s_(k-r+1), s = 1/c(V) the Segre series
    (Fulton, *Intersection Theory*, Prop. 3.1(a)).  The s_m come from the
    rank's ``_segre_table`` at the read's width, each missing one up to the
    top bucket's appended as s_m = -sum_(1 <= i <= min(m, r)) c_i s_(m-i);
    only the buckets present are summed, in increasing k."""
    series, top = _segre_table(rank).setdefault(width, [((0,), (1,))]), max(buckets, default=0) - rank + 1
    if len(series) <= top:
        steps = [1 << _shift(bundle_ring(rank), width, rank + i) for i in range(1, rank + 1)]  # times c_i
        for m in range(len(series), top + 1):
            s: dict[int, int] = {}
            for step, below in zip(steps, series[m - 1::-1]):  # c_i s_(m-i), i = 1, 2, ...
                for key, c in zip(*below):
                    key += step
                    s[key] = s.get(key, 0) - c
            series.append((tuple(s), tuple(s.values())))
    total: dict[int, int] = {}
    get = total.get
    for k in sorted(buckets):
        keys, coeffs = series[k - rank + 1]
        for a, ca in buckets[k].items():
            for b, cb in zip(keys, coeffs):
                b += a
                total[b] = get(b, 0) + ca * cb
    return {key: c for key, c in total.items() if c}


def _fold(buckets: dict[int, dict[int, int]], rank: int, width: int) -> dict[int, int]:
    """The ring presentation on a ``_read_in_x`` read (Fulton, *Intersection
    Theory*, sec. 3.2): x^(r-1) maps to 1 and lower powers to 0, so f_* is
    the coefficient of x^(r-1) in sum_k a_k x^k modulo x^r + c1 x^(r-1) +
    ... + cr.  Long division from the top power down gives it as t_(r-1),
    t_k = a_k - sum_(1 <= i <= r) c_i t_(k+i), t_k = 0 above the top; on the
    read's keys a product by c_i adds one int and never carries, the relation
    being homogeneous.  Zeros are dropped, and the read is left as it is.
    With one term in each of two or more buckets (``inv(1-x)``) that descent
    would carry every level it has built down each step; the division being
    linear and shift-invariant, the loop then divides x^top alone, from
    t_top = 1, so level k is T_(top-k) = f_*(x^(top-k+r-1)), and bucket
    top - k + r - 1 adds its one term times that level into the sum."""
    steps = [1 << _shift(bundle_ring(rank), width, rank + i) for i in range(1, rank + 1)]  # times c_i, degree kept
    top, upper, total = max(buckets, default=0), [{}], {}  # upper: t_(k+1), t_(k+2), ...
    walk, get = len(buckets) > 1 and all(len(terms) == 1 for terms in buckets.values()), total.get
    for k in range(top, rank - 2, -1):
        t = ({0: 1} if k == top else {}) if walk else dict(buckets.get(k, ()))
        for step, above in zip(steps, upper):
            for key, c in above.items():
                key += step
                t[key] = t.get(key, 0) - c
        upper = [t, *upper[: rank - 1]]
        for a, ca in buckets.get(top - k + rank - 1, {}).items() if walk else ():
            for key, c in t.items():
                key += a
                total[key] = get(key, 0) + ca * c
    return {key: c for key, c in (total if walk else upper[0]).items() if c}


def _result(payload: Polynomial, packed: dict[int, int]) -> Polynomial:
    """The polynomial that a sum on the keys of ``_read_in_x(payload)`` stands
    for, over the denominator of ``payload``, reduced by one gcd over the sum."""
    return Polynomial._fit(payload.table, packed, payload._width, payload._den)


def _closed_form(payload: Polynomial, rank: int) -> Polynomial:
    """The fixed-point sum in c1..cr (and the roots) by ``_segre_sum`` on one read."""
    return _result(payload, _segre_sum(_read_in_x(payload), rank, payload._width))


def _valid_through(phi: Polynomial, rank: int, cutoff: int | None) -> int | None:
    """The pushforward lowers degree by the fiber dimension r - 1, so ``phi``
    known through ``cutoff`` pushes forward exactly through the returned
    ``cutoff - (rank - 1)``; None without a cutoff.  ``phi`` must live in
    ``bundle_ring(rank)``, and a cutoff be at least r - 1 and truncate ``phi``."""
    table = bundle_ring(rank)
    if phi.table is not table and phi.table != table:
        raise ArityError(f"expression does not live in the rank-{rank} working ring")
    if cutoff is None:
        return None
    if not isinstance(cutoff, int) or isinstance(cutoff, bool) or cutoff < 0:
        raise ValueError("cutoff must be a non-negative integer or None")
    if cutoff < rank - 1:
        raise ValueError(f"cutoff must be at least rank - 1 = {rank - 1}, the fiber dimension")
    if phi.degree() > cutoff:
        raise ValueError("series input must be pre-truncated at the cutoff")
    return cutoff - (rank - 1)


_SAMPLE_BITS = 40  # sample coordinates lie in S = {1, ..., 2^40 - 1}


@lru_cache(maxsize=_CACHED_RANKS)
def _sample_point(rank: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], int, tuple[int, ...], dict]:
    """``fixed_point_sample``'s table (a, columns, V, cofactors, memos): a is
    ``rank`` distinct integers in S, the same at every call, the top 40 bits
    of successive splitmix64 outputs seeded with the rank (Steele, Lea and
    Flood, OOPSLA 2014), skipping 0 and repeats; ``columns[j]`` is the image
    of key field j (from the bottom: u_r is 0, c1 2r - 1, x 3r) at each fixed
    point, by ``_fixed_points`` at a; V = prod_(i < k) (a_i - a_k), and per
    fixed point j the exact cofactor V / prod_(i != j) (a_i - a_j); all four
    read-only.  ``memos`` maps a key width to the check's (values, weights)
    at it: the value at a of the c and u fields of a key (a single field is a
    power of one image), and one int W(f) = sum_j cofactor_j f|_j per fiber
    monomial f, kept as long as this table."""
    mask = (1 << 64) - 1
    state, point = rank, []
    while len(point) < rank:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        a = (z ^ (z >> 31)) >> (64 - _SAMPLE_BITS)
        if a and a not in point:
            point.append(a)
    point = tuple(point)
    charts = _fixed_points(point, 1)
    columns = tuple(tuple(images[name] for images, _ in charts) for name in reversed(bundle_ring(rank).names))
    vandermonde = math.prod(ai - ak for ai, ak in itertools.combinations(point, 2))
    return point, columns, vandermonde, tuple(vandermonde // euler for _, euler in charts), {}


# The sample check's recursion is a module function: a nested function that
# calls itself is a reference cycle, which only the garbage collector frees.
def _sample_value(base: int, values: dict[int, int], columns: tuple, width: int, chart: int = 0) -> int:
    """The fields ``base`` of a key at fixed point ``chart`` of the sample
    point, the top one times the rest; the c and u fields restrict alike at
    every fixed point."""
    j = (base.bit_length() - 1) // width
    e = base >> width * j
    field = e << width * j
    rest = base - field
    power = values.get(field) or values.setdefault(field, columns[j][chart] ** e)
    found = values[base] = power * (values.get(rest) or _sample_value(rest, values, columns, width, chart))
    return found


def _weigh(fibers: list[int], columns: tuple, cofactors: tuple, width: int) -> list[int]:
    """W(f) = sum_j cofactor_j f|_j for each fiber monomial f of ``fibers``,
    fixed point by fixed point: f|_j, the small product of f's field images
    at fixed point j, is read by ``_sample_value`` from that point's images,
    each suffix and field power built once and dropped with the point, so
    each cofactor is multiplied once per f."""
    weights = [0] * len(fibers)
    for chart, cofactor in enumerate(cofactors):
        images = {0: 1}
        weights = [w + cofactor * (images.get(f) or _sample_value(f, images, columns, width, chart))
                   for w, f in zip(weights, fibers)]
    return weights


def fixed_point_sample(phi: Polynomial, rank: int, chern_form: Polynomial) -> bool:
    """Check ``chern_form`` against the fixed-point sum of ``phi`` at one point.

    Put u_i = a_i t, with a from ``_sample_point(rank)``.  At fixed point j each
    generator restricts to an integer times t^degree, as the charts do at the
    roots, from ``_fixed_points`` at a: q_i -> e_i(a without a_j), c_i -> e_i(a).
    So phi restricts to one number per degree D.  Divided by the Euler class
    prod_(i != j) (a_i - a_j) and summed over j, it is the degree D - (r - 1)
    part of the pushforward at c_i = e_i(a), exactly.  True when every such
    sum equals ``chern_form`` at c_i = e_i(a), and the degrees below r - 1
    sum to 0.  Both sides are scaled by the Vandermonde
    V = prod_(i < k) (a_i - a_k), so chart j weighs its numbers by the exact
    integer cofactor V / prod_(i != j) (a_i - a_j), and nothing is divided;
    the images by key field, V and the cofactors are ``_sample_point``'s.
    The c_i and u_i restrict alike at every fixed point, so the terms are
    summed by degree and fiber monomial f (the x, y and q_i fields of a key)
    and each f is weighed by W(f) = sum_j cofactor_j f|_j, f|_j the small
    product of its fields' images at fixed point j: ``_weigh`` takes the f
    not yet weighed at the key width together, fixed point by fixed point.
    The value of each c/u-monomial and W(f) of each f are kept by key width
    in the ``_sample_point`` table's memos, as long as that table lives, and
    nothing else outlives the call.  Each side is read on its numerators and
    scaled by its ``_den``; nothing is shared with ``_closed_form``: no
    Whitney map, no Segre series.

    A wrong ``chern_form`` passes only where its error Delta_d in some degree
    d vanishes at c_i = e_i(a).  Delta_d(e(u)) is a nonzero polynomial of
    degree d in the roots (c -> e(u) is injective), so at a point drawn
    uniformly from S^r that has probability at most d / |S|, |S| = 2^40 - 1
    (Schwartz, J. ACM 27, 1980; Zippel, EUROSAM 1979).  The point is fixed
    per rank, so the bound holds over that seeded choice, not against an
    input built to vanish there.  ``phi`` and ``chern_form`` must live in
    ``bundle_ring(rank)``; ``ArityError`` otherwise.  Any generator of
    ``chern_form`` but c1..cr, a root u_i included, makes it return False.
    """
    _valid_through(phi, rank, None)
    _valid_through(chern_form, rank, None)
    _, columns, vandermonde, cofactors, memos = _sample_point(rank)

    def at_point(p: Polynomial, high: int, values: dict) -> dict:  # by key less its fields c1.. above bit high, at a
        mask, out = (1 << 2 * rank * width) - high, {}
        for key, c in p._terms.items():
            base = key & mask
            value = values.get(base) or _sample_value(base, values, columns, width)
            out[key - base] = out.get(key - base, 0) + c * value
        return out

    width = chern_form._width  # of the polynomial the helpers read
    (values, _), top, expected = memos.setdefault(width, ({0: 1}, {})), _shift(chern_form.table, width, -1), {}
    for key, c in at_point(chern_form, 1 << rank * width, values).items():  # u_i kept
        if key & ((1 << top) - 1):
            return False  # a pushforward lives in c1..cr
        expected[(key >> top) + rank - 1] = c
    width = phi._width
    (values, weights), top, sums = memos.setdefault(width, ({0: 1}, {})), _shift(phi.table, width, -1), {}
    terms, fiber = at_point(phi, 1, values), (1 << top) - 1  # the fiber fields of a key
    new = list(set(map(fiber.__and__, terms)).difference(weights))
    if new:
        weights.update(zip(new, _weigh(new, columns, cofactors, width)))
    for key, c in terms.items():
        degree = key >> top
        sums[degree] = sums.get(degree, 0) + c * weights[key & fiber]
    scale = phi._den * vandermonde
    return all(chern_form._den * sums.get(d, 0) == scale * expected.get(d, 0) for d in sums.keys() | expected)


def localize(phi: Polynomial, rank: int, cutoff: int | None = None) -> LocalizationResult:
    """Sum of restriction/Euler over the fixed points, computed exactly.

    ``phi`` and ``cutoff`` are checked by ``_valid_through``.  The sum is the
    closed form read in the roots: ``_closed_form`` with each c_i sent to
    e_i(u1..ur).  It lowers every degree by exactly r - 1, so a ``phi``
    truncated at ``cutoff`` gives a value that stops at ``valid_through``.
    The value must be invariant under permuting the roots, which is asserted.
    """
    valid_through = _valid_through(phi, rank, cutoff)
    value = _chern_to_roots(_closed_form(phi, rank))
    if not is_symmetric(value):
        raise SymmetryError("localization result is not invariant under permuting the roots")
    return LocalizationResult(value, valid_through)
