"""Symmetric-polynomial machinery over the Chern-root generators u1..ur.

Provides the elementary symmetric polynomials, a symmetry test, the
rewriting of a symmetric polynomial into the elementary basis (that is, into
the Chern classes c1..cr), and its inverse.

Every e_k, of ints or polynomials, is read off one expansion of
prod (1 + v t), ``_elementary``.  The symmetry test reads the orbits of
monomials under permuting the roots off the packed keys.  The rewriting is
classical leading-term subtraction (Macdonald, *Symmetric Functions*, I.2),
the only code here that builds a ``Monomial``; nothing in the pushforward
calls it, and the test suite uses it as a reference.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Iterable

from .errors import SymmetryError
from .polyring import Monomial, Polynomial, VariableTable, _Coeff, _coefficient, _shift

__all__ = [
    "root_generators",
    "elementary_symmetric",
    "is_symmetric",
    "reduce_to_elementary",
    "expand_elementary",
]

_ROOT_NAME = re.compile(r"^u([1-9][0-9]*)$")


def _root_indices(table: VariableTable) -> tuple[int, ...]:
    """Table indices of u1..ur in subscript order; the block must be complete."""
    by_sub: dict[int, int] = {}
    for i, name in enumerate(table.names):
        m = _ROOT_NAME.match(name)
        if m:
            by_sub[int(m.group(1))] = i
    r = len(by_sub)
    if sorted(by_sub) != list(range(1, r + 1)):
        raise ValueError("root generators must form a contiguous block u1..ur")
    for sub, idx in by_sub.items():
        if table.degrees[idx] != 1:
            raise ValueError(f"u{sub} must have degree 1")
    return tuple(by_sub[k] for k in range(1, r + 1))


def root_generators(table: VariableTable) -> tuple[Polynomial, ...]:
    """The generators u1..ur of ``table`` as polynomials, in subscript order."""
    return tuple(table.var(table.names[i]) for i in _root_indices(table))


def _elementary(values: Iterable, top: int, one) -> list:
    """e_0..e_top of ``values`` (ints or polynomials of one table, ``one``
    their unit), fewer when there are fewer values: the coefficients of
    prod (1 + v t), one factor at a time, none above t^top built."""
    e = [one]
    for v in values:
        e = [one] + [e[i] + v * e[i - 1] for i in range(1, len(e))] + ([v * e[-1]] if len(e) <= top else [])
    return e


def elementary_symmetric(k: int, gens: Iterable[Polynomial]) -> Polynomial:
    """e_k of a non-empty sequence of polynomials of one table: the sum of
    all products of k of them at distinct positions; e_0 = 1."""
    gens = tuple(gens)
    if not gens:
        raise ValueError("gens must be a non-empty sequence of polynomials")
    if not isinstance(k, int) or isinstance(k, bool) or k < 0 or k > len(gens):
        raise ValueError(f"k must satisfy 0 <= k <= {len(gens)}")
    return _elementary(gens, k, gens[0].table.one())[k]


def is_symmetric(p: Polynomial) -> bool:
    """True when p is invariant under every permutation of the roots.

    One pass over the packed keys groups the terms by orbit, keyed by the key
    with its root fields cleared and its sorted root fields, zeros included.
    p is symmetric exactly when every orbit carries a single coefficient and
    is complete: n members, n * prod(mult!) = r! over its root exponents.
    """
    field = (1 << p._width) - 1
    shifts = [_shift(p.table, p._width, i) for i in _root_indices(p.table)]
    roots = sum(field << s for s in shifts)
    orbits: dict[tuple, list] = {}
    for key, c in p._terms.items():
        seen = orbits.setdefault((key & ~roots, tuple(sorted(key >> s & field for s in shifts))), [c, 0])
        if seen[0] != c:
            return False
        seen[1] += 1
    return all(
        n * math.prod(math.factorial(len(tuple(run))) for _, run in itertools.groupby(exps))
        == math.factorial(len(exps))
        for (_, exps), (_, n) in orbits.items()
    )


def _chern_indices(table: VariableTable) -> tuple[int, ...]:
    r = len(_root_indices(table))
    indices = []
    for i in range(1, r + 1):
        name = f"c{i}"
        if name not in table:
            raise ValueError("table lacks the Chern generators c1..cr")
        idx = table.index(name)
        if table.degrees[idx] != i:
            raise ValueError(f"c{i} must have degree {i}")
        indices.append(idx)
    return tuple(indices)


def reduce_to_elementary(p: Polynomial) -> Polynomial:
    """Rewrite a symmetric polynomial in u1..ur as a polynomial in c1..cr,
    where c_i stands for the i-th elementary symmetric polynomial.

    Classical leading-term subtraction (Macdonald, *Symmetric Functions*,
    I.2): the graded-lex leading monomial of a symmetric polynomial is a
    partition u^lambda; with coefficient a it gives the term a * c^m,
    m_i = lambda_i - lambda_(i+1), and a * e_1^m1 ... e_r^mr, whose leading
    monomial is u^lambda, is subtracted.  The result P satisfies
    P(e_1..e_r) == p exactly.
    """
    table = p.table
    root_idx = _root_indices(table)
    chern_idx = _chern_indices(table)

    allowed = {table.names[i] for i in root_idx}
    if not allowed.issuperset(p.variables()):
        raise ValueError("input must involve only the root generators u1..ur")
    if not is_symmetric(p):
        raise SymmetryError("input is not symmetric in u1..ur")

    out: dict[Monomial, _Coeff] = {}
    while p:
        top = max(p._terms)  # the graded-lex leading term
        mon, coeff = p._monomial(top), _coefficient(p._terms[top], p._den)
        lam = [dict(mon).get(i, 0) for i in root_idx] + [0]
        mults = enumerate(zip(lam, lam[1:]))
        c_mon = Monomial._raw(tuple((chern_idx[k], a - b) for k, (a, b) in mults if a > b))
        out[c_mon] = coeff
        p = p - _chern_to_roots(Polynomial(table, {c_mon: coeff}))
        if p and p._monomial(max(p._terms)) == mon:  # each step must cancel u^lambda, or the loop would not end
            raise ArithmeticError("leading-term subtraction left its leading monomial")
    return Polynomial(table, out)


def _chern_to_roots(p: Polynomial) -> Polynomial:
    """Send each occurring c_i to e_i(u1..ur), from one ``_elementary`` call
    through the highest such i; every other generator is fixed.

    One :meth:`Polynomial.substitute` call; its Horner scheme nests the
    c-monomials by c1, then c2, ..., so each product is a partial result
    times a cached power of one e_i, never a product of two large powers."""
    roots = root_generators(p.table)
    names = p.variables()
    used = [i for i in range(1, len(roots) + 1) if f"c{i}" in names]
    e = _elementary(roots, max(used, default=0), p.table.one())
    return p.substitute({f"c{i}": e[i] for i in used})


def expand_elementary(p: Polynomial) -> Polynomial:
    """Inverse direction of :func:`reduce_to_elementary`: substitute each
    c_i by the i-th elementary symmetric polynomial of the roots.  The map
    is ``_chern_to_roots``; the input must involve only c1..cr."""
    allowed = {p.table.names[i] for i in _chern_indices(p.table)}
    if not allowed.issuperset(p.variables()):
        raise ValueError("input must involve only the Chern generators c1..cr")
    return _chern_to_roots(p)
