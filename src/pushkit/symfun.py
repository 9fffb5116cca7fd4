"""Symmetric-polynomial machinery over the Chern-root generators u1..ur.

Provides elementary and complete homogeneous symmetric polynomials, a
symmetry test, the rewriting of a symmetric polynomial into the elementary
basis (that is, into the Chern classes c1..cr), and its inverse.

The symmetry test works on orbits of monomials under permuting the roots.
The rewriting is classical leading-term subtraction (Macdonald, *Symmetric
Functions*, I.2); nothing in the pushforward calls it, and the test suite
uses it as a reference.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from typing import Iterable

from .errors import SymmetryError
from .polyring import Monomial, Polynomial, VariableTable, _Coeff, _coefficient

__all__ = [
    "root_generators",
    "elementary_symmetric",
    "complete_homogeneous",
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


def _generator_index(gen: Polynomial) -> int:
    terms = gen.sorted_terms()
    if len(terms) != 1:
        raise ValueError("expected a single generator")
    mon, coeff = terms[0]
    if coeff != 1 or len(mon) != 1 or mon[0][1] != 1:
        raise ValueError("expected a single generator")
    idx = mon[0][0]
    if gen.table.degrees[idx] != 1:
        raise ValueError("expected a degree-1 generator")
    return idx


def _resolve_gens(gens: Iterable[Polynomial]) -> tuple[VariableTable, tuple[int, ...]]:
    gens = tuple(gens)
    resolved = gens[0].table
    indices = []
    for g in gens:
        if g.table is not resolved and g.table != resolved:
            raise ValueError("generators must share one table")
        indices.append(_generator_index(g))
    if len(set(indices)) != len(indices):
        raise ValueError("generators must be distinct")
    return resolved, tuple(indices)


def elementary_symmetric(k: int, gens: Iterable[Polynomial]) -> Polynomial:
    """e_k of the given degree-1 generators: the sum of all k-fold products
    of distinct generators; e_0 = 1."""
    table, indices = _resolve_gens(gens)
    if not isinstance(k, int) or isinstance(k, bool) or k < 0 or k > len(indices):
        raise ValueError(f"k must satisfy 0 <= k <= {len(indices)}")
    terms = {
        Monomial(tuple((i, 1) for i in combo)): 1
        for combo in itertools.combinations(indices, k)
    }
    return Polynomial(table, terms)


def complete_homogeneous(k: int, gens: Iterable[Polynomial]) -> Polynomial:
    """h_k of the given degree-1 generators: the sum of all monomials of
    total degree k; h_0 = 1."""
    table, indices = _resolve_gens(gens)
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError("k must be a non-negative integer")
    terms = {
        Monomial(Counter(combo)): 1
        for combo in itertools.combinations_with_replacement(indices, k)
    }
    return Polynomial(table, terms)


def is_symmetric(p: Polynomial) -> bool:
    """True when p is invariant under every permutation of the roots.

    One pass over the terms groups them by orbit, keyed by the non-root part
    of the monomial and its sorted root exponents.  p is symmetric exactly
    when every orbit carries a single coefficient and is complete.
    """
    roots = set(_root_indices(p.table))
    orbits: dict[tuple, list] = {}
    for key, c in p._terms.items():
        mon = p._monomial(key)
        orbit = (
            tuple(t for t in mon if t[0] not in roots),
            tuple(sorted(e for i, e in mon if i in roots)),
        )
        seen = orbits.setdefault(orbit, [c, 0])
        if seen[0] != c:
            return False
        seen[1] += 1
    # A complete orbit has r!/prod(mult!) members, zero exponents counted.
    return all(
        n * math.prod(math.factorial(len(tuple(run))) for _, run in itertools.groupby(exps))
        == math.perm(len(roots), len(exps))
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
    """Send each occurring c_i to e_i(u1..ur); every other generator is fixed.

    One :meth:`Polynomial.substitute` call; its Horner scheme nests the
    c-monomials by c1, then c2, ..., so each product is a partial result
    times a cached power of one e_i, never a product of two large powers."""
    roots = root_generators(p.table)
    names = p.variables()
    images = {f"c{i}": elementary_symmetric(i, roots) for i in range(1, len(roots) + 1)
              if f"c{i}" in names}
    return p.substitute(images)


def expand_elementary(p: Polynomial) -> Polynomial:
    """Inverse direction of :func:`reduce_to_elementary`: substitute each
    c_i by the i-th elementary symmetric polynomial of the roots.  The map
    is ``_chern_to_roots``; the input must involve only c1..cr."""
    allowed = {p.table.names[i] for i in _chern_indices(p.table)}
    if not allowed.issuperset(p.variables()):
        raise ValueError("input must involve only the Chern generators c1..cr")
    return _chern_to_roots(p)
