"""Symmetric-polynomial machinery over the Chern-root generators u1..ur.

Provides elementary and complete homogeneous symmetric polynomials, the
symmetric-group action permuting the roots, a symmetry test, and the
rewriting of a symmetric polynomial into the elementary basis (that is,
into the Chern classes c1..cr).

The symmetry test and the rewriting both work on orbits of monomials: the
rewriting keeps only the dominant monomial u^lambda of each orbit, keyed by
the partition lambda (Macdonald, *Symmetric Functions*, I.2 and I.6).
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
from collections import Counter
from operator import add, sub
from typing import Iterable, Sequence

from .errors import SymmetryError
from .polyring import Monomial, Polynomial, VariableTable, _as_coeff, _Coeff

__all__ = [
    "Permutation",
    "root_generators",
    "elementary_symmetric",
    "complete_homogeneous",
    "apply_permutation",
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
    terms = gen._terms
    if len(terms) != 1:
        raise ValueError("expected a single generator")
    mon, coeff = next(iter(terms.items()))
    if coeff != 1 or len(mon) != 1 or mon[0][1] != 1:
        raise ValueError("expected a single generator")
    idx = mon[0][0]
    if gen.table.degrees[idx] != 1:
        raise ValueError("expected a degree-1 generator")
    return idx


def _resolve_gens(
    gens: Iterable[Polynomial], table: VariableTable | None
) -> tuple[VariableTable, tuple[int, ...]]:
    gens = tuple(gens)
    if not gens:
        if table is None:
            raise ValueError("an empty generator set needs an explicit table")
        return table, ()
    resolved = gens[0].table if table is None else table
    indices = []
    for g in gens:
        if g.table is not resolved and g.table != resolved:
            raise ValueError("generators must share one table")
        indices.append(_generator_index(g))
    if len(set(indices)) != len(indices):
        raise ValueError("generators must be distinct")
    return resolved, tuple(indices)


def elementary_symmetric(
    k: int, gens: Iterable[Polynomial], *, table: VariableTable | None = None
) -> Polynomial:
    """e_k of the given degree-1 generators: the sum of all k-fold products
    of distinct generators; e_0 = 1."""
    table, indices = _resolve_gens(gens, table)
    if not isinstance(k, int) or isinstance(k, bool) or k < 0 or k > len(indices):
        raise ValueError(f"k must satisfy 0 <= k <= {len(indices)}")
    terms = {
        Monomial(tuple((i, 1) for i in combo)): 1
        for combo in itertools.combinations(indices, k)
    }
    return Polynomial._raw(table, terms)


def complete_homogeneous(
    k: int, gens: Iterable[Polynomial], *, table: VariableTable | None = None
) -> Polynomial:
    """h_k of the given degree-1 generators: the sum of all monomials of
    total degree k; h_0 = 1."""
    table, indices = _resolve_gens(gens, table)
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError("k must be a non-negative integer")
    terms = {
        Monomial(Counter(combo)): 1
        for combo in itertools.combinations_with_replacement(indices, k)
    }
    return Polynomial._raw(table, terms)


class Permutation:
    """A bijection of {1..r}; ``images[i-1]`` is the image of ``i``."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(images)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError("images must be a permutation of 1..r")
        self.images = imgs

    @classmethod
    def identity(cls, r: int) -> Permutation:
        return cls(tuple(range(1, r + 1)))

    @classmethod
    def transposition(cls, r: int, i: int, j: int) -> Permutation:
        if not (1 <= i <= r and 1 <= j <= r and i != j):
            raise ValueError("transposition needs two distinct points in 1..r")
        imgs = list(range(1, r + 1))
        imgs[i - 1], imgs[j - 1] = j, i
        return cls(imgs)

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


def apply_permutation(p: Polynomial, sigma: Permutation) -> Polynomial:
    """Rename u_i to u_sigma(i); every other generator is fixed.

    This is a ring automorphism, implemented as an index remap on monomials.
    """
    root_idx = _root_indices(p.table)
    if sigma.size != len(root_idx):
        raise ValueError(f"permutation size {sigma.size} != number of roots {len(root_idx)}")
    remap = {root_idx[i - 1]: root_idx[sigma(i) - 1] for i in range(1, sigma.size + 1)}
    out = {
        Monomial._raw(sorted((remap.get(i, i), e) for i, e in mon)): c
        for mon, c in p._terms.items()
    }
    return Polynomial._raw(p.table, out)


def is_symmetric(p: Polynomial) -> bool:
    """True when p is invariant under every permutation of the roots.

    One pass over the terms groups them by orbit, keyed by the non-root part
    of the monomial and its sorted root exponents.  p is symmetric exactly
    when every orbit carries a single coefficient and is complete.
    """
    roots = set(_root_indices(p.table))
    orbits: dict[tuple, list] = {}
    for mon, c in p._terms.items():
        key = (
            tuple(t for t in mon if t[0] not in roots),
            tuple(sorted(e for i, e in mon if i in roots)),
        )
        seen = orbits.setdefault(key, [c, 0])
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


def _partition(exps: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(exps, reverse=True))


def _elementary_product(lam: tuple[int, ...], memo: dict) -> dict[tuple[int, ...], int]:
    """The dominant part (partition -> coefficient) of e_1^(l1-l2) ... e_r^lr,
    the e-product whose largest partition is lam.  It is that of lam less its
    first column times e_k, k = length(lam), and for a symmetric f,
    (f e_k)[nu] is the sum of f[sort(nu - 1_S)] over the k-subsets S."""
    chain = []
    while lam not in memo:
        chain.append(lam)
        lam = tuple(max(e - 1, 0) for e in lam)
    f = memo[lam]
    for lam in reversed(chain):
        r, k = len(lam), len(lam) - lam.count(0)
        ones = [tuple(int(i in s) for i in range(r)) for s in itertools.combinations(range(r), k)]
        support = {_partition(map(add, mu, v)) for mu in f for v in ones}
        f = memo[lam] = {
            nu: sum(f.get(_partition(map(sub, nu, v)), 0) for v in ones) for nu in support
        }
    return f


def reduce_to_elementary(p: Polynomial) -> Polynomial:
    """Rewrite a symmetric polynomial in u1..ur as a polynomial in c1..cr,
    where c_i stands for the i-th elementary symmetric polynomial.

    A symmetric polynomial is determined by its dominant terms u^lambda,
    lambda a partition, so only those are kept.  The largest remaining
    lambda in graded-lex order, with coefficient a, gives the term a * c^m,
    m_i = lambda_i - lambda_(i+1); a times the dominant part of
    e_1^m1 ... e_r^mr, whose largest partition is lambda, is subtracted.
    The result P satisfies P(e_1..e_r) == p exactly.
    """
    table = p.table
    root_idx = _root_indices(table)
    chern_idx = _chern_indices(table)
    r = len(root_idx)

    allowed = set(root_idx)
    for mon in p._terms:
        for i, _ in mon:
            if i not in allowed:
                raise ValueError("input must involve only the root generators u1..ur")
    if not is_symmetric(p):
        raise SymmetryError("input is not symmetric in u1..ur")

    work: dict[tuple[int, ...], _Coeff] = {}
    for mon, c in p._terms.items():
        lam = tuple(mon.exponent(i) for i in root_idx)
        if all(a >= b for a, b in zip(lam, lam[1:])):
            work[lam] = c

    def order(lam: tuple[int, ...]) -> tuple:
        return (-sum(lam), tuple(-e for e in lam), lam)

    heap = [order(lam) for lam in work]
    heapq.heapify(heap)
    memo = {(0,) * r: {(0,) * r: 1}}
    out: dict[Monomial, _Coeff] = {}
    while heap:
        lam = heapq.heappop(heap)[-1]
        coeff = work[lam]
        if not coeff:
            continue
        mults = enumerate(zip(lam, lam[1:] + (0,)))
        c_mon = Monomial._raw(tuple((chern_idx[k], a - b) for k, (a, b) in mults if a > b))
        out[c_mon] = _as_coeff(coeff)
        for nu, n in _elementary_product(lam, memo).items():
            if nu not in work:
                heapq.heappush(heap, order(nu))
            work[nu] = work.get(nu, 0) - coeff * n
    return Polynomial._raw(table, out)


def expand_elementary(p: Polynomial) -> Polynomial:
    """Inverse direction of :func:`reduce_to_elementary`: substitute each
    c_i by the i-th elementary symmetric polynomial of the roots."""
    table = p.table
    chern_idx = _chern_indices(table)
    gens = root_generators(table)
    allowed = set(chern_idx)
    for mon in p._terms:
        for i, _ in mon:
            if i not in allowed:
                raise ValueError("input must involve only the Chern generators c1..cr")
    occurring = set(p.variables())
    images = {
        f"c{i}": elementary_symmetric(i, gens)
        for i in range(1, len(chern_idx) + 1)
        if f"c{i}" in occurring
    }
    return p.substitute(images)
