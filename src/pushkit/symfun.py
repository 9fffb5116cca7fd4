"""Symmetric-polynomial machinery over the Chern-root generators u1..ur.

Provides elementary and complete homogeneous symmetric polynomials, the
symmetric-group action permuting the roots, a symmetry test, and the
rewriting of a symmetric polynomial into the elementary basis (that is,
into the Chern classes c1..cr).
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import SymmetryError
from .polyring import Monomial, Polynomial, VariableTable, _accumulate

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
    if coeff != 1 or len(mon.exps) != 1 or mon.exps[0][1] != 1:
        raise ValueError("expected a single generator")
    idx = mon.exps[0][0]
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
    one = Fraction(1)
    terms = {
        Monomial(tuple((i, 1) for i in combo)): one
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
    if k == 0:
        return table.one()
    one = Fraction(1)
    terms: dict[Monomial, Fraction] = {}
    for combo in itertools.combinations_with_replacement(indices, k):
        exps: dict[int, int] = {}
        for i in combo:
            exps[i] = exps.get(i, 0) + 1
        terms[Monomial(exps)] = one
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
        Monomial._raw(tuple(sorted((remap.get(i, i), e) for i, e in mon.exps))): c
        for mon, c in p._terms.items()
    }
    return Polynomial._raw(p.table, out)


def is_symmetric(p: Polynomial) -> bool:
    """True when p is invariant under all adjacent root transpositions
    (which generate the full symmetric group)."""
    r = len(_root_indices(p.table))
    for i in range(1, r):
        if apply_permutation(p, Permutation.transposition(r, i, i + 1)) != p:
            return False
    return True


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

    Classical leading-term subtraction: the graded-lex leading monomial of a
    symmetric polynomial is a partition u^lambda; subtract the matching
    product of elementary symmetric polynomials and repeat.  The result P
    satisfies P(e_1..e_r) == p exactly.
    """
    table = p.table
    root_idx = _root_indices(table)
    chern_idx = _chern_indices(table)
    r = len(root_idx)

    allowed = set(root_idx)
    for mon in p._terms:
        for i, _ in mon.exps:
            if i not in allowed:
                raise ValueError("input must involve only the root generators u1..ur")
    if not is_symmetric(p):
        raise SymmetryError("input is not symmetric in u1..ur")

    gens = tuple(table.var(table.names[i]) for i in root_idx)
    elem = [table.one()] + [elementary_symmetric(i, gens) for i in range(1, r + 1)]
    elem_powers: dict[tuple[int, int], Polynomial] = {}

    def elem_power(i: int, e: int) -> Polynomial:
        key = (i, e)
        if key not in elem_powers:
            elem_powers[key] = elem[i].pow(e)
        return elem_powers[key]

    work = p
    out: dict[Monomial, Fraction] = {}
    while work:
        mon, coeff = work.leading_term()
        lam = [mon.exponent(root_idx[i]) for i in range(r)]
        if any(lam[i] < lam[i + 1] for i in range(r - 1)):
            raise RuntimeError("leading monomial of a symmetric polynomial must be a partition")
        mults = [lam[i] - lam[i + 1] for i in range(r - 1)] + [lam[r - 1]]
        c_mon = Monomial({chern_idx[i]: mults[i] for i in range(r) if mults[i]})
        _accumulate(out, ((c_mon, coeff),))
        subtrahend = table.const(coeff)
        for i in range(r):
            if mults[i]:
                subtrahend = subtrahend * elem_power(i + 1, mults[i])
        work = work - subtrahend
    return Polynomial._raw(table, out)


def expand_elementary(p: Polynomial) -> Polynomial:
    """Inverse direction of :func:`reduce_to_elementary`: substitute each
    c_i by the i-th elementary symmetric polynomial of the roots."""
    table = p.table
    chern_idx = _chern_indices(table)
    gens = root_generators(table)
    allowed = set(chern_idx)
    for mon in p._terms:
        for i, _ in mon.exps:
            if i not in allowed:
                raise ValueError("input must involve only the Chern generators c1..cr")
    occurring = set(p.variables())
    images = {
        f"c{i}": elementary_symmetric(i, gens)
        for i in range(1, len(chern_idx) + 1)
        if f"c{i}" in occurring
    }
    return p.substitute(images)
