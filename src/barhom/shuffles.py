"""Shuffles, the Alexander-Whitney and Eilenberg-Zilber maps, and edgewise
subdivision.

A (p,q)-shuffle is a permutation of {1..p+q} ascending on the first p and the
last q values; the list of all of them is kept in dictionary order and each
carries the sign of the underlying permutation.  The subdivision of a simplex
along two homomorphisms is implemented twice: as the composite
multiplication . shuffle . diagonal-splitting . pushforward . diagonal, and
directly through the shuffle formula.  The two code paths are independent and
are cross-checked against each other in the tests.

Every shuffle placement on the compute path (the subdivision terms, the
cylinder data of the homotopy and the shuffle product) is driven by one
cached table, ``shuffle_table``.  The shuffle product ``add_shuffle_product``
interleaves the entries of two simplices directly: the Eilenberg-Zilber map
pads every slot of one factor that the other fills with the identity, and
every entry algebra's product returns the other factor when one side is the
identity.

Since B(G x H) = BG x BH, a simplex of the product space is a bar simplex of
pairs ((x_1, y_1), ..., (x_n, y_n)), so product chains are plain ``Chain``s
and their boundary is ``moore.boundary`` over the product.  A
``TensorChain`` is a ``Chain`` of pairs (sigma, tau) of simplices of any
bidegree and fixed total degree.  Tensor chains, ``ez``, ``aw``,
``mult_map``, ``edgewise_composite`` and the itertools-based ``shuffles``
serve only as the independent oracle the table-driven code is checked
against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple

from .moore import Chain, ChainError, face, pushforward


class DimensionMismatch(ChainError):
    pass


class RankOutOfRange(ChainError):
    pass


# -- shuffles -----------------------------------------------------------------


@dataclass(frozen=True)
class Shuffle:
    p: int
    q: int
    rank: int          # 1-based position in the dictionary-ordered list
    first: tuple       # mu(1) < ... < mu(p), values in 1..p+q
    sign: int

    @property
    def second(self) -> tuple:
        chosen = set(self.first)
        return tuple(v for v in range(1, self.p + self.q + 1) if v not in chosen)

    @property
    def permutation(self) -> tuple:
        return self.first + self.second


def shuffle_sign(first: tuple) -> int:
    # inversions of (mu || nu) all sit between the blocks
    total = sum(v - i for i, v in enumerate(first, start=1))
    return -1 if total % 2 else 1


def shuffles(p: int, q: int) -> list[Shuffle]:
    """All (p,q)-shuffles in dictionary order, with signs."""
    if p < 0 or q < 0:
        raise ValueError("p and q must be nonnegative")
    out = []
    for rank, first in enumerate(itertools.combinations(range(1, p + q + 1), p), start=1):
        out.append(Shuffle(p, q, rank, first, shuffle_sign(first)))
    return out


class ShuffleEntry(NamedTuple):
    """One (p,q)-shuffle as placements.  ``place`` maps the p + q source
    entries (first block, then second block) to the shuffled simplex;
    ``path`` picks the lattice points the shuffle walks through from the
    row-major (p+1) x (q+1) grid, where a first-block slot steps down a row
    and a second-block slot steps along a column."""

    first: tuple
    second: tuple
    sign: int
    place: Callable
    path: Callable


def _getter(indices: tuple) -> Callable:
    """``itemgetter`` that always returns a tuple."""
    if len(indices) >= 2:
        return itemgetter(*indices)
    return lambda seq: tuple(seq[i] for i in indices)


def _entry(p: int, q: int, first: tuple, sign: int) -> ShuffleEntry:
    n = p + q
    chosen = set(first)
    second = tuple(v for v in range(1, n + 1) if v not in chosen)
    source = [0] * n
    for i, pos in enumerate(first):
        source[pos - 1] = i
    for j, pos in enumerate(second):
        source[pos - 1] = p + j
    point, path = 0, [0]
    for src in source:
        point += q + 1 if src < p else 1
        path.append(point)
    return ShuffleEntry(first, second, sign, _getter(tuple(source)), _getter(tuple(path)))


@lru_cache(maxsize=None)
def shuffle_table(p: int, q: int) -> tuple[ShuffleEntry, ...]:
    """All (p,q)-shuffles in dictionary order, built on first use.

    Built by recursion on the first slot, apart from ``shuffles``: the
    shuffles whose first slot holds the first block's head come first, each
    a (p-1,q)-shuffle shifted right; then those whose first slot holds the
    second block's head, which moves it past p entries (sign (-1)^p)."""
    if p < 0 or q < 0:
        raise ValueError("p and q must be nonnegative")
    if p == 0 or q == 0:
        return (_entry(p, q, tuple(range(1, p + 1)), 1),)
    head = [
        ((1,) + tuple(v + 1 for v in e.first), e.sign) for e in shuffle_table(p - 1, q)
    ]
    koszul = -1 if p % 2 else 1
    tail = [(tuple(v + 1 for v in e.first), koszul * e.sign) for e in shuffle_table(p, q - 1)]
    return tuple(_entry(p, q, first, sign) for first, sign in head + tail)


def shuffle_entry(p: int, q: int, rank: int) -> ShuffleEntry:
    """The rank-th entry (1-based) of ``shuffle_table(p, q)``."""
    table = shuffle_table(p, q)
    if not 1 <= rank <= len(table):
        raise RankOutOfRange(f"rank {rank} out of 1..{len(table)} for ({p},{q})")
    return table[rank - 1]


# -- tensor chains and the classical maps ---------------------------------------


class TensorChain(Chain):
    """Integer combination of sigma (x) tau of total degree ``dim``."""

    __slots__ = ()

    def add_term(self, key, coeff: int) -> None:
        if coeff == 0:
            return
        sigma, tau = key
        if len(sigma) + len(tau) != self.dim:
            raise DimensionMismatch(
                f"bidegree ({len(sigma)},{len(tau)}) in a degree-{self.dim} tensor chain"
            )
        new = self.terms.get(key, 0) + coeff
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new


def tensor_boundary(alg, tc: TensorChain) -> TensorChain:
    out = TensorChain(tc.dim - 1)
    for (sigma, tau), coeff in tc:
        p, q = len(sigma), len(tau)
        if p > 0:
            sign = 1
            for i in range(p + 1):
                out.add_term((face(alg, i, sigma), tau), sign * coeff)
                sign = -sign
        if q > 0:
            koszul = -1 if p % 2 else 1
            sign = koszul
            for i in range(q + 1):
                out.add_term((sigma, face(alg, i, tau)), sign * coeff)
                sign = -sign
    return out


def aw(chain: Chain) -> TensorChain:
    """Alexander-Whitney on a chain of pair simplices: front faces of the
    first coordinates tensor back faces of the second.  For bar simplices
    front and back faces are prefix and suffix slices."""
    out = TensorChain(chain.dim)
    for simplex, coeff in chain:
        firsts = tuple(x for x, _ in simplex)
        seconds = tuple(y for _, y in simplex)
        for i in range(chain.dim + 1):
            out.add_term((firsts[:i], seconds[i:]), coeff)
    return out


def _place(entries: tuple, positions: tuple, n: int, identity) -> tuple:
    slots = [identity] * n
    for entry, pos in zip(entries, positions):
        slots[pos - 1] = entry
    return tuple(slots)


def ez(alg, tc: TensorChain) -> Chain:
    """Eilenberg-Zilber shuffle map: signed degenerate placements of both
    factors, zipped into pair simplices."""
    out = Chain(tc.dim)
    e = alg.identity
    n = tc.dim
    for (sigma, tau), coeff in tc:
        for sh in shuffles(len(sigma), len(tau)):
            first = _place(sigma, sh.first, n, e)
            second = _place(tau, sh.second, n, e)
            out.add_term(tuple(zip(first, second)), sh.sign * coeff)
    return out


def mult_map(alg, chain: Chain) -> Chain:
    """Entrywise multiplication of the two coordinates of pair simplices."""
    return pushforward(lambda xy: alg.mul(*xy), chain)


def tensor_of_chains(a: Chain, b: Chain) -> TensorChain:
    out = TensorChain(a.dim + b.dim)
    for sigma, ca in a:
        for tau, cb in b:
            out.add_term((sigma, tau), ca * cb)
    return out


def add_shuffle_product(out: Chain, a: Chain, b: Chain, scale: int = 1) -> None:
    """Add ``scale * (a shuffle b)`` to ``out`` in place.

    Equals ``mult_map(ez(tensor_of_chains(a, b)))`` for every entry algebra,
    since each one's product returns the other factor when one side is the
    identity: every term is the signed interleaving of sigma and tau."""
    if a.dim + b.dim != out.dim:
        raise DimensionMismatch(
            f"shuffle product of dims ({a.dim},{b.dim}) into a {out.dim}-chain"
        )
    placements = [(e.place, e.sign) for e in shuffle_table(a.dim, b.dim)]
    terms = out.terms
    for tau, cb in b:
        for sigma, ca in a:
            source = sigma + tau
            coeff = scale * ca * cb
            for place, sign in placements:
                key = place(source)
                new = terms.get(key, 0) + sign * coeff
                if new:
                    terms[key] = new
                else:
                    terms.pop(key, None)


# -- edgewise subdivision --------------------------------------------------------


@dataclass(frozen=True)
class EdTerm:
    """One shuffle term of the subdivision, in emission order."""

    p: int
    q: int
    rank: int
    sign: int
    simplex: tuple


def shuffle_term(f: Callable, g: Callable, rank: int, p: int, q: int, sigma: tuple) -> tuple:
    """The single (p+q)-simplex indexed by the rank-th (p,q)-shuffle: images
    under g of the first p entries sit at the first-block positions, images
    under f of the rest at the second-block positions."""
    n = len(sigma)
    if p + q != n:
        raise DimensionMismatch(f"p+q = {p + q} != dim = {n}")
    entry = shuffle_entry(p, q, rank)
    return entry.place(tuple(map(g, sigma[:p])) + tuple(map(f, sigma[p:])))


def ed_terms(f: Callable, g: Callable, sigma: tuple) -> Iterator[EdTerm]:
    """All shuffle terms in emission order: p ascending, then dictionary order."""
    n = len(sigma)
    for p in range(n + 1):
        source = tuple(map(g, sigma[:p])) + tuple(map(f, sigma[p:]))
        for rank, entry in enumerate(shuffle_table(p, n - p), start=1):
            yield EdTerm(p, n - p, rank, entry.sign, entry.place(source))


def edgewise(f: Callable, g: Callable, chain: Chain) -> Chain:
    """Subdivision of a chain via the shuffle formula."""
    out = Chain(chain.dim)
    for simplex, coeff in chain:
        for term in ed_terms(f, g, simplex):
            out.add_term(term.simplex, term.sign * coeff)
    return out


def edgewise_composite(alg, f: Callable, g: Callable, chain: Chain) -> Chain:
    """The same map as the composite of the five classical chain maps; kept
    as an independent code path and cross-checked against ``edgewise``.
    The diagonal followed by the pushforward along (g, f) sends each simplex
    to the pair simplex ((g x_1, f x_1), ..., (g x_n, f x_n)), a simplex of
    the product space since B(G x H) = BG x BH."""
    pairs = pushforward(lambda x: (g(x), f(x)), chain)
    return mult_map(alg, ez(alg, aw(pairs)))
