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
cylinder data of the homotopy and the shuffle product) is read off one
cached column table, ``shuffle_places``, which holds each (p,q)-shuffle's
sign and ``place``.  ``ed_terms`` places the subdivision terms, and the
cylinder data read it too: ``homotopy.p_cylinder_data`` zips the terms of
ed(f, g), of ed(h, k) and of the subdivision whose entries are a lattice
path's steps.  The table is built by recursion on the first slot from
``tuple`` and ``itemgetter`` alone: the place of a one-block table is
``tuple``, and each other place an ``itemgetter`` over its sub-place
applied to one prebuilt index tuple, so no slot is placed by a Python
loop.  The shuffle product ``shuffle_terms`` of a chain with one simplex,
the pushed face of a tower correction, interleaves the entries of each
term and the face directly: the Eilenberg-Zilber map pads every slot of
one factor that the other fills with the identity, and every entry
algebra's product returns the other factor when one side is the identity.  Its terms carry the
correction's minus sign.  ``homotopy.stage_terms`` chains them after P's
into one stream, and the level certificate of ``homotopy.psi_counts``
checks the placements they are drawn through.

Since B(G x H) = BG x BH, a simplex of the product space is a bar simplex of
pairs ((x_1, y_1), ..., (x_n, y_n)), so product chains are plain ``Chain``s
and their boundary is ``moore.boundary`` over the product.  A
``TensorChain`` is a ``Chain`` of pairs (sigma, tau) of simplices of any
bidegree and fixed total degree.  Tensor chains, ``ez``, ``aw``,
``mult_map``, ``edgewise_composite`` and the itertools-based ``shuffles``
serve only as the independent oracle the table-driven code is checked
against.  The tests' per-rank references (the pillar scan and the cylinder
data) place components through ``shuffles`` too, so no reference reads the
tables it checks.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter, methodcaller, neg
from typing import Callable, Iterator, NamedTuple

from .moore import Chain, ChainError, face, pushforward


class DimensionMismatch(ChainError):
    pass


# -- shuffles -----------------------------------------------------------------


class Shuffle(NamedTuple):
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


@lru_cache(maxsize=None)
def shuffle_places(p: int, q: int) -> tuple:
    """``(signs, places)`` of all (p,q)-shuffles in dictionary order, built
    on first use.  A ``place`` maps the p + q source entries (first block,
    then second block) to the shuffled simplex, a tuple.

    Built by recursion on the first slot, apart from ``shuffles``: the
    shuffles whose first slot holds the first block's head come first, each
    a (p-1,q)-shuffle of the entries after it; then those whose first slot
    holds the second block's head, which moves it past p entries (sign
    (-1)^p), each a (p,q-1)-shuffle of the others.  The one place of a
    (p,0) or (0,q) table is the builtin ``tuple``; any other place is the
    ``itemgetter`` of the head's index and its sub-place applied to the
    prebuilt tuple of the other entries' indices.  Both blocks are nonempty
    there, so it picks two entries or more and returns a tuple."""
    if p < 0 or q < 0:
        raise ValueError("p and q must be nonnegative")
    n = p + q
    if p == 0 or q == 0:
        return (1,), (tuple,)
    head_signs, heads = shuffle_places(p - 1, q)
    tail_signs, tails = shuffle_places(p, q - 1)
    if p % 2:
        tail_signs = tuple(map(neg, tail_signs))
    shift = tuple(range(p)) + tuple(range(p + 1, n))
    front = map((0,).__add__, map(methodcaller("__call__", tuple(range(1, n))), heads))
    back = map((p,).__add__, map(methodcaller("__call__", shift), tails))
    return head_signs + tail_signs, tuple(itertools.starmap(itemgetter, itertools.chain(front, back)))


# -- tensor chains and the classical maps ---------------------------------------


class TensorChain(Chain):
    """Integer combination of sigma (x) tau of total degree ``dim``."""

    __slots__ = ()

    def add_term(self, key, coeff: int) -> None:
        sigma, tau = key
        if len(sigma) + len(tau) != self.dim:
            raise DimensionMismatch(
                f"bidegree ({len(sigma)},{len(tau)}) in a degree-{self.dim} tensor chain"
            )
        self.add_terms(((key, coeff),))


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


def shuffle_terms(a: Chain, tau: tuple) -> tuple:
    """The raw terms of the tower correction ``-(a shuffle tau)`` against
    the simplex tau, in the order sigma, then ``shuffle_places``'
    placements, as ``(keys, coeffs, count)``: two C-level iterators and
    their length; their sum is ``-mult_map(ez(tensor_of_chains(a,
    Chain.of(tau))))``.  The sources sigma + tau are ``tee``'d, never
    listed; per distinct coefficient one signed row, which carries the
    minus sign."""
    signs, places = shuffle_places(a.dim, len(tau))
    copies = itertools.tee(map(tuple.__add__, a.terms, itertools.repeat(tau)), len(places))
    rows = {ca: [-sign * ca for sign in signs] for ca in set(a.terms.values())}
    return (itertools.chain.from_iterable(zip(*map(map, places, copies))),
            itertools.chain.from_iterable(map(rows.__getitem__, a.terms.values())),
            len(a) * len(places))


# -- edgewise subdivision --------------------------------------------------------


def ed_terms(f: Callable, g: Callable, sigma: tuple) -> Iterator[tuple]:
    """All shuffle terms ``(p, q, rank, sign, simplex)`` in emission order:
    p ascending, then dictionary order.  The term of the rank-th
    (p,q)-shuffle has the images under g of the first p entries at the
    first-block positions and the images under f of the rest at the
    second-block positions."""
    n = len(sigma)
    for p in range(n + 1):
        source = tuple(map(g, sigma[:p])) + tuple(map(f, sigma[p:]))
        for rank, (sign, place) in enumerate(zip(*shuffle_places(p, n - p)), start=1):
            yield p, n - p, rank, sign, place(source)


def edgewise(f: Callable, g: Callable, chain: Chain) -> Chain:
    """Subdivision of a chain via the shuffle formula."""
    out = Chain(chain.dim)
    out.add_terms((image, sign * coeff) for simplex, coeff in chain.terms.items()
                  for _p, _q, _rank, sign, image in ed_terms(f, g, simplex))
    return out


def edgewise_composite(alg, f: Callable, g: Callable, chain: Chain) -> Chain:
    """The same map as the composite of the five classical chain maps; kept
    as an independent code path and cross-checked against ``edgewise``.
    The diagonal followed by the pushforward along (g, f) sends each simplex
    to the pair simplex ((g x_1, f x_1), ..., (g x_n, f x_n)), a simplex of
    the product space since B(G x H) = BG x BH."""
    pairs = pushforward(lambda x: (g(x), f(x)), chain)
    return mult_map(alg, ez(alg, aw(pairs)))
