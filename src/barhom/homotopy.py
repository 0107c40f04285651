"""Controlled chain homotopies between edgewise subdivisions.

Given four homomorphisms f, g, h, k from a source group (f commuting with g,
h with k) and a connecting element l with l f(x) g(x) = h(x) k(x) l, the
homotopy applied to a simplex is the signed sum, over all shuffles, of
cylinders between the matching subdivision terms of the two pairs.  The
pillar set of a shuffle term is produced by a left-to-right scan: it starts
at m(g_1 ... g_p) (at l when p = 0), crossing an f-component appends its
argument to the m-argument, and crossing a g-component strips its argument
from the left.

The scan only ever holds the pillar of an interval: after crossing i
g-components and j f-components the m-argument is the product of
sigma[i:p+j].  So P is the cylinder between ed(f, g) and ed(h, k) over
one table of those pillars, ``_pillar_table``, which evaluates m once per
interval.  ``p_cylinder_data`` zips three ``shuffles.ed_terms`` streams,
the terms of ed(f, g), of ed(h, k) and of the subdivision whose entries
are a lattice path's steps, one row of the table down at a front slot and
one column along at a back slot; a term's pillars are the table points of
its path.  Only this module knows the table's layout.  ``homotopy_P`` is
the chain cylinder ``cylinder.cyl_chain`` over those data.  Its pillar
premises are the certificate's: ``p_cylinder_data`` checks each lattice
edge of the table once (``_check_pillar_edges``), in any context, and
``homotopy_P`` checks each shuffle table it reads with ``_table_norms``,
cached once per process, so no cylinder is checked term by term.  The tests
hold ``p_cylinder_data`` to a reference that runs the scan for one term
at a time, with the component order of the itertools-built
``shuffles.shuffles``.

The mitosis specialization plugs in conjugation by the inverse n-th stable
letter for both f and h, the identity for g and the trivial map for k; the
tower homotopy psi iterates it level by level, correcting with shuffle
products (``shuffle_terms``) against lower levels, and phi projects psi.
``stage_terms`` is the one place that builds a stage's parts: P, then each
correction's factors, psi one level down and a pushed back face.  It
returns their raw terms in order as one stream, a pair of lazy iterators:
P's, then each correction's ``shuffle_terms``.  ``induct_Q`` sums that
stream into the stage's chain, on the generic simplex (x_1, ..., x_m) of a
free base at level m, where no raw term may repeat, and raises
``ChainError`` if its dict holds fewer keys than it summed raw terms: it is
the enumerated oracle.
``psi_counts`` builds no psi, no P and no cylinder, and draws no raw
term.  It certifies each shuffle table of total m + 1 or less once, as
byte words: C-level maps of its ``shuffle_places`` places over one byte
alphabet, whose joined words must keep each block in order.  ``P_counts``
checks the premises of the level certificate on the codes of each
dimension's letters, pillar table and lattice edges, and reads P_n's
norms off the tables of total n; ``psi_counts`` reads the corrections'
placement counts off those of total n + 1, and sums the norms by the
recurrence the premises prove, or raises ``ChainError``.  So ``count``,
whatever its op, holds the shuffle tables and no chain.  The CLI still
charges it one P_dim's terms (``cli.P_TERM_BYTES``), which overstates
what it holds; the charge and every refusal line are kept as they were
until one cost model predicts each run's peak.  The
gamma, q and c recurrences depend on the dimension alone, and on the
generic simplex raising the level only relabels: psi(L, sigma_m) =
s_(L-m)(psi(m, sigma_m)), where the level shift s_d raises every level by
d.  So every other psi, on another simplex
or at a raised level, is the generic stage streamed forward: each raw term
of ``stage_terms`` on the generic simplex is mapped through the codes of the
tower map composed with the level shift and summed, so the generic top is
never held whole.  s_d is injective and maps only the identity to the
identity, so the norms and the distinct keys at level L are those at
level m.  One ``MitosisTower`` owns one word algebra,
coded as small ints by a ``groups.CodedAlgebra``, so every term of psi is a
tuple of ints and only ``entry_to_json`` decodes a tower value.  It builds
each level's context once.  A free tower memoizes one generic stage per
dimension and nothing else; a tower over any other group holds a private
free tower for them.  ``coded_context`` is the one context builder:
each letter of the context it returns codes ``fn(x)`` once per source
element, and ``formal_context``, ``instance_context`` and
``MitosisTower.context`` are each one call of it.  ``HomotopyContext`` is a plain namedtuple, so a
context of uncoded letters is built directly.  ``verify_identity`` returns
the residual chain of a homotopy identity, so a failure is reported term by
term.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from operator import itemgetter, methodcaller
from typing import Callable

from .cylinder import IncompatiblePillars, cyl_chain
from .groups import CodedAlgebra, FreeGroup, Group
from .moore import Chain, ChainError, boundary, project
from .quintuple import QuintupleAlgebra, VerificationInstance
from .shuffles import ed_terms, edgewise, shuffle_places, shuffle_terms
from .words import Conjugated, PillarWord, TowerAlgebra, value_level


class DimensionExceeded(Exception):
    pass


# source group, target entry algebra, and the four homomorphisms plus m
HomotopyContext = namedtuple("HomotopyContext", "source entries f g h k m")


class _Letter(dict):
    """x -> the code of ``fn(x)``, computed on the first lookup of x."""

    def __init__(self, fn, code):
        super().__init__()
        self.fn, self.code = fn, code

    def __missing__(self, x):
        c = self[x] = self.code(self.fn(x))
        return c


def coded_context(source: Group, entries: CodedAlgebra, f, g, h, k, m) -> HomotopyContext:
    """The context of the letter maps f, g, h, k, m into the algebra that
    ``entries`` codes: each letter returns the code of its value, computed
    once per source element."""
    return HomotopyContext(source, entries,
                           *(_Letter(fn, entries.code).__getitem__ for fn in (f, g, h, k, m)))


def formal_context(source: Group) -> HomotopyContext:
    """Four distinct formal letters over the quintuple algebra, as codes:
    ``entries.elems[c]`` is the quintuple with code ``c``."""
    alg = QuintupleAlgebra(source)
    return coded_context(source, CodedAlgebra(alg), alg.f, alg.g, alg.h, alg.k, alg.m)


def instance_context(inst: VerificationInstance) -> HomotopyContext:
    """The letters of a ``VerificationInstance``, as codes of its target."""
    return coded_context(inst.base, CodedAlgebra(inst.target), inst.f, inst.g, inst.h, inst.k, inst.m)


# -- pillars and the homotopy ---------------------------------------------------


def _pillar_table(ctx: HomotopyContext, sigma: tuple) -> list:
    """m(sigma[a:b]) at index a (n + 1) + b for every interval a <= b of the
    n-simplex sigma, and None where a > b.  The scan of a (p, q)-shuffle
    holds m(sigma[a:b]) after crossing a g- and b - p f-components."""
    G, n = ctx.source, len(sigma)
    # a list: tuples of these sizes built per call filled CPython's tuple
    # free lists and raised peak memory on many small simplices
    table = []
    for a in range(n + 1):
        table += [None] * a
        table += map(ctx.m, itertools.accumulate(sigma[a:], G.mul, initial=G.identity))
    return table


def _check_pillar_edges(ctx: HomotopyContext, sigma: tuple, table: list) -> None:
    """Raise ``IncompatiblePillars``, naming the edge, unless each lattice
    edge of ``table``, the ``_pillar_table`` of the n-simplex sigma in any
    context, keeps its pillar relation: t f(sigma[b]) = h(sigma[b]) t' from
    [a, b] to [a, b + 1] and t g(sigma[a]) = k(sigma[a]) t' from [a, b] to
    [a + 1, b].

    P's cylinders, between ed(f, g) and ed(h, k), read their pillars off
    this one table, so an edge is one relation however many cylinders
    cross it, and some cylinder crosses each: n(n + 1) relations, where
    the cylinders cross n 2^n.  One pass over the points [a, b], a <= b,
    checks the edge along the row from each and the edge down the column,
    in that order."""
    f, g, h, k = [tuple(map(letter, sigma)) for letter in (ctx.f, ctx.g, ctx.h, ctx.k)]
    n, mul = len(sigma), ctx.entries.mul
    for a, b in itertools.combinations_with_replacement(range(n + 1), 2):
        j = a * (n + 1) + b
        if b < n and mul(table[j], f[b]) != mul(h[b], table[j + 1]):
            raise IncompatiblePillars(f"pillar relation fails on the lattice edge [{a}, {b}] -> [{a}, {b + 1}]")
        if a < b and mul(table[j], g[a]) != mul(k[a], table[j + n + 1]):
            raise IncompatiblePillars(f"pillar relation fails on the lattice edge [{a}, {b}] -> [{a + 1}, {b}]")


def p_cylinder_data(ctx: HomotopyContext, sigma: tuple):
    """Per-shuffle (p, q, rank, sign, top, bottom, pillars) of the homotopy:
    the cylinder between the matching terms of ed(f, g) and ed(h, k).  A
    shuffle's pillars are the table points of its lattice path, which
    starts at [0, p]; its steps are the same shuffle's term of the
    subdivision that puts n + 1, one row of the table, at each front slot
    and 1 at each back slot.  The table's lattice edges are checked before
    the first shuffle is yielded (``_check_pillar_edges``), not each
    cylinder: when the shuffle tables hold each block in order, as
    ``homotopy_P`` checks, step i of a cylinder crosses one edge with the
    entries that edge was checked with."""
    n = len(sigma)
    table = _pillar_table(ctx, sigma)
    _check_pillar_edges(ctx, sigma, table)
    point = table.__getitem__
    tops = ed_terms(ctx.f, ctx.g, sigma)
    bottoms = map(itemgetter(4), ed_terms(ctx.h, ctx.k, sigma))
    paths = map(itemgetter(4), ed_terms(lambda x: 1, lambda x: n + 1, sigma))
    for (p, q, rank, sign, top), bottom, steps in zip(tops, bottoms, paths):
        pillars = tuple(map(point, itertools.accumulate(steps, initial=p)))
        yield p, q, rank, sign, top, bottom, pillars


def homotopy_P(ctx: HomotopyContext, sigma: tuple) -> Chain:
    """The cylinder homotopy on one simplex: the chain cylinder between the
    two subdivisions along the pillar system; zero on the 0-simplex.  Its
    pillar relations are those of the lattice edges ``p_cylinder_data``
    checks, and each shuffle table it reads is checked by ``_table_norms``,
    once per process, so ``cyl_chain`` checks no cylinder's pillars."""
    n = len(sigma)
    if n == 0:
        return Chain(1)
    for p in range(n + 1):
        _table_norms(n, p)
    # (sign, top, bottom, pillars) of each shuffle's cylinder
    return cyl_chain(ctx.entries, n, map(itemgetter(3, 4, 5, 6), p_cylinder_data(ctx, sigma)))


# -- the inductive step and the tower --------------------------------------------


def stage_terms(tower: MitosisTower, sigma: tuple) -> tuple:
    """``(dim, keys, coeffs, count)``: the raw terms of psi(m, sigma)'s stage
    on an m-simplex, at level m, in order, as two lazy iterators, with their
    dimension and their number.

    The stage's parts are built here and nowhere else: P, the cylinder
    homotopy on sigma, first; then, for each 0 < k < m in turn, psi(m - 1,
    sigma[:k]) of the front face d_(k+1) ... d_m at the level below and
    tau_k, the back face d_0^k pushed, as a simplex.  So every value the
    stage holds is coded before this returns.  The raw terms are P's, then
    each correction's ``shuffle_terms``, chained lazily: none is drawn
    before the caller draws it."""
    m = len(sigma)
    # the 0-simplex has no level of its own: its stage, empty, is read at 1
    ctx = tower.context(m or 1)
    # P first: a fresh tower codes values in the order they are built
    P = homotopy_P(ctx, sigma)
    streams = [(P.terms, P.terms.values(), len(P))]
    streams += [shuffle_terms(tower.psi(m - 1, sigma[:k]), tuple(map(ctx.f, sigma[k:]))) for k in range(1, m)]
    keys, coeffs, counts = zip(*streams)
    return P.dim, itertools.chain(*keys), itertools.chain(*coeffs), sum(counts)


def induct_Q(tower: MitosisTower, sigma: tuple) -> Chain:
    """One inductive step on a generic simplex, at level = dim: the stage's
    stream of raw terms summed as one dict, by one update (see ``moore``).
    No raw key may repeat, so the dict holds one key per raw term, in order,
    and ``ChainError`` is raised if it does not."""
    dim, keys, coeffs, count = stage_terms(tower, sigma)
    out = Chain(dim)
    out.terms.update(zip(keys, coeffs))
    if len(out) != count:
        m = len(sigma)
        raise ChainError(f"psi({m}) on a {m}-simplex: {len(out)} distinct keys for {count} raw terms")
    return out


def _require(holds: bool, where: str, premise: str) -> None:
    """Raise ``ChainError`` on ``where``, a stage or a table, unless
    ``premise`` holds."""
    if not holds:
        raise ChainError(f"{where}: {premise}")


@functools.lru_cache(maxsize=None)
def _table_norms(n: int, p: int) -> tuple:
    """``(placements, degenerate)`` of the (p, q) shuffle table, q = n - p:
    its number of places, and the degenerate terms of the cylinders P_n
    draws through it, once the table passes its premises, each checked by
    C-level maps of its places.  Cached, as ``shuffle_places`` is, so each
    table is certified once per process however many P or counts read
    it; a test that swaps a table clears both caches.  Each ``place`` is applied to one byte
    alphabet, the front block's p bytes and then the back block's q, and
    its words are joined by a separator byte in neither block.  So n <= 255,
    which the cap and memory refusals keep below 30.

    There is one sign per place and each is +-1; each place holds each
    block once, in order; and no two places are equal.  Deleting a block's
    bytes keeps every separator and every byte outside the alphabet, so
    the second premise holds iff deleting the back bytes from the joined
    words leaves the front block once per place, and deleting the front
    bytes the back block.  Then each place is a permutation that keeps
    each block in order, so the path ``p_cylinder_data`` derives from it
    steps down a row at each front slot and along a column at each back
    slot, and a place is fixed by its back block's position set, so no two
    places share one.

    A cylinder has n + 1 terms, and term i is degenerate iff a front slot,
    where k puts the identity, lies before its pillar at slot i: n minus
    the first front slot of them, the length of its word after its leading
    back bytes."""
    q = n - p
    signs, places = shuffle_places(p, q)
    table = f"the ({p}, {q}) shuffle table"
    _require(len(signs) == len(places) and set(signs) <= {1, -1}, table, "the signs are not one +-1 per place")
    alphabet = bytes(range(n + 1))
    front, back, sep = alphabet[:p], alphabet[p:n], alphabet[n:]
    words = list(map(bytes, map(methodcaller("__call__", front + back), places)))
    joined = sep.join(words)
    _require(joined.translate(None, back) == sep.join([front] * len(words))
             and joined.translate(None, front) == sep.join([back] * len(words)),
             table, "a place does not hold each block once, in order")
    _require(len(set(words)) == len(words), table, "two places are equal")
    return len(words), sum(map(len, map(methodcaller("lstrip", back), words)))


def P_counts(tower: MitosisTower, sigma: tuple) -> tuple:
    """``(diameter, degenerate)`` of P_n, the cylinder stage of psi(n) on the
    generic n-simplex ``sigma`` at level n, certified off the data
    ``homotopy_P`` builds it from: no P and no cylinder term is built, and
    the norms are read off the (p, n - p) tables' ``_table_norms``, cached
    once they pass their premises; (0, 0) on the 0-simplex.

    The premises: every f(x) and h(x) is a level-n ``Conjugated``, so not
    the identity; every g(x) is not the identity, not a ``PillarWord`` and
    lies below level n; every k(x) is the identity; every point of the
    pillar table is a level-n ``PillarWord``; and each lattice edge passes
    ``_check_pillar_edges``, the one pillar check ``homotopy_P`` runs too.
    A place keeps each block in order, so the path derived from it steps
    as it does, and step i of every cylinder crosses one lattice edge with
    the entries that edge was checked with: every pillar relation holds.
    Term i of the cylinder of (p, rank) is bottom[:i] + (t_i,) + top[i:].
    Its one level-n pillar slot gives i, its level-n conjugate slots the
    back block's position set, and so (p, rank), as those sets are distinct
    in each table.  So no raw term of P_n repeats: each of its cylinders
    has n + 1 terms, and its norms are read off the tables."""
    n = len(sigma)
    if n == 0:
        return 0, 0
    where = f"psi({n}) on a {n}-simplex"
    ctx, alg = tower.context(n), tower.algebra
    elems = alg.elems
    f, g, h, k = [tuple(map(letter, sigma)) for letter in (ctx.f, ctx.g, ctx.h, ctx.k)]
    _require(all(isinstance(elems[c], Conjugated) and elems[c].level == n for c in f + h),
             where, f"an f or h entry is not a level-{n} conjugate")
    _require(all(c != alg.identity and not isinstance(elems[c], PillarWord) and value_level(elems[c]) < n
                 for c in g), where, f"a g entry is the identity, a pillar word or not below level {n}")
    _require(set(k) <= {alg.identity}, where, "a k entry is not the identity")
    table = _pillar_table(ctx, sigma)
    _require(all(isinstance(elems[t], PillarWord) and elems[t].level == n for t in table if t is not None),
             where, f"a pillar grid point is not a level-{n} pillar word")
    _check_pillar_edges(ctx, sigma, table)
    placements, degenerate = zip(*map(_table_norms, itertools.repeat(n), range(n + 1)))
    return (n + 1) * sum(placements), sum(degenerate)


def psi_counts(tower: MitosisTower, sigma: tuple) -> tuple:
    """``(diameter, degenerate)``: the L1 norms of psi(m, sigma) on the
    generic m-simplex and of its degenerate terms, by the level certificate:
    no psi, no P and no cylinder is built.  Each shuffle table of total
    m + 1 or less is certified once, as byte words whose blocks are in
    order and whose places are distinct, by ``_table_norms``; P_n's norms are
    read off the letters, lattice edges and tables of total n it would be
    built from (``P_counts``), and only the shuffle tables are held.  At
    any level above m the norms are the same, since the level shift is
    injective and maps only the identity to the identity.

    psi(n) is P_n plus, for 0 < k < n, each (k + 1, n - k) placement of the
    entries of a key of A_k = psi(n - 1, sigma[:k]) and of the pushed face
    tau_k = f(sigma[k:]).  A_k is psi(k) with every level raised by
    n - 1 - k, and by the premises at the dimensions below, its entries, P_j's
    and tau's at each j <= k, lie at level k or below before the shift, so
    below n after it: a pushed face's entries are f's, and P_j's are f's,
    g's, h's, k's and pillar table points.  So once ``P_counts`` passes at
    n, a correction term's level-n slots are its tau slots: their number
    gives k, and their set the placement, as no two places of a certified
    table put the back block on one position set; the rest is a key of A_k.
    It holds no level-n pillar, so it is none of P_n's keys.  No raw term
    cancels, and as each sign is +-1 and tau holds no identity, both norms
    follow g(n) = g(P_n) + sum over k of C(n + 1, k + 1) g(k), the
    binomial read as the (k + 1, n - k) table's length."""
    m = len(sigma)
    tables = [[_table_norms(n, p) for p in range(n + 1)] for n in range(m + 2)]
    norms = [(0, 0)]
    for n in range(1, m + 1):
        total, degenerate = P_counts(tower, sigma[:n])
        for k in range(1, n):
            placements = tables[n + 1][k + 1][0]
            total, degenerate = total + placements * norms[k][0], degenerate + placements * norms[k][1]
        norms.append((total, degenerate))
    return norms[-1]


class MitosisTower:
    """Tower homotopies over one base group: one context per level, the
    memoized generic psi, and ``algebra``, the ``CodedAlgebra`` of the base's ``TowerAlgebra``,
    whose ``elems[c]`` is the tower value with code ``c``."""

    def __init__(self, base: Group):
        self.base = base
        self.algebra = CodedAlgebra(TowerAlgebra(base))
        self._contexts: dict = {}
        self._cache: dict = {}
        # words may name any generator: one free tower serves every dim
        self._generic = None if isinstance(base, FreeGroup) else MitosisTower(FreeGroup(0))

    def context(self, level: int) -> HomotopyContext:
        """Stage-n homomorphisms into the tower's word algebra, as codes."""
        ctx = self._contexts.get(level)
        if ctx is not None:
            return ctx
        if level < 1:
            raise ValueError("mitosis level must be >= 1")
        words = self.algebra.algebra
        conj = functools.partial(words.conj, level)
        ctx = self._contexts[level] = coded_context(
            self.base, self.algebra, conj, lambda x: x, conj,
            lambda x: words.identity, functools.partial(words.pillar, level))
        return ctx

    def psi(self, level: int, sigma: tuple) -> Chain:
        """The level-n tower homotopy on a simplex of dimension m <= n.  On
        the generic simplex (x_1, ..., x_m) of a free base at level m it is
        ``induct_Q``'s build, memoized under m.  Any other psi is the generic
        stage streamed forward, as psi is natural and raising the level only
        relabels it: each raw term of ``stage_terms`` on (x_1, ..., x_m),
        over this tower's free base or its private free tower, is mapped
        through the codes of the tower map of x_i -> sigma_i composed with
        the level shift s_(n - m), and summed, so that stage is never held
        whole."""
        m = len(sigma)
        if m > level:
            raise DimensionExceeded(f"dim {m} exceeds level {level}")
        generic = tuple(FreeGroup(m).gens())
        free = self._generic or self
        if free is self and sigma == generic and level == m:
            chain = self._cache.get(m)
            if chain is None:
                chain = self._cache[m] = induct_Q(self, sigma)
            return chain
        h = self.tower_map(sigma, level - m)
        table = _Letter(lambda c: h(free.algebra.elems[c]), self.algebra.code).__getitem__
        dim, keys, coeffs, _count = stage_terms(free, generic)
        out = Chain(dim)
        out.add_terms(zip(map(tuple, map(map, itertools.repeat(table), keys)), coeffs))
        return out

    def tower_map(self, sigma: tuple, shift: int) -> Callable:
        """The tower map of x_i -> sigma_i from tower values over a free base
        to this tower's, uncoded, composed with the level shift s_``shift``:
        a word goes to its letters' images' product, and every level rises
        by ``shift``."""
        G, letters = self.base, {}
        for i, x in enumerate(sigma, start=1):
            letters[i], letters[-i] = x, G.inv(x)
        base_map = lambda word: functools.reduce(G.mul, map(letters.__getitem__, word), G.identity)
        return functools.partial(self.algebra.algebra.image, base_map=base_map, shift=shift)

    def phi(self, level: int, sigma: tuple) -> Chain:
        """Degenerate-killed homotopy: the projection of psi."""
        return project(self.algebra, self.psi(level, sigma))


# -- identity verification ---------------------------------------------------------


def verify_identity(
    source: Group,
    target_alg,
    homotopy: Callable[[tuple], Chain],
    lhs_map: Callable[[tuple], Chain],
    rhs_map: Callable[[tuple], Chain],
    sigma: tuple,
) -> Chain:
    """Residual of (dH + Hd)(sigma) = (lhs - rhs)(sigma); zero chain on success.

    Hd(sigma) is summed as a chain of its own before it joins the residual,
    so terms that cancel among the face images never enter the residual and
    the residual's term order does not depend on them.  The residual is the
    fresh boundary chain, with Hd, -lhs and +rhs added into it in place."""
    residual = boundary(target_alg, homotopy(sigma))
    faces = boundary(source, Chain.of(sigma))
    on_faces = Chain(faces.dim + 1)
    for face, coeff in faces:
        on_faces.add_chain(homotopy(face), coeff)
    residual.add_chain(on_faces)
    residual.add_chain(lhs_map(sigma), -1)
    residual.add_chain(rhs_map(sigma))
    return residual


def theorem_identity_residual(ctx: HomotopyContext, sigma: tuple, face_P: dict) -> Chain:
    """Residual of the cylinder-homotopy identity for one context and simplex.

    P of its faces is kept in ``face_P``, a dict the caller keeps for one
    context, so each distinct proper face is built once per dict.  P of
    sigma itself is kept only if the dict already holds sigma with the value
    None: the caller's mark for a simplex it will meet again as a face.
    """
    top = len(sigma)

    def P(s):
        chain = face_P.get(s)
        if chain is None:
            chain = homotopy_P(ctx, s)
            if len(s) < top or s in face_P:
                face_P[s] = chain
        return chain

    lhs = lambda s: edgewise(ctx.f, ctx.g, Chain.of(s))
    rhs = lambda s: edgewise(ctx.h, ctx.k, Chain.of(s))
    return verify_identity(ctx.source, ctx.entries, P, lhs, rhs, sigma)


def psi_identity_residual(tower: MitosisTower, level: int, sigma: tuple) -> Chain:
    """Residual of (d psi + psi d)(sigma) = embedded sigma - trivial tuple;
    the embedded simplex is sigma's entries coded in the tower."""
    alg = tower.algebra
    lhs = lambda s: Chain.of(tuple(map(alg.code, s)))
    rhs = lambda s: Chain.of((alg.identity,) * len(s))
    return verify_identity(tower.base, alg, lambda s: tower.psi(level, s), lhs, rhs, sigma)
