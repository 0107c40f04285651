"""Controlled chain homotopies between edgewise subdivisions.

Given four homomorphisms f, g, h, k from a source group (f commuting with g,
h with k) and a connecting element l with l f(x) g(x) = h(x) k(x) l, the
homotopy applied to a simplex is the signed sum, over all shuffles, of
cylinders between the matching subdivision terms of the two pairs.  The
pillar set of a shuffle term is produced by a left-to-right scan: it starts
at m(g_1 ... g_p) (at l when p = 0), crossing an f-component appends its
argument to the m-argument, and crossing a g-component strips its argument
from the left.

The scan only ever visits the points of the (p+1) x (q+1) lattice of the
shuffle's path: after crossing i g-components and j f-components the
m-argument is the product of sigma[i:p+j].  ``p_cylinder_data`` therefore
evaluates m once per lattice point and f, g, h, k once per entry, and reads
each term off the cached shuffle table; ``homotopy_P`` is the chain cylinder
``cylinder.cyl_chain`` over those data.  ``pillar_of_term`` runs the scan
for one term, with the component order of the itertools-built ``shuffles``:
it is the reference the tests hold ``p_cylinder_data`` to.

The mitosis specialization plugs in conjugation by the inverse n-th stable
letter for both f and h, the identity for g and the trivial map for k; the
tower homotopy psi iterates it level by level, correcting with shuffle
products (``shuffle_terms``) against lower levels, and phi projects psi.
``stage`` is the one place that builds a stage's parts: P, then each
correction's factors, psi one level down and a pushed back face.
``stage_terms`` streams their raw terms in order, as batches: P's, then
each correction's ``shuffle_terms``.  ``induct_Q`` sums that stream into the
stage's chain, on the generic simplex (x_1, ..., x_m) of a free base at
level m, where no raw term may repeat, and raises ``ChainError`` if its dict
holds fewer keys than it summed raw terms: it is the enumerated oracle.
``psi_counts`` builds no psi and draws no raw term.  It builds one P per
dimension, checks the premises of the level certificate on the codes each
P and its pushed faces hold and on the shuffle table's placements, and
sums the norms by the recurrence those premises prove, or raises
``ChainError``.  The
gamma, q and c recurrences depend on the dimension alone, and on the
generic simplex raising the level only relabels: psi(L, sigma_m) =
s_(L-m)(psi(m, sigma_m)), where the level shift s_d raises every level by
d.  So every other psi, on another simplex
or at a raised level, is the generic stage streamed forward: each batch of
``stage_terms`` on the generic simplex is mapped through the codes of the
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
from typing import Callable

from .cylinder import cyl_chain
from .groups import CodedAlgebra, FreeGroup, Group
from .moore import Chain, ChainError, boundary, count_degenerate, diameter, project
from .quintuple import QuintupleAlgebra, VerificationInstance
from .shuffles import DimensionMismatch, edgewise, shuffle_placements, shuffle_table, shuffle_terms, shuffles
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


def pillar_of_term(ctx: HomotopyContext, rank: int, p: int, q: int, sigma: tuple) -> tuple:
    """Ordered pillar set of one shuffle term, built by the scan rules.

    The reference ``p_cylinder_data`` is tested against: the component order
    comes from the itertools-built ``shuffles``, not from the table."""
    n = len(sigma)
    if p + q != n:
        raise DimensionMismatch(f"p+q = {p + q} != dim = {n}")
    ranked = shuffles(p, q)
    # checked here, since a list index would wrap
    if not 1 <= rank <= len(ranked):
        raise IndexError(f"rank {rank} out of 1..{len(ranked)} for ({p},{q})")
    # component s of the term is g(sigma[i]) at the i-th first-block
    # position, f(sigma[p+j]) at the j-th second-block position
    g_positions = set(ranked[rank - 1].first)
    G = ctx.source
    x = G.identity
    for i in range(p):
        x = G.mul(x, sigma[i])
    pillars = [ctx.m(x)]
    i, j = 0, p
    for pos in range(1, n + 1):
        if pos in g_positions:
            x = G.mul(G.inv(sigma[i]), x)
            i += 1
        else:
            x = G.mul(x, sigma[j])
            j += 1
        pillars.append(ctx.m(x))
    return tuple(pillars)


def _pillar_grid(ctx: HomotopyContext, sigma: tuple, p: int) -> list:
    """m(sigma[i] ... sigma[p+j-1]) at every lattice point (i, j), row-major:
    the pillar the scan holds after crossing i g- and j f-components."""
    G = ctx.source
    x = G.identity
    for s in sigma[:p]:
        x = G.mul(x, s)
    row = [x]
    for s in sigma[p:]:
        row.append(G.mul(row[-1], s))
    grid = list(row)
    for s in sigma[:p]:
        inv = G.inv(s)
        row = [G.mul(inv, y) for y in row]
        grid.extend(row)
    # a list: tuples of these sizes built per call filled CPython's tuple
    # free lists and raised peak memory on many small simplices
    return list(map(ctx.m, grid))


def p_cylinder_data(ctx: HomotopyContext, sigma: tuple):
    """Per-shuffle (p, q, rank, sign, top, bottom, pillars) of the homotopy."""
    n = len(sigma)
    for p in range(n + 1):
        front, back = sigma[:p], sigma[p:]
        top_source = tuple(map(ctx.g, front)) + tuple(map(ctx.f, back))
        bottom_source = tuple(map(ctx.k, front)) + tuple(map(ctx.h, back))
        grid = _pillar_grid(ctx, sigma, p)
        for rank, entry in enumerate(shuffle_table(p, n - p), start=1):
            yield (p, n - p, rank, entry.sign, entry.place(top_source),
                   entry.place(bottom_source), entry.path(grid))


def pillar_system(ctx: HomotopyContext, sigma: tuple) -> dict:
    """The pillar system of sigma keyed by shuffle coordinate (p, q, rank)."""
    return {
        (p, q, rank): pillars
        for p, q, rank, _sign, _top, _bottom, pillars in p_cylinder_data(ctx, sigma)
    }


def homotopy_P(ctx: HomotopyContext, sigma: tuple) -> Chain:
    """The cylinder homotopy on one simplex: the chain cylinder between the
    two subdivisions along the pillar system; zero on the 0-simplex."""
    n = len(sigma)
    if n == 0:
        return Chain(1)
    return cyl_chain(ctx.entries, n, (
        (sign, top, bottom, pillars)
        for _p, _q, _rank, sign, top, bottom, pillars in p_cylinder_data(ctx, sigma)
    ))


# -- the inductive step and the tower --------------------------------------------


# raw terms per batch of ``stage_terms``, whose tuples are alive at once:
# the concrete expand --op psi --group sym3 --dim 6 peaks at 37.4 MB with
# 4,096 and at 39.4 MB with 65,536
BATCH = 4096


def _batches(keys, coeffs):
    """Lists of at most ``BATCH`` simplices and their coefficients, drawn in
    step from the two iterators of one stream of raw terms."""
    keys, coeffs = iter(keys), iter(coeffs)
    while simplices := list(itertools.islice(keys, BATCH)):
        yield simplices, list(itertools.islice(coeffs, BATCH))


def stage(tower: MitosisTower, sigma: tuple) -> tuple:
    """``(P, factors)``: the parts of psi(m, sigma)'s stage on an m-simplex,
    at level m, the one place they are built.

    P is the cylinder homotopy on sigma, built first, and ``factors`` holds,
    for 0 < k < m, the pair ``(psi(m - 1, sigma[:k]), tau_k)`` of the front
    face d_(k+1) ... d_m at the level below and the back face d_0^k pushed,
    as a simplex.  The stage's raw terms are P's, then each correction's, the
    ``shuffle_terms`` of ``-(psi shuffle tau_k)``.  Every value the stage
    holds is coded before this returns."""
    m = len(sigma)
    # the 0-simplex has no level of its own: its stage, empty, is read at 1
    ctx = tower.context(m or 1)
    # P first: a fresh tower codes values in the order they are built
    P = homotopy_P(ctx, sigma)
    return P, [(tower.psi(m - 1, sigma[:k]), tuple(map(ctx.f, sigma[k:]))) for k in range(1, m)]


def stage_terms(P: Chain, factors: list) -> tuple:
    """``(dim, batches, count)``: the raw terms of the stage ``stage``
    built, in order, as lists of at most ``BATCH`` simplices and their
    coefficients drawn through ``_batches``, their dimension and their
    number."""
    streams = [(P.terms, P.terms.values(), len(P))]
    streams += [shuffle_terms(a, Chain.of(tau), -1) for a, tau in factors]
    keys, coeffs, counts = zip(*streams)
    return P.dim, itertools.chain.from_iterable(map(_batches, keys, coeffs)), sum(counts)


def induct_Q(tower: MitosisTower, sigma: tuple) -> Chain:
    """One inductive step on a generic simplex, at level = dim: the stage's
    raw terms summed as one dict, updated a batch at a time (see ``moore``).
    No raw key may repeat, so the dict holds one key per raw term, in order,
    and ``ChainError`` is raised if it does not."""
    dim, batches, count = stage_terms(*stage(tower, sigma))
    out = Chain(dim)
    for simplices, coeffs in batches:
        out.terms.update(zip(simplices, coeffs))
    if len(out) != count:
        m = len(sigma)
        raise ChainError(f"psi({m}) on a {m}-simplex: {len(out)} distinct keys for {count} raw terms")
    return out


def _require(holds: bool, n: int, premise: str) -> None:
    """Raise ``ChainError`` on the stage of psi(n) unless ``premise`` holds."""
    if not holds:
        raise ChainError(f"psi({n}) on a {n}-simplex: {premise}")


def _P_norms(tower: MitosisTower, sigma: tuple) -> tuple:
    """``(diameter, degenerate)`` of P_n, the cylinder stage of psi(n) on the
    generic n-simplex ``sigma`` at level n, once it has passed its premises
    of the level certificate: every entry ``f(x)`` of a pushed face tau_k =
    f(sigma[k:]), 0 < k < n, is a level-n ``Conjugated``, so not the
    identity; every key of P_n holds a level-n ``PillarWord``; and no entry
    of P_n lies above level n.  P_n is the only chain held, and it is freed
    on return."""
    n = len(sigma)
    ctx, elems = tower.context(n), tower.algebra.elems
    _require(all(isinstance(v, Conjugated) and v.level == n for v in (elems[ctx.f(x)] for x in sigma[1:])),
             n, f"a pushed face entry is not a level-{n} conjugate")
    P = homotopy_P(ctx, sigma)
    codes = set(itertools.chain.from_iterable(P.terms))
    _require(max(value_level(elems[c]) for c in codes) <= n, n, f"an entry of P lies above level {n}")
    pillars = {c for c in codes if isinstance(elems[c], PillarWord) and elems[c].level == n}
    _require(not any(map(pillars.isdisjoint, P.terms)), n, f"a term of P holds no level-{n} pillar")
    return diameter(P), count_degenerate(tower.algebra, P)


def _placements(n: int, k: int) -> int:
    """The number of (k + 1, n - k) placements, once each ``place`` getter,
    applied to ``range(n + 1)``, is a permutation and no two put the pushed
    face's slots on one position set."""
    p = k + 1
    slots = [place(range(n + 1)) for place in shuffle_placements(p, n - k)[1]]
    _require(all(sorted(s) == list(range(n + 1)) for s in slots)
             and len({tuple(i >= p for i in s) for s in slots}) == len(slots),
             n, f"the ({p}, {n - k}) placements are not permutations with distinct face slots")
    return len(slots)


def psi_counts(tower: MitosisTower, sigma: tuple) -> tuple:
    """``(diameter, degenerate)``: the L1 norms of psi(m, sigma) on the
    generic m-simplex and of its degenerate terms, by the level certificate:
    one P per dimension is built, and no psi.  At any level above m they are
    the same, since the level shift is injective and maps only the identity
    to the identity.

    psi(n) is P_n plus, for 0 < k < n, each (k + 1, n - k) placement of the
    entries of a key of A_k = psi(n - 1, sigma[:k]) and of the pushed face
    tau_k = f(sigma[k:]).  A_k is psi(k) with every level raised by
    n - 1 - k, and by the premises at the dimensions below, its entries, P_j's
    and tau's at each j <= k, lie at level k or below before the shift, so
    below n after it.  So once ``_P_norms`` and ``_placements`` pass at n, a
    correction term's level-n slots are its tau slots: their number gives k,
    their set the placement, and the rest is a key of A_k.  It holds no
    level-n pillar, so it is none of P_n's keys.  No raw term cancels, and
    as tau holds no identity, both norms follow
    g(n) = g(P_n) + sum over k of C(n + 1, k + 1) g(k)."""
    norms = [(0, 0)]
    for n in range(1, len(sigma) + 1):
        total, degenerate = _P_norms(tower, sigma[:n])
        for k in range(1, n):
            placements = _placements(n, k)
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
        relabels it: each batch of ``stage_terms`` on (x_1, ..., x_m), over
        this tower's free base or its private free tower, is mapped through
        the codes of the tower map of x_i -> sigma_i composed with the level
        shift s_(n - m), and summed, so that stage is never held whole."""
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
        dim, batches, _count = stage_terms(*stage(free, generic))
        out = Chain(dim)
        for simplices, coeffs in batches:
            out.add_terms(zip(map(tuple, map(map, itertools.repeat(table), simplices)), coeffs))
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
