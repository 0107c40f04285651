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
tower homotopy iterates it level by level, correcting in place with shuffle
products against lower levels (``add_shuffle_product``, tested against the
classical ``mult_map`` of ``ez`` of a tensor chain), and the
degenerate-killed variant composes with the projection.  One
``MitosisTower`` owns one word algebra, coded as small ints by a
``groups.CodedAlgebra``: each level's context, built once, maps source
elements to codes, so every term of psi is a tuple of ints and only
``entry_to_json`` decodes a tower value.  The tower memoizes its stages.
``verify_identity`` is the harness that evaluates a homotopy identity for
any callable H and returns the residual chain instead of a bare boolean, so
a failure is reported term by term rather than hidden.
``theorem_identity_residual`` keeps P of the proper faces it meets in a dict
its caller passes, so a run of checks on one context (one
``checks.theorem45`` call) builds P once per distinct face; P of the checked
simplex itself is never kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .cylinder import cyl_chain
from .groups import CodedAlgebra, Group
from .moore import Chain, boundary, project
from .quintuple import QuintupleAlgebra, VerificationInstance
from .shuffles import DimensionMismatch, add_shuffle_product, edgewise, shuffle_table, shuffles
from .words import TowerAlgebra


class DimensionExceeded(Exception):
    pass


@dataclass
class HomotopyContext:
    """Source group, target entry algebra, and the four homomorphisms plus m."""

    source: Group
    entries: object
    f: Callable
    g: Callable
    h: Callable
    k: Callable
    m: Callable

    @property
    def ell(self):
        return self.m(self.source.identity)


def formal_context(source: Group) -> HomotopyContext:
    """Four distinct formal letters over the quintuple algebra."""
    alg = QuintupleAlgebra(source)
    return HomotopyContext(
        source=source,
        entries=alg,
        f=alg.f,
        g=alg.g,
        h=alg.h,
        k=alg.k,
        m=alg.m,
    )


def instance_context(inst: VerificationInstance) -> HomotopyContext:
    return HomotopyContext(
        source=inst.base,
        entries=inst.target,
        f=inst.f,
        g=inst.g,
        h=inst.h,
        k=inst.k,
        m=inst.m,
    )


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


def induct_Q(tower: MitosisTower, level: int, sigma: tuple) -> Chain:
    """One inductive step: the stage homotopy corrected by shuffle products
    of the previous stage on front faces against pushed-forward back faces."""
    m = len(sigma)
    if m > level:
        raise DimensionExceeded(f"dim {m} exceeds level {level}")
    ctx = tower.context(level)
    out = homotopy_P(ctx, sigma)
    for k in range(1, m):
        front = sigma[:k]          # d_(k+1) ... d_m of sigma
        back = sigma[k:]           # d_0^k of sigma
        pushed = tuple(ctx.f(x) for x in back)
        add_shuffle_product(out, tower.psi(level - 1, front), Chain.of(pushed), -1)
    return out


class MitosisTower:
    """Tower homotopies over one base group: one coded word algebra, one
    context per level and memoized stages.

    ``algebra`` is the ``CodedAlgebra`` of the base group's ``TowerAlgebra``:
    the chains hold int codes, and ``algebra.elems[c]`` is the tower value
    with code ``c``."""

    def __init__(self, base: Group):
        self.base = base
        self.algebra = CodedAlgebra(TowerAlgebra(base))
        self._contexts: dict = {}
        self._cache: dict = {}

    def context(self, level: int) -> HomotopyContext:
        """Stage-n homomorphisms into the tower's word algebra, as codes."""
        ctx = self._contexts.get(level)
        if ctx is not None:
            return ctx
        if level < 1:
            raise ValueError("mitosis level must be >= 1")
        alg = self.algebra
        code, words = alg.code, alg.algebra

        def conj(x):
            return code(words.conj(level, x))

        ctx = self._contexts[level] = HomotopyContext(
            source=self.base,
            entries=alg,
            f=conj,
            g=code,
            h=conj,
            k=lambda x: alg.identity,
            m=lambda x: code(words.pillar(level, x)),
        )
        return ctx

    def psi(self, level: int, sigma: tuple) -> Chain:
        """The level-n tower homotopy on a simplex of dimension <= n."""
        if not sigma:
            return Chain(1)
        key = (level, sigma)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._cache[key] = induct_Q(self, level, sigma)
        return cached

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

    P of sigma itself is built afresh; P of its faces is kept in ``face_P``,
    a dict the caller keeps for one context, so each distinct proper face is
    built once per dict.
    """
    top = len(sigma)

    def P(s):
        if len(s) == top:
            return homotopy_P(ctx, s)
        chain = face_P.get(s)
        if chain is None:
            chain = face_P[s] = homotopy_P(ctx, s)
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
