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
each term off the cached shuffle table.

The mitosis specialization plugs in conjugation by the inverse n-th stable
letter for both f and h, the identity for g and the trivial map for k; the
tower homotopy iterates it level by level, correcting in place with shuffle
products against lower levels (``add_shuffle_product``, tested against the
classical ``mult_map`` of ``ez`` of a tensor chain), and the
degenerate-killed variant composes with the projection.  ``verify_identity``
is the harness that evaluates a homotopy identity and returns the residual
chain instead of a bare boolean, so a failure is reported term by term
rather than hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .cylinder import cyl
from .groups import Group
from .moore import Chain, boundary, count_degenerate, diameter, project
from .quintuple import QuintupleAlgebra, VerificationInstance
from .shuffles import (
    DimensionMismatch,
    add_shuffle_product,
    edgewise,
    shuffle_entry,
    shuffle_table,
)
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
    name: str = "context"

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
        name=f"formal[{source.name}]",
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
        name=f"instance[{inst.base.name},{inst.modulus}]",
    )


def mitosis_context(level: int, base: Group) -> HomotopyContext:
    """Stage-n homomorphisms into the mitosis tower word algebra."""
    if level < 1:
        raise ValueError("mitosis level must be >= 1")
    alg = TowerAlgebra(base)

    def conj(x):
        return alg.conj(level, x)

    return HomotopyContext(
        source=base,
        entries=alg,
        f=conj,
        g=lambda x: x,
        h=conj,
        k=lambda x: alg.identity,
        m=lambda x: alg.pillar(level, x),
        name=f"mitosis[{base.name},level={level}]",
    )


# -- pillars and the homotopy ---------------------------------------------------


def pillar_of_term(ctx: HomotopyContext, rank: int, p: int, q: int, sigma: tuple) -> tuple:
    """Ordered pillar set of one shuffle term, built by the scan rules."""
    n = len(sigma)
    if p + q != n:
        raise DimensionMismatch(f"p+q = {p + q} != dim = {n}")
    G = ctx.source
    # component s of the term is g(sigma[i]) at first-block positions,
    # f(sigma[p+i]) at second-block positions
    kinds = shuffle_entry(p, q, rank).place(
        tuple(("g", i) for i in range(p)) + tuple(("f", p + i) for i in range(q))
    )
    x = G.identity
    for i in range(p):
        x = G.mul(x, sigma[i])
    pillars = [ctx.m(x)]
    for kind, idx in kinds:
        if kind == "f":
            x = G.mul(x, sigma[idx])
        else:
            x = G.mul(G.inv(sigma[idx]), x)
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
    """The cylinder homotopy on one simplex; zero on the 0-simplex."""
    n = len(sigma)
    out = Chain(n + 1)
    if n == 0:
        return out
    alg = ctx.entries
    for _p, _q, _rank, sign, top, bottom, pillars in p_cylinder_data(ctx, sigma):
        cylinder = cyl(alg, top, bottom, pillars)
        for simplex, coeff in cylinder:
            out.add_term(simplex, sign * coeff)
    return out


# -- the inductive step and the tower --------------------------------------------


def induct_Q(prev: Callable[[tuple], Chain], level: int, base: Group, sigma: tuple) -> Chain:
    """One inductive step: the stage homotopy corrected by shuffle products
    of ``prev`` on front faces against pushed-forward back faces."""
    m = len(sigma)
    if m > level:
        raise DimensionExceeded(f"dim {m} exceeds level {level}")
    ctx = mitosis_context(level, base)
    out = homotopy_P(ctx, sigma)
    for k in range(1, m):
        front = sigma[:k]          # d_(k+1) ... d_m of sigma
        back = sigma[k:]           # d_0^k of sigma
        pushed = tuple(ctx.f(x) for x in back)
        add_shuffle_product(out, prev(front), Chain.of(pushed), -1)
    return out


class MitosisTower:
    """Tower homotopies over one base group, with memoized stages."""

    def __init__(self, base: Group):
        self.base = base
        self.algebra = TowerAlgebra(base)
        self._cache: dict = {}

    def context(self, level: int) -> HomotopyContext:
        return mitosis_context(level, self.base)

    def psi(self, level: int, sigma: tuple) -> Chain:
        """The level-n tower homotopy on a simplex of dimension <= n."""
        m = len(sigma)
        if m > level:
            raise DimensionExceeded(f"dim {m} exceeds level {level}")
        if m == 0:
            return Chain(1)
        key = (level, sigma)
        cached = self._cache.get(key)
        if cached is None:
            cached = induct_Q(lambda front: self.psi(level - 1, front), level, self.base, sigma)
            self._cache[key] = cached
        return cached

    def phi(self, level: int, sigma: tuple) -> Chain:
        """Degenerate-killed homotopy: the projection of psi."""
        return project(self.algebra, self.psi(level, sigma))


def psi(level: int, base: Group, sigma: tuple) -> Chain:
    return MitosisTower(base).psi(level, sigma)


def phi(level: int, base: Group, sigma: tuple) -> Chain:
    return MitosisTower(base).phi(level, sigma)


# -- identity verification ---------------------------------------------------------


@dataclass
class PartialHomotopy:
    """A per-dimension chain-raising operation with a recorded diameter table."""

    dimension: int
    op: Callable[[tuple], Chain]
    name: str = "H"
    diameter_table: dict = field(default_factory=dict)

    def __call__(self, sigma: tuple) -> Chain:
        if len(sigma) > self.dimension:
            raise DimensionExceeded(
                f"{self.name} is a partial homotopy of dimension {self.dimension}"
            )
        out = self.op(sigma)
        seen = self.diameter_table.get(len(sigma), 0)
        self.diameter_table[len(sigma)] = max(seen, diameter(out))
        return out

    def on_chain(self, chain: Chain) -> Chain:
        out = Chain(chain.dim + 1)
        for simplex, coeff in chain:
            for term, c in self(simplex):
                out.add_term(term, coeff * c)
        return out


def verify_identity(
    source: Group,
    target_alg,
    homotopy: PartialHomotopy,
    lhs_map: Callable[[tuple], Chain],
    rhs_map: Callable[[tuple], Chain],
    sigma: tuple,
) -> Chain:
    """Residual of (dH + Hd)(sigma) = (lhs - rhs)(sigma); zero chain on success."""
    residual = boundary(target_alg, homotopy(sigma))
    residual = residual + homotopy.on_chain(boundary(source, Chain.of(sigma)))
    residual = residual - lhs_map(sigma)
    residual = residual + rhs_map(sigma)
    return residual


def theorem_identity_residual(ctx: HomotopyContext, sigma: tuple, max_dim: Optional[int] = None) -> Chain:
    """Residual of the cylinder-homotopy identity for one context and simplex."""
    bound = max_dim if max_dim is not None else len(sigma)
    H = PartialHomotopy(bound, lambda s: homotopy_P(ctx, s), name="P")
    lhs = lambda s: edgewise(ctx.f, ctx.g, Chain.of(s))
    rhs = lambda s: edgewise(ctx.h, ctx.k, Chain.of(s))
    return verify_identity(ctx.source, ctx.entries, H, lhs, rhs, sigma)


def psi_identity_residual(tower: MitosisTower, level: int, sigma: tuple) -> Chain:
    """Residual of (d psi + psi d)(sigma) = embedded sigma - trivial tuple."""
    alg = tower.algebra
    H = PartialHomotopy(level, lambda s: tower.psi(level, s), name=f"psi^{level}")
    lhs = lambda s: Chain.of(tuple(s))
    rhs = lambda s: Chain.of((alg.identity,) * len(s))
    return verify_identity(tower.base, alg, H, lhs, rhs, sigma)


def free_symbol_counts(level: int, dim: int) -> dict:
    """Exact diameter and degeneracy counts of the tower homotopy on the
    generic simplex with free-symbol entries."""
    from .groups import FreeGroup

    base = FreeGroup(dim)
    tower = MitosisTower(base)
    sigma = tuple(base.gens())
    chain = tower.psi(level, sigma)
    alg = tower.algebra
    degen = count_degenerate(alg, chain)
    return {
        "dim": dim,
        "level": level,
        "diameter": diameter(chain),
        "degenerate": degen,
        "projected_diameter": diameter(chain) - degen,
    }
