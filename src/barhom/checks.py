"""The paper's checkable claims, one function each.

``barhom verify`` and the acceptance suite run the same checks:

* ``theorem45``: the cylinder-homotopy identity (dP + Pd) = ed(f,g) - ed(h,k)
  over the concrete instance ``(G x G) x Z_N``, exhaustive to dimension 3 and
  sampled in dimension 4,
* ``cylinder_lemma``: the cylinder boundary formula on random compatible
  cylinders,
* ``psi_identity``: the tower identity (d psi + psi d)(sigma) = sigma - [e,...,e]
  on the generic simplex,
* ``chain_maps``: dd = 0, the simplicial identities, the projection as a chain
  map with the L1 split, and the two edgewise subdivisions agreeing as chain
  maps.

Each check raises ``CheckFailure`` at the first offending case and reports
each finished batch of cases through ``emit``.  Random cases are drawn from
the caller's ``rng`` in a fixed order, so one seed fixes every case.
"""

from __future__ import annotations

import itertools
import json
import random

from .cylinder import cyl, face_pillar
from .groups import FreeGroup, Group
from .homotopy import (
    MitosisTower,
    formal_context,
    instance_context,
    psi_identity_residual,
    theorem_identity_residual,
)
from .moore import (
    Chain,
    boundary,
    cellular_boundary,
    count_degenerate,
    degeneracy,
    diameter,
    face,
    project,
)
from .quintuple import VerificationInstance
from .shuffles import edgewise, edgewise_composite


class CheckFailure(Exception):
    """A checked identity or property fails on a concrete case."""


def _quiet(msg: str) -> None:
    pass


def random_simplex(group: Group, dim: int, rng: random.Random) -> tuple:
    return tuple(group.sample(rng) for _ in range(dim))


def random_compatible(group: Group, dim: int, rng: random.Random):
    """Random top and bottom simplices with a pillar set compatible with both."""
    top = random_simplex(group, dim, rng)
    bottom = random_simplex(group, dim, rng)
    pillars = [group.sample(rng)]
    for i in range(dim):
        # t_(i+1) = inv(b_(i+1)) t_i a_(i+1) keeps the defining relations
        pillars.append(group.mul(group.inv(bottom[i]), group.mul(pillars[i], top[i])))
    return top, bottom, tuple(pillars)


def _require_zero(alg, residual: Chain, where: str) -> None:
    if not residual.is_zero():
        simplex, coeff = next(iter(residual))
        entries = [alg.entry_to_json(e) for e in simplex]
        term = json.dumps({"coeff": coeff, "simplex": entries}, sort_keys=True)
        raise CheckFailure(f"{where}: {term}")


def theorem45(group: Group, modulus: int, maxdim: int, samples: int,
              rng: random.Random, emit=_quiet) -> None:
    """The Theorem 4.5 identity over ``(group x group) x Z_modulus``: every
    simplex of dim <= min(maxdim, 3), then ``samples`` random 4-simplices
    if maxdim >= 4.  An infinite group is a ``ValueError``, raised before
    any work."""
    if not group.finite:
        raise ValueError(f"theorem45 enumerates the group, and {group.name} is infinite")
    inst = VerificationInstance(group, modulus)
    ctx = instance_context(inst)
    face_P: dict = {}   # P of the proper faces met, kept for this context
    for x in group.elements():
        if not inst.relation_holds(x):
            raise CheckFailure(f"instance relation fails at {group.describe(x)}")
    emit(f"instance relation holds on {group.name}")
    for m in range(min(maxdim, 3) + 1):
        cases = list(itertools.product(group.elements(), repeat=m))
        for sigma in cases:
            _require_zero(ctx.entries, theorem_identity_residual(ctx, sigma, face_P),
                          f"theorem45 residual at dim {m}")
        emit(f"theorem45 identity exhaustive dim {m} ({len(cases)} simplices)")
    if maxdim >= 4:
        for _ in range(samples):
            sigma = random_simplex(group, 4, rng)
            _require_zero(ctx.entries, theorem_identity_residual(ctx, sigma, face_P),
                          "theorem45 residual at dim 4")
        emit(f"theorem45 identity randomized dim 4 ({samples} samples)")


def cylinder_boundary_rhs(group: Group, top: tuple, bottom: tuple, pillars: tuple) -> Chain:
    """top - bottom - sum_i (-1)^i Cyl(d_i top, d_i bottom, d_i pillars): the
    boundary of the cylinder by the lemma."""
    dim = len(top)
    rhs = Chain(dim, [(top, 1), (bottom, -1)])
    sign = 1
    for i in range(dim + 1) if dim else ():
        rhs.add_chain(cyl(group, face(group, i, top), face(group, i, bottom), face_pillar(i, pillars)), -sign)
        sign = -sign
    return rhs


def cylinder_lemma(group: Group, maxdim: int, samples: int, rng: random.Random, emit=_quiet) -> None:
    """The cylinder boundary formula on ``samples`` random compatible
    cylinders of dims 0..maxdim."""
    for _ in range(samples):
        dim = rng.randrange(0, maxdim + 1)
        top, bottom, pillars = random_compatible(group, dim, rng)
        if boundary(group, cyl(group, top, bottom, pillars)) != cylinder_boundary_rhs(group, top, bottom, pillars):
            raise CheckFailure(f"cylinder boundary formula fails at dim {dim}")
    emit(f"cylinder boundary lemma on {samples} random compatible cylinders")


def psi_identity(level: int, maxdim: int, emit=_quiet) -> None:
    """The level-``level`` tower identity on the generic free-symbol simplex
    of each dim <= min(maxdim, level)."""
    base = FreeGroup(max(maxdim, 1))
    tower = MitosisTower(base)
    for m in range(min(maxdim, level) + 1):
        sigma = tuple(base.gen(i + 1) for i in range(m))
        _require_zero(tower.algebra, psi_identity_residual(tower, level, sigma),
                      f"psi identity residual at level {level} dim {m}")
        emit(f"psi identity level {level} dim {m}: zero residual")


def chain_maps(group: Group, maxdim: int, cases: int, rng: random.Random, emit=_quiet) -> None:
    """Structural properties of the Moore complex and the subdivision.

    ``cases`` random 4-term chains of dims 1..maxdim: dd = 0, the projection
    is a chain map and diameter = projected + degenerate diameter.  ``cases``
    random simplices of dims 2..max(maxdim, 2): the face and degeneracy
    identities.  The generic simplex of each dim 1..maxdim: both edgewise
    code paths agree and are chain maps.
    """
    for _ in range(cases):
        dim = rng.randrange(1, maxdim + 1)
        chain = Chain(dim)
        for _ in range(4):
            chain.add_term(random_simplex(group, dim, rng), rng.choice((-2, -1, 1, 2)))
        d = boundary(group, chain)
        if not boundary(group, d).is_zero():
            raise CheckFailure("dd != 0")
        projected = project(group, chain)
        if project(group, d) != cellular_boundary(group, projected):
            raise CheckFailure("projection is not a chain map")
        if diameter(chain) != diameter(projected) + count_degenerate(group, chain):
            raise CheckFailure("diameter is not projected + degenerate diameter")
    emit("dd = 0 and projection chain map on random simplices")
    for _ in range(cases):
        dim = rng.randrange(2, max(maxdim, 2) + 1)
        sigma = random_simplex(group, dim, rng)
        for j in range(dim + 1):
            for i in range(j):
                if face(group, i, face(group, j, sigma)) != face(group, j - 1, face(group, i, sigma)):
                    raise CheckFailure(f"face identity fails at ({i},{j})")
            sj = degeneracy(group, j, sigma)
            if face(group, j, sj) != sigma or face(group, j + 1, sj) != sigma:
                raise CheckFailure(f"degeneracy identity fails at {j}")
    emit("simplicial identities on random simplices")
    base = FreeGroup(maxdim)
    ctx = formal_context(base)
    for m in range(1, maxdim + 1):
        sigma = Chain.of(tuple(base.gen(i + 1) for i in range(m)))
        one = edgewise(ctx.f, ctx.g, sigma)
        if one != edgewise_composite(ctx.entries, ctx.f, ctx.g, sigma):
            raise CheckFailure(f"edgewise implementations disagree at dim {m}")
        rhs = edgewise(ctx.f, ctx.g, boundary(base, sigma))
        if boundary(ctx.entries, one) != rhs:
            raise CheckFailure(f"edgewise is not a chain map at dim {m}")
    emit(f"edgewise code paths agree and are chain maps, dims <= {maxdim}")
