"""The paper's checkable claims, one function each.

``barhom verify`` and the acceptance suite run the same checks:

* ``theorem45``: the cylinder-homotopy identity (dP + Pd) = ed(f,g) - ed(h,k)
  over the concrete instance ``(G x G) x Z_N``, exhaustive to dimension 3 and
  sampled in dimension 4; a 4-simplex drawn again is not checked again, and
  P of each distinct simplex, checked or met as a face, is built once,
* ``cylinder_lemma``: the cylinder boundary formula on random compatible
  cylinders; a cylinder drawn again is not checked again,
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

from .cylinder import cyl, cyl_chain, face_pillar
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
    simplex_to_json,
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
        term = json.dumps({"coeff": coeff, "simplex": simplex_to_json(alg, simplex)}, sort_keys=True)
        raise CheckFailure(f"{where}: {term}")


EXHAUSTIVE_DIM = 3   # theorem45 checks every simplex up to this dim
# the largest group order theorem45 admits: its instance codes values for
# every element, which no cap on simplices sees at --maxdim 1.  The slowest
# admitted runs measured at --maxdim 1 take 8.8 s and 144 MB over
# sym4*sym4*cyclic70, 8.7 s and 108 MB over a product of 15 cyclic2 and
# 7.9 s and 120 MB over sym8 on a 2-core x86-64 VM; sym9 (362,880) took
# 54 s and 1,012 MB
THEOREM45_ORDER_MAX = 40_320


def theorem45_cap(group: Group, maxdim: int, cap: int) -> None:
    """A ``ValueError`` if ``theorem45`` would enumerate over ``cap``
    simplices, or a group of order above ``THEOREM45_ORDER_MAX``, found by
    enumerating at most one element more."""
    dim = min(maxdim, EXHAUSTIVE_DIM)
    elements = itertools.islice(group.elements(), THEOREM45_ORDER_MAX + 1) if group.finite else ()
    for order, _ in enumerate(elements, start=1):
        if order ** dim > cap:
            raise ValueError(f"term cap exceeded: theorem45 enumerates {group.name}^{dim}, "
                             f"more than {cap} simplices")
        if order > THEOREM45_ORDER_MAX:
            raise ValueError(f"order cap exceeded: theorem45 enumerates {group.name}, "
                             f"more than {THEOREM45_ORDER_MAX} elements")


def theorem45(group: Group, modulus: int, maxdim: int, samples: int,
              rng: random.Random, emit=_quiet) -> None:
    """The Theorem 4.5 identity over ``(group x group) x Z_modulus``: every
    simplex of dim <= min(maxdim, EXHAUSTIVE_DIM), then ``samples`` random 4-simplices
    if maxdim >= 4.  All ``samples`` draws are made, and the report counts
    draws, but a simplex drawn again is not checked again: its residual is
    a function of the simplex.  The draws come before the sweep, which reads
    no rng, so every face a check will meet is known first: P of each
    distinct simplex, checked or met as a face, is built once, and a checked
    simplex keeps its P only if a later check meets it as a face.  An
    infinite group is a ``ValueError``, raised before any work."""
    if not group.finite:
        raise ValueError(f"theorem45 enumerates the group, and {group.name} is infinite")
    inst = VerificationInstance(group, modulus)
    ctx = instance_context(inst)
    elements = tuple(group.elements())
    for x in elements:
        if not inst.relation_holds(x):
            raise CheckFailure(
                f"instance relation fails at {json.dumps(group.entry_to_json(x), sort_keys=True)}")
    emit(f"instance relation holds on {group.name}")
    drawn = dict.fromkeys(random_simplex(group, 4, rng) for _ in range(samples)) if maxdim >= 4 else {}
    exhaustive = range(min(maxdim, EXHAUSTIVE_DIM) + 1)
    checked = itertools.chain(*(itertools.product(elements, repeat=m) for m in exhaustive), drawn)
    # every face a check will meet, marked None until its P is built
    face_P = dict.fromkeys(itertools.chain.from_iterable(boundary(group, Chain.of(s)).terms for s in checked))
    for m in exhaustive:
        for sigma in itertools.product(elements, repeat=m):
            _require_zero(ctx.entries, theorem_identity_residual(ctx, sigma, face_P),
                          f"theorem45 residual at dim {m}")
        emit(f"theorem45 identity exhaustive dim {m} ({len(elements) ** m} simplices)")
    if maxdim >= 4:
        for sigma in drawn:
            _require_zero(ctx.entries, theorem_identity_residual(ctx, sigma, face_P),
                          "theorem45 residual at dim 4")
        emit(f"theorem45 identity randomized dim 4 ({samples} samples)")


def cylinder_boundary_rhs(group: Group, top: tuple, bottom: tuple, pillars: tuple) -> Chain:
    """top - bottom - sum_i (-1)^i Cyl(d_i top, d_i bottom, d_i pillars): the
    boundary of the cylinder by the lemma."""
    dim = len(top)
    rhs = cyl_chain(group, dim - 1, (
        ((-1) ** (i + 1), face(group, i, top), face(group, i, bottom), face_pillar(i, pillars))
        for i in (range(dim + 1) if dim else ())
    ))
    rhs.add_term(top, 1)
    rhs.add_term(bottom, -1)
    return rhs


def cylinder_lemma(group: Group, maxdim: int, samples: int, rng: random.Random, emit=_quiet) -> None:
    """The cylinder boundary formula on ``samples`` random compatible
    cylinders of dims 0..maxdim.  All ``samples`` draws are made, and the
    report counts draws, but a cylinder drawn again is not checked again:
    the check is a function of ``(top, bottom, pillars)``."""
    seen = set()
    for _ in range(samples):
        dim = rng.randrange(0, maxdim + 1)
        case = random_compatible(group, dim, rng)
        if case not in seen:
            seen.add(case)
            if boundary(group, cyl(group, *case)) != cylinder_boundary_rhs(group, *case):
                raise CheckFailure(f"cylinder boundary formula fails at dim {dim}")
    emit(f"cylinder boundary lemma on {samples} random compatible cylinders")


def psi_identity(level: int, maxdim: int, emit=_quiet) -> None:
    """The level-``level`` tower identity on the generic free-symbol simplex
    of each dim <= min(maxdim, level)."""
    base = FreeGroup(max(maxdim, 1))
    tower = MitosisTower(base)
    for m in range(min(maxdim, level) + 1):
        sigma = tuple(base.gens()[:m])
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
        sigma = Chain.of(tuple(base.gens()[:m]))
        one = edgewise(ctx.f, ctx.g, sigma)
        if one != edgewise_composite(ctx.entries, ctx.f, ctx.g, sigma):
            raise CheckFailure(f"edgewise implementations disagree at dim {m}")
        rhs = edgewise(ctx.f, ctx.g, boundary(base, sigma))
        if boundary(ctx.entries, one) != rhs:
            raise CheckFailure(f"edgewise is not a chain map at dim {m}")
    emit(f"edgewise code paths agree and are chain maps, dims <= {maxdim}")
