import itertools
import random

import pytest

from barhom.bounds import c_bound, d_cyl, gamma, q_count
from barhom.cylinder import boundary_system
from barhom.groups import CyclicGroup, FreeGroup, SymmetricGroup
from barhom.homotopy import (
    DimensionExceeded,
    MitosisTower,
    PartialHomotopy,
    formal_context,
    homotopy_P,
    induct_Q,
    instance_context,
    mitosis_context,
    p_cylinder_data,
    pillar_of_term,
    pillar_system,
    psi_identity_residual,
    theorem_identity_residual,
    verify_identity,
)
from barhom.moore import Chain, boundary, count_degenerate, diameter, face, project, pushforward
from barhom.quintuple import VerificationInstance
from barhom.shuffles import add_shuffle_product, ez, mult_map, shuffle_term, shuffles, tensor_of_chains
from barhom.words import Conjugated, PillarWord


def _formal(m):
    F = FreeGroup(m)
    ctx = formal_context(F)
    return F, ctx, ctx.entries


# -- pillars ---------------------------------------------------------------------


def test_pillar_scan_examples():
    F, ctx, alg = _formal(3)
    g1, g2, g3 = F.gens()
    sigma = (g1, g2, g3)
    m = alg.m
    mul = F.mul
    assert pillar_of_term(ctx, 1, 0, 3, sigma) == (
        alg.ell, m(g1), m(mul(g1, g2)), m(mul(mul(g1, g2), g3)),
    )
    assert pillar_of_term(ctx, 2, 1, 2, sigma) == (
        m(g1), m(mul(g1, g2)), m(g2), m(mul(g2, g3)),
    )


def test_pillar_system_of_two_simplex():
    F, ctx, alg = _formal(2)
    g1, g2 = F.gens()
    m = alg.m
    g12 = F.mul(g1, g2)
    system = pillar_system(ctx, (g1, g2))
    assert system == {
        (0, 2, 1): (alg.ell, m(g1), m(g12)),
        (1, 1, 1): (m(g1), alg.ell, m(g2)),
        (1, 1, 2): (m(g1), m(g12), m(g2)),
        (2, 0, 1): (m(g12), m(g2), alg.ell),
    }


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pillar_well_definedness(m):
    # constructing P validates every pillar relation; over the concrete
    # instance as well as the formal algebra
    F, ctx, alg = _formal(m)
    homotopy_P(ctx, tuple(F.gens()))
    group = CyclicGroup(3)
    inst_ctx = instance_context(VerificationInstance(group, 5))
    rng = random.Random(m)
    for _ in range(10):
        sigma = tuple(group.sample(rng) for _ in range(m))
        homotopy_P(inst_ctx, sigma)


def _face_buckets(ctx, sigma):
    """Group signed shuffle-term faces by (face pair), bucketed by pillar set."""
    alg = ctx.entries
    m = len(sigma)
    by_face: dict = {}
    for p, q, rank, sign, top, bottom, pillars in p_cylinder_data(ctx, sigma):
        for k in range(m + 1):
            key = (face(alg, k, top), face(alg, k, bottom))
            buckets = by_face.setdefault(key, {})
            fp = pillars[:k] + pillars[k + 1 :]
            buckets[fp] = buckets.get(fp, 0) + sign * (-1) ** k
    return by_face


@pytest.mark.parametrize("m", [2, 3, 4])
def test_pillar_face_compatibility(m):
    # signed faces only ever cancel against faces carrying the same pillar
    # set: netting signs inside equal-pillar buckets leaves at most one
    # surviving bucket per face, never +1 in one pillar set and -1 in another
    F, ctx, alg = _formal(m)
    by_face = _face_buckets(ctx, tuple(F.gens()))
    cancelled = 0
    for buckets in by_face.values():
        nets = [n for n in buckets.values() if n != 0]
        assert len(nets) <= 1
        assert all(abs(n) == 1 for n in nets)
        cancelled += sum(1 for n in buckets.values() if n == 0)
    assert cancelled > 0


@pytest.mark.parametrize("m", [2, 3])
def test_boundary_system_matches_face_systems(m):
    # the surviving face pillars are exactly the pillar sets the faces' own
    # systems assign to the matching subdivision terms
    F, ctx, alg = _formal(m)
    sigma = tuple(F.gens())
    by_face = _face_buckets(ctx, sigma)
    surviving = {
        key: next(fp for fp, n in buckets.items() if n != 0)
        for key, buckets in by_face.items()
        if any(n != 0 for n in buckets.values())
    }
    for i in range(m + 1):
        fs = face(F, i, sigma)
        for p, q, rank, sign, top, bottom, pillars in p_cylinder_data(ctx, fs):
            assert surviving[(top, bottom)] == pillars
    # the face-indexed family contains every face system set-wise
    parent_sets = set(boundary_system(pillar_system(ctx, sigma)).values())
    face_sets = set()
    for i in range(m + 1):
        face_sets |= set(pillar_system(ctx, face(F, i, sigma)).values())
    assert face_sets <= parent_sets


# -- the homotopy P ---------------------------------------------------------------


def test_P_one_simplex_display():
    F, ctx, alg = _formal(1)
    g1 = F.gen(1)
    expected = Chain(
        2,
        {
            (alg.ell, alg.f(g1)): 1,
            (alg.h(g1), alg.m(g1)): -1,
            (alg.m(g1), alg.g(g1)): 1,
            (alg.k(g1), alg.ell): -1,
        },
    )
    assert homotopy_P(ctx, (g1,)) == expected


def test_P_two_simplex_display():
    F, ctx, alg = _formal(2)
    g1, g2 = F.gens()
    g12 = F.mul(g1, g2)
    f, g, h, k, m = alg.f, alg.g, alg.h, alg.k, alg.m
    ell = alg.ell
    expected = Chain(
        3,
        {
            (ell, f(g1), f(g2)): 1,
            (h(g1), m(g1), f(g2)): -1,
            (h(g1), h(g2), m(g12)): 1,
            (m(g1), g(g1), f(g2)): 1,
            (k(g1), ell, f(g2)): -1,
            (k(g1), h(g2), m(g2)): 1,
            (m(g1), f(g2), g(g1)): -1,
            (h(g2), m(g12), g(g1)): 1,
            (h(g2), k(g1), m(g2)): -1,
            (m(g12), g(g1), g(g2)): 1,
            (k(g1), m(g2), g(g2)): -1,
            (k(g1), k(g2), ell): 1,
        },
    )
    assert homotopy_P(ctx, (g1, g2)) == expected


def test_P_empty_simplex_is_zero():
    F, ctx, alg = _formal(1)
    assert homotopy_P(ctx, ()).is_zero()


def test_P_diameters_match_table():
    expected = [0, 4, 12, 32, 80, 192, 448, 1024]
    for m, want in enumerate(expected):
        F, ctx, alg = _formal(max(m, 1))
        sigma = tuple(F.gen(i + 1) for i in range(m))
        chain = homotopy_P(ctx, sigma)
        assert diameter(chain) == want == d_cyl(m)
        assert all(abs(c) == 1 for _, c in chain)


# -- identities --------------------------------------------------------------------


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_theorem_identity_formal(m):
    F, ctx, alg = _formal(max(m, 1))
    sigma = tuple(F.gen(i + 1) for i in range(m))
    assert theorem_identity_residual(ctx, sigma).is_zero()


@pytest.mark.parametrize("n", [2, 3])
def test_theorem_identity_instance_exhaustive(n):
    group = CyclicGroup(n)
    ctx = instance_context(VerificationInstance(group, 5))
    for m in range(3):
        for sigma in itertools.product(group.elements(), repeat=m):
            assert theorem_identity_residual(ctx, sigma).is_zero()


def test_theorem_identity_instance_symmetric_products():
    from barhom.groups import DirectProduct, SymmetricGroup

    group = DirectProduct(SymmetricGroup(3), SymmetricGroup(3))
    ctx = instance_context(VerificationInstance(group, 5))
    rng = random.Random(42)
    for m in range(1, 5):
        for _ in range(8):
            sigma = tuple(group.sample(rng) for _ in range(m))
            assert theorem_identity_residual(ctx, sigma).is_zero()


def test_P_one_simplex_as_cylinder_of_subdivisions():
    # the dimension-1 homotopy is the chain cylinder between the two
    # subdivisions along the pillar sets {l, m(g)} and {m(g), l}
    from barhom.cylinder import CylinderTerm, cyl_chain
    from barhom.shuffles import ed_terms

    F, ctx, alg = _formal(1)
    g1 = F.gen(1)
    tops = [t.simplex for t in ed_terms(ctx.f, ctx.g, (g1,))]
    bottoms = [t.simplex for t in ed_terms(ctx.h, ctx.k, (g1,))]
    systems = [(alg.ell, alg.m(g1)), (alg.m(g1), alg.ell)]
    terms = [
        CylinderTerm(1, top, bottom, pillars)
        for top, bottom, pillars in zip(tops, bottoms, systems)
    ]
    assert cyl_chain(alg, terms) == homotopy_P(ctx, (g1,))


def test_verify_identity_trivial():
    group = CyclicGroup(3)
    zero = PartialHomotopy(5, lambda s: Chain(len(s) + 1), name="0")
    same = lambda s: Chain.of(s)
    residual = verify_identity(group, group, zero, same, same, (1, 2))
    assert residual.is_zero()


def test_partial_homotopy_guard_and_table():
    F, ctx, alg = _formal(2)
    H = PartialHomotopy(1, lambda s: homotopy_P(ctx, s), name="P")
    H((F.gen(1),))
    assert H.diameter_table[1] == 4
    with pytest.raises(DimensionExceeded):
        H((F.gen(1), F.gen(2)))


# -- mitosis contexts and the tower -------------------------------------------------


def test_mitosis_context_maps():
    F = FreeGroup(2)
    ctx = mitosis_context(3, F)
    alg = ctx.entries
    g = F.gen(1)
    assert ctx.f(g) == Conjugated(3, g, F.identity)
    assert ctx.h(g) == ctx.f(g)
    assert ctx.g(g) == g
    assert alg.is_identity(ctx.k(g))
    assert ctx.m(g) == PillarWord(3, F.identity, g)
    assert ctx.ell == PillarWord(3, F.identity, F.identity)
    with pytest.raises(ValueError):
        mitosis_context(0, F)


def test_psi_base_chain():
    F = FreeGroup(1)
    tower = MitosisTower(F)
    alg = tower.algebra
    g = F.gen(1)
    ell = alg.ell(1)
    fg = alg.conj(1, g)
    mg = alg.pillar(1, g)
    expected = Chain(
        2,
        {
            (ell, fg): 1,
            (fg, mg): -1,
            (mg, g): 1,
            (F.identity, ell): -1,
        },
    )
    assert tower.psi(1, (g,)) == expected
    # exactly one degenerate term
    assert count_degenerate(alg, tower.psi(1, (g,))) == 1


def test_Q_base_cases():
    F = FreeGroup(2)
    tower = MitosisTower(F)
    assert induct_Q(lambda s: tower.psi(1, s), 2, F, ()).is_zero()
    g = F.gen(1)
    ctx = mitosis_context(2, F)
    assert induct_Q(lambda s: tower.psi(1, s), 2, F, (g,)) == homotopy_P(ctx, (g,))


def test_Q_dim2_diameter():
    F = FreeGroup(2)
    tower = MitosisTower(F)
    chain = induct_Q(lambda s: tower.psi(1, s), 2, F, tuple(F.gens()))
    assert diameter(chain) == 24 == gamma(2)
    assert chain == tower.psi(2, tuple(F.gens()))


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_psi_counts(m):
    F = FreeGroup(max(m, 1))
    tower = MitosisTower(F)
    sigma = tuple(F.gen(i + 1) for i in range(m))
    chain = tower.psi(max(m, 1), sigma)
    alg = tower.algebra
    assert diameter(chain) == gamma(m)
    assert count_degenerate(alg, chain) == q_count(m)
    assert diameter(tower.phi(max(m, 1), sigma)) == c_bound(m)
    # no two generated terms collide: every coefficient is +-1
    assert len(chain.terms) == gamma(m)
    assert all(abs(c) == 1 for _, c in chain)


def test_phi_empty():
    F = FreeGroup(1)
    tower = MitosisTower(F)
    assert tower.phi(1, ()).is_zero()


def test_phi_split_identity():
    F = FreeGroup(3)
    tower = MitosisTower(F)
    sigma = tuple(F.gens())
    chain = tower.psi(3, sigma)
    alg = tower.algebra
    assert diameter(chain) == diameter(project(alg, chain)) + count_degenerate(alg, chain)


def test_psi_dimension_guard():
    F = FreeGroup(3)
    tower = MitosisTower(F)
    with pytest.raises(DimensionExceeded):
        tower.psi(2, tuple(F.gens()))


@pytest.mark.parametrize("level,maxdim", [(1, 1), (2, 2)])
def test_psi_identity_small_levels(level, maxdim):
    F = FreeGroup(max(maxdim, 1))
    tower = MitosisTower(F)
    for m in range(maxdim + 1):
        sigma = tuple(F.gen(i + 1) for i in range(m))
        assert psi_identity_residual(tower, level, sigma).is_zero()


def test_psi_identity_concrete_base():
    group = CyclicGroup(3)
    tower = MitosisTower(group)
    rng = random.Random(0)
    for m in range(3):
        for _ in range(5):
            sigma = tuple(group.sample(rng) for _ in range(m))
            assert psi_identity_residual(tower, 2, sigma).is_zero()


def test_cylinder_part_lemma_word_algebra():
    # dP + Pd splits into the shuffle products against pushed-forward back
    # faces plus the embedded-minus-trivial top term, for m <= 3
    for m in (1, 2, 3):
        F = FreeGroup(m)
        ctx = mitosis_context(1, F)
        alg = ctx.entries
        sigma = tuple(F.gens())
        lhs = boundary(alg, homotopy_P(ctx, sigma))
        for s, c in boundary(F, Chain.of(sigma)):
            for t, c2 in homotopy_P(ctx, s):
                lhs.add_term(t, c * c2)
        rhs = Chain(m)
        for i in range(1, m):
            front = Chain.of(sigma[:i]) - Chain.of((F.identity,) * i)
            back = Chain.of(tuple(ctx.f(x) for x in sigma[i:]))
            for s, c in mult_map(alg, ez(alg, tensor_of_chains(front, back))):
                rhs.add_term(s, c)
        rhs.add_term(sigma, 1)
        rhs.add_term((alg.identity,) * m, -1)
        assert lhs == rhs


@pytest.mark.parametrize("level", [1, 2, 3])
def test_formal_P_pushed_into_the_tower_is_the_mitosis_P(level):
    # the two rewrite systems agree: evaluating the formal quintuple
    # h(a)k(b)m(x)f(c)g(d) at h, f -> conj, k -> trivial, m -> pillar, g -> id
    # takes the formal cylinder homotopy to the one built in the tower
    F = FreeGroup(4)
    formal, tower = formal_context(F), mitosis_context(level, F)
    alg = tower.entries

    def evaluate(q):
        m = alg.pillar(level, q.m_arg) if q.m_arg is not None else alg.identity
        value = alg.mul(alg.mul(alg.conj(level, q.h_arg), m), alg.conj(level, q.f_arg))
        return alg.mul(value, q.g_arg)

    for dim in range(5):
        sigma = tuple(F.gens()[:dim])
        assert pushforward(evaluate, homotopy_P(formal, sigma)) == homotopy_P(tower, sigma)


# -- table-driven construction against the per-term oracle ---------------------------


def _oracle_psi(level, base, sigma, memo):
    """The tower homotopy built through tensor and product chains, checking
    the fused product against them on every correction on the way."""
    key = (level, sigma)
    if key in memo:
        return memo[key]
    m = len(sigma)
    ctx = mitosis_context(level, base)
    alg = ctx.entries
    out = homotopy_P(ctx, sigma) if m else Chain(1)
    for k in range(1, m):
        sub = _oracle_psi(level - 1, base, sigma[:k], memo)
        pushed = Chain.of(tuple(ctx.f(x) for x in sigma[k:]))
        correction = mult_map(alg, ez(alg, tensor_of_chains(sub, pushed)))
        fused = Chain(m + 1)
        add_shuffle_product(fused, sub, pushed)
        assert fused == correction
        out = out - correction
    memo[key] = out
    return out


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_induct_Q_fused_corrections_match_oracle(m):
    F = FreeGroup(m)
    sigma = tuple(F.gens())
    assert MitosisTower(F).psi(m, sigma) == _oracle_psi(m, F, sigma, {})


def _per_rank_cylinder_data(ctx, sigma):
    n = len(sigma)
    out = []
    for p in range(n + 1):
        q = n - p
        for sh in shuffles(p, q):
            top = shuffle_term(ctx.f, ctx.g, sh.rank, p, q, sigma)
            bottom = shuffle_term(ctx.h, ctx.k, sh.rank, p, q, sigma)
            pillars = pillar_of_term(ctx, sh.rank, p, q, sigma)
            out.append((p, q, sh.rank, sh.sign, top, bottom, pillars))
    return out


@pytest.mark.parametrize("group", [CyclicGroup(3), SymmetricGroup(3)], ids=lambda g: g.name)
def test_p_cylinder_data_matches_per_rank_terms(group):
    ctx = instance_context(VerificationInstance(group, 5))
    rng = random.Random(13)
    for dim in range(5):
        for _ in range(8):
            sigma = tuple(group.sample(rng) for _ in range(dim))
            assert list(p_cylinder_data(ctx, sigma)) == _per_rank_cylinder_data(ctx, sigma)
    F, ctx, _alg = _formal(4)
    for dim in range(5):
        sigma = tuple(F.gens())[:dim]
        assert list(p_cylinder_data(ctx, sigma)) == _per_rank_cylinder_data(ctx, sigma)
