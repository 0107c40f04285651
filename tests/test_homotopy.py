import gc
import itertools
import random

import pytest

from barhom import checks
from barhom.bounds import c_bound, d_cyl, gamma, q_count
from barhom.cylinder import face_pillar
from barhom.groups import CyclicGroup, FreeGroup, SymmetricGroup
from barhom.homotopy import (
    DimensionExceeded,
    HomotopyContext,
    MitosisTower,
    formal_context,
    homotopy_P,
    induct_Q,
    instance_context,
    p_cylinder_data,
    pillar_of_term,
    pillar_system,
    psi_identity_residual,
    theorem_identity_residual,
    verify_identity,
)
from barhom.moore import Chain, boundary, count_degenerate, diameter, face, project, pushforward
from barhom.quintuple import NonNormalizable, VerificationInstance
from barhom.shuffles import DimensionMismatch, add_shuffle_product, ez, mult_map, shuffles, tensor_of_chains
from barhom.words import Conjugated, PillarWord, TowerAlgebra


def _formal(m):
    F = FreeGroup(m)
    ctx = formal_context(F)
    return F, ctx, ctx.entries


def _decoded(alg, chain):
    """A chain of a coded algebra with each entry decoded: ``alg.elems[c]``."""
    return Chain(chain.dim, [(tuple(alg.elems[c] for c in s), coeff) for s, coeff in chain])


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


def test_pillar_of_term_rejects_bad_coordinates():
    F, ctx, _alg = _formal(3)
    sigma = tuple(F.gens())
    # three (1,2)-shuffles: rank 0 would read the last one, rank 4 is past the end
    for rank in (0, 4, -1):
        with pytest.raises(IndexError):
            pillar_of_term(ctx, rank, 1, 2, sigma)
    assert len(pillar_of_term(ctx, 3, 1, 2, sigma)) == 4
    with pytest.raises(DimensionMismatch):
        pillar_of_term(ctx, 1, 1, 1, sigma)


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
    parent_sets = {
        face_pillar(k, pillars)
        for pillars in pillar_system(ctx, sigma).values()
        for k in range(len(pillars))
    }
    face_sets = set()
    for i in range(m + 1):
        face_sets |= set(pillar_system(ctx, face(F, i, sigma)).values())
    assert face_sets <= parent_sets


# -- the homotopy P ---------------------------------------------------------------


def test_P_one_simplex_display():
    F, ctx, alg = _formal(1)
    g1 = F.gens()[0]
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
        sigma = tuple(F.gens()[:m])
        chain = homotopy_P(ctx, sigma)
        assert diameter(chain) == want == d_cyl(m)
        assert all(abs(c) == 1 for _, c in chain)


# -- identities --------------------------------------------------------------------


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_theorem_identity_formal(m):
    F, ctx, alg = _formal(max(m, 1))
    sigma = tuple(F.gens()[:m])
    assert theorem_identity_residual(ctx, sigma, {}).is_zero()


@pytest.mark.parametrize("n", [2, 3])
def test_theorem_identity_instance_exhaustive(n):
    group = CyclicGroup(n)
    ctx = instance_context(VerificationInstance(group, 5))
    face_P = {}
    for m in range(3):
        for sigma in itertools.product(group.elements(), repeat=m):
            assert theorem_identity_residual(ctx, sigma, face_P).is_zero()


def test_theorem_identity_instance_symmetric_products():
    from barhom.groups import DirectProduct, SymmetricGroup

    group = DirectProduct(SymmetricGroup(3), SymmetricGroup(3))
    ctx = instance_context(VerificationInstance(group, 5))
    rng = random.Random(42)
    face_P = {}
    for m in range(1, 5):
        for _ in range(8):
            sigma = tuple(group.sample(rng) for _ in range(m))
            assert theorem_identity_residual(ctx, sigma, face_P).is_zero()


def test_P_one_simplex_as_cylinder_of_subdivisions():
    # the dimension-1 homotopy is the chain cylinder between the two
    # subdivisions along the pillar sets {l, m(g)} and {m(g), l}
    from barhom.cylinder import cyl_chain
    from barhom.shuffles import ed_terms

    F, ctx, alg = _formal(1)
    g1 = F.gens()[0]
    tops = [simplex for *_, simplex in ed_terms(ctx.f, ctx.g, (g1,))]
    bottoms = [simplex for *_, simplex in ed_terms(ctx.h, ctx.k, (g1,))]
    systems = [(alg.ell, alg.m(g1)), (alg.m(g1), alg.ell)]
    terms = [(1, top, bottom, pillars) for top, bottom, pillars in zip(tops, bottoms, systems)]
    assert cyl_chain(alg, 1, terms) == homotopy_P(ctx, (g1,))


def test_verify_identity_trivial():
    group = CyclicGroup(3)
    zero = lambda s: Chain(len(s) + 1)
    same = lambda s: Chain.of(s)
    residual = verify_identity(group, group, zero, same, same, (1, 2))
    assert residual.is_zero()


def test_verify_identity_sums_the_face_images_apart():
    # H of the 2-simplex has boundary (2,1)*-1 + (1,2)*1; the faces of (1, 2)
    # in C3 are (2,) - (0,) + (1,), and H sends (2,) and (0,) to the same
    # chain, so their images cancel in the sum over the faces.  Added into the
    # residual one face at a time instead, they would pop (2,1) and put it
    # back at the end, reordering the residual and so the first offending term.
    group = CyclicGroup(3)
    images = {(1, 2): Chain.of((1, 1, 1)), (2,): Chain.of((2, 1)), (0,): Chain.of((2, 1))}
    H = lambda s: images.get(s, Chain(len(s) + 1))
    zero = lambda s: Chain(len(s))
    residual = verify_identity(group, group, H, zero, zero, (1, 2))
    assert list(residual.terms.items()) == [((2, 1), -1), ((1, 2), 1)]


# -- mitosis contexts and the tower -------------------------------------------------


def test_mitosis_context_maps():
    F = FreeGroup(2)
    ctx = MitosisTower(F).context(3)
    alg = ctx.entries
    g = F.gens()[0]
    assert alg.elems[ctx.f(g)] == Conjugated(3, g, F.identity)
    assert ctx.h(g) == ctx.f(g)
    assert alg.elems[ctx.g(g)] == g
    assert ctx.k(g) == alg.identity
    assert alg.elems[ctx.k(g)] == F.identity
    assert alg.elems[ctx.m(g)] == PillarWord(3, F.identity, g)
    assert alg.elems[ctx.ell] == PillarWord(3, F.identity, F.identity)
    with pytest.raises(ValueError):
        MitosisTower(F).context(0)


def test_tower_builds_each_context_once_on_its_algebra():
    F = FreeGroup(3)
    tower = MitosisTower(F)
    for level in (1, 2, 3):
        assert tower.context(level) is tower.context(level)
        assert tower.context(level).entries is tower.algebra
    assert tower.context(1) is not tower.context(2)


def test_psi_run_builds_one_algebra_and_each_context_once(monkeypatch):
    from barhom import homotopy

    algebras, contexts = [], []

    class CountedAlgebra(TowerAlgebra):
        def __init__(self, base):
            algebras.append(base)
            super().__init__(base)

    def counted_context(**fields):
        contexts.append(fields["entries"])
        return HomotopyContext(**fields)

    monkeypatch.setattr(homotopy, "TowerAlgebra", CountedAlgebra)
    monkeypatch.setattr(homotopy, "HomotopyContext", counted_context)
    F = FreeGroup(5)
    tower = MitosisTower(F)
    assert diameter(tower.psi(5, tuple(F.gens()))) == gamma(5)
    assert algebras == [F]
    # the run meets levels 1..5 and builds each level's context once
    assert len(contexts) == 5 and all(alg is tower.algebra for alg in contexts)


def test_psi_base_chain():
    F = FreeGroup(1)
    tower = MitosisTower(F)
    alg = tower.algebra
    words = alg.algebra
    g = F.gens()[0]
    ell = words.ell(1)
    fg = words.conj(1, g)
    mg = words.pillar(1, g)
    expected = Chain(
        2,
        {
            (ell, fg): 1,
            (fg, mg): -1,
            (mg, g): 1,
            (F.identity, ell): -1,
        },
    )
    assert _decoded(alg, tower.psi(1, (g,))) == expected
    # exactly one degenerate term
    assert count_degenerate(alg, tower.psi(1, (g,))) == 1


def test_Q_base_cases():
    F = FreeGroup(2)
    tower = MitosisTower(F)
    assert induct_Q(tower, 2, ()).is_zero()
    g = F.gens()[0]
    assert induct_Q(tower, 2, (g,)) == homotopy_P(tower.context(2), (g,))


def test_Q_dim2_diameter():
    F = FreeGroup(2)
    tower = MitosisTower(F)
    chain = induct_Q(tower, 2, tuple(F.gens()))
    assert diameter(chain) == 24 == gamma(2)
    assert chain == tower.psi(2, tuple(F.gens()))


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_psi_counts(m):
    F = FreeGroup(max(m, 1))
    tower = MitosisTower(F)
    sigma = tuple(F.gens()[:m])
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
        sigma = tuple(F.gens()[:m])
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
        ctx = MitosisTower(F).context(1)
        alg = ctx.entries
        words = alg.algebra
        sigma = tuple(F.gens())
        lhs = boundary(alg, homotopy_P(ctx, sigma))
        for s, c in boundary(F, Chain.of(sigma)):
            for t, c2 in homotopy_P(ctx, s):
                lhs.add_term(t, c * c2)
        rhs = Chain(m)
        for i in range(1, m):
            front = Chain.of(sigma[:i]) - Chain.of((F.identity,) * i)
            back = Chain.of(tuple(alg.elems[ctx.f(x)] for x in sigma[i:]))
            for s, c in mult_map(words, ez(words, tensor_of_chains(front, back))):
                rhs.add_term(s, c)
        rhs.add_term(sigma, 1)
        rhs.add_term((words.identity,) * m, -1)
        assert _decoded(alg, lhs) == rhs


@pytest.mark.parametrize("level", [1, 2, 3])
def test_formal_P_pushed_into_the_tower_is_the_mitosis_P(level):
    # the two rewrite systems agree: evaluating the formal quintuple
    # h(a)k(b)m(x)f(c)g(d) at h, f -> conj, k -> trivial, m -> pillar, g -> id
    # takes the formal cylinder homotopy to the one built in the tower
    F = FreeGroup(4)
    formal, tower = formal_context(F), MitosisTower(F).context(level)
    alg = tower.entries
    words = alg.algebra

    def evaluate(q):
        m = words.pillar(level, q.m_arg) if q.m_arg is not None else words.identity
        value = words.mul(words.mul(words.conj(level, q.h_arg), m), words.conj(level, q.f_arg))
        return words.mul(value, q.g_arg)

    for dim in range(5):
        sigma = tuple(F.gens()[:dim])
        assert pushforward(evaluate, homotopy_P(formal, sigma)) == _decoded(alg, homotopy_P(tower, sigma))


# -- table-driven construction against the per-term oracle ---------------------------


def _oracle_psi(tower, level, sigma, memo):
    """The tower homotopy built through tensor and product chains, checking
    the fused product against them on every correction on the way."""
    key = (level, sigma)
    if key in memo:
        return memo[key]
    m = len(sigma)
    ctx = tower.context(level)
    alg = ctx.entries
    out = homotopy_P(ctx, sigma) if m else Chain(1)
    for k in range(1, m):
        sub = _oracle_psi(tower, level - 1, sigma[:k], memo)
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
    # one tower, so that equal codes are equal tower values
    tower = MitosisTower(F)
    assert tower.psi(m, sigma) == _oracle_psi(tower, m, sigma, {})


def _shuffled(sh, front, back):
    """The simplex with ``front`` at the first-block positions of the
    shuffle ``sh`` and ``back`` at its second-block positions."""
    slots = [None] * (sh.p + sh.q)
    for pos, x in zip(sh.first, front):
        slots[pos - 1] = x
    for pos, x in zip(sh.second, back):
        slots[pos - 1] = x
    return tuple(slots)


def _per_rank_cylinder_data(ctx, sigma):
    """p_cylinder_data rebuilt term by term from the itertools shuffles."""
    n = len(sigma)
    out = []
    for p in range(n + 1):
        q = n - p
        front, back = sigma[:p], sigma[p:]
        for sh in shuffles(p, q):
            top = _shuffled(sh, map(ctx.g, front), map(ctx.f, back))
            bottom = _shuffled(sh, map(ctx.k, front), map(ctx.h, back))
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


# -- the tower product and its coded rows ------------------------------------------


def test_tower_mul_raises_on_every_call():
    F = FreeGroup(2)
    alg = TowerAlgebra(F)
    x, y = F.gens()
    two_m = (alg.pillar(1, x), alg.pillar(1, y))
    # the second pair fails one level down, inside the product of the tails
    nested = (alg.conj(2, x, alg.pillar(1, x)), alg.conj(2, y, alg.pillar(1, y)))
    for v, w in (two_m, nested, two_m, nested):
        with pytest.raises(NonNormalizable):
            alg.mul(v, w)


def _product(alg, v, w):
    try:
        return alg.mul(v, w)
    except NonNormalizable:
        return NonNormalizable


def test_tower_mul_memo_agrees_with_a_fresh_algebra():
    # the coded rows of the tower, filled by psi and then by these products,
    # agree with a fresh TowerAlgebra on the decoded factors
    F = FreeGroup(4)
    tower = MitosisTower(F)
    alg = tower.algebra
    entries = sorted({e for s in tower.psi(4, tuple(F.gens())).terms for e in s})
    outcomes = set()
    for _ in range(2):
        for v, w in itertools.product(entries, repeat=2):
            got = _product(alg, v, w)
            expected = _product(TowerAlgebra(F), alg.elems[v], alg.elems[w])
            assert (got if got is NonNormalizable else alg.elems[got]) == expected
            outcomes.add(got is NonNormalizable)
    assert outcomes == {False, True}


def test_psi_identity_level5_generic_simplex():
    # raises CheckFailure with the first residual term.  With the cyclic
    # collector off, as the CLI runs, building psi(5) and checking its
    # identity leave no cyclic garbage behind
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        F = FreeGroup(5)
        assert diameter(MitosisTower(F).psi(5, tuple(F.gens()))) == gamma(5)
        checks.psi_identity(level=5, maxdim=5)
        assert gc.collect() == 0
    finally:
        if collecting:
            gc.enable()


# -- the accumulation in homotopy_P and the P cache of theorem45 ---------------------


@pytest.mark.parametrize("name", ["instance", "instance-sym3", "formal", "tower-2", "tower-4"])
def test_homotopy_P_accumulates_like_add_term(name):
    from barhom.cylinder import cyl

    if name == "instance":
        group = CyclicGroup(3)
        ctx = instance_context(VerificationInstance(group, 5))
        sigmas = itertools.product(group.elements(), repeat=3)
    elif name == "instance-sym3":
        group = SymmetricGroup(3)
        ctx = instance_context(VerificationInstance(group, 5))
        sigmas = [s for m in (1, 2) for s in itertools.product(group.elements(), repeat=m)]
    elif name.startswith("tower"):
        F = FreeGroup(4)
        ctx = MitosisTower(F).context(int(name[-1]))
        a, b = F.gens()[:2]
        sigmas = [tuple(F.gens()[:m]) for m in range(1, 5)] + [(a, F.inv(a), b), (a, a, b, b)]
    else:
        F, ctx, _ = _formal(3)
        a, b, c = F.gens()
        sigmas = [(a, b, c), (a, F.inv(a), b), (a, a, a), (b, a)]
    for sigma in sigmas:
        want = Chain(len(sigma) + 1)
        for _p, _q, _rank, sign, top, bottom, pillars in p_cylinder_data(ctx, sigma):
            for simplex, coeff in cyl(ctx.entries, top, bottom, pillars):
                want.add_term(simplex, sign * coeff)
        got = homotopy_P(ctx, sigma)
        assert list(got.terms.items()) == list(want.terms.items())


@pytest.mark.parametrize("group", [CyclicGroup(3), SymmetricGroup(3)], ids=lambda g: g.name)
def test_theorem45_builds_P_once_per_distinct_proper_face(group, monkeypatch):
    from collections import Counter

    from barhom import homotopy

    real_P, real_residual = homotopy.homotopy_P, checks.theorem_identity_residual
    built, checked, dicts = [], [], set()

    def counted_P(ctx, sigma):
        built.append(sigma)
        return real_P(ctx, sigma)

    def residual(ctx, sigma, face_P):
        checked.append(sigma)
        dicts.add(id(face_P))
        return real_residual(ctx, sigma, face_P)

    monkeypatch.setattr(homotopy, "homotopy_P", counted_P)
    monkeypatch.setattr(checks, "theorem_identity_residual", residual)
    samples = 60
    checks.theorem45(group, 5, maxdim=4, samples=samples, rng=random.Random(3))
    order = len(list(group.elements()))
    assert len(checked) == sum(order ** m for m in range(4)) + samples
    # P is applied to the faces that survive in the boundary of each simplex
    faces = set()
    for sigma in checked:
        faces.update(boundary(group, Chain.of(sigma)).terms)
    assert 0 < len(faces) <= sum(order ** m for m in range(4))
    # P of each checked simplex is built afresh, P of each distinct face once
    assert Counter(built) == Counter(checked) + Counter(faces)
    assert len(dicts) == 1
    # the face dict lives for one theorem45 call, so the next call builds
    # its faces again
    built.clear()
    checked.clear()
    checks.theorem45(group, 5, maxdim=2, samples=1, rng=random.Random(3))
    assert len(built) == len(checked) + len({f for s in checked for f in boundary(group, Chain.of(s)).terms})
    assert len(dicts) == 2


def test_face_cache_belongs_to_one_context(monkeypatch):
    from barhom import homotopy

    real_P, built = homotopy.homotopy_P, []

    def counted_P(ctx, sigma):
        built.append(sigma)
        return real_P(ctx, sigma)

    monkeypatch.setattr(homotopy, "homotopy_P", counted_P)
    group = CyclicGroup(3)
    ctx = instance_context(VerificationInstance(group, 5))
    face_P = {}
    one, two = (1, 2, 2), (1, 2, 1)
    faces_one = set(boundary(group, Chain.of(one)).terms)
    faces_two = set(boundary(group, Chain.of(two)).terms)
    assert faces_one & faces_two == {(1, 2)}
    assert theorem_identity_residual(ctx, one, face_P).is_zero()
    assert set(face_P) == faces_one
    kept = dict(face_P)
    # the second call on the same dict reuses P of the face they share
    built.clear()
    assert theorem_identity_residual(ctx, two, face_P).is_zero()
    assert sorted(built) == sorted([two, *(faces_two - faces_one)])
    assert set(face_P) == faces_one | faces_two
    assert all(face_P[s] is chain for s, chain in kept.items())
