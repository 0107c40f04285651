import gc
import itertools
import random
import re
import weakref
from math import comb

import pytest

from barhom import checks, homotopy, quintuple
from barhom.bounds import c_bound, d_cyl, gamma, q_count
from barhom.cli import main
from barhom.cylinder import face_pillar
from barhom.groups import CyclicGroup, FreeGroup, SymmetricGroup, parse_group
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
    psi_counts,
    psi_identity_residual,
    theorem_identity_residual,
    verify_identity,
)
from barhom.moore import Chain, ChainError, boundary, count_degenerate, diameter, face, project, pushforward
from barhom.quintuple import NonNormalizable, QuintupleAlgebra, VerificationInstance
from barhom.shuffles import (
    DimensionMismatch,
    edgewise,
    ez,
    mult_map,
    shuffle_terms,
    shuffles,
    tensor_of_chains,
)
from barhom.words import Conjugated, PillarWord, TowerAlgebra, value_level


def _formal(m):
    F = FreeGroup(m)
    ctx = formal_context(F)
    return F, ctx, ctx.entries


def _decode(alg, simplex):
    """The entries of a simplex of a coded algebra, decoded: ``alg.elems[c]``."""
    return tuple(alg.elems[c] for c in simplex)


def _decoded(alg, chain):
    """A chain of a coded algebra with each entry decoded."""
    return Chain(chain.dim, [(_decode(alg, s), coeff) for s, coeff in chain])


# -- pillars ---------------------------------------------------------------------


def test_pillar_scan_examples():
    F, ctx, alg = _formal(3)
    quint = alg.algebra
    g1, g2, g3 = F.gens()
    sigma = (g1, g2, g3)
    m = quint.m
    mul = F.mul
    assert _decode(alg, pillar_of_term(ctx, 1, 0, 3, sigma)) == (
        m(F.identity), m(g1), m(mul(g1, g2)), m(mul(mul(g1, g2), g3)),
    )
    assert _decode(alg, pillar_of_term(ctx, 2, 1, 2, sigma)) == (
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
    quint = alg.algebra
    g1, g2 = F.gens()
    m = quint.m
    ell = m(F.identity)
    g12 = F.mul(g1, g2)
    system = pillar_system(ctx, (g1, g2))
    assert {key: _decode(alg, pillars) for key, pillars in system.items()} == {
        (0, 2, 1): (ell, m(g1), m(g12)),
        (1, 1, 1): (m(g1), ell, m(g2)),
        (1, 1, 2): (m(g1), m(g12), m(g2)),
        (2, 0, 1): (m(g12), m(g2), ell),
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
    quint = alg.algebra
    g1 = F.gens()[0]
    expected = Chain(
        2,
        {
            (quint.m(F.identity), quint.f(g1)): 1,
            (quint.h(g1), quint.m(g1)): -1,
            (quint.m(g1), quint.g(g1)): 1,
            (quint.k(g1), quint.m(F.identity)): -1,
        },
    )
    assert _decoded(alg, homotopy_P(ctx, (g1,))) == expected


def test_P_two_simplex_display():
    F, ctx, alg = _formal(2)
    quint = alg.algebra
    g1, g2 = F.gens()
    g12 = F.mul(g1, g2)
    f, g, h, k, m = quint.f, quint.g, quint.h, quint.k, quint.m
    ell = m(F.identity)
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
    assert _decoded(alg, homotopy_P(ctx, (g1, g2))) == expected


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
    quint = alg.algebra
    g1 = F.gens()[0]
    tops = [_decode(alg, simplex) for *_, simplex in ed_terms(ctx.f, ctx.g, (g1,))]
    bottoms = [_decode(alg, simplex) for *_, simplex in ed_terms(ctx.h, ctx.k, (g1,))]
    ell = quint.m(F.identity)
    systems = [(ell, quint.m(g1)), (quint.m(g1), ell)]
    terms = [(1, top, bottom, pillars) for top, bottom, pillars in zip(tops, bottoms, systems)]
    assert cyl_chain(quint, 1, terms) == _decoded(alg, homotopy_P(ctx, (g1,)))


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
    assert alg.elems[ctx.m(ctx.source.identity)] == PillarWord(3, F.identity, F.identity)
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

    coded_context = homotopy.coded_context

    def counted_context(source, entries, *letters):
        contexts.append(entries)
        return coded_context(source, entries, *letters)

    monkeypatch.setattr(homotopy, "TowerAlgebra", CountedAlgebra)
    monkeypatch.setattr(homotopy, "coded_context", counted_context)
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
    ell = words.pillar(1, F.identity)
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
    assert induct_Q(tower, ()).is_zero()
    g = F.gens()[0]
    assert induct_Q(tower, (g,)) == homotopy_P(tower.context(1), (g,))


def test_Q_dim2_diameter():
    F = FreeGroup(2)
    tower = MitosisTower(F)
    chain = induct_Q(tower, tuple(F.gens()))
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
    # the level certificate, which builds no psi, reads the same norms off a
    # fresh tower as induct_Q's dict holds
    assert psi_counts(MitosisTower(F), sigma) == (diameter(chain), count_degenerate(alg, chain))


def _lead(count, n):
    """count(n) less the psi placements on the proper faces: the part of the
    recurrence that P contributes."""
    return count(n) - sum(comb(n + 1, n - k) * count(k) for k in range(1, n))


@pytest.mark.parametrize("n", range(1, 13))
def test_recurrence_leads_count_the_P_stage(n):
    # premise (a) of the stage certificate: on the generic n-simplex, P_L has
    # gamma's lead in terms, each with coefficient +-1, of which q's lead are
    # degenerate and c's lead are not (1,024 and 769 at n = 7)
    base = FreeGroup(n)
    tower = MitosisTower(base)
    for level in (n, n + 1, n + 2):
        chain = homotopy_P(tower.context(level), tuple(base.gens()))
        assert set(chain.terms.values()) <= {1, -1}
        degenerate = count_degenerate(tower.algebra, chain)
        assert (len(chain.terms), degenerate, len(chain.terms) - degenerate) == (
            _lead(gamma, n), _lead(q_count, n), _lead(c_bound, n))


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
            front = Chain(i, [(sigma[:i], 1), ((F.identity,) * i, -1)])
            back = Chain.of(tuple(alg.elems[ctx.f(x)] for x in sigma[i:]))
            for s, c in mult_map(words, ez(words, tensor_of_chains(front, back))):
                rhs.add_term(s, c)
        rhs.add_term(sigma, 1)
        rhs.add_term((words.identity,) * m, -1)
        assert _decoded(alg, lhs) == rhs


def test_coded_formal_chains_decode_to_the_uncoded_ones():
    # the int coding of formal_context changes no term and no term order:
    # P and ed built on it decode to the chains built on a bare quintuple
    # algebra, term for term
    F = FreeGroup(5)
    coded = formal_context(F)
    alg = coded.entries
    quint = QuintupleAlgebra(F)
    bare = HomotopyContext(source=F, entries=quint, f=quint.f, g=quint.g, h=quint.h,
                           k=quint.k, m=quint.m)
    for dim in range(6):
        sigma = tuple(F.gens()[:dim])
        for build in (lambda ctx: homotopy_P(ctx, sigma),
                      lambda ctx: edgewise(ctx.f, ctx.g, Chain.of(sigma))):
            got, want = _decoded(alg, build(coded)), build(bare)
            assert got.dim == want.dim
            assert list(got.terms.items()) == list(want.terms.items())
        assert diameter(homotopy_P(coded, sigma)) == d_cyl(dim)


def tower_eval(words, level, q):
    """The formal quintuple h(a)k(b)m(x)f(c)g(d) evaluated in the level-``level``
    tower: h, f -> conj_level, k -> e, m -> pillar_level, g -> id."""
    m = words.pillar(level, q.m_arg) if q.m_arg is not None else words.identity
    value = words.mul(words.mul(words.conj(level, q.h_arg), m), words.conj(level, q.f_arg))
    return words.mul(value, q.g_arg)


def formal_through_tower_mismatch(group, maxdim, step):
    """The first ("P" or "dP", dim, level) at which the formal P, or its
    boundary, pushed through ``tower_eval`` differs from the chain the
    level's tower context builds, at level ``step`` and at the ``step``-th
    level from max(dim, 1), so dims above the level are compared too; None
    if they agree everywhere.  The simplices are all those of a finite group
    up to ``maxdim``, and the generic one of each dim of a free one."""
    if group.finite:
        elements = list(group.elements())
        simplices = [s for dim in range(maxdim + 1) for s in itertools.product(elements, repeat=dim)]
    else:
        simplices = [tuple(group.gens()[:dim]) for dim in range(maxdim + 1)]
    formal, tower = formal_context(group), MitosisTower(group)
    for sigma in simplices:
        dim, formal_P = len(sigma), homotopy_P(formal, sigma)
        for level in sorted({step, max(dim, 1) + step - 1}):
            ctx = tower.context(level)
            tower_P = homotopy_P(ctx, sigma)

            def evaluate(q):
                return tower_eval(ctx.entries.algebra, level, q)

            for what, got, want in (
                ("P", formal_P, tower_P),
                ("dP", boundary(formal.entries, formal_P), boundary(ctx.entries, tower_P)),
            ):
                if pushforward(evaluate, _decoded(formal.entries, got)) != _decoded(ctx.entries, want):
                    return what, dim, level
    return None


TOWER_DIFFERENTIAL_GROUPS = [(CyclicGroup(3), 3), (SymmetricGroup(3), 3), (FreeGroup(5), 5)]


@pytest.mark.parametrize("step", [1, 2, 3])
def test_formal_P_pushed_into_the_tower_is_the_mitosis_P(step):
    # the two rewrite systems agree: the letter map h, f -> conj, k -> e,
    # m -> pillar, g -> id takes the formal P and dP to the tower's, at
    # level step and at the step-th level from max(dim, 1).  Over the three
    # steps that is 456 comparisons on cyclic3, 3,066 on sym3 and 60 on
    # free5, of which 126, 936 and 18 have the dim above the level
    for group, maxdim in TOWER_DIFFERENTIAL_GROUPS:
        assert formal_through_tower_mismatch(group, maxdim, step) is None


def formal_through_instance_mismatch(group, maxdim=3):
    """The first ("P" or "dP", dim) at which the formal P, or its boundary,
    pushed through ``instance_eval`` differs from the chain the instance
    context builds, over every simplex of ``group`` up to ``maxdim``; None
    if they agree everywhere.  ``instance_eval`` multiplies plain target
    elements, so it shares no coded product row with either side."""
    formal = formal_context(group)
    inst = VerificationInstance(group, 5)
    ctx = instance_context(inst)

    def evaluate(q):
        return quintuple.instance_eval(inst, q)

    elements = list(group.elements())
    for dim in range(maxdim + 1):
        for sigma in itertools.product(elements, repeat=dim):
            formal_P, inst_P = homotopy_P(formal, sigma), homotopy_P(ctx, sigma)
            for what, got, want in (
                ("P", formal_P, inst_P),
                ("dP", boundary(formal.entries, formal_P), boundary(ctx.entries, inst_P)),
            ):
                if pushforward(evaluate, _decoded(formal.entries, got)) != _decoded(ctx.entries, want):
                    return what, dim
    return None


@pytest.mark.parametrize("group", [CyclicGroup(3), SymmetricGroup(3)], ids=lambda g: g.name)
def test_formal_P_pushed_into_the_instance_is_the_instance_P(group):
    # the rewrite rules of the quintuple algebra hold in the instance: the
    # letter map h, k, m, f, g -> (G x G) x Z_5 takes the formal P and dP,
    # on every simplex of dim <= 3 (40 of cyclic3, 259 of sym3), to the
    # chains the instance builds
    assert formal_through_instance_mismatch(group) is None


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
        fused.add_terms(zip(*shuffle_terms(sub, pushed)[:2]))
        assert fused == correction
        out.add_chain(correction, -1)
    memo[key] = out
    return out


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_induct_Q_fused_corrections_match_oracle(m):
    F = FreeGroup(m)
    sigma = tuple(F.gens())
    # one tower, so that equal codes are equal tower values.  Above level m,
    # psi is psi(m) streamed through the level shift, which the oracle does
    # not take: it builds every stage at its own level
    tower, memo = MitosisTower(F), {}
    for level in (m, m + 1, m + 2):
        assert tower.psi(level, sigma) == _oracle_psi(tower, level, sigma, memo), level


def _scalar_psi(tower, level, sigma, memo):
    """The tower homotopy with each stage accumulated term by term: P, then
    the ``shuffle_terms`` of each correction in turn through
    ``Chain.add_terms``, in ``induct_Q``'s order of construction, so a fresh
    tower codes the same values alike."""
    if not sigma:
        return Chain(1)
    key = (level, sigma)
    if key not in memo:
        ctx = tower.context(level)
        out = homotopy_P(ctx, sigma)
        for k in range(1, len(sigma)):
            pushed = Chain.of(tuple(ctx.f(x) for x in sigma[k:]))
            out.add_terms(zip(*shuffle_terms(_scalar_psi(tower, level - 1, sigma[:k], memo), pushed, -1)[:2]))
        memo[key] = out
    return memo[key]


def _random_tower_cases():
    rng = random.Random(21)
    for group in (CyclicGroup(2), CyclicGroup(3), SymmetricGroup(3)):
        for _ in range(20):
            dim = rng.randrange(2, 5)
            yield group, tuple(group.sample(rng) for _ in range(dim))


TOWER_CASES = [(FreeGroup(max(m, 1)), tuple(FreeGroup(max(m, 1)).gens()[:m])) for m in range(7)]
TOWER_CASES += list(_random_tower_cases())


@pytest.mark.parametrize("base, sigma", TOWER_CASES, ids=lambda x: str(x))
def test_stage_dicts_equal_the_scalar_accumulation(base, sigma):
    level = max(len(sigma), 1)
    if isinstance(base, FreeGroup):
        # two fresh towers: the same terms, in the same order, as decoded
        # values (the scalar build codes the stages below in another order)
        tower, scalar = MitosisTower(base), MitosisTower(base)
        fast = _decoded(tower.algebra, tower.psi(level, sigma)).terms.items()
        assert list(fast) == list(_decoded(scalar.algebra, _scalar_psi(scalar, level, sigma, {})).terms.items())
    else:
        # a concrete psi is the generic one pushed forward: the oracle's values
        assert naturality_mismatch([(base, level, sigma)]) is None


def naturality_mismatch(cases):
    """The first ``(group, level, sigma)`` of the ``(base, level, sigma)``
    cases whose psi, the generic psi pushed forward, differs from the
    oracle's as decoded chains; None if none does.  One tower per base
    builds psi, and another the oracle."""
    towers = {}
    for base, level, sigma in cases:
        tower, oracle, memo = towers.setdefault(base, (MitosisTower(base), MitosisTower(base), {}))
        got = _decoded(tower.algebra, tower.psi(level, sigma))
        if got != _decoded(oracle.algebra, _oracle_psi(oracle, level, sigma, memo)):
            return base.name, level, sigma
    return None


NATURALITY_GROUPS = ["cyclic2", "cyclic3", "sym3", "cyclic2*sym3"]


def naturality_grid(per_cell):
    """``per_cell`` random simplices of each group at each (level, dim), then
    40 random free3 simplices of dims 2-4 at level dim or 4."""
    rng = random.Random(27)
    for group in NATURALITY_GROUPS:
        base = parse_group(group)
        for level, dim in [(2, 2), (3, 3), (4, 4), (4, 3)]:
            for _ in range(per_cell):
                yield base, level, tuple(base.sample(rng) for _ in range(dim))
    base, rng = FreeGroup(3), random.Random(3)
    for _ in range(40):
        dim = rng.randrange(2, 5)
        yield base, rng.choice((dim, 4)), tuple(base.sample(rng) for _ in range(dim))


def test_concrete_psi_is_the_generic_psi_pushed_forward():
    assert naturality_mismatch(naturality_grid(10)) is None


def test_streamed_psi_is_the_pushforward_term_for_term_in_order():
    # the classical pushforward of the whole generic psi(m), along the tower
    # map and the level shift, is the oracle of the streamed one: the same
    # codes in the same order, since verify reports a residual's first
    # surviving term
    towers = {}
    for base, level, sigma in naturality_grid(10):
        tower = towers.setdefault(base, MitosisTower(base))
        got = list(tower.psi(level, sigma).terms.items())
        free, m = tower._generic or tower, len(sigma)
        h = tower.tower_map(sigma, level - m)
        table = lambda c: tower.algebra.code(h(free.algebra.elems[c]))
        want = pushforward(table, free.psi(m, tuple(FreeGroup(m).gens())))
        assert got == list(want.terms.items()), (base.name, level, sigma)


@pytest.mark.parametrize("group", NATURALITY_GROUPS)
def test_tower_map_is_a_homomorphism_on_the_coded_rows(group):
    # h(ab) = h(a) h(b) on every product in the coded rows after psi(5) of
    # the generic 5-simplex, which builds the levels below it too
    F = FreeGroup(5)
    generic = MitosisTower(F)
    generic.psi(5, tuple(F.gens()))
    base = parse_group(group)
    rng = random.Random(5)
    sigma = tuple(base.sample(rng) for _ in range(5))
    h, words = MitosisTower(base).tower_map(sigma, 0), TowerAlgebra(base)
    alg = generic.algebra
    products = [(a, b, c) for a, row in enumerate(alg.rows) for b, c in row.items()]
    assert len(products) > 100
    for a, b, c in products:
        assert h(alg.elems[c]) == words.mul(h(alg.elems[a]), h(alg.elems[b]))


def test_tower_product_is_associative_on_psi_6():
    # on the consecutive entries (a, b, c) of every term of psi(6): ab and bc
    # are faces' entries, so they normalize, and then (ab)c = a(bc), or
    # neither normalizes
    F = FreeGroup(6)
    tower = MitosisTower(F)
    alg = tower.algebra
    triples = {s[i:i + 3] for s in tower.psi(6, tuple(F.gens())).terms for i in range(4)}
    normal = 0
    for a, b, c in triples:
        left = _product(alg, alg.mul(a, b), c)
        assert left == _product(alg, a, alg.mul(b, c))
        normal += left is not NonNormalizable
    assert len(triples) > 4000 and normal > 1000


@pytest.mark.parametrize("m", range(7))
def test_free_towers_never_repeat_a_stage_key(m):
    # induct_Q builds every stage of the generic simplex, and raises at a
    # repeated raw key
    base = FreeGroup(max(m, 1))
    chain = MitosisTower(base).psi(max(m, 1), tuple(base.gens()[:m]))
    assert len(chain) == diameter(chain) == gamma(m)


def _shuffle_terms_repeating_the_first(a, b, scale=1):
    """``shuffle_terms`` with its first term yielded twice."""
    keys, coeffs, count = shuffle_terms(a, b, scale)
    key, coeff = next(keys), next(coeffs)
    return itertools.chain((key, key), keys), itertools.chain((coeff, coeff), coeffs), count + 1


def test_a_repeated_raw_term_raises(monkeypatch, capsys):
    # the stages below the top are built first, so the top stage's own check
    # raises, in induct_Q's ordered stream; expand builds psi through
    # induct_Q and exits 1 before it writes anything
    F = FreeGroup(3)
    sigma = tuple(F.gens())
    tower = MitosisTower(F)
    tower.psi(2, sigma[:2])
    monkeypatch.setattr(homotopy, "shuffle_terms", _shuffle_terms_repeating_the_first)
    with pytest.raises(ChainError, match=r"^psi\(3\) on a 3-simplex: 152 distinct keys for 154 raw terms$"):
        homotopy.induct_Q(tower, sigma)
    assert main(["expand", "--op", "psi", "--dim", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and re.fullmatch(r"error: ChainError: [^\n]+\n", err), err


def test_induct_Q_sees_only_generic_simplices(monkeypatch, capsys):
    seen = []
    induct_Q = homotopy.induct_Q

    def recording(tower, sigma):
        seen.append((tower.base, sigma))
        return induct_Q(tower, sigma)

    monkeypatch.setattr(homotopy, "induct_Q", recording)
    for argv in (["expand", "--op", "psi", "--mode", "concrete", "--seed", "1", "--group", "sym3", "--dim", "4"],
                 ["verify", "--suite", "psi", "--level", "4", "--maxdim", "4"]):
        assert main(argv) == 0
    capsys.readouterr()
    # one build per dimension: 1-3 in sym3's private free tower, 1-4 in verify's
    assert len(seen) == 3 + 4
    assert all(isinstance(base, FreeGroup) and sigma == tuple(FreeGroup(len(sigma)).gens())
               for base, sigma in seen)


def test_a_concrete_top_is_never_built_by_induct_Q(monkeypatch):
    # the generic top of a concrete psi is streamed forward, never built: the
    # private free tower's induct_Q builds the lower stages only, each at
    # level = dim, the highest level its chain holds
    keys = []
    induct_Q = homotopy.induct_Q

    def recording(tower, sigma):
        chain = induct_Q(tower, sigma)
        keys.append((max(value_level(tower.algebra.elems[c]) for s in chain.terms for c in s), sigma))
        return chain

    monkeypatch.setattr(homotopy, "induct_Q", recording)
    base = parse_group("sym3")
    MitosisTower(base).psi(4, tuple(base.sample(random.Random(4)) for _ in range(4)))
    assert sorted(keys) == [(m, tuple(FreeGroup(m).gens())) for m in range(1, 4)]


def test_the_tower_memo_holds_generic_stages_only(monkeypatch, capsys):
    # one chain per dimension: a streamed psi, at a raised level or on any
    # other simplex, is returned and never stored, and a concrete tower's
    # private free tower stores the lower stages its top reads, not the top
    towers = []
    init = MitosisTower.__init__
    monkeypatch.setattr(MitosisTower, "__init__", lambda self, base: towers.append(self) or init(self, base))
    assert main(["verify", "--suite", "psi", "--level", "4", "--maxdim", "4"]) == 0
    capsys.readouterr()
    [free] = towers
    assert set(free._cache) == {1, 2, 3, 4}
    base = parse_group("sym3")
    tower = MitosisTower(base)
    tower.psi(4, tuple(base.sample(random.Random(4)) for _ in range(4)))
    assert tower._cache == {}
    assert set(tower._generic._cache) == {1, 2, 3}


class _HeldChain(Chain):
    """A ``Chain`` that a weak reference can follow."""

    __slots__ = ("__weakref__",)


def test_the_count_holds_one_chain_per_lower_dimension(monkeypatch):
    # count --dim 7 builds P_n on x_1 .. x_n once for each n <= 7, each
    # freed before the next is built, and no psi: the tower memoizes nothing
    base = FreeGroup(7)
    tower = MitosisTower(base)
    built = []

    def tracked(ctx, sigma):
        assert all(ref() is None for ref in built), "a P was still held"
        chain = homotopy_P(ctx, sigma)
        held = _HeldChain(chain.dim)
        held.terms = chain.terms
        built.append(weakref.ref(held))
        return held

    monkeypatch.setattr(homotopy, "homotopy_P", tracked)
    monkeypatch.setattr(homotopy, "induct_Q", None)
    assert psi_counts(tower, tuple(base.gens())) == (gamma(7), q_count(7))
    assert len(built) == 7
    assert tower._cache == {}


def _chain_counts(tower, level, sigma):
    """The (diameter, degenerate) of the chain psi(level, sigma), and its
    projection's diameter."""
    chain = tower.psi(level, sigma)
    alg = tower.algebra
    return (diameter(chain), count_degenerate(alg, chain)), diameter(project(alg, chain))


@pytest.mark.parametrize("above", [0, 1])
@pytest.mark.parametrize("m", range(7))
def test_streamed_counts_equal_the_chain_counts(m, above):
    # the generic simplex, counted streamed and never built, against its
    # chain at level m and m + 1: the level shift keeps both norms
    base = FreeGroup(max(m, 1))
    sigma, level = tuple(base.gens()[:m]), max(m, 1) + above
    tower = MitosisTower(base)
    counts = psi_counts(tower, sigma)
    assert tower._cache == {}
    assert counts == (gamma(m), q_count(m))
    assert _chain_counts(tower, level, sigma) == (counts, counts[0] - counts[1])


def test_the_count_reads_degeneracy_off_one_P_per_dimension(monkeypatch):
    # count --dim 6: count_degenerate reads P_n once for each n <= 6, the
    # sum of d_cyl(n) = 768 simplices, never a raw term of psi (gamma(6) =
    # 98,336 of them)
    base = FreeGroup(6)
    tower = MitosisTower(base)
    seen = []

    def counting(alg, chain):
        seen.append(len(chain))
        return count_degenerate(alg, chain)

    monkeypatch.setattr(homotopy, "count_degenerate", counting)
    assert psi_counts(tower, tuple(base.gens())) == (gamma(6), q_count(6))
    assert seen == [d_cyl(n) for n in range(1, 7)] and sum(seen) == 768


def test_streamed_counts_past_256_codes():
    # 254 base words coded first push the tower's codes past 256, where a
    # byte no longer holds a code
    base = FreeGroup(4)
    sigma = tuple(base.gens())
    tower = MitosisTower(base)
    for k in range(1, 255):
        tower.algebra.code((1,) * k)
    counts = psi_counts(tower, sigma)
    assert len(tower.algebra.elems) > 257
    assert counts == (gamma(4), q_count(4)) == _chain_counts(tower, 4, sigma)[0]


def test_the_count_at_m_7_is_the_norms_of_induct_Qs_dict():
    # the enumerated oracle of the level certificate at the largest m
    # tier-1 holds: induct_Q's dict of psi(7), which passed its own length
    # check, has psi_counts' norms (about 1.2 s and 200 MB)
    base = FreeGroup(7)
    sigma = tuple(base.gens())
    tower = MitosisTower(base)
    counts = psi_counts(tower, sigma)
    chain = induct_Q(tower, sigma)
    assert counts == (diameter(chain), count_degenerate(tower.algebra, chain)) == (gamma(7), q_count(7))
    assert len(chain) == gamma(7)


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
def test_theorem45_builds_P_once_per_distinct_simplex(group, monkeypatch):
    from collections import Counter

    from barhom import homotopy

    real_P, real_residual = homotopy.homotopy_P, checks.theorem_identity_residual
    built, checked, dicts = [], [], {}

    def counted_P(ctx, sigma):
        built.append(sigma)
        return real_P(ctx, sigma)

    def residual(ctx, sigma, face_P):
        checked.append(sigma)
        dicts[id(face_P)] = face_P
        return real_residual(ctx, sigma, face_P)

    monkeypatch.setattr(homotopy, "homotopy_P", counted_P)
    monkeypatch.setattr(checks, "theorem_identity_residual", residual)
    samples = 60
    checks.theorem45(group, 5, maxdim=4, samples=samples, rng=random.Random(3))
    # the dim-4 draws, replayed: only they read the rng
    rng = random.Random(3)
    drawn = [checks.random_simplex(group, 4, rng) for _ in range(samples)]
    if group.name == "cyclic3":
        assert len(set(drawn)) < samples
    # every simplex of dim <= 3 once, then each distinct draw once
    exhaustive = [s for m in range(4) for s in itertools.product(group.elements(), repeat=m)]
    assert Counter(checked) == Counter(exhaustive) + Counter(set(drawn))
    order = len(list(group.elements()))
    # P is applied to each checked simplex and to the faces that survive in
    # its boundary; the 3-faces of the draws are exhaustive tops too
    faces = set()
    for sigma in checked:
        faces.update(boundary(group, Chain.of(sigma)).terms)
    assert 0 < len(faces) <= sum(order ** m for m in range(4))
    three_faces = {f for f in faces if len(f) == 3}
    assert three_faces and three_faces <= set(checked)
    # P of each distinct simplex, checked or met as a face, is built once
    assert Counter(built) == Counter(set(checked) | faces)
    # the face dict holds P of the faces met and of nothing else
    (face_P,) = dicts.values()
    assert set(face_P) == faces and None not in face_P.values()
    if group.name == "sym3":
        # some exhaustive 3-simplex is met by no draw, so it is not kept
        assert len(three_faces) < order ** 3
    # the face dict lives for one theorem45 call, so the next call builds
    # every P again
    built.clear()
    checked.clear()
    checks.theorem45(group, 5, maxdim=2, samples=1, rng=random.Random(3))
    assert Counter(built) == Counter(checked) == Counter(exhaustive[:1 + order + order ** 2])
    assert len(dicts) == 2


def test_a_repeated_draw_cannot_hide_a_failing_simplex(monkeypatch, capsys):
    from barhom.cli import main

    # the verify defaults: 200 draws on cyclic3 with seed 0; the simplex
    # first drawn last comes after many repeats of the others
    group, samples = CyclicGroup(3), 200
    rng = random.Random(0)
    drawn = [checks.random_simplex(group, 4, rng) for _ in range(samples)]
    distinct = list(dict.fromkeys(drawn))
    bad = distinct[-1]
    assert drawn.index(bad) - distinct.index(bad) >= 10
    real_residual, checked = checks.theorem_identity_residual, []

    def residual(ctx, sigma, face_P):
        checked.append(sigma)
        if sigma == bad:
            return Chain.of((ctx.m(ctx.source.identity),))
        return real_residual(ctx, sigma, face_P)

    monkeypatch.setattr(checks, "theorem_identity_residual", residual)
    with pytest.raises(checks.CheckFailure, match="theorem45 residual at dim 4"):
        checks.theorem45(group, 5, maxdim=4, samples=samples, rng=random.Random(0))
    # each distinct draw before it was checked once, and it failed at its first draw
    assert [s for s in checked if len(s) == 4] == distinct
    assert main(["verify", "--suite", "theorem45", "--maxdim", "4"]) == 1
    assert capsys.readouterr().out.splitlines()[-2].startswith("FAIL theorem45: theorem45 residual at dim 4: ")


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
