import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barhom import checks, moore
from barhom.checks import cylinder_boundary_rhs, cylinder_lemma, random_compatible
from barhom.cylinder import (
    IncompatiblePillars,
    TermMismatch,
    check_pillars,
    cyl,
    cyl_chain,
    face_pillar,
)
from barhom.groups import CyclicGroup, DirectProduct, FreeGroup, SymmetricGroup
from barhom.moore import Chain, boundary, diameter, face

C3 = CyclicGroup(3)


def test_cyl_one_simplex():
    F = FreeGroup(3)
    a, b, t0 = F.gens()
    t1 = F.mul(F.inv(b), F.mul(t0, a))
    chain = cyl(F, (a,), (b,), (t0, t1))
    assert chain == Chain(2, {(t0, a): 1, (b, t1): -1})


def test_cyl_two_simplex_display():
    # [t0,a1,a2] - [b1,t1,a2] + [b1,b2,t2]
    F = FreeGroup(5)
    a1, a2, b1, b2, t0 = F.gens()
    t1 = F.mul(F.inv(b1), F.mul(t0, a1))
    t2 = F.mul(F.inv(b2), F.mul(t1, a2))
    chain = cyl(F, (a1, a2), (b1, b2), (t0, t1, t2))
    assert chain == Chain(
        3, {(t0, a1, a2): 1, (b1, t1, a2): -1, (b1, b2, t2): 1}
    )


def test_cyl_zero_simplex():
    # forced by the pattern: the single 1-simplex [t0]
    chain = cyl(C3, (), (), (2,))
    assert chain == Chain.of((2,))


def test_cyl_rejects_incompatible():
    with pytest.raises(IncompatiblePillars) as err:
        cyl(C3, (1, 1), (1, 1), (0, 0, 1))
    assert err.value.index == 1
    with pytest.raises(TermMismatch):
        cyl(C3, (1,), (1, 2), (0, 0))


@pytest.mark.parametrize("dim", [0, 1, 2, 3, 4])
def test_cyl_diameter(dim):
    rng = random.Random(dim)
    F = FreeGroup(2 * dim + 1)
    top, bottom, pillars = random_compatible(F, dim, rng)
    assert diameter(cyl(F, top, bottom, pillars)) == dim + 1


# -- the cylinder kernel against add_term, on cylinders whose terms coincide -------


def reference_cyl(alg, top, bottom, pillars):
    check_pillars(alg, top, bottom, pillars)
    out = Chain(len(top) + 1)
    sign = 1
    for i in range(len(top) + 1):
        out.add_term(bottom[:i] + (pillars[i],) + top[i:], sign)
        sign = -sign
    return out


def coinciding_cylinder(group, dim, start, count, rng):
    """A random compatible cylinder whose terms start .. start + count - 1
    are one simplex: t_i = b_(i+1) and a_(i+1) = t_(i+1) along the run."""
    top = [group.sample(rng) for _ in range(dim)]
    bottom = [group.sample(rng) for _ in range(dim)]
    pillars = [None] * (dim + 1)
    if count > 1:
        pillars[start] = bottom[start]
        for i in range(start, start + count - 2):
            bottom[i + 1] = top[i]
    else:
        pillars[start] = group.sample(rng)
    for i in range(start, dim):        # t_(i+1) = b_(i+1)^-1 t_i a_(i+1)
        pillars[i + 1] = group.mul(group.inv(bottom[i]), group.mul(pillars[i], top[i]))
    for i in reversed(range(start)):   # t_i = b_(i+1) t_(i+1) a_(i+1)^-1
        pillars[i] = group.mul(bottom[i], group.mul(pillars[i + 1], group.inv(top[i])))
    return tuple(top), tuple(bottom), tuple(pillars)


CYL_GROUPS = [C3, SymmetricGroup(3), DirectProduct(C3, C3, CyclicGroup(5)), FreeGroup(3)]


@pytest.mark.parametrize("group", CYL_GROUPS, ids=str)
def test_cyl_kernel_matches_add_term_on_coinciding_terms(group):
    rng = random.Random(5)
    for dim in range(5):
        for start in range(dim + 1):
            for count in range(1, dim + 2 - start):
                top, bottom, pillars = coinciding_cylinder(group, dim, start, count, rng)
                run = {bottom[:i] + (pillars[i],) + top[i:] for i in range(start, start + count)}
                assert len(run) == 1
                got = cyl(group, top, bottom, pillars)
                want = reference_cyl(group, top, bottom, pillars)
                assert got == want
                assert list(got.terms.items()) == list(want.terms.items())
                # equal terms with alternating signs cancel in pairs
                assert len(got) <= dim + 1 - 2 * (count // 2)


def test_cyl_kernel_cancels_runs_of_equal_terms():
    # t_0 = b_1, a_1 = t_1 = b_2, a_2 = t_2: terms 0, 1 and 2 are all
    # [1, 1, 2, 1] with signs +, -, +, so one copy survives
    top, bottom, pillars = (1, 2, 1), (1, 1, 0), (1, 1, 2, 0)
    got = cyl(C3, top, bottom, pillars)
    assert list(got.terms.items()) == [((1, 1, 2, 1), 1), ((1, 1, 0, 0), -1)]
    # t_1 = b_2 and a_2 = t_2 only: terms 1 and 2 cancel outright
    top, bottom, pillars = (0, 2, 1), (2, 1, 0), (0, 1, 2, 0)
    got = cyl(C3, top, bottom, pillars)
    assert list(got.terms.items()) == [((0, 0, 2, 1), 1), ((2, 1, 0, 0), -1)]
    assert got == reference_cyl(C3, top, bottom, pillars)


def test_face_pillar():
    assert face_pillar(0, (10, 11, 12)) == (11, 12)
    assert face_pillar(2, (10, 11, 12)) == (10, 11)
    with pytest.raises(IndexError):
        face_pillar(3, (10, 11, 12))


@pytest.mark.parametrize("group", [C3, SymmetricGroup(3)], ids=str)
def test_face_compatibility(group):
    rng = random.Random(7)
    for _ in range(40):
        dim = rng.randrange(1, 5)
        top, bottom, pillars = random_compatible(group, dim, rng)
        for i in range(dim + 1):
            check_pillars(
                group,
                face(group, i, top),
                face(group, i, bottom),
                face_pillar(i, pillars),
            )


@pytest.mark.parametrize("group", [C3, SymmetricGroup(3)], ids=str)
def test_cylinder_boundary_lemma(group):
    cylinder_lemma(group, maxdim=4, samples=60, rng=random.Random(13))


def test_cylinder_lemma_reaches_the_column_path(monkeypatch):
    # the other lemma runs stop at maxdim 4, whose cylinders have at most 5
    # terms, so their boundaries take only the per-simplex path; cylinders
    # of dim 7-9 take the column path
    sizes, real = [], checks.boundary
    monkeypatch.setattr(checks, "boundary", lambda alg, chain: sizes.append(len(chain)) or real(alg, chain))
    cylinder_lemma(SymmetricGroup(3), maxdim=9, samples=40, rng=random.Random(9))
    assert min(sizes) < moore.SMALL_CHAIN <= max(sizes)


def test_a_repeated_draw_cannot_hide_a_failing_cylinder(monkeypatch, capsys):
    from barhom.cli import main

    # the verify defaults: 200 draws of dims 0-3 on cyclic3 with seed 0; the
    # case first drawn last comes after many repeats of the others, and some
    # distinct cases differ only in their pillars
    group, maxdim, samples = C3, 3, 200
    rng, drawn = random.Random(0), []
    for _ in range(samples):
        drawn.append(random_compatible(group, rng.randrange(0, maxdim + 1), rng))
    distinct = list(dict.fromkeys(drawn))
    bad = distinct[-1]
    assert drawn.index(bad) - distinct.index(bad) >= 10
    assert len({(top, bottom) for top, bottom, _ in distinct}) < len(distinct)
    assert main(["verify", "--suite", "cylinder"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"ok cylinder boundary lemma on {samples} random compatible cylinders"
    real_rhs, checked = checks.cylinder_boundary_rhs, []

    def rhs(alg, top, bottom, pillars):
        checked.append((top, bottom, pillars))
        chain = real_rhs(alg, top, bottom, pillars)
        if (top, bottom, pillars) == bad:
            chain.add_term(top, 1)
        return chain

    monkeypatch.setattr(checks, "cylinder_boundary_rhs", rhs)
    with pytest.raises(checks.CheckFailure, match=f"^cylinder boundary formula fails at dim {len(bad[0])}$"):
        checks.cylinder_lemma(group, maxdim, samples, random.Random(0))
    # each distinct draw before it was checked once, and it failed at its first draw
    assert checked == distinct
    assert main(["verify", "--suite", "cylinder"]) == 1
    assert capsys.readouterr().out.splitlines()[-2] == f"FAIL cylinder: cylinder boundary formula fails at dim {len(bad[0])}"


@given(st.integers(0, 4), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_cylinder_boundary_lemma_property(dim, rng):
    group = SymmetricGroup(4)
    top, bottom, pillars = random_compatible(group, dim, rng)
    lhs = boundary(group, cyl(group, top, bottom, pillars))
    assert lhs == cylinder_boundary_rhs(group, top, bottom, pillars)


def test_chain_level_boundary_lemma():
    # d Cyl(S sigma, S tau, T) = S sigma - S tau - Cyl(d S sigma, d S tau, dT)
    group = SymmetricGroup(3)
    rng = random.Random(17)
    for _ in range(15):
        dim = rng.randrange(1, 4)
        terms = [random_compatible(group, dim, rng) for _ in range(3)]
        lhs = boundary(group, cyl_chain(group, dim, [(1, *term) for term in terms]))
        rhs = Chain(dim)
        for top, bottom, _pillars in terms:
            rhs.add_term(top, 1)
            rhs.add_term(bottom, -1)
        face_terms = []
        for top, bottom, pillars in terms:
            sign = 1
            for i in range(dim + 1):
                face_terms.append(
                    (-sign, face(group, i, top), face(group, i, bottom), face_pillar(i, pillars))
                )
                sign = -sign
        for s, c in cyl_chain(group, dim - 1, face_terms):
            rhs.add_term(s, c)
        assert lhs == rhs


def test_cancellation_lemma_worked_example():
    # sigma = [a1,a2], mu = [a1 a2, a3] with d1 sigma = d2 mu, d1 T = d2 U:
    # the shared side is absent from the boundary of the sum
    F = FreeGroup(7)
    a1, a2, a3, b1, b2, b3, t0 = F.gens()
    t1 = F.mul(F.inv(b1), F.mul(t0, a1))
    t2 = F.mul(F.inv(b2), F.mul(t1, a2))
    t3 = F.mul(F.inv(b3), F.mul(t2, a3))
    sigma, tau, T = (a1, a2), (b1, b2), (t0, t1, t2)
    mu = (F.mul(a1, a2), a3)
    nu = (F.mul(b1, b2), b3)
    U = (t0, t2, t3)
    assert face(F, 1, sigma) == face(F, 2, mu)
    assert face(F, 1, tau) == face(F, 2, nu)
    assert face_pillar(1, T) == face_pillar(2, U)
    check_pillars(F, mu, nu, U)

    total = boundary(F, cyl_chain(F, 2, [(1, sigma, tau, T), (1, mu, nu, U)]))
    expected = Chain(2)
    for s in (sigma, mu):
        expected.add_term(s, 1)
    for s in (tau, nu):
        expected.add_term(s, -1)
    sign = 1
    for i in range(3):
        if i != 1:
            for s, c in cyl(F, face(F, i, sigma), face(F, i, tau), face_pillar(i, T)):
                expected.add_term(s, -sign * c)
        sign = -sign
    sign = 1
    for j in range(3):
        if j != 2:
            for s, c in cyl(F, face(F, j, mu), face(F, j, nu), face_pillar(j, U)):
                expected.add_term(s, -sign * c)
        sign = -sign
    assert total == expected
    # and the shared side really cancelled: neither shared-side cylinder term survives
    shared = cyl(F, face(F, 1, sigma), face(F, 1, tau), face_pillar(1, T))
    for s, _ in shared:
        assert s not in total.terms


def test_cyl_chain_single_term_reduces_to_cyl():
    rng = random.Random(23)
    top, bottom, pillars = random_compatible(C3, 2, rng)
    assert cyl_chain(C3, 2, [(1, top, bottom, pillars)]) == cyl(C3, top, bottom, pillars)
    assert cyl_chain(C3, 2, []) == Chain(3)


def test_cyl_chain_diameter_sums():
    # distinct generators everywhere, so no two cylinder terms can collide
    F = FreeGroup(15)
    terms = []
    for block in range(3):
        a1, a2, b1, b2, t0 = F.gens()[5 * block:5 * block + 5]
        t1 = F.mul(F.inv(b1), F.mul(t0, a1))
        t2 = F.mul(F.inv(b2), F.mul(t1, a2))
        terms.append((1, (a1, a2), (b1, b2), (t0, t1, t2)))
    assert diameter(cyl_chain(F, 2, terms)) == sum(len(top) + 1 for _c, top, _b, _p in terms)


def test_cyl_chain_mixed_dims_rejected():
    rng = random.Random(31)
    t1 = (1, *random_compatible(C3, 1, rng))
    t2 = (1, *random_compatible(C3, 2, rng))
    with pytest.raises(TermMismatch):
        cyl_chain(C3, 1, [t1, t2])
    with pytest.raises(TermMismatch):
        cyl_chain(C3, 2, [t1, t2])

