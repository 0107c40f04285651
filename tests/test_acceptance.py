"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see the lines)."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from barhom import bounds as bd
from barhom.cylinder import cyl, face_pillar
from barhom.groups import CyclicGroup, FreeGroup
from barhom.homotopy import (
    MitosisTower,
    formal_context,
    instance_context,
    psi_identity_residual,
    theorem_identity_residual,
)
from barhom.moore import Chain, boundary, cellular_boundary, count_degenerate, diameter, face, project
from barhom.quintuple import VerificationInstance
from barhom.shuffles import edgewise, edgewise_chain, edgewise_composite


def report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_diameter_tables():
    start = time.time()
    ok = (
        [bd.gamma(m) for m in range(8)] == [0, 4, 24, 152, 1120, 9732, 98336, 1135024]
        and [bd.q_count(m) for m in range(8)] == [0, 1, 8, 55, 414, 3613, 36532, 421699]
        and [bd.c_bound(m) for m in range(8)] == [0, 3, 16, 97, 706, 6119, 61804, 713325]
        and [bd.d_cyl(m) for m in range(8)] == [0, 4, 12, 32, 80, 192, 448, 1024]
        and [bd.delta_bdh(k) for k in range(5)] == [0, 6, 26, 186, 3410]
    )
    elapsed = time.time() - start
    report("criterion 1: diameter tables", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_2_constructive_counting():
    start = time.time()
    ok = True
    for m in range(8):
        base = FreeGroup(max(m, 1))
        tower = MitosisTower(base)
        sigma = tuple(base.gen(i + 1) for i in range(m))
        chain = tower.psi(max(m, 1), sigma)
        alg = tower.algebra
        ok = ok and diameter(chain) == bd.gamma(m)
        ok = ok and count_degenerate(alg, chain) == bd.q_count(m)
        ok = ok and diameter(project(alg, chain)) == bd.c_bound(m)
    elapsed = time.time() - start
    report("criterion 2: free-symbol counts m <= 7", ok and elapsed < 120, f"{elapsed:.1f}s")


def test_criterion_3_theorem_identity():
    start = time.time()
    ok = True
    for order in (2, 3):
        group = CyclicGroup(order)
        ctx = instance_context(VerificationInstance(group, 5))
        for m in range(4):
            for sigma in itertools.product(group.elements(), repeat=m):
                ok = ok and theorem_identity_residual(ctx, sigma).is_zero()
    rng = random.Random(0)
    group = CyclicGroup(3)
    ctx = instance_context(VerificationInstance(group, 5))
    for _ in range(200):
        sigma = tuple(group.sample(rng) for _ in range(4))
        ok = ok and theorem_identity_residual(ctx, sigma).is_zero()
    elapsed = time.time() - start
    report(
        "criterion 3: cylinder-homotopy identity (exhaustive <= 3, sampled dim 4)",
        ok and elapsed < 300,
        f"{elapsed:.1f}s",
    )


def test_criterion_4_cylinder_lemmas():
    rng = random.Random(1)
    group = CyclicGroup(3)
    ok = True
    # 1000 random compatible cylinders of dims <= 4
    for _ in range(1000):
        dim = rng.randrange(0, 5)
        top = tuple(group.sample(rng) for _ in range(dim))
        bottom = tuple(group.sample(rng) for _ in range(dim))
        pillars = [group.sample(rng)]
        for i in range(dim):
            pillars.append(group.mul(group.inv(bottom[i]), group.mul(pillars[i], top[i])))
        pillars = tuple(pillars)
        lhs = boundary(group, cyl(group, top, bottom, pillars))
        rhs = Chain(dim)
        rhs.add_term(top, 1)
        rhs.add_term(bottom, -1)
        sign = 1
        for i in range(dim + 1) if dim else ():
            side = cyl(group, face(group, i, top), face(group, i, bottom), face_pillar(i, pillars))
            for s, c in side:
                rhs.add_term(s, -sign * c)
            sign = -sign
        ok = ok and lhs == rhs
    # the worked cancellation example, bit-exact over free symbols
    F = FreeGroup(7)
    a1, a2, a3, b1, b2, b3, t0 = F.gens()
    t1 = F.mul(F.inv(b1), F.mul(t0, a1))
    t2 = F.mul(F.inv(b2), F.mul(t1, a2))
    t3 = F.mul(F.inv(b3), F.mul(t2, a3))
    sigma, tau, T = (a1, a2), (b1, b2), (t0, t1, t2)
    mu, nu, U = (F.mul(a1, a2), a3), (F.mul(b1, b2), b3), (t0, t2, t3)
    ok = ok and face_pillar(1, T) == face_pillar(2, U)
    total = boundary(F, cyl(F, sigma, tau, T) + cyl(F, mu, nu, U))
    shared = cyl(F, face(F, 1, sigma), face(F, 1, tau), face_pillar(1, T))
    ok = ok and all(s not in total.terms for s, _ in shared)
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
    ok = ok and total == expected
    report("criterion 4: cylinder boundary and cancellation lemmas", ok, "1000 cylinders")


def test_criterion_5_chain_map_suites():
    rng = random.Random(2)
    group = CyclicGroup(3)
    ok = True
    # dd = 0
    for _ in range(100):
        dim = rng.randrange(1, 6)
        chain = Chain.of(tuple(group.sample(rng) for _ in range(dim)))
        ok = ok and boundary(group, boundary(group, chain)).is_zero()
    # both subdivision implementations agree bit-exactly and are chain maps
    for m in range(1, 5):
        F = FreeGroup(m)
        ctx = formal_context(F)
        alg = ctx.entries
        sigma = tuple(F.gens())
        one = edgewise(alg, ctx.f, ctx.g, sigma)
        two = edgewise_composite(alg, ctx.f, ctx.g, Chain.of(sigma))
        ok = ok and one == two
        lhs = boundary(alg, one)
        rhs = edgewise_chain(alg, ctx.f, ctx.g, boundary(F, Chain.of(sigma)))
        ok = ok and lhs == rhs
    # simplicial identities on random simplices
    from barhom.moore import degeneracy

    for _ in range(50):
        dim = rng.randrange(2, 5)
        sigma = tuple(group.sample(rng) for _ in range(dim))
        for j in range(dim + 1):
            for i in range(j):
                ok = ok and face(group, i, face(group, j, sigma)) == face(
                    group, j - 1, face(group, i, sigma)
                )
            sj = degeneracy(group, j, sigma)
            ok = ok and face(group, j, sj) == sigma == face(group, j + 1, sj)
    # projection is a chain map with the L1 split
    for _ in range(50):
        dim = rng.randrange(1, 5)
        chain = Chain(dim)
        for _ in range(4):
            chain.add_term(tuple(group.sample(rng) for _ in range(dim)), rng.choice((-2, -1, 1, 2)))
        ok = ok and cellular_boundary(group, project(group, chain)) == project(group, boundary(group, chain))
        ok = ok and diameter(chain) == diameter(project(group, chain)) + count_degenerate(group, chain)
    report("criterion 5: chain-map and structural suites", ok)


def test_criterion_6_psi_identity_formal():
    start = time.time()
    base = FreeGroup(3)
    tower = MitosisTower(base)
    ok = True
    for m in range(4):
        sigma = tuple(base.gen(i + 1) for i in range(m))
        residual = psi_identity_residual(tower, 3, sigma)
        ok = ok and residual.is_zero()
    elapsed = time.time() - start
    report("criterion 6: tower identity, level 3, dims <= 3", ok, f"{elapsed:.2f}s")


def test_criterion_7_bound_constants():
    rows = {r.name: r for r in bd.chapter6_table()}
    ok = (
        bd.rho_bound("general", 1).value == 189540 == 2 * (195 + 975 * 97)
        and bd.rho_bound("cha_general", 1).value == 363090 == 2 * (195 + 975 * 186)
        and bd.rho_bound("spherical", 1).value == 2340
        and bd.rho_bound("degree_map", 1, deg=1).value == 2340
        and bd.lens_bounds(10)[0].value == Fraction(7, 2340 * 1728)
        and 2340 * 1728 == 4043520
        and 363090 * 1728 == 627419520
        and all(r.provenance == "stored-from-paper" for r in rows.values())
        and rows["heegaard_lickorish"].value == 191884680
        and rows["b2h_lower"].value == Fraction(1, 56448)
    )
    report("criterion 7: bound constants and provenance", ok)


def test_criterion_8_asymptotic_ratio():
    start = time.time()
    value = Fraction(bd.q_count(200), bd.gamma(200))
    ok = abs(value - Fraction(3715, 10000)) < Fraction(1, 1000)
    elapsed = time.time() - start
    report("criterion 8: q/gamma ratio at m = 200", ok and elapsed < 30, f"{elapsed:.2f}s")
