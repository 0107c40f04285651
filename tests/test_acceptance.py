"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see the lines)."""

import random
import time
from fractions import Fraction

from barhom import bounds as bd
from barhom import checks
from barhom.cylinder import cyl, cyl_chain, face_pillar
from barhom.groups import CyclicGroup, FreeGroup
from barhom.homotopy import MitosisTower, psi_counts
from barhom.moore import Chain, boundary, count_degenerate, diameter, face, project


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
        sigma = tuple(base.gens()[:m])
        chain = tower.psi(max(m, 1), sigma)
        alg = tower.algebra
        ok = ok and diameter(chain) == bd.gamma(m)
        ok = ok and count_degenerate(alg, chain) == bd.q_count(m)
        ok = ok and diameter(project(alg, chain)) == bd.c_bound(m)
    elapsed = time.time() - start
    report("criterion 2: free-symbol counts m <= 7", ok and elapsed < 120, f"{elapsed:.1f}s")


def first_failure(*runs):
    """Run the checks in order; the message of the first that fails, or None."""
    try:
        for run in runs:
            run()
    except checks.CheckFailure as exc:
        return str(exc)
    return None


def test_criterion_3_theorem_identity():
    start = time.time()
    failure = first_failure(
        lambda: checks.theorem45(CyclicGroup(2), 5, maxdim=3, samples=200, rng=random.Random(0)),
        lambda: checks.theorem45(CyclicGroup(3), 5, maxdim=4, samples=200, rng=random.Random(0)),
    )
    elapsed = time.time() - start
    report(
        "criterion 3: cylinder-homotopy identity (exhaustive <= 3, sampled dim 4)",
        failure is None and elapsed < 300,
        failure or f"{elapsed:.1f}s",
    )


def test_criterion_4_cylinder_lemmas():
    failure = first_failure(
        lambda: checks.cylinder_lemma(CyclicGroup(3), maxdim=4, samples=1000, rng=random.Random(1))
    )
    ok = failure is None
    # the worked cancellation example, bit-exact over free symbols
    F = FreeGroup(7)
    a1, a2, a3, b1, b2, b3, t0 = F.gens()
    t1 = F.mul(F.inv(b1), F.mul(t0, a1))
    t2 = F.mul(F.inv(b2), F.mul(t1, a2))
    t3 = F.mul(F.inv(b3), F.mul(t2, a3))
    sigma, tau, T = (a1, a2), (b1, b2), (t0, t1, t2)
    mu, nu, U = (F.mul(a1, a2), a3), (F.mul(b1, b2), b3), (t0, t2, t3)
    ok = ok and face_pillar(1, T) == face_pillar(2, U)
    total = boundary(F, cyl_chain(F, 2, [(1, sigma, tau, T), (1, mu, nu, U)]))
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
    report("criterion 4: cylinder boundary and cancellation lemmas", ok, failure or "1000 cylinders")


def test_criterion_5_chain_map_suites():
    # 100 random chains of dims 1..5 (dd = 0, projection chain map, L1
    # split), 100 random simplices (simplicial identities), edgewise dims 1..5
    failure = first_failure(
        lambda: checks.chain_maps(CyclicGroup(3), maxdim=5, cases=100, rng=random.Random(2))
    )
    report("criterion 5: chain-map and structural suites", failure is None, failure or "")


def test_criterion_6_psi_identity_formal():
    start = time.time()
    failure = first_failure(lambda: checks.psi_identity(level=3, maxdim=3))
    elapsed = time.time() - start
    report("criterion 6: tower identity, level 3, dims <= 3", failure is None, failure or f"{elapsed:.2f}s")


def test_criterion_7_bound_constants():
    rows = {r.name: r for r in bd.bound_reports(1, 1)}
    chapter6 = [name for name, *_ in bd.CHAPTER6]
    ok = (
        rows["general"].value == 189540 == 2 * (195 + 975 * 97)
        and rows["cha_general"].value == 363090 == 2 * (195 + 975 * 186)
        and rows["spherical"].value == 2340
        and rows["degree_map"].value == 2340
        and {r.name: r for r in bd.bound_reports(7, 1)}["lens_lower"].value == Fraction(7, 2340 * 1728)
        and 2340 * 1728 == 4043520
        and 363090 * 1728 == 627419520
        and all(rows[name].provenance == "stored-from-paper" for name in chapter6)
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


def test_criterion_9_psi_identity_generic_level6():
    # the tower identity at level = dim = 6 on the generic free-symbol simplex
    start = time.time()
    failure = first_failure(lambda: checks.psi_identity(level=6, maxdim=6))
    elapsed = time.time() - start
    report("criterion 9: tower identity, level 6, generic simplex dims <= 6",
           failure is None, failure or f"{elapsed:.2f}s")


def test_criterion_10_certified_counts():
    # the level certificate builds no P and no psi: its gamma, q and c equal
    # the recurrences for every m <= 14, on one fresh tower per m, and the CI
    # row's m = 16 is pinned to the published values
    start = time.time()
    ok = True
    for m in range(15):
        base = FreeGroup(max(m, 1))
        diam, degen = psi_counts(MitosisTower(base), tuple(base.gens()[:m]))
        ok = ok and (diam, degen, diam - degen) == (bd.gamma(m), bd.q_count(m), bd.c_bound(m))
    ok = ok and (bd.gamma(16), bd.q_count(16)) == (271098388781049088, 100722984316460322)
    elapsed = time.time() - start
    report("criterion 10: certified counts m <= 14", ok and elapsed < 5, f"{elapsed:.2f}s")
