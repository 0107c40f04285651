import itertools
import math
from fractions import Fraction
from math import comb

import pytest

from barhom import bounds as bd

GAMMA_TABLE = [0, 4, 24, 152, 1120, 9732, 98336, 1135024]
Q_TABLE = [0, 1, 8, 55, 414, 3613, 36532, 421699]
C_TABLE = [0, 3, 16, 97, 706, 6119, 61804, 713325]
D_TABLE = [0, 4, 12, 32, 80, 192, 448, 1024]
DELTA_TABLE = [0, 6, 26, 186, 3410]


def test_tables():
    assert [bd.gamma(m) for m in range(8)] == GAMMA_TABLE
    assert [bd.q_count(m) for m in range(8)] == Q_TABLE
    assert [bd.c_bound(m) for m in range(8)] == C_TABLE
    assert [bd.d_cyl(m) for m in range(8)] == D_TABLE
    assert [bd.delta_bdh(k) for k in range(5)] == DELTA_TABLE
    with pytest.raises(bd.DomainError):
        bd.delta_bdh(5)


def test_gamma_three_by_hand():
    assert bd.gamma(3) == 2**3 * 4 + bd.gamma(1) * comb(4, 2) + bd.gamma(2) * comb(4, 1)
    assert bd.gamma(3) == 32 + 4 * 6 + 24 * 4 == 152


def test_splitting():
    for m in range(101):
        assert bd.gamma(m) == bd.q_count(m) + bd.c_bound(m)


def test_monotone():
    for m in range(1, 40):
        assert bd.gamma(m + 1) > bd.gamma(m)
        assert bd.q_count(m + 1) > bd.q_count(m)
        assert bd.c_bound(m + 1) > bd.c_bound(m)


def test_closed_forms_match_recurrences():
    for m in range(1, 31):
        assert bd.gamma_closed(m) == bd.gamma(m)
        assert bd.q_closed(m) == bd.q_count(m)
        assert bd.c_closed(m) == bd.c_bound(m)


def brute_ordered_partitions(k):
    # independent oracle: count surjections onto initial segments
    if k == 0:
        return 1
    count = 0
    for fn in itertools.product(range(k), repeat=k):
        image = set(fn)
        if image == set(range(len(image))):
            count += 1
    return count


def test_bell_small_values_against_brute_force():
    assert [bd.bell(k) for k in range(5)] == [1, 1, 3, 13, 75]
    for k in range(6):
        assert bd.bell(k) == brute_ordered_partitions(k)


def test_bell_loose_upper_bound():
    # consistency with B_k ~ k!/(2 log(2)^(k+1))
    for k in range(21):
        assert bd.bell(k) < math.factorial(k) / math.log(2) ** (k + 1)


def test_ratio_values():
    r7 = Fraction(bd.q_count(7), bd.gamma(7))
    assert r7 == Fraction(421699, 1135024)
    assert abs(float(r7) - 0.3715) < 1e-3
    out = bd.ratio_limit(200)
    value = Fraction(out["numerator"], out["denominator"])
    assert abs(value - Fraction(3715, 10000)) < Fraction(1, 1000)
    with pytest.raises(bd.DomainError):
        bd.ratio_limit(5)


def test_ratio_convergence_scan():
    ratios = [Fraction(bd.q_count(m), bd.gamma(m)) for m in range(10, 201)]
    diffs = [abs(b - a) for a, b in zip(ratios, ratios[1:])]
    # settles fast: every step beyond m = 100 moves by far less than 1e-6
    assert all(d < Fraction(1, 10**6) for d in diffs[90:])
    assert max(diffs) < Fraction(1, 10**6)


def test_rho_bound_values():
    assert bd.rho_bound("general", 1).value == 189540 == 2 * (195 + 975 * 97)
    assert bd.rho_bound("cha_general", 1).value == 363090 == 2 * (195 + 975 * 186)
    assert bd.rho_bound("spherical", 1).value == 2340
    assert bd.rho_bound("degree_map", 1, deg=1).value == bd.rho_bound("spherical", 1).value
    assert bd.rho_bound("degree_map", 2, deg=3).value == 2 * (195 + 975 * 3) * 2
    assert bd.rho_bound("two_handle", d_zeta=1, d_u=1).value == 195 + 975
    assert bd.rho_bound("du_general", 1).value == 97
    assert bd.rho_bound("du_general", 1).cha_value == 186
    with pytest.raises(bd.InvalidKind):
        bd.rho_bound("hyperbolic", 1)


def test_rho_bound_ordering():
    for n in (1, 2, 10):
        assert bd.rho_bound("spherical", n).value < bd.rho_bound("general", n).value
        assert bd.rho_bound("general", n).value < bd.rho_bound("cha_general", n).value


def test_rho_bound_provenance():
    assert bd.rho_bound("general", 1).provenance == "computed"
    report = bd.rho_bound("cha_general", 1)
    assert report.provenance == "stored-from-paper"
    assert "Cha" in report.citation


def test_lens_bounds():
    lower, upper = bd.lens_bounds(4043523)
    assert lower.value == Fraction(1)
    assert upper.value == 4043520
    lower, upper = bd.lens_bounds(10)
    assert lower.value == Fraction(7, 4043520)
    assert lower.cha_value == Fraction(7, 627419520)
    assert 2340 * 1728 == 4043520
    assert 363090 * 1728 == 627419520
    with pytest.raises(bd.DomainError):
        bd.lens_bounds(3)


def test_chapter6_rows():
    rows = {r.name: r for r in bd.chapter6_table()}
    assert rows["heegaard_lickorish"].value == 191884680
    assert rows["heegaard_lickorish"].cha_value == 251258280
    assert rows["surgery_crossing"].value == 53239680
    assert rows["surgery_crossing"].cha_value == 69713280
    assert rows["surgery_framing"].value == 26619840
    assert rows["surgery_framing"].cha_value == 34856640
    assert rows["blackboard_framing"].value == 26619840
    assert rows["b2h_lower"].value == Fraction(1, 56448)
    assert rows["b2h_lower"].cha_value == Fraction(1, 107712)
    assert rows["b2h_upper"].value == rows["b2h_upper"].cha_value == 975
    assert rows["hl_limsup_lower"].value == Fraction(1, 3)
    for row in rows.values():
        assert row.provenance == "stored-from-paper"


def test_chapter6_observed_identities_hold():
    assert 34856640 == 363090 * 96
    assert 69713280 == 363090 * 192
    assert 251258280 == 363090 * 692
    assert 191884680 == 277290 * 692
    assert 53239680 == 277290 * 192
    assert 26619840 == 277290 * 96
    assert 56448 == 576 * (bd.c_bound(3) + 1)
    assert 107712 == 576 * (bd.delta_bdh(3) + 1)


def test_bound_report_json():
    data = bd.rho_bound("du_general", 2).to_json()
    assert data["provenance"] == "computed"
    assert data["value"] == 194
    lower, _ = bd.lens_bounds(10)
    encoded = lower.to_json()
    assert encoded["value"] == {"num": 7, "den": 4043520}
