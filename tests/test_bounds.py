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


def _reports(n=1, deg=1):
    return {r.name: r for r in bd.bound_reports(n, deg)}


def test_rho_bound_values():
    rows = _reports()
    assert rows["general"].value == 189540 == 2 * (195 + 975 * 97)
    assert rows["cha_general"].value == 363090 == 2 * (195 + 975 * 186)
    assert rows["spherical"].value == 2340
    assert rows["degree_map"].value == rows["spherical"].value
    assert _reports(2, deg=3)["degree_map"].value == 2 * (195 + 975 * 3) * 2
    assert _reports(2, deg=-3)["degree_map"].value == 2 * (195 + 975 * 3) * 2
    two_handle = rows["two_handle"]
    assert two_handle.inputs == {"d_zeta": 1, "d_u": 97}
    assert two_handle.value == 195 * 1 + 975 * 97
    assert _reports(3)["two_handle"].value == 195 * 3 + 975 * 97 * 3
    assert rows["du_general"].value == 97
    assert rows["du_general"].cha_value == 186


def test_rho_bound_ordering():
    for n in (1, 2, 10):
        rows = _reports(n)
        assert rows["spherical"].value < rows["general"].value
        assert rows["general"].value < rows["cha_general"].value


def test_rho_bound_provenance():
    rows = _reports()
    assert rows["general"].provenance == "computed"
    assert rows["cha_general"].provenance == "stored-from-paper"
    assert "Cha" in rows["cha_general"].citation


def test_lens_bounds():
    # the lens rows are taken at L(max(n, 4) + 3, 1)
    rows = _reports(4043520)
    assert rows["lens_lower"].value == Fraction(1)
    assert rows["lens_upper"].value == 4043520
    for n in (0, 1, 4):
        assert _reports(n)["lens_lower"].value == Fraction(4, 4043520)
    rows = _reports(7)
    assert rows["lens_lower"].inputs["n"] == 10
    assert rows["lens_lower"].value == Fraction(7, 4043520)
    assert rows["lens_lower"].cha_value == Fraction(7, 627419520)
    assert 2340 * 1728 == 4043520
    assert 363090 * 1728 == 627419520


CHAPTER6 = ("heegaard_lickorish", "surgery_crossing", "surgery_framing", "blackboard_framing",
            "hl_limsup_lower", "hl_limsup_upper", "surgery_limsup_lower", "surgery_limsup_upper",
            "b2h_lower", "b2h_upper")


def test_chapter6_rows():
    rows = _reports()
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
    for name in CHAPTER6:
        assert rows[name].provenance == "stored-from-paper"


def test_chapter6_observed_identities_hold():
    assert 34856640 == 363090 * 96
    assert 69713280 == 363090 * 192
    assert 251258280 == 363090 * 692
    assert 191884680 == 277290 * 692
    assert 53239680 == 277290 * 192
    assert 26619840 == 277290 * 96
    assert 56448 == 576 * (bd.c_bound(3) + 1)
    assert 107712 == 576 * (bd.delta_bdh(3) + 1)


# every report's provenance: no computed value becomes stored, nor a stored
# one computed
PROVENANCE = {"general": "computed", "cha_general": "stored-from-paper", "spherical": "computed",
              "degree_map": "computed", "two_handle": "stored-from-paper", "du_general": "computed",
              "lens_lower": "computed", "lens_upper": "stored-from-paper",
              **{name: "stored-from-paper" for name in CHAPTER6}}


def test_the_chapter6_table_records_the_277290_factorization():
    # every revised integer constant is 277290*k beside Cha's 363090*k, the
    # rows that print it and those that do not; 277290 = 2*(195 + 975*142),
    # and 142 is none of gamma(3), q(3) and c(3): an open question
    assert _reports()["cha_general"].value == 363090
    assert bd.REVISED == 277290 == 2 * (195 + 975 * 142)
    assert 142 not in (bd.gamma(3), bd.q_count(3), bd.c_bound(3), bd.delta_bdh(3))
    assert tuple(row[0] for row in bd.CHAPTER6) == CHAPTER6
    printed = []
    for name, _, _, value, cha_value, _, k in bd.CHAPTER6:
        if k is not None:
            assert value == 277290 * k and cha_value == 363090 * k
            printed.append(name)
        if isinstance(value, int) and value != cha_value:
            k, rest = divmod(value, 277290)
            assert rest == 0 and cha_value == 363090 * k, name
    assert printed == ["heegaard_lickorish", "surgery_crossing", "surgery_framing"]
    assert {r.name: r.provenance for r in bd.bound_reports(1, 1)} == PROVENANCE
    assert [r.name for r in bd.bound_reports(1, 1)] == list(PROVENANCE)


def test_bound_report_json():
    data = _reports(2)["du_general"].to_json()
    assert data["provenance"] == "computed"
    assert data["value"] == 194
    encoded = _reports(7)["lens_lower"].to_json()
    assert encoded["value"] == {"num": 7, "den": 4043520}
