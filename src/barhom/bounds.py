"""Diameter recurrences, ordered Bell numbers, and bound constants.

gamma, q and c share one recurrence and one Bell-number closed form over
the P stage's term counts (``_counts``): the closed forms check the
recursion, and the tests pin the counts on the tower's P stage.  All
arithmetic is exact (Python ints and Fractions, with ``fractions`` imported
only by the functions that use it); decimals are rendered only for display.
Constants whose derivations are not reproduced here are stored with a
citation and flagged as such, never re-derived; identities between stored
constants that happen to hold numerically are recorded as observations
only.  ``bound_reports(n, deg)`` returns every ``BoundReport`` (a plain
namedtuple) that ``barhom bounds`` prints, in its order: the computed rows
are code, through one helper for 2*(195 + 975*x)*n, and the chapter-6
comparison constants are one stored table of rows, ``CHAPTER6``.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple, Optional


class DomainError(ValueError):
    pass


# -- sequences ------------------------------------------------------------------


@lru_cache(maxsize=None)
def bell(k: int) -> int:
    """Ordered Bell (Fubini) number via the standard recurrence."""
    if k < 0:
        raise DomainError("k must be >= 0")
    if k == 0:
        return 1
    return sum(comb(k, j) * bell(k - j) for j in range(1, k + 1))


def d_cyl(m: int) -> int:
    """Diameter of the cylinder homotopy: 2^m (m+1) for m >= 1, 0 at m = 0."""
    if m < 0:
        raise DomainError("m must be >= 0")
    return 0 if m == 0 else 2**m * (m + 1)


def _counts(lead, doc: str):
    """The count s(0) = 0, s(m) = lead(m) + sum_{0<k<m} C(m+1, m-k) s(k),
    memoized, and its closed form sum_{k<m} lead(m-k) C(m+1, k) bell(k).
    psi on an m-simplex is its P stage plus, for each 0 < k < m, the
    C(m+1, m-k) placements of psi on the k-face, and none of these terms
    cancels: so gamma, q and c differ only in the P terms they count as
    ``lead``, all of them, the degenerate ones or the nondegenerate ones."""
    @lru_cache(maxsize=None)
    def count(m: int) -> int:
        if m < 0:
            raise DomainError("m must be >= 0")
        if m == 0:
            return 0
        return lead(m) + sum(comb(m + 1, m - k) * count(k) for k in range(1, m))

    def closed(m: int) -> int:
        return sum(lead(m - k) * comb(m + 1, k) * bell(k) for k in range(m))

    count.__doc__ = doc
    return count, closed


gamma, gamma_closed = _counts(d_cyl, "Diameter of the tower homotopy on an m-simplex.")
q_count, q_closed = _counts(lambda m: 2**m * (m - 1) + 1,
                            "Number of degenerate terms in the tower homotopy on an m-simplex.")
c_bound, c_closed = _counts(lambda m: 2 ** (m + 1) - 1,
                            "Diameter of the degenerate-killed homotopy; equals gamma - q.")


DELTA_BDH = {0: 0, 1: 6, 2: 26, 3: 186, 4: 3410}  # stored; Cha (2016), Theorem 5.2


def delta_bdh(k: int) -> int:
    if k not in DELTA_BDH:
        raise DomainError(f"the stored comparison table covers 0..4, not {k}")
    return DELTA_BDH[k]


def table_rows(max_m: int) -> list[dict]:
    rows = []
    for m in range(max_m + 1):
        rows.append(
            {
                "m": m,
                "gamma": gamma(m),
                "q": q_count(m),
                "c": c_bound(m),
                "d": d_cyl(m),
                "delta_bdh": DELTA_BDH.get(m),
            }
        )
    return rows


def ratio_limit(m: int) -> dict:
    """q(m)/gamma(m) as an exact rational plus a decimal rendering."""
    from fractions import Fraction
    if m < 10:
        raise DomainError("the ratio scan starts at m = 10")
    value = Fraction(q_count(m), gamma(m))
    return {
        "m": m,
        "numerator": value.numerator,
        "denominator": value.denominator,
        "decimal": f"{float(value):.10f}",
    }


# -- bound reports ----------------------------------------------------------------

CHA16 = "J. C. Cha, A topological approach to Cheeger-Gromov universal bounds, CPAM 69 (2016)"
_COMPUTED = "computed"
_STORED = "stored-from-paper"


class BoundReport(NamedTuple):
    name: str
    formula: str
    inputs: dict
    value: object                 # int or Fraction
    provenance: str               # "computed" | "stored-from-paper"
    citation: str = ""
    cha_value: Optional[object] = None
    observed_identities: tuple = ()

    def to_json(self) -> dict:
        from fractions import Fraction

        def enc(v):
            if isinstance(v, Fraction):
                return {"num": v.numerator, "den": v.denominator}
            return v

        return {
            "name": self.name,
            "formula": self.formula,
            "inputs": {k: enc(v) for k, v in self.inputs.items()},
            "value": enc(self.value),
            "provenance": self.provenance,
            "citation": self.citation,
            "cha_value": enc(self.cha_value),
            "observed_identities": list(self.observed_identities),
        }


HANDLE_BASE = 195      # 2-handle complexity per 3-simplex of the bordism input
HANDLE_CHAIN = 975     # 2-handle complexity per 4-chain simplex
LENS_FACTOR = 1728
# every revised coefficient below that carries a k is REVISED * k, beside
# Cha's 363090 * k; REVISED = 2*(195 + 975*142), and 142 is none of gamma(3),
# q(3) and c(3): an observation, not a derivation
REVISED = 277290


def _handles(x: int, n: int = 1) -> int:
    """2*(195 + 975*x)*n, the bound with x 2-handles per 4-chain simplex."""
    return 2 * (HANDLE_BASE + HANDLE_CHAIN * x) * n


# The chapter-6 comparison constants, all stored: name, formula, inputs,
# value, Cha's value, the theorem of Cha (2016), and k where the row's
# observed factorization is printed.  A rational is written "p/q".  A row
# is a "revision of" Cha's theorem exactly when its value differs from Cha's.
CHAPTER6 = (
    ("heegaard_lickorish", "191884680 * l", {"coefficient": 191884680}, 191884680, 251258280, "1.8", 692),
    ("surgery_crossing", "53239680 * c(L)", {"coefficient": 53239680}, 53239680, 69713280, "1.9", 192),
    ("surgery_framing", "26619840 * f(L)", {"coefficient": 26619840}, 26619840, 34856640, "1.9", 96),
    ("blackboard_framing", "26619840 * c", {"coefficient": 26619840}, 26619840, 34856640, "6.4", None),
    ("hl_limsup_lower", "1/3 <= limsup B^HL(l)/l", {}, "1/3", "1/3", "7.4", None),
    ("hl_limsup_upper", "limsup B^HL(l)/l <= 191884680", {}, 191884680, 251258280, "7.4", None),
    ("surgery_limsup_lower", "1/3 <= limsup B^surg(k)/k", {}, "1/3", "1/3", "7.4", None),
    ("surgery_limsup_upper", "limsup B^surg(k)/k <= 26619840", {}, 26619840, 34856640, "7.4", None),
    ("b2h_lower", "1/56448 <= limsup B^2h(k)/k", {}, "1/56448", "1/107712", "7.6", None),
    ("b2h_upper", "limsup B^2h(k)/k <= 975", {"per_chain_handles": HANDLE_CHAIN}, HANDLE_CHAIN, HANDLE_CHAIN,
     "7.6", None),
)


def bound_reports(n: int, deg: int) -> list[BoundReport]:
    """Every bound report, in the order ``barhom bounds`` prints them: the
    rho-invariant bounds at n, where the 2-handle form takes d(zeta) = n and
    d(u) = c(3)*n; the lens space L(max(n, 4) + 3, 1); then CHAPTER6."""
    from fractions import Fraction
    c3, d3 = c_bound(3), delta_bdh(3)
    spherical, cha = _handles(1), _handles(d3)
    lens = max(n, 4) + 3
    reports = [
        BoundReport("general", "2*(195 + 975*c(3))*n", {"c(3)": c3, "n": n}, _handles(c3, n), _COMPUTED),
        BoundReport("cha_general", "2*(195 + 975*delta_bdh(3))*n", {"delta_bdh(3)": d3, "n": n},
                    _handles(d3, n), _STORED, CHA16 + ", Theorem 1.5"),
        # (1/r) * 2 * (195 r n + 975 r n): the cover multiplicity r cancels
        BoundReport("spherical", "(1/r)*2*(195*r*n + 975*r*n) = 2340*n", {"n": n}, _handles(1, n), _COMPUTED),
        BoundReport("degree_map", "2*(195 + 975*|deg|)*n", {"deg": deg, "n": n}, _handles(abs(deg), n), _COMPUTED),
        BoundReport("two_handle", "195*d(zeta) + 975*d(u)", {"d_zeta": n, "d_u": c3 * n},
                    HANDLE_BASE * n + HANDLE_CHAIN * c3 * n, _STORED, CHA16 + ", Theorem 3.9"),
        BoundReport("du_general", "c(3)*n", {"c(3)": c3, "n": n}, c3 * n, _COMPUTED, cha_value=d3 * n),
        BoundReport("lens_lower", "(n-3)/(2340*1728)",
                    {"n": lens, "spherical_coefficient": spherical, "factor": LENS_FACTOR},
                    Fraction(lens - 3, spherical * LENS_FACTOR), _COMPUTED,
                    cha_value=Fraction(lens - 3, cha * LENS_FACTOR),
                    observed_identities=(f"4043520 = 2340*1728 = {spherical * LENS_FACTOR}",
                                         f"627419520 = 363090*1728 = {cha * LENS_FACTOR}",
                                         "1728 = 3*576 with 576 = (4!)^2")),
        BoundReport("lens_upper", "n-3", {"n": lens}, lens - 3, _STORED,
                    "Jaco-Rubinstein, layered triangulations of lens spaces"),
    ]
    for name, formula, inputs, value, cha_value, theorem, k in CHAPTER6:
        citation = f"{CHA16}, Theorem {theorem}"
        if value != cha_value:
            citation = "revision of " + citation
        identities = () if k is None else (f"{value} = {REVISED}*{k}", f"{cha_value} = {cha}*{k} = {cha * k}")
        if name == "b2h_lower":
            identities = (f"56448 = 576*(c(3)+1) = {576 * (c3 + 1)}",
                          f"107712 = 576*(delta_bdh(3)+1) = {576 * (d3 + 1)}")
        value, cha_value = (Fraction(v) if isinstance(v, str) else v for v in (value, cha_value))
        reports.append(BoundReport(name, formula, dict(inputs), value, _STORED, citation, cha_value, identities))
    return reports
