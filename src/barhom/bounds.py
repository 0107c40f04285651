"""Diameter recurrences, ordered Bell numbers, and bound constants.

gamma, q and c share one recurrence and one Bell-number closed form over
the P stage's term counts (``_counts``): the closed forms check the
recursion, and the tests pin the counts on the tower's P stage.  All
arithmetic is exact (Python ints and Fractions, with ``fractions`` imported
only by the functions that use it); decimals are rendered only for display.
Constants whose derivations are not reproduced here are stored with a
citation and flagged as such, never re-derived; identities between stored
constants that happen to hold numerically are recorded as observations
only.  A ``BoundReport`` is a plain namedtuple.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple, Optional


class InvalidKind(ValueError):
    pass


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


def two_handle_complexity(d_zeta: int, d_u: int) -> int:
    return HANDLE_BASE * d_zeta + HANDLE_CHAIN * d_u


def rho_bound(kind: str, n: int = 1, deg: int = 1, d_zeta: int = 1, d_u: int = 1) -> BoundReport:
    """Bound constants for rho-invariants, derived from their constituents."""
    from fractions import Fraction
    if n < 0:
        raise DomainError("n must be >= 0")
    if kind == "general":
        c3 = c_bound(3)
        return BoundReport(
            name="general",
            formula="2*(195 + 975*c(3))*n",
            inputs={"c(3)": c3, "n": n},
            value=2 * (HANDLE_BASE + HANDLE_CHAIN * c3) * n,
            provenance=_COMPUTED,
        )
    if kind == "cha_general":
        d3 = delta_bdh(3)
        return BoundReport(
            name="cha_general",
            formula="2*(195 + 975*delta_bdh(3))*n",
            inputs={"delta_bdh(3)": d3, "n": n},
            value=2 * (HANDLE_BASE + HANDLE_CHAIN * d3) * n,
            provenance=_STORED,
            citation=CHA16 + ", Theorem 1.5",
        )
    if kind == "spherical":
        # (1/r) * 2 * (195 r n + 975 r n): the cover multiplicity r cancels
        r = Fraction(7)  # any r > 0 gives the same value
        value = Fraction(2, 1) / r * (HANDLE_BASE * r * n + HANDLE_CHAIN * r * n)
        if value != 2 * (HANDLE_BASE + HANDLE_CHAIN) * n:
            raise ArithmeticError(f"spherical bound {value} does not reduce to 2340*n")
        return BoundReport(
            name="spherical",
            formula="(1/r)*2*(195*r*n + 975*r*n) = 2340*n",
            inputs={"n": n},
            value=int(value),
            provenance=_COMPUTED,
        )
    if kind == "degree_map":
        return BoundReport(
            name="degree_map",
            formula="2*(195 + 975*|deg|)*n",
            inputs={"deg": deg, "n": n},
            value=2 * (HANDLE_BASE + HANDLE_CHAIN * abs(deg)) * n,
            provenance=_COMPUTED,
        )
    if kind == "two_handle":
        return BoundReport(
            name="two_handle",
            formula="195*d(zeta) + 975*d(u)",
            inputs={"d_zeta": d_zeta, "d_u": d_u},
            value=two_handle_complexity(d_zeta, d_u),
            provenance=_STORED,
            citation=CHA16 + ", Theorem 3.9",
        )
    if kind == "du_general":
        return BoundReport(
            name="du_general",
            formula="c(3)*n",
            inputs={"c(3)": c_bound(3), "n": n},
            value=c_bound(3) * n,
            provenance=_COMPUTED,
            cha_value=delta_bdh(3) * n,
        )
    raise InvalidKind(f"unknown bound kind {kind!r}")


LENS_FACTOR = 1728


def lens_bounds(n: int) -> tuple[BoundReport, BoundReport]:
    """Lower and upper bounds for the pseudo-simplicial complexity of L(n,1)."""
    from fractions import Fraction
    if n <= 3:
        raise DomainError("lens space bounds require n > 3")
    spherical = rho_bound("spherical", 1).value
    cha = rho_bound("cha_general", 1).value
    denom = spherical * LENS_FACTOR
    lower = BoundReport(
        name="lens_lower",
        formula="(n-3)/(2340*1728)",
        inputs={"n": n, "spherical_coefficient": spherical, "factor": LENS_FACTOR},
        value=Fraction(n - 3, denom),
        provenance=_COMPUTED,
        cha_value=Fraction(n - 3, cha * LENS_FACTOR),
        observed_identities=(
            f"4043520 = 2340*1728 = {2340 * 1728}",
            f"627419520 = 363090*1728 = {363090 * 1728}",
            f"1728 = 3*576 with 576 = (4!)^2",
        ),
    )
    upper = BoundReport(
        name="lens_upper",
        formula="n-3",
        inputs={"n": n},
        value=n - 3,
        provenance=_STORED,
        citation="Jaco-Rubinstein, layered triangulations of lens spaces",
    )
    return lower, upper


def chapter6_table() -> list[BoundReport]:
    """Every revised comparison constant, with provenance flags.

    The 277290-factor family has no derivation reproduced here; the factor
    identities below are recorded as observed arithmetic, not derivations.
    """
    from fractions import Fraction
    cha_coeff = rho_bound("cha_general", 1).value  # 363090
    rows = [
        BoundReport(
            name="heegaard_lickorish",
            formula="191884680 * l",
            inputs={"coefficient": 191884680},
            value=191884680,
            provenance=_STORED,
            citation="revision of " + CHA16 + ", Theorem 1.8",
            cha_value=251258280,
            observed_identities=(
                "191884680 = 277290*692",
                f"251258280 = 363090*692 = {cha_coeff * 692}",
            ),
        ),
        BoundReport(
            name="surgery_crossing",
            formula="53239680 * c(L)",
            inputs={"coefficient": 53239680},
            value=53239680,
            provenance=_STORED,
            citation="revision of " + CHA16 + ", Theorem 1.9",
            cha_value=69713280,
            observed_identities=(
                "53239680 = 277290*192",
                f"69713280 = 363090*192 = {cha_coeff * 192}",
            ),
        ),
        BoundReport(
            name="surgery_framing",
            formula="26619840 * f(L)",
            inputs={"coefficient": 26619840},
            value=26619840,
            provenance=_STORED,
            citation="revision of " + CHA16 + ", Theorem 1.9",
            cha_value=34856640,
            observed_identities=(
                "26619840 = 277290*96",
                f"34856640 = 363090*96 = {cha_coeff * 96}",
            ),
        ),
        BoundReport(
            name="blackboard_framing",
            formula="26619840 * c",
            inputs={"coefficient": 26619840},
            value=26619840,
            provenance=_STORED,
            citation="revision of " + CHA16 + ", Theorem 6.4",
            cha_value=34856640,
        ),
        BoundReport(
            name="hl_limsup_lower",
            formula="1/3 <= limsup B^HL(l)/l",
            inputs={},
            value=Fraction(1, 3),
            provenance=_STORED,
            citation=CHA16 + ", Theorem 7.4",
            cha_value=Fraction(1, 3),
        ),
        BoundReport(
            name="hl_limsup_upper",
            formula="limsup B^HL(l)/l <= 191884680",
            inputs={},
            value=191884680,
            provenance=_STORED,
            citation="revision of " + CHA16 + ", Theorem 7.4",
            cha_value=251258280,
        ),
        BoundReport(
            name="surgery_limsup_lower",
            formula="1/3 <= limsup B^surg(k)/k",
            inputs={},
            value=Fraction(1, 3),
            provenance=_STORED,
            citation=CHA16 + ", Theorem 7.4",
            cha_value=Fraction(1, 3),
        ),
        BoundReport(
            name="surgery_limsup_upper",
            formula="limsup B^surg(k)/k <= 26619840",
            inputs={},
            value=26619840,
            provenance=_STORED,
            citation="revision of " + CHA16 + ", Theorem 7.4",
            cha_value=34856640,
        ),
        BoundReport(
            name="b2h_lower",
            formula="1/56448 <= limsup B^2h(k)/k",
            inputs={},
            value=Fraction(1, 56448),
            provenance=_STORED,
            citation="revision of " + CHA16 + ", Theorem 7.6",
            cha_value=Fraction(1, 107712),
            observed_identities=(
                f"56448 = 576*(c(3)+1) = {576 * (c_bound(3) + 1)}",
                f"107712 = 576*(delta_bdh(3)+1) = {576 * (delta_bdh(3) + 1)}",
            ),
        ),
        BoundReport(
            name="b2h_upper",
            formula="limsup B^2h(k)/k <= 975",
            inputs={"per_chain_handles": HANDLE_CHAIN},
            value=HANDLE_CHAIN,
            provenance=_STORED,
            citation=CHA16 + ", Theorem 7.6",
            cha_value=HANDLE_CHAIN,
        ),
    ]
    return rows
