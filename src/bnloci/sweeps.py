"""Enumeration, table reproduction and slope-plane point data.

Two oracles drive table reproduction: the displayed closed-form bounds and
direct evaluation of the universal BN number.  Where a published table entry
disagrees with both, the printed value is carried along in an annotation
column and never silently reconciled with the computed one.

Region boundaries in the slope plane are data, not code: they load from a
CSV of exact (mu, lambda) samples and classification interpolates piecewise
linearly between them with strict inequalities.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .bncalc import LocusSpec, SlopePoint, _check_genus, _locus, beta_universal
from .exactnum import ceil_ratio, floor_ratio, make_rational

__all__ = [
    "RegionBoundary",
    "dmin_formula",
    "dmax_formula_bpn",
    "dmax_search",
    "table2_min_genus",
    "ex40_d1_range",
    "ex2_min_genus",
    "bnmap_point",
    "classify_point",
    "TABLE1_HEADER",
    "TABLE2_HEADER",
    "BNMAP_HEADER",
    "EX40_HEADER",
    "TABLE1_PRINTED",
    "TABLE2_PRINTED",
    "table1_rows",
    "table2_rows",
    "ex40_rows",
    "bnmap_rows",
    "rows_to_csv",
]

#: Published table values carried as annotations.  Keys are n2; table 1 maps
#: to (printed d_min, printed d_max) for the genus-10 sweep with first locus
#: (6, 22, 7); table 2 maps to the printed minimal genus.
TABLE1_PRINTED: dict[int, tuple[int, int]] = {
    2: (9, 10),
    3: (12, 17),
    4: (15, 24),
    5: (19, 31),
    6: (23, 37),
    7: (26, 44),
    8: (30, 50),
}
TABLE2_PRINTED: dict[int, int] = {
    2: 9, 3: 7, 4: 6, 5: 7, 6: 8, 7: 9, 8: 10, 9: 11, 10: 12,
}

TABLE1_LOCUS = LocusSpec.of(6, 22, 7)
TABLE1_GENUS = 10

TABLE1_HEADER = "n2,d_min_formula,d_max_formula,d_max_direct,paper_d_min,paper_d_max"
TABLE2_HEADER = "n2,g_min,paper_g_min"
BNMAP_HEADER = "mu0_num,mu0_den,lambda0_num,lambda0_den,classification"
EX40_HEADER = "n1,g,d1,k,beta"

@dataclass(frozen=True)
class RegionBoundary:
    """Sampled upper boundary of a known non-emptiness region.

    Samples are (mu, lambda) pairs with strictly increasing mu; queries
    between samples interpolate linearly, queries outside the sampled range
    are unknown.  A point strictly above the boundary is new.
    """

    genus: int
    samples: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        for (m1, _), (m2, _) in zip(self.samples, self.samples[1:]):
            if not m1 < m2:
                raise ValueError("boundary samples must be strictly increasing in mu")

    @classmethod
    def from_csv(cls, path: str | Path, genus: int) -> "RegionBoundary":
        samples = []
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            for row in reader:
                if not row or row[0].strip() == "mu":
                    continue
                samples.append((_parse_fraction(row[0]), _parse_fraction(row[1])))
        return cls(genus=genus, samples=tuple(samples))

    def interpolate(self, mu: Fraction) -> Fraction | None:
        """Boundary height at mu, or None outside the sampled range."""
        if not self.samples:
            return None
        if mu < self.samples[0][0] or mu > self.samples[-1][0]:
            return None
        for (m1, l1), (m2, l2) in zip(self.samples, self.samples[1:]):
            if m1 <= mu <= m2:
                return l1 + (l2 - l1) * (mu - m1) / (m2 - m1)
        # Single sample: only an exact hit reaches here.
        return self.samples[0][1]


def _parse_fraction(text: str) -> Fraction:
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return make_rational(int(num), int(den))
    return Fraction(int(text))


def dmin_formula(g: int, n2: int) -> int:
    """Least degree with a pencil-like system of n2+1 sections:
    n2 + ceil(g*n2 / (n2+1)).

    This is the exact argmin of beta(1, d, n2+1) >= 0 over integers d.
    """
    if n2 < 1:
        raise ValueError("rank must be positive, got %r" % (n2,))
    return n2 + ceil_ratio(g * n2, n2 + 1)


def dmax_formula_bpn(n2: int) -> int:
    """Closed-form genus-10 degree ceiling
    floor((264*n2^2 + 322*n2 - 319) / (42*(n2+1)))."""
    if n2 < 2:
        raise ValueError("the closed form is stated for n2 >= 2")
    return floor_ratio(264 * n2 * n2 + 322 * n2 - 319, 42 * (n2 + 1))


def dmax_search(
    g: int, locus1: LocusSpec | tuple[int, int, int], n2: int
) -> int | None:
    """Largest d2 >= dmin with negative universal BN number, in closed form.

    The BN number is linear in d2, beta(d2) = beta(0) + k*n1*d2 with
    k = k1*(n2+1) and slope k*n1 > 0, so the largest negative degree is
    -(beta(0) // (k*n1)) - 1.  Two exact checks confirm it: beta is negative
    there and non-negative one degree higher.  None when that degree lies
    below dmin, which is confirmed by beta(dmin) >= 0.
    """
    locus1 = _locus(locus1)
    if locus1.k < 1:
        raise ValueError("the first locus needs at least one section")
    k = locus1.k * (n2 + 1)
    b1 = (locus1.bundle.n, locus1.bundle.d)
    dmin = dmin_formula(g, n2)
    slope = k * locus1.bundle.n
    top = -(beta_universal(g, b1, (n2, 0), k) // slope) - 1
    if top < dmin:
        if beta_universal(g, b1, (n2, dmin), k) < 0:
            raise AssertionError("BN number negative at dmin, above the closed form")
        return None
    at_top = beta_universal(g, b1, (n2, top), k)
    above = beta_universal(g, b1, (n2, top + 1), k)
    if not at_top < 0 <= above:
        raise AssertionError("closed form failed the direct check at d2 and d2+1")
    return top


def table2_min_genus(n2: int) -> int | None:
    """Minimal genus g >= max(n2+2, 2) making the fixed-family BN number
    negative at d2 = dmin_formula(g, n2), by ascending scan from that floor.

    The family pairs the locus (2, 5, 2) with the dual span family of rank n2
    and section count 2*(n2+1).  Returns None when the scan ceiling
    10*n2 + 50 is exceeded.
    """
    if n2 < 2:
        raise ValueError("the sweep is stated for n2 >= 2")
    k = 2 * (n2 + 1)
    ceiling = 10 * n2 + 50
    for g in range(n2 + 2, ceiling + 1):
        if beta_universal(g, (2, 5), (n2, dmin_formula(g, n2)), k) < 0:
            return g
    return None


def ex40_d1_range(g: int, n1: int) -> range:
    """Degrees d1 for which the self-paired dual-span family at k = (n1+1)^2
    has negative BN number, between the existence bound and the exact
    negativity bound."""
    if n1 < 2:
        raise ValueError("requires n1 >= 2, got %r" % (n1,))
    _check_genus(g)
    lower = n1 + ceil_ratio(n1 * g, n1 + 1)
    np1sq = (n1 + 1) * (n1 + 1)
    upper = (
        Fraction(n1, 2) * Fraction(np1sq, n1 * n1)
        + Fraction(n1, 2) * (1 - Fraction(2 * n1 * n1, np1sq * n1 * n1)) * (g - 1)
        - Fraction(n1, np1sq * n1 * n1)
    )
    top = math.ceil(upper) - 1  # largest integer strictly below the bound
    return range(lower, top + 1)


def ex2_min_genus(n1: int, n2: int, d2: int) -> int | None:
    """Minimal genus with
    mu2 < ((n2^2-2)n1^2 - n2^2) / (n2(n2+1)n1^2) * (g-1) - 2/(n2(n2+1)n1^2),
    where mu2 = d2/n2.  None when the genus coefficient is not positive."""
    if n1 < 1 or n2 < 1:
        raise ValueError("ranks must be positive")
    denom = n2 * (n2 + 1) * n1 * n1
    coeff = Fraction((n2 * n2 - 2) * n1 * n1 - n2 * n2, denom)
    if coeff <= 0:
        return None
    shift = Fraction(2, denom)
    mu2 = Fraction(d2, n2)
    # g - 1 > (mu2 + shift) / coeff, strictly.
    bound = (mu2 + shift) / coeff + 1
    return math.floor(bound) + 1


def bnmap_point(
    locus1: LocusSpec | tuple[int, int, int], locus2: LocusSpec | tuple[int, int, int]
) -> SlopePoint:
    """Slope-plane image of a pair of loci: (mu1 + mu2, lambda1 * lambda2)."""
    locus1 = _locus(locus1)
    locus2 = _locus(locus2)
    return SlopePoint(
        mu=locus1.bundle.mu + locus2.bundle.mu,
        lam=locus1.lam * locus2.lam,
    )


def classify_point(point: SlopePoint, boundary: RegionBoundary) -> str:
    """"new" when strictly above the interpolated boundary, "inside" when on
    or below it, "unknown" outside the sampled range or with no samples."""
    height = boundary.interpolate(point.mu)
    if height is None:
        return "unknown"
    return "new" if point.lam > height else "inside"


# ---------------------------------------------------------------------------
# Row builders


def table1_rows(
    g: int,
    locus1: LocusSpec | tuple[int, int, int],
    n2_values: range | list[int],
) -> list[dict]:
    locus1 = _locus(locus1)
    canonical = g == TABLE1_GENUS and locus1 == TABLE1_LOCUS
    rows = []
    for n2 in n2_values:
        direct = dmax_search(g, locus1, n2)
        printed = TABLE1_PRINTED.get(n2) if canonical else None
        rows.append(
            {
                "n2": n2,
                "d_min_formula": dmin_formula(g, n2),
                "d_max_formula": (
                    dmax_formula_bpn(n2) if g == TABLE1_GENUS and n2 >= 2 else ""
                ),
                "d_max_direct": direct if direct is not None else "",
                "paper_d_min": printed[0] if printed else "",
                "paper_d_max": printed[1] if printed else "",
            }
        )
    return rows


def table2_rows(n2_values: range | list[int]) -> list[dict]:
    rows = []
    for n2 in n2_values:
        g_min = table2_min_genus(n2)
        rows.append(
            {
                "n2": n2,
                "g_min": g_min if g_min is not None else "",
                "paper_g_min": TABLE2_PRINTED.get(n2, ""),
            }
        )
    return rows


def ex40_rows(g: int, n1: int) -> list[dict]:
    k = (n1 + 1) * (n1 + 1)
    rows = []
    for d1 in ex40_d1_range(g, n1):
        rows.append(
            {
                "n1": n1,
                "g": g,
                "d1": d1,
                "k": k,
                "beta": beta_universal(g, (n1, d1), (n1, d1), k),
            }
        )
    return rows


def bnmap_rows(
    g: int,
    locus1: LocusSpec | tuple[int, int, int],
    n2_values: range | list[int],
    boundary: RegionBoundary | None = None,
) -> list[dict]:
    _check_genus(g)
    locus1 = _locus(locus1)
    if boundary is not None and boundary.genus != g:
        raise ValueError(
            "boundary is for genus %d, the sweep for genus %d" % (boundary.genus, g)
        )
    rows = []
    for n2 in n2_values:
        d2 = dmin_formula(g, n2)
        locus2 = LocusSpec.of(n2, d2, n2 + 1)
        point = bnmap_point(locus1, locus2)
        if boundary is None:
            classification = "unknown"
        else:
            classification = classify_point(point, boundary)
        rows.append(
            {
                "mu0_num": point.mu.numerator,
                "mu0_den": point.mu.denominator,
                "lambda0_num": point.lam.numerator,
                "lambda0_den": point.lam.denominator,
                "classification": classification,
            }
        )
    return rows


def rows_to_csv(rows: list[dict], header: str) -> str:
    """Render rows under a fixed header, deterministically, LF only."""
    columns = header.split(",")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row[c] for c in columns])
    return out.getvalue()
