"""Brill-Noether numbers and the exact inequality criteria attached to them.

Conventions.  M(n, d) is the moduli space of stable bundles of rank n and
degree d on a smooth curve of genus g >= 2, of dimension n^2(g-1) + 1.  For a
pair of bundle types (n1, d1), (n2, d2) and a section count k, the universal
twisted locus (pairs (E1, E2) with h^0(E1 tensor E2) >= k) has expected
dimension

    beta = dim M1 + dim M2 - k*(k - n2*d1 - n1*d2 + n1*n2*(g-1)),

and the singly-twisted variant drops the dim M2 term.  Slopes mu = d/n and
section densities lambda = k/n are exact rationals.  Every criterion below is
a strict inequality evaluated exactly; boundary equality is false for "<"
criteria.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "BundleSpec",
    "LocusSpec",
    "SlopePoint",
    "beta_classical",
    "beta_universal",
    "beta_twisted",
    "chi_tensor",
    "neg_slope_criterion",
    "universal_neg_criterion",
    "dim_excess_criterion",
    "line_bn_degree_bound",
    "t4_beta_poly",
    "leading_coeff_t4",
    "asympt_neg",
]


@dataclass(frozen=True)
class BundleSpec:
    """Rank and degree of a vector bundle type."""

    n: int
    d: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("rank must be positive, got %r" % (self.n,))

    @property
    def mu(self) -> Fraction:
        """Slope d/n."""
        return Fraction(self.d, self.n)


@dataclass(frozen=True)
class LocusSpec:
    """A bundle type together with a required number of sections."""

    bundle: BundleSpec
    k: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("section count must be non-negative, got %r" % (self.k,))

    @classmethod
    def of(cls, n: int, d: int, k: int) -> "LocusSpec":
        return cls(BundleSpec(n, d), k)

    @property
    def lam(self) -> Fraction:
        """Section density k/n."""
        return Fraction(self.k, self.bundle.n)


@dataclass(frozen=True)
class SlopePoint:
    """A point (mu, lambda) in the slope / section-density plane."""

    mu: Fraction
    lam: Fraction


def _bundle(b: BundleSpec | tuple[int, int]) -> BundleSpec:
    return b if isinstance(b, BundleSpec) else BundleSpec(*b)


def _locus(l: LocusSpec | tuple[int, int, int]) -> LocusSpec:
    if isinstance(l, LocusSpec):
        return l
    n, d, k = l
    return LocusSpec(BundleSpec(n, d), k)


def _check_genus(g: int) -> None:
    if g < 2:
        raise ValueError("genus must be at least 2, got %r" % (g,))


def beta_classical(g: int, n: int, d: int, k: int) -> int:
    """BN number of the untwisted locus B(n, d, k).

    beta = n^2(g-1) + 1 - k*(k - d + n*(g-1)).
    """
    _check_genus(g)
    if n < 1:
        raise ValueError("rank must be positive, got %r" % (n,))
    if k < 0:
        raise ValueError("section count must be non-negative, got %r" % (k,))
    return n * n * (g - 1) + 1 - k * (k - d + n * (g - 1))


def beta_universal(
    g: int, b1: BundleSpec | tuple[int, int], b2: BundleSpec | tuple[int, int], k: int
) -> int:
    """BN number of the universal twisted locus for the pair (b1, b2)."""
    _check_genus(g)
    if k < 0:
        raise ValueError("section count must be non-negative, got %r" % (k,))
    b1 = _bundle(b1)
    b2 = _bundle(b2)
    dims = (b1.n * b1.n + b2.n * b2.n) * (g - 1) + 2
    return dims - k * (k - b2.n * b1.d - b1.n * b2.d + b1.n * b2.n * (g - 1))


def beta_twisted(
    g: int, b1: BundleSpec | tuple[int, int], b2: BundleSpec | tuple[int, int], k: int
) -> int:
    """BN number of the twisted locus B(n1, d1, k)(E2): only E1 moves."""
    _check_genus(g)
    if k < 0:
        raise ValueError("section count must be non-negative, got %r" % (k,))
    b1 = _bundle(b1)
    b2 = _bundle(b2)
    dim1 = b1.n * b1.n * (g - 1) + 1
    return dim1 - k * (k - b2.n * b1.d - b1.n * b2.d + b1.n * b2.n * (g - 1))


def chi_tensor(
    g: int, b1: BundleSpec | tuple[int, int], b2: BundleSpec | tuple[int, int]
) -> int:
    """Euler characteristic of b1 tensor b2 by Riemann-Roch.

    Equals h^0 of the tensor product whenever h^1 vanishes.
    """
    _check_genus(g)
    b1 = _bundle(b1)
    b2 = _bundle(b2)
    return b2.n * b1.d + b1.n * b2.d - b1.n * b2.n * (g - 1)


def neg_slope_criterion(
    g: int,
    n1: int,
    k1: int,
    n2: int,
    k2: int,
    mu1: Fraction | int,
    mu2: Fraction | int,
) -> bool:
    """Exact test of the slope inequality equivalent to beta < 0 at k = k1*k2.

    True iff mu1 + mu2 < lambda1*lambda2
                         + (1 - (n1^2 + n2^2)/(k1 n1 k2 n2)) (g - 1)
                         - 2/(k1 n1 k2 n2).
    """
    _check_genus(g)
    if min(n1, k1, n2, k2) < 1:
        raise ValueError("ranks and section counts must be at least 1")
    mu1 = Fraction(mu1)
    mu2 = Fraction(mu2)
    p1, q1 = mu1.numerator, mu1.denominator
    p2, q2 = mu2.numerator, mu2.denominator
    # Cross-multiplied by the positive factor K*q1*q2, K = k1*n1*k2*n2;
    # K*lambda1*lambda2 = (k1*k2)^2.
    big_k = k1 * n1 * k2 * n2
    lhs = big_k * (p1 * q2 + p2 * q1)
    rhs = q1 * q2 * (
        (k1 * k2) ** 2 + (big_k - n1 * n1 - n2 * n2) * (g - 1) - 2
    )
    return lhs < rhs


def universal_neg_criterion(
    g: int, b1: BundleSpec | tuple[int, int], b2: BundleSpec | tuple[int, int], k: int
) -> bool:
    """Negativity criterion in terms of the total section count k = k1*k2.

    The inequality only involves k1, k2 through the products k1*k2 and
    k1 n1 k2 n2 = k*n1*n2, so a factorisation of k is not needed.
    """
    b1 = _bundle(b1)
    b2 = _bundle(b2)
    if k < 1:
        raise ValueError("section count must be at least 1, got %r" % (k,))
    return neg_slope_criterion(g, b1.n, k, b2.n, 1, b1.mu, b2.mu)


def dim_excess_criterion(
    g: int,
    n1: int,
    k1: int,
    n2: int,
    k2: int,
    mu1: Fraction | int,
    mu2: Fraction | int,
) -> bool:
    """Exact test of the excess-dimension inequality.

    True iff (1 - 1/(k2 n2)) mu1 + (1 - 1/(k1 n1)) mu2
             < lambda1*lambda2 - (k1^2 + k2^2)/(k1 n1 k2 n2)
               + (1 - (k1 n1 + k2 n2)/(k1 n1 k2 n2)) (g - 1).
    """
    _check_genus(g)
    if min(n1, k1, n2, k2) < 1:
        raise ValueError("ranks and section counts must be at least 1")
    mu1 = Fraction(mu1)
    mu2 = Fraction(mu2)
    p1, q1 = mu1.numerator, mu1.denominator
    p2, q2 = mu2.numerator, mu2.denominator
    a1 = k1 * n1
    a2 = k2 * n2
    big_k = a1 * a2
    lhs = a1 * (a2 - 1) * p1 * q2 + a2 * (a1 - 1) * p2 * q1
    rhs = q1 * q2 * (
        (k1 * k2) ** 2 - k1 * k1 - k2 * k2 + (big_k - a1 - a2) * (g - 1)
    )
    return lhs < rhs


def line_bn_degree_bound(g: int, n1: int) -> Fraction:
    """Degree threshold n1 + n1*g/(n1+1) for line bundles with n1+1 sections.

    An integer d1 satisfies d1 >= bound exactly when
    beta_classical(g, 1, d1, n1+1) >= 0.
    """
    _check_genus(g)
    if n1 < 1:
        raise ValueError("rank must be positive, got %r" % (n1,))
    return n1 + Fraction(n1 * g, n1 + 1)


def leading_coeff_t4(g: int, n1: int, d1: int, k1: int) -> int:
    """Leading coefficient g - 1 - (k1-n1)(k1 - n1 - d1 + n1*g) of the
    degree-parameterised BN number used by the kernel construction."""
    _check_genus(g)
    if k1 <= n1:
        raise ValueError("requires k1 > n1, got k1=%r n1=%r" % (k1, n1))
    return g - 1 - (k1 - n1) * (k1 - n1 - d1 + n1 * g)


def asympt_neg(g: int, n1: int, d1: int, k1: int) -> bool:
    """True iff d1 < k1 + n1*(g-1) - (g-1)/(k1-n1), evaluated exactly.

    Equivalent to leading_coeff_t4(g, n1, d1, k1) < 0, so the BN number of
    the kernel family is eventually negative in the degree parameter.
    """
    _check_genus(g)
    if k1 <= n1:
        raise ValueError("requires k1 > n1, got k1=%r n1=%r" % (k1, n1))
    return d1 < k1 + n1 * (g - 1) - Fraction(g - 1, k1 - n1)


def t4_beta_poly(
    g: int, n1: int, d1: int, k1: int, n: int, e: int, f: int
) -> tuple[int, int, int]:
    """Coefficients (a2, a1, a0) of the BN number as a quadratic in d.

    The substitution is k = d*(k1-n1) - e, v = d - n*(g-1) - f and
    (n2, d2) = (v - n, -d); for every integer d the polynomial equals the
    universal BN number of ((n1, d1), (n2, d2)) at section count k.  The
    coefficients are extracted by exact interpolation at d = 0, 1, 2, which
    is valid because the expression is exactly quadratic in d.
    """
    _check_genus(g)
    if n1 < 2 or k1 <= n1:
        raise ValueError("requires k1 > n1 >= 2, got k1=%r n1=%r" % (k1, n1))

    def value(d: int) -> int:
        n2 = d - n * g - f
        k = d * (k1 - n1) - e
        dims = (n1 * n1 + n2 * n2) * (g - 1) + 2
        return dims - k * (k - n2 * d1 - n1 * (-d) + n1 * n2 * (g - 1))

    p0, p1, p2 = value(0), value(1), value(2)
    second_diff = p2 - 2 * p1 + p0
    if second_diff % 2 != 0:
        raise AssertionError("second difference of an integer quadratic is even")
    a2 = second_diff // 2
    a1 = p1 - p0 - a2
    a0 = p0
    if a2 != leading_coeff_t4(g, n1, d1, k1):
        raise AssertionError("leading coefficient mismatch in kernel-family quadratic")
    return a2, a1, a0
