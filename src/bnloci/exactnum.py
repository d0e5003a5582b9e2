"""Exact integer and rational arithmetic primitives shared by every module.

Slopes, section densities and inequality thresholds are all exact rationals;
no floating point is used anywhere.  The quadratic threshold finder isolates
the relevant root by integer bisection on exact values rather than via
floating-point square roots, so the returned threshold is certified: the
polynomial is re-evaluated at the preceding integer to confirm minimality.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

__all__ = [
    "make_rational",
    "ceil_ratio",
    "floor_ratio",
    "ALWAYS_NEGATIVE",
    "QuadThreshold",
    "quad_neg_threshold",
]

def make_rational(num: int, den: int) -> Fraction:
    """Build a rational in canonical form.

    Raises ValueError on a zero denominator instead of letting a bare
    ZeroDivisionError escape from arithmetic deep inside a sweep.
    """
    if den == 0:
        raise ValueError("zero denominator: %r/%r" % (num, den))
    return Fraction(num, den)


def ceil_ratio(a: int, b: int) -> int:
    """Smallest integer >= a/b.  Requires b > 0."""
    if b <= 0:
        raise ValueError("ceil_ratio requires a positive denominator, got %r" % (b,))
    return -((-a) // b)


def floor_ratio(a: int, b: int) -> int:
    """Largest integer <= a/b.  Requires b > 0."""
    if b <= 0:
        raise ValueError("floor_ratio requires a positive denominator, got %r" % (b,))
    return a // b


class _AlwaysNegative:
    """Marker for polynomials that are negative at every integer."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ALWAYS_NEGATIVE"


ALWAYS_NEGATIVE = _AlwaysNegative()

QuadThreshold = Union[int, _AlwaysNegative, None]


def quad_neg_threshold(
    a2: int | Fraction, a1: int | Fraction, a0: int | Fraction
) -> QuadThreshold:
    """Least integer t with a2*x^2 + a1*x + a0 < 0 for every integer x >= t.

    Returns ALWAYS_NEGATIVE when the polynomial is negative at every integer
    (so that no minimal t exists) and None when there is no such t at all
    (positive leading coefficient, or an eventually non-negative tail).
    Minimality of a returned t is certified by checking that the value at
    t - 1 is >= 0.
    """
    a2 = Fraction(a2)
    a1 = Fraction(a1)
    a0 = Fraction(a0)

    if a2 > 0:
        return None
    if a2 == 0:
        if a1 > 0:
            return None
        if a1 == 0:
            return ALWAYS_NEGATIVE if a0 < 0 else None
        # Strictly decreasing line: negative exactly for x > -a0/a1.
        return math.floor(-a0 / a1) + 1

    # a2 < 0: downward parabola with maximum at x = -a1/(2*a2).
    if a0 - a1 * a1 / (4 * a2) < 0:
        # The maximum itself is negative, hence so is every value.
        return ALWAYS_NEGATIVE

    def value(x: int) -> Fraction:
        return (a2 * x + a1) * x + a0

    vertex = -a1 / (2 * a2)
    lo = math.ceil(vertex)
    # The polynomial is strictly decreasing on integers >= lo, so "value < 0"
    # is an up-set there; locate its first element by doubling then bisection.
    step = 1
    hi = lo + step
    while value(hi) >= 0:
        step *= 2
        hi = lo + step
    while lo < hi:
        mid = (lo + hi) // 2
        if value(mid) < 0:
            hi = mid
        else:
            lo = mid + 1
    t = lo
    if value(t - 1) < 0:
        # The non-negative hump between the two real roots contains no
        # integer, so the polynomial is negative at every integer.
        return ALWAYS_NEGATIVE
    return t
