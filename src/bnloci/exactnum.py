"""Exact integer and rational arithmetic primitives shared by every module.

Slopes, section densities and inequality thresholds are all exact rationals;
no floating point is used anywhere.  The quadratic threshold finder takes
integer coefficients and places the larger real root with math.isqrt; the
returned threshold is certified by evaluating the polynomial exactly at it
and at the preceding integer.
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


def quad_neg_threshold(a2: int, a1: int, a0: int) -> QuadThreshold:
    """Least integer t with a2*x^2 + a1*x + a0 < 0 for every integer x >= t.

    Returns ALWAYS_NEGATIVE when the polynomial is negative at every integer
    (so that no minimal t exists) and None when there is no such t at all
    (positive leading coefficient, or an eventually non-negative tail).
    The value is checked exactly to be negative at a returned t and
    non-negative at t - 1.
    """
    if a2 > 0:
        return None
    if a2 == 0:
        if a1 > 0:
            return None
        if a1 == 0:
            return ALWAYS_NEGATIVE if a0 < 0 else None
        # Strictly decreasing line: negative exactly for x > a0/(-a1).
        t = a0 // -a1 + 1
    else:
        # a2 < 0: a downward parabola, negative everywhere when it has no
        # real root, else exactly beyond its larger root (a1 + sqrt(disc)) /
        # (-2*a2).  That root's floor equals (a1 + isqrt(disc)) // (-2*a2),
        # since no multiple of -2*a2 lies strictly between a1 + isqrt(disc)
        # and a1 + sqrt(disc).
        disc = a1 * a1 - 4 * a2 * a0
        if disc < 0:
            return ALWAYS_NEGATIVE
        t = (a1 + math.isqrt(disc)) // (-2 * a2) + 1

    def value(x: int) -> int:
        return (a2 * x + a1) * x + a0

    if not value(t) < 0:
        raise AssertionError("quadratic threshold failed the exact check at t")
    if value(t - 1) < 0:
        # The non-negative hump between the two real roots contains no
        # integer, so the polynomial is negative at every integer.
        return ALWAYS_NEGATIVE
    return t
