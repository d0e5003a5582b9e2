"""Exact arithmetic primitives: canonical rationals, integer ceil/floor
division, and the certified quadratic negativity threshold."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnloci.exactnum import (
    ALWAYS_NEGATIVE,
    ceil_ratio,
    floor_ratio,
    make_rational,
    quad_neg_threshold,
)


def test_make_rational_reduces():
    r = make_rational(22, 6)
    assert (r.numerator, r.denominator) == (11, 3)


def test_make_rational_sign_on_numerator():
    r = make_rational(5, -2)
    assert (r.numerator, r.denominator) == (-5, 2)


def test_make_rational_zero():
    r = make_rational(0, 7)
    assert (r.numerator, r.denominator) == (0, 1)


def test_make_rational_rejects_zero_denominator():
    with pytest.raises(ValueError):
        make_rational(1, 0)


def test_ceil_ratio_examples():
    assert ceil_ratio(20, 3) == 7
    assert ceil_ratio(-20, 3) == -6
    assert ceil_ratio(8, 4) == 2


def test_floor_ratio_duality():
    for a in range(-50, 51):
        for b in range(1, 13):
            assert ceil_ratio(a, b) == -floor_ratio(-a, b)


def test_ratio_rejects_nonpositive_denominator():
    with pytest.raises(ValueError):
        ceil_ratio(1, 0)
    with pytest.raises(ValueError):
        floor_ratio(1, -3)


def test_ceil_minus_floor_is_divisibility_indicator():
    for a in range(-60, 61):
        for b in range(1, 15):
            gap = ceil_ratio(a, b) - floor_ratio(a, b)
            assert gap in (0, 1)
            assert (gap == 0) == (a % b == 0)


def test_rational_field_axioms_randomized():
    rng = random.Random(20240)
    for _ in range(300):
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 20))
        y = Fraction(rng.randint(-40, 40), rng.randint(1, 20))
        z = Fraction(rng.randint(-40, 40), rng.randint(1, 20))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x + y == y + x
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z


def test_rational_order_matches_cross_multiplication():
    rng = random.Random(20241)
    for _ in range(300):
        p1, q1 = rng.randint(-30, 30), rng.randint(1, 20)
        p2, q2 = rng.randint(-30, 30), rng.randint(1, 20)
        assert (Fraction(p1, q1) < Fraction(p2, q2)) == (p1 * q2 < p2 * q1)


def test_quad_threshold_parabola_example():
    # roots 6 +- sqrt(28): negative for all integers >= 12
    assert quad_neg_threshold(-1, 12, -8) == 12
    assert -(11 ** 2) + 12 * 11 - 8 >= 0
    assert -(12 ** 2) + 12 * 12 - 8 < 0


def test_quad_threshold_constant_negative():
    assert quad_neg_threshold(0, 0, -1) is ALWAYS_NEGATIVE


def test_quad_threshold_upward_parabola():
    assert quad_neg_threshold(1, 0, -4) is None


def test_quad_threshold_linear_cases():
    assert quad_neg_threshold(0, -1, 3) == 4
    assert quad_neg_threshold(0, 2, -100) is None
    assert quad_neg_threshold(0, 0, 5) is None


def test_quad_threshold_hump_missing_integers():
    # max at x = 1/2 with value 1/4 - 2/10 > 0 but both roots inside (0, 1)
    assert quad_neg_threshold(-1, 1, Fraction(-1, 5)) is ALWAYS_NEGATIVE


def test_quad_threshold_pointwise_certification():
    rng = random.Random(20242)
    checked = 0
    while checked < 200:
        a2 = rng.randint(-6, 6)
        a1 = rng.randint(-30, 30)
        a0 = rng.randint(-50, 50)
        t = quad_neg_threshold(a2, a1, a0)
        if not isinstance(t, int):
            continue
        checked += 1
        for x in range(t - 3, t + 11):
            value = a2 * x * x + a1 * x + a0
            if x >= t:
                assert value < 0
        # minimality: the preceding integer is not part of the tail
        prev = a2 * (t - 1) ** 2 + a1 * (t - 1) + a0
        assert prev >= 0


def _brute_threshold(a2, a1, a0):
    """quad_neg_threshold by direct evaluation at every integer in a window
    that holds all real roots (Cauchy's bound), in Fractions."""
    a2, a1, a0 = Fraction(a2), Fraction(a1), Fraction(a0)
    if a2 > 0 or (a2 == 0 and a1 > 0) or (a2 == a1 == 0 and a0 >= 0):
        return None  # the tail is eventually non-negative
    if a2 != 0:
        bound = 1 + max(abs(a1 / a2), abs(a0 / a2))
    elif a1 != 0:
        bound = abs(a0 / a1)
    else:
        bound = Fraction(0)
    reach = int(bound) + 2
    non_negative = [x for x in range(-reach, reach + 1)
                    if a2 * x * x + a1 * x + a0 >= 0]
    return max(non_negative) + 1 if non_negative else ALWAYS_NEGATIVE


COEFFS = st.one_of(
    st.integers(min_value=-40, max_value=40),
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
)


@settings(max_examples=500, deadline=None)
@given(COEFFS, COEFFS, COEFFS)
def test_quad_threshold_matches_direct_evaluation(a2, a1, a0):
    assert quad_neg_threshold(a2, a1, a0) == _brute_threshold(a2, a1, a0)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-(10 ** 6), max_value=-1),
       st.integers(min_value=-(10 ** 6), max_value=10 ** 6),
       st.integers(min_value=-(10 ** 6), max_value=10 ** 6))
def test_quad_threshold_is_certified_at_large_coefficients(a2, a1, a0):
    # Too wide to scan.  The parabola falls on either side of its vertex, so
    # its values at the integers next to the vertex bound all others, and a
    # sign change at t past the vertex leaves every later value negative.
    def value(x):
        return a2 * x * x + a1 * x + a0

    t = quad_neg_threshold(a2, a1, a0)
    vertex = Fraction(a1, -2 * a2)
    if t is ALWAYS_NEGATIVE:
        assert value(math.floor(vertex)) < 0 and value(math.ceil(vertex)) < 0
    else:
        assert t >= vertex and value(t) < 0 <= value(t - 1)
