"""BN-number formulas and their exact inequality criteria.

Expected values for the worked examples were computed by direct evaluation
of the defining expressions and frozen here; criteria are cross-checked
against the sign of the corresponding BN number on exhaustive grids.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnloci.bncalc import (
    _ascii_int,
    asympt_neg,
    beta_classical,
    beta_twisted,
    beta_universal,
    chi_tensor,
    dim_excess_criterion,
    leading_coeff_t4,
    line_bn_degree_bound,
    neg_slope_criterion,
    t4_beta_poly,
    universal_neg_criterion,
)
from bnloci.sweeps import bnmap_point

RANK_0 = "^rank must be positive, got 0$"


def test_bundle_types_reject_zero_rank():
    for call in (
        lambda b1, b2: beta_universal(6, b1, b2, 1),
        lambda b1, b2: beta_twisted(6, b1, b2, 1),
        lambda b1, b2: chi_tensor(6, b1, b2),
        lambda b1, b2: universal_neg_criterion(6, b1, b2, 1),
    ):
        with pytest.raises(ValueError, match=RANK_0):
            call((0, 5), (1, 1))
        with pytest.raises(ValueError, match="^rank must be positive, got -1$"):
            call((2, 5), (-1, 1))
        # b1 is checked before b2
        with pytest.raises(ValueError, match=RANK_0):
            call((0, 5), (-1, 1))
    # genus first, then the section count, then the ranks
    with pytest.raises(ValueError, match="^genus must be at least 2, got 1$"):
        beta_universal(1, (0, 5), (1, 1), -1)
    with pytest.raises(ValueError, match="^section count must be non-negative"):
        beta_twisted(6, (0, 5), (1, 1), -1)


def test_locus_types_reject_negative_sections():
    with pytest.raises(ValueError, match="^section count must be non-negative, got -1$"):
        bnmap_point((2, 5, -1), (1, 1, 1))
    with pytest.raises(ValueError, match="^section count must be non-negative, got -1$"):
        bnmap_point((2, 5, 2), (1, 1, -1))
    # the rank is checked before the section count
    with pytest.raises(ValueError, match=RANK_0):
        bnmap_point((0, 5, -1), (1, 1, 1))


def test_beta_classical_values():
    assert beta_classical(10, 1, 9, 3) == 1
    assert beta_classical(6, 2, 10, 5) == -4
    for g in range(2, 8):
        for n in range(1, 5):
            for d in range(-5, 6):
                assert beta_classical(g, n, d, 0) == n * n * (g - 1) + 1


def test_beta_universal_values():
    assert beta_universal(6, (2, 10), (4, -10), 5) == -23
    assert beta_universal(10, (6, 22), (2, 10), 21) == -163
    for g in range(2, 7):
        # at k = 0 only the two moduli dimensions n*n*(g-1) + 1 remain
        assert beta_universal(g, (2, 3), (3, -1), 0) == (
            2 * 2 * (g - 1) + 1 + 3 * 3 * (g - 1) + 1
        )


def test_beta_twisted_values():
    assert beta_twisted(6, (2, 10), (4, -10), 5) == -104
    assert beta_twisted(10, (6, 22), (2, 10), 21) == -200
    for g in range(2, 7):
        assert beta_twisted(g, (3, 4), (2, -2), 0) == 3 * 3 * (g - 1) + 1


def test_beta_twisted_trivial_twist_is_classical():
    for g in range(2, 7):
        for n in range(1, 4):
            for d in range(-8, 9):
                for k in range(0, 5):
                    assert beta_twisted(g, (n, d), (1, 0), k) == beta_classical(g, n, d, k)


def test_chi_tensor_values():
    assert chi_tensor(6, (2, 10), (1, 10)) == 20
    assert chi_tensor(6, (2, 10), (1, 26)) == 52
    for g in range(2, 8):
        for n1 in range(1, 4):
            for n in range(1, 4):
                assert chi_tensor(g, (n1, 0), (n, 0)) == -n * n1 * (g - 1)


def test_neg_slope_criterion_threshold_family():
    # first locus (2, 5, 2), second the dual span family of a pencil-type
    # system of degree n2 + g: mu2 = (g + 2)/2 at n2 = 2, k2 = 3
    assert neg_slope_criterion(17, 2, 2, 2, 3, Fraction(5, 2), Fraction(19, 2))
    assert not neg_slope_criterion(16, 2, 2, 2, 3, Fraction(5, 2), Fraction(9))
    # matches the sign of the BN number at k = 6
    assert beta_universal(17, (2, 5), (2, 19), 6) < 0
    assert beta_universal(16, (2, 5), (2, 18), 6) >= 0


def test_neg_slope_criterion_is_strict_on_the_boundary():
    # g=16, n1=n2=2, k1=2, k2=3: rhs = 137/12; pick mu1 + mu2 exactly equal
    rhs = Fraction(3, 2) + Fraction(2, 3) * 15 - Fraction(1, 12)
    assert not neg_slope_criterion(16, 2, 2, 2, 3, rhs / 2, rhs / 2)


def test_neg_slope_criterion_matches_beta_sign():
    assert neg_slope_criterion(6, 2, 2, 4, 5, Fraction(5), Fraction(-5, 2))
    assert beta_universal(6, (2, 10), (4, -10), 10) < 0


def test_universal_neg_criterion_total_k():
    assert universal_neg_criterion(6, (2, 10), (4, -10), 5)
    for g in range(2, 6):
        for d1 in range(-6, 7):
            for d2 in range(-6, 7):
                for k in range(1, 9):
                    expected = beta_universal(g, (2, d1), (3, d2), k) < 0
                    assert universal_neg_criterion(g, (2, d1), (3, d2), k) == expected


def _dim_excess_oracle(g, n1, k1, n2, k2, d1, d2):
    # direct expansion of the excess expression whose positivity the
    # criterion restates
    value = (
        k1 * k1 * k2 * k2
        - k1 * k1
        - k2 * k2
        - k1 * k2 * (n2 * d1 + n1 * d2 - n1 * n2 * (g - 1))
        + k1 * (d1 - n1 * (g - 1))
        + k2 * (d2 - n2 * (g - 1))
    )
    return value > 0


def test_dim_excess_criterion_against_direct_expansion():
    for g in (2, 3, 5, 9):
        for n1 in (1, 2, 3):
            for n2 in (1, 2, 4):
                for k1 in (1, 2, 4):
                    for k2 in (1, 3, 5):
                        for d1 in (-7, 0, 5, 11):
                            for d2 in (-9, -1, 4, 12):
                                got = dim_excess_criterion(
                                    g, n1, k1, n2, k2,
                                    Fraction(d1, n1), Fraction(d2, n2),
                                )
                                assert got == _dim_excess_oracle(
                                    g, n1, k1, n2, k2, d1, d2
                                )


def test_dim_excess_extremes():
    assert dim_excess_criterion(10_000, 2, 2, 2, 3, Fraction(5, 2), Fraction(5, 2))
    assert not dim_excess_criterion(5, 2, 2, 2, 3, Fraction(10 ** 6), Fraction(10 ** 6))


def test_line_bn_degree_bound_values():
    assert line_bn_degree_bound(10, 6) == Fraction(102, 7)
    assert line_bn_degree_bound(2, 2) == Fraction(10, 3)
    for g in range(2, 9):
        assert line_bn_degree_bound(g, 1) == 1 + Fraction(g, 2)
    assert beta_classical(10, 1, 15, 7) == 3
    assert beta_classical(10, 1, 14, 7) == -4


def test_line_bn_degree_bound_equivalence_grid():
    for g in range(2, 13):
        for n1 in range(1, 9):
            bound = line_bn_degree_bound(g, n1)
            for d1 in range(0, 41):
                assert (d1 >= bound) == (beta_classical(g, 1, d1, n1 + 1) >= 0)


def test_t4_beta_poly_example():
    assert t4_beta_poly(3, 2, 4, 3, 1, 6, 0) == (-1, 12, -8)
    a2, a1, a0 = -1, 12, -8
    assert a2 * 144 + a1 * 12 + a0 == -8


def test_t4_beta_poly_matches_beta_universal():
    cases = [
        (3, 2, 4, 3, 1, 6, 0),
        (6, 2, 10, 5, 1, 25, 0),
        (5, 3, 7, 5, 2, 60, 1),
        (4, 2, 3, 4, 1, 14, -1),
    ]
    for g, n1, d1, k1, n, e, f in cases:
        a2, a1, a0 = t4_beta_poly(g, n1, d1, k1, n, e, f)
        # sample degrees large enough that rank and section count are valid
        d0 = max(n * g + f + 1, (e + (k1 - n1)) // (k1 - n1) + 1, 3)
        for d in range(d0, d0 + 5):
            n2 = d - n * g - f
            k = d * (k1 - n1) - e
            assert a2 * d * d + a1 * d + a0 == beta_universal(
                g, (n1, d1), (n2, -d), k
            )


def test_t4_beta_poly_second_difference():
    a2, a1, a0 = t4_beta_poly(6, 2, 10, 5, 1, 25, 0)

    def poly(d):
        return a2 * d * d + a1 * d + a0

    for d in range(-4, 9):
        assert poly(d + 2) - 2 * poly(d + 1) + poly(d) == 2 * a2


def test_leading_coeff_values():
    assert leading_coeff_t4(3, 2, 4, 3) == -1
    assert asympt_neg(3, 2, 4, 3)
    assert leading_coeff_t4(3, 2, 5, 3) == 0
    assert not asympt_neg(3, 2, 5, 3)


def test_leading_coeff_rejects_small_k1():
    with pytest.raises(ValueError):
        leading_coeff_t4(3, 2, 4, 2)
    with pytest.raises(ValueError):
        asympt_neg(3, 3, 4, 3)


def test_asympt_neg_iff_negative_leading_coeff():
    for g in range(2, 9):
        for n1 in range(2, 5):
            for k1 in range(n1 + 1, n1 + 5):
                for d1 in range(0, 31):
                    assert asympt_neg(g, n1, d1, k1) == (
                        leading_coeff_t4(g, n1, d1, k1) < 0
                    )


def test_beta_universal_swap_symmetry():
    for g in range(2, 6):
        for n1 in range(1, 4):
            for n2 in range(1, 4):
                for d1 in (-6, -4, -3, -2, 0, 2, 3, 4, 6):
                    for d2 in (-6, -4, -3, -2, 0, 2, 3, 4, 6):
                        for k in (0, 1, 2, 4, 5, 6):
                            assert beta_universal(g, (n1, d1), (n2, d2), k) == \
                                beta_universal(g, (n2, d2), (n1, d1), k)


def test_beta_universal_twist_invariance():
    for g in range(2, 6):
        for n1 in range(1, 4):
            for n2 in range(1, 4):
                for d1 in range(-6, 7):
                    for d2 in range(-6, 7):
                        for k in range(0, 6):
                            base = beta_universal(g, (n1, d1), (n2, d2), k)
                            for ell in range(-3, 4):
                                assert base == beta_universal(
                                    g,
                                    (n1, d1 - n1 * ell),
                                    (n2, d2 + n2 * ell),
                                    k,
                                )


# Signs, ASCII and other digits, underscores and whitespace, in any order.
NUMERAL_TEXT = st.text(st.sampled_from(" -+019_\t\n\u00a0\u0663\u00b2x"), max_size=6)


@settings(max_examples=500, deadline=None)
@given(NUMERAL_TEXT)
def test_ascii_int_reads_only_the_ascii_form(text):
    if re.fullmatch(r" *-?[0-9]+ *", text):
        assert _ascii_int(text) == int(text)
    else:
        with pytest.raises(ValueError, match="^invalid literal for int"):
            _ascii_int(text)
