"""Closed forms of bncalc checked against sympy on small grids.

sympy is a test-only oracle: the library itself imports nothing outside the
standard library (see test_stdlib_only.py)."""

import itertools
from fractions import Fraction

import pytest

from bnloci.bncalc import neg_slope_criterion, t4_beta_poly

sympy = pytest.importorskip("sympy")

g, n1, d1, k1, n, e, f, d = sympy.symbols("g n1 d1 k1 n e f d")


def universal_beta(n1, d1, n2, d2, k):
    """The universal BN number as the bncalc module docstring states it."""
    dims = (n1**2 * (g - 1) + 1) + (n2**2 * (g - 1) + 1)
    return dims - k * (k - n2 * d1 - n1 * d2 + n1 * n2 * (g - 1))


def t4_coefficients():
    """(a2, a1, a0) of the universal BN number in d under the substitution
    k = d(k1-n1) - e, v = d - n(g-1) - f, (n2, d2) = (v - n, -d)."""
    v = d - n * (g - 1) - f
    beta = universal_beta(n1, d1, v - n, -d, d * (k1 - n1) - e)
    poly = sympy.Poly(sympy.expand(beta), d)
    assert poly.degree() == 2
    return poly.all_coeffs()


def test_t4_leading_coefficient_is_symbolically_the_stated_one():
    a2 = t4_coefficients()[0]
    stated = g - 1 - (k1 - n1) * (k1 - n1 - d1 + n1 * g)
    assert sympy.expand(a2 - stated) == 0


def test_t4_beta_poly_matches_the_symbolic_expansion():
    coefficients = sympy.lambdify((g, n1, d1, k1, n, e, f), t4_coefficients())
    checked = 0
    for gv, n1v, dk, d1v, nv, ev, fv in itertools.product(
        range(2, 6), (2, 3), (1, 2), (-1, 3, 7), (1, 2), (-1, 2), (0, 1)
    ):
        k1v = n1v + dk
        expected = tuple(int(c) for c in coefficients(gv, n1v, d1v, k1v, nv, ev, fv))
        assert t4_beta_poly(gv, n1v, d1v, k1v, nv, ev, fv) == expected
        checked += 1
    assert checked == 384


def _fraction(r):
    return Fraction(int(r.p), int(r.q))


def test_neg_slope_criterion_matches_the_rational_inequality():
    """mu1 + mu2 < lambda1*lambda2 + (1 - (n1^2 + n2^2)/K)(g - 1) - 2/K with
    K = k1 n1 k2 n2, probed on the boundary and one step either side."""
    step = sympy.Rational(1, 7)
    for gv, n1v, k1v, n2v, k2v in itertools.product(range(2, 7), *[range(1, 4)] * 4):
        big_k = k1v * n1v * k2v * n2v
        bound = (
            sympy.Rational(k1v, n1v) * sympy.Rational(k2v, n2v)
            + (1 - sympy.Rational(n1v**2 + n2v**2, big_k)) * (gv - 1)
            - sympy.Rational(2, big_k)
        )
        for mu2 in (sympy.Integer(0), sympy.Rational(1, 2), sympy.Rational(-3, 2)):
            for shift, expected in ((-step, True), (0, False), (step, False)):
                mu1 = bound - mu2 + shift
                assert bool(mu1 + mu2 < bound) is expected
                got = neg_slope_criterion(
                    gv, n1v, k1v, n2v, k2v, _fraction(mu1), _fraction(mu2))
                assert got is expected, (gv, n1v, k1v, n2v, k2v, mu1, mu2)
