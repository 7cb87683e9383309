import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from homoclinic_lab.intervals import (ONE, PI_HI, PI_LO, ZERO,
                                      RationalInterval, cos_sin_2pi)


def _contains(iv, value):
    return iv.lo <= value <= iv.hi


def _width(iv):
    return iv.hi - iv.lo


def _midpoint(iv):
    return (iv.lo + iv.hi) / 2


def _square_bounds(iv):
    # exact bounds of v*v over the enclosure, whichever sign its ends have
    ends = sorted((iv.lo * iv.lo, iv.hi * iv.hi))
    return (0 if iv.lo <= 0 <= iv.hi else ends[0]), ends[1]


def test_pi_bounds_are_tight_and_correct():
    # classic bracketing rationals: 333/106 < pi < 355/113
    assert Fraction(333, 106) < PI_LO < PI_HI < Fraction(355, 113)
    assert PI_HI - PI_LO == Fraction(1, 10**49)
    # the float closest to pi rounds into the bracket
    assert abs(float((PI_LO + PI_HI) / 2) - math.pi) < 1e-15


def test_quarter_points_are_exact():
    assert cos_sin_2pi(0) == (ONE, ZERO)
    assert cos_sin_2pi(Fraction(1, 4)) == (ZERO, ONE)
    assert cos_sin_2pi(Fraction(1, 2)) == (-ONE, ZERO)
    assert cos_sin_2pi(Fraction(3, 4)) == (ZERO, -ONE)
    assert cos_sin_2pi(7) == (ONE, ZERO)
    assert cos_sin_2pi(Fraction(-1, 2)) == (-ONE, ZERO)


def test_periodicity():
    assert cos_sin_2pi(Fraction(9, 8)) == cos_sin_2pi(Fraction(1, 8))
    assert cos_sin_2pi(Fraction(-1, 3)) == cos_sin_2pi(Fraction(2, 3))


def _brackets_sqrt(iv, scale, shift, target):
    # true value sqrt(target) inside the enclosure scale * iv + shift,
    # with scale > 0 and a positive lower end
    lo, hi = scale * iv.lo + shift, scale * iv.hi + shift
    return lo > 0 and lo**2 <= target <= hi**2


def test_known_algebraic_values():
    c3, s3 = cos_sin_2pi(Fraction(1, 3))
    assert _contains(c3, Fraction(-1, 2))
    assert _width(s3) < Fraction(1, 10**20)
    c8, s8 = cos_sin_2pi(Fraction(1, 8))
    assert _brackets_sqrt(c8, 2, 0, 2)  # cos(pi/4) = sqrt(2)/2
    assert _brackets_sqrt(s8, 2, 0, 2)
    c12, s12 = cos_sin_2pi(Fraction(1, 12))
    assert _brackets_sqrt(c12, 2, 0, 3)  # cos(pi/6) = sqrt(3)/2
    assert _contains(s12, Fraction(1, 2))
    # cos(2 pi / 5) = (sqrt(5) - 1) / 4
    assert _brackets_sqrt(cos_sin_2pi(Fraction(1, 5))[0], 4, 1, 5)


@pytest.mark.parametrize("num,den", [(1, 3), (2, 5), (5, 7), (7, 9), (1, 12)])
def test_enclosures_track_float_values(num, den):
    theta = Fraction(num, den)
    c, s = cos_sin_2pi(theta)
    assert abs(float(_midpoint(c)) - math.cos(2 * math.pi * num / den)) < 1e-12
    assert abs(float(_midpoint(s)) - math.sin(2 * math.pi * num / den)) < 1e-12
    assert _width(c) < Fraction(1, 10**12)
    assert _width(s) < Fraction(1, 10**12)


# math.cos and math.sin of the float 2*pi*t, |t| <= 4, are within about
# 1e-14 of the true values (rounding of t, of pi and of the product, each
# times a derivative of at most 1, plus an ulp of the result); the margin
# allows far more than that, and the enclosures must be narrower still
FLOAT_MARGIN = Fraction(1, 10**12)


@given(st.fractions(min_value=-4, max_value=4, max_denominator=10**6))
def test_enclosures_contain_the_float_values(t):
    c, s = cos_sin_2pi(t)
    for iv, value in ((c, math.cos(2 * math.pi * t)),
                      (s, math.sin(2 * math.pi * t))):
        assert iv.lo - FLOAT_MARGIN <= Fraction(value) <= iv.hi + FLOAT_MARGIN
        assert _width(iv) < FLOAT_MARGIN


def test_pythagorean_identity():
    for k in range(12):
        c, s = cos_sin_2pi(Fraction(k, 12))
        (c_lo, c_hi), (s_lo, s_hi) = _square_bounds(c), _square_bounds(s)
        assert c_lo + s_lo <= 1 <= c_hi + s_hi
        assert (c_hi + s_hi) - (c_lo + s_lo) < Fraction(1, 10**10)


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        RationalInterval(1, 0)
