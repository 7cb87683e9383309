import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from homoclinic_lab.intervals import (ONE, PI, PI_HI, PI_LO, ZERO,
                                      RationalInterval, cos2pi, cos_sin_2pi,
                                      sin2pi)


def test_pi_bounds_are_tight_and_correct():
    # classic bracketing rationals: 333/106 < pi < 355/113
    assert Fraction(333, 106) < PI_LO < PI_HI < Fraction(355, 113)
    assert PI.width == Fraction(1, 10**49)
    # the float closest to pi rounds into the bracket
    assert abs(float(PI.midpoint) - math.pi) < 1e-15


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


def _brackets_sqrt(iv, target):
    # true value sqrt(target) inside a positive interval
    return iv.lo > 0 and iv.lo**2 <= target <= iv.hi**2


def test_known_algebraic_values():
    assert cos2pi(Fraction(1, 3)).contains(Fraction(-1, 2))
    assert sin2pi(Fraction(1, 3)).width < Fraction(1, 10**20)
    assert _brackets_sqrt(cos2pi(Fraction(1, 8)) * 2, 2)  # cos(pi/4) = sqrt(2)/2
    assert _brackets_sqrt(sin2pi(Fraction(1, 8)) * 2, 2)
    assert _brackets_sqrt(cos2pi(Fraction(1, 12)) * 2, 3)  # cos(pi/6) = sqrt(3)/2
    assert sin2pi(Fraction(1, 12)).contains(Fraction(1, 2))
    # cos(2 pi / 5) = (sqrt(5) - 1) / 4
    assert _brackets_sqrt(cos2pi(Fraction(1, 5)) * 4 + 1, 5)


@pytest.mark.parametrize("num,den", [(1, 3), (2, 5), (5, 7), (7, 9), (1, 12)])
def test_enclosures_track_float_values(num, den):
    theta = Fraction(num, den)
    c, s = cos_sin_2pi(theta)
    assert abs(float(c.midpoint) - math.cos(2 * math.pi * num / den)) < 1e-12
    assert abs(float(s.midpoint) - math.sin(2 * math.pi * num / den)) < 1e-12
    assert c.width < Fraction(1, 10**12)
    assert s.width < Fraction(1, 10**12)


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
        assert iv.width < FLOAT_MARGIN


def test_pythagorean_identity():
    for k in range(12):
        c, s = cos_sin_2pi(Fraction(k, 12))
        sq = c * c + s * s
        assert sq.contains(1)
        assert sq.width < Fraction(1, 10**10)


def test_interval_arithmetic():
    a = RationalInterval(Fraction(1, 3), Fraction(1, 2))
    b = RationalInterval(Fraction(-1, 4), Fraction(1, 4))
    assert (a + b).lo == Fraction(1, 12)
    assert (a + b).hi == Fraction(3, 4)
    assert (a - b) == a + (-b)
    assert (-a).lo == Fraction(-1, 2)
    prod = a * b
    assert prod.lo == Fraction(-1, 8)
    assert prod.hi == Fraction(1, 8)
    assert (a * 2).hi == 1
    assert (a * -1) == -a
    assert (2 + a).lo == Fraction(7, 3)
    assert a.contains(Fraction(2, 5))
    assert not a.contains(Fraction(2, 3))
    assert b.midpoint == 0


def test_rounded_is_outward_and_tight():
    iv = RationalInterval(Fraction(1, 3), Fraction(2, 3))
    r = iv.rounded()
    assert r.lo <= iv.lo and iv.hi <= r.hi
    assert r.width - iv.width < Fraction(1, 2**252)
    assert r.lo.denominator <= 2**256 and r.hi.denominator <= 2**256
    point = RationalInterval.point(Fraction(5, 7)).rounded()
    assert point.contains(Fraction(5, 7)) and point.width > 0


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        RationalInterval(1, 0)
