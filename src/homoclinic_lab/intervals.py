"""Pi bounds and rigorous enclosures of cos(2 pi t) and sin(2 pi t) for
rational t.

Everything here is exact Fraction arithmetic; an interval [lo, hi] is a
proof that the true real value lies between its endpoints.
"""

from dataclasses import dataclass
from fractions import Fraction
import math

# 50 digits of pi; the true value lies strictly between these bounds
_PI_DIGITS = 31415926535897932384626433832795028841971693993751
PI_LO = Fraction(_PI_DIGITS, 10**49)
PI_HI = Fraction(_PI_DIGITS + 1, 10**49)

_TAYLOR_TERMS = 12


@dataclass(frozen=True)
class RationalInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, value):
        value = Fraction(value)
        return cls(value, value)

    def __neg__(self):
        return RationalInterval(-self.hi, -self.lo)


ZERO = RationalInterval.point(0)
ONE = RationalInterval.point(1)


def _cos_taylor(x):
    """Enclosure of cos(x) for a rational 0 <= x < 1.6 via the alternating
    Taylor series; the first omitted term bounds the remainder."""
    total = Fraction(0)
    term = Fraction(1)
    x2 = x * x
    for k in range(_TAYLOR_TERMS):
        total += term
        term = -term * x2 / ((2 * k + 1) * (2 * k + 2))
    rem = abs(term)
    return RationalInterval(total - rem, total + rem)


def _sin_taylor(x):
    total = Fraction(0)
    term = Fraction(x)
    x2 = x * x
    for k in range(_TAYLOR_TERMS):
        total += term
        term = -term * x2 / ((2 * k + 2) * (2 * k + 3))
    rem = abs(term)
    return RationalInterval(total - rem, total + rem)


def _cos_sin_quarter(t):
    """(cos, sin) enclosures of 2*pi*t for 0 < t < 1/4.

    The angle interval is [2*PI_LO*t, 2*PI_HI*t], inside (0, pi/2) where cos
    decreases and sin increases, so endpoint evaluations bracket the range.
    """
    x_lo = 2 * PI_LO * t
    x_hi = 2 * PI_HI * t
    cos_at_hi = _cos_taylor(x_hi)
    cos_at_lo = _cos_taylor(x_lo)
    sin_at_lo = _sin_taylor(x_lo)
    sin_at_hi = _sin_taylor(x_hi)
    cos_iv = RationalInterval(cos_at_hi.lo, cos_at_lo.hi)
    sin_iv = RationalInterval(sin_at_lo.lo, sin_at_hi.hi)
    return cos_iv, sin_iv


def cos_sin_2pi(theta):
    """Rigorous (cos, sin) enclosures of the angle 2*pi*theta, theta rational.

    Quarter-period points are exact; other angles fold into the first
    quadrant and use endpoint-monotone Taylor enclosures.
    """
    t = Fraction(theta)
    t -= math.floor(t)
    if t == 0:
        return ONE, ZERO
    if t == Fraction(1, 4):
        return ZERO, ONE
    if t == Fraction(1, 2):
        return -ONE, ZERO
    if t == Fraction(3, 4):
        return ZERO, -ONE
    if t > Fraction(1, 2):
        cos_iv, sin_iv = cos_sin_2pi(1 - t)
        return cos_iv, -sin_iv
    if t > Fraction(1, 4):
        cos_iv, sin_iv = cos_sin_2pi(Fraction(1, 2) - t)
        return -cos_iv, sin_iv
    return _cos_sin_quarter(t)
