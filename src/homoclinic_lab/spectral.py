"""Exact-rational Fourier transform of the pushforward measure.

For an integral group ring element g, the transform of Haar measure on X_f
evaluated at the character g factors over the quotient coordinates g/f.  A
coordinate with denominator exactly M kills the product (that factor of the
one-site average vanishes), an integral quotient of finite support gives
exactly 1, and otherwise we certify a rectangle in the complex plane from
finitely many factors plus an l1 tail bound.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import groups
from .intervals import PI_HI, RationalInterval, cos_sin_2pi
from .ring import NotDivisible, PolyF, RingElement, divide_by_f, quotient_coordinates


class RadiusInsufficient(RuntimeError):
    """The certified enclosure still contains both 0 and 1."""


_POINT_ZERO = RationalInterval(0, 0)
_POINT_ONE = RationalInterval(1, 1)


@dataclass(frozen=True)
class CharacterValue:
    """Value of the transform at one character: an exact zero flag or a
    rectangle (re x im) guaranteed to contain the true complex value."""

    exact_zero: bool
    re: RationalInterval
    im: RationalInterval

    @classmethod
    def zero(cls):
        return cls(True, _POINT_ZERO, _POINT_ZERO)

    @classmethod
    def one(cls):
        return cls(False, _POINT_ONE, _POINT_ZERO)

    def contains_zero(self):
        return self.exact_zero or (self.re.contains(0) and self.im.contains(0))

    def contains_one(self):
        return (not self.exact_zero) and self.re.contains(1) and self.im.contains(0)

    def to_json_dict(self):
        if self.exact_zero:
            return {"zero": True}
        return {
            "zero": False,
            "re": [str(self.re.lo), str(self.re.hi)],
            "im": [str(self.im.lo), str(self.im.hi)],
        }


def nu0_hat(xi, M):
    """Transform of the uniform measure on {0, 1/M, ..., (M-1)/M} at the
    rational frequency xi, as a certified complex rectangle.

    Exactly 1 at integers; exactly 0 iff M*xi is an integer but xi is not.
    """
    xi = Fraction(xi)
    if xi.denominator == 1:
        return CharacterValue.one()
    if (M * xi).denominator == 1:
        return CharacterValue.zero()
    re = _POINT_ZERO
    im = _POINT_ZERO
    for k in range(M):
        c, s = cos_sin_2pi(k * xi)
        re = re + c
        im = im + s
    inv = Fraction(1, M)
    return CharacterValue(False, (re * inv).rounded(), (im * inv).rounded())


def _factor(xi, M):
    """One product factor: nu0_hat at xi with conjugated phase, so that the
    certified product matches empirical averages of exp(-2*pi*i <x, g>)."""
    v = nu0_hat(xi, M)
    return CharacterValue(v.exact_zero, v.re, -v.im)


def _complex_mul(re1, im1, re2, im2):
    re = (re1 * re2 - im1 * im2).rounded()
    im = (re1 * im2 + im1 * re2).rounded()
    return re, im


def quotient_tail_l1(g, f, radius):
    """Upper bound on sum of |(g/f)_s| over sites s outside the ball of the
    radius: each term of g contributes its own translated cone tail."""
    total = Fraction(0)
    for t, c in g.items():
        total += abs(c) * f.tail_l1_beyond(radius - groups.word_length(g.group, t))
    return total


def mu_hat(g, f, radius):
    """Certified transform value at the integral character g.

    Strategy: scan the quotient coordinates inside the window for a factor
    that is exactly zero; if they are integers whose product with f is g (g
    is divisible by f with quotient supported in the window) the value is
    exactly 1; otherwise multiply the in-window
    factors and widen by the l1 tail of the quotient beyond the window.
    Raises RadiusInsufficient when the result still straddles both 0 and 1.
    """
    if not isinstance(f, PolyF):
        raise TypeError("f must be a PolyF")
    if g.group != f.group:
        raise groups.GroupMismatch("g and f live over different groups")
    if not g.is_integral():
        raise ValueError("mu_hat is defined for integral characters")
    M = f.M
    window = groups.ball(g.group, radius)
    coords = quotient_coordinates(g, f, window)
    nonint = []
    for s in window:
        xi = coords[s]
        if xi.denominator == 1:
            continue
        if (M * xi).denominator == 1:
            return CharacterValue.zero()
        nonint.append(xi)

    # an integral window whose quotient reproduces g is all of g/f: every
    # factor outside the window is exactly 1
    if not nonint and RingElement(
            g.group, {s: c for s, c in coords.items() if c}) * f.as_ring() == g:
        return CharacterValue.one()

    re, im = _POINT_ONE, _POINT_ZERO
    for xi in nonint:
        fac = _factor(xi, M)
        re, im = _complex_mul(re, im, fac.re, fac.im)

    # |prod over tail - 1| <= sum |factor_s - 1| <= pi*(M-1) * sum |(g/f)_s|,
    # each factor having modulus at most 1
    eps = PI_HI * (M - 1) * quotient_tail_l1(g, f, radius)
    band_re = RationalInterval(1 - eps, 1 + eps)
    band_im = RationalInterval(-eps, eps)
    re, im = _complex_mul(re, im, band_re, band_im)
    out = CharacterValue(False, re, im)
    if out.contains_zero() and out.contains_one():
        raise RadiusInsufficient(
            "window radius %d cannot separate the transform from both 0 and 1"
            % radius)
    return out


@dataclass(frozen=True)
class Witness:
    """Certificate that g is not in the principal ideal: the first quotient
    coordinate that fails to be an integer, with value k/M mod 1."""

    site: object
    value: Fraction
    k: int
    M: int

    def to_json_dict(self, group):
        return {"w": groups.format_element(group, self.site),
                "k": self.k, "M": self.M}


@dataclass(frozen=True)
class InIdeal:
    """Certificate that g = q*f for the finitely supported quotient q."""

    quotient: RingElement


def rational_witness(g, f):
    """Decide membership of g in the ideal generated by f.

    Returns InIdeal with the exact quotient, or a Witness carrying the first
    (minimal site, in the ambient order) non-integral quotient coordinate,
    whose fractional part is provably a multiple of 1/M.
    """
    try:
        q = divide_by_f(g, f)
        return InIdeal(q)
    except NotDivisible as exc:
        frac = exc.value - (exc.value.numerator // exc.value.denominator)
        k = frac * f.M
        if k.denominator != 1:
            raise AssertionError("witness fraction is not a multiple of 1/M")
        return Witness(exc.site, exc.value, int(k), f.M)


def auto_radius(g, f, verdict):
    """The smallest window radius (at least 1) holding the quotient of a
    member, or the witness site of a non-member."""
    if isinstance(verdict, InIdeal):
        r = verdict.quotient.max_word_length() or 0
    else:
        r = groups.word_length(g.group, verdict.site)
    return max(1, r)


def haar_indicator_check(g_list, f):
    """Cross-check exact ideal membership against the certified transform
    for each character in g_list, each at its auto_radius: members must
    give transform exactly 1, non-members exactly 0 (their first bad
    coordinate has denominator M).
    """
    entries = []
    all_ok = True
    for g in g_list:
        verdict = rational_witness(g, f)
        member = isinstance(verdict, InIdeal)
        value = mu_hat(g, f, auto_radius(g, f, verdict))
        if member:
            ok = value.contains_one() and not value.contains_zero()
        else:
            ok = value.exact_zero
        all_ok = all_ok and ok
        entry = {
            "g": g.to_json_dict(),
            "member": member,
            "mu_hat": value.to_json_dict(),
            "witness": None if member else verdict.to_json_dict(g.group),
            "pass": ok,
        }
        if member:
            entry["quotient"] = verdict.quotient.to_json_dict()
        entries.append(entry)
    return {"entries": entries, "passed": all_ok}
