"""Exact Fourier transform of Haar measure on X_f at integral characters.

X_f is a principal algebraic action, with dual group ZGamma/ZGamma*f
(Schmidt, Dynamical Systems of Algebraic Origin, 1995), so the transform
of Haar measure at an integral character g is exactly 1 when g lies in the
ideal ZGamma*f and exactly 0 when it does not.  mu_hat decides which from
the exact quotient coordinates g/f on a ball and returns the int 0 or 1;
rational_witness returns a member's quotient or a non-member's witness.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import groups
from .ring import NotDivisible, PolyF, RingElement, divide_by_f, quotient_coordinates


class RadiusInsufficient(RuntimeError):
    """The window holds no k/M coordinate and no whole integral quotient."""


def value_json(value):
    """The document form of a transform value, 0 or 1."""
    if value == 0:
        return {"zero": True}
    # 1 as the point rectangle [1, 1] x [0, 0] that pinned documents carry
    return {"zero": False, "re": ["1", "1"], "im": ["0", "0"]}


def quotient_tail_l1(g, f, radius):
    """Upper bound on sum of |(g/f)_s| over sites s outside the ball of the
    radius: each term of g contributes its own translated cone tail."""
    total = Fraction(0)
    for t, c in g.items():
        total += abs(c) * f.tail_l1_beyond(radius - groups.word_length(g.group, t))
    return total


def mu_hat(g, f, radius):
    """Exact transform value at the integral character g, the int 0 or 1,
    decided from the quotient coordinates of g/f on the ball of the given
    radius.

    A coordinate that is k/M mod 1 (0 < k < M) gives exactly 0.  Integral
    coordinates whose product with f is g are all of g/f (every factor
    outside the window is 1) and give exactly 1.  Otherwise the window
    decides neither, and RadiusInsufficient is raised.
    """
    if not isinstance(f, PolyF):
        raise TypeError("f must be a PolyF")
    if g.group != f.group:
        raise groups.GroupMismatch("g and f live over different groups")
    if not g.is_integral():
        raise ValueError("mu_hat is defined for integral characters")
    coords = quotient_coordinates(g, f, groups.ball(g.group, radius))
    fractional = [xi for xi in coords.values() if xi.denominator != 1]
    if any((f.M * xi).denominator == 1 for xi in fractional):
        return 0
    q = RingElement(g.group, {s: c for s, c in coords.items() if c})
    if not fractional and q * f.as_ring() == g:
        return 1
    raise RadiusInsufficient(
        "window radius %d cannot separate the transform from both 0 and 1"
        % radius)


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


def rational_witness(g, f):
    """Decide membership of g in the ideal generated by f.

    Returns the exact quotient q, the RingElement with q*f = g, or a Witness
    carrying the first (minimal site, in the ambient order) non-integral
    quotient coordinate, whose fractional part is provably a multiple of 1/M.
    """
    try:
        return divide_by_f(g, f)
    except NotDivisible as exc:
        frac = exc.value - (exc.value.numerator // exc.value.denominator)
        k = frac * f.M
        if k.denominator != 1:
            raise AssertionError("witness fraction is not a multiple of 1/M")
        return Witness(exc.site, exc.value, int(k), f.M)


def auto_radius(g, verdict):
    """The smallest window radius (at least 1) holding the quotient of a
    member, or the witness site of a non-member."""
    if isinstance(verdict, RingElement):
        return max(1, verdict.max_word_length())
    return max(1, groups.word_length(g.group, verdict.site))


def haar_indicator_check(g_list, f):
    """Cross-check exact ideal membership against the transform for each
    character in g_list, each at its auto_radius: members must give
    transform exactly 1, non-members exactly 0 (their first bad coordinate
    has denominator M).
    """
    entries = []
    all_ok = True
    for g in g_list:
        verdict = rational_witness(g, f)
        member = isinstance(verdict, RingElement)
        value = mu_hat(g, f, auto_radius(g, verdict))
        ok = value == member
        all_ok = all_ok and ok
        entry = {
            "g": g.to_json_dict(),
            "member": member,
            "mu_hat": value_json(value),
            "witness": None if member else verdict.to_json_dict(g.group),
            "pass": ok,
        }
        if member:
            entry["quotient"] = verdict.to_json_dict()
        entries.append(entry)
    return {"entries": entries, "passed": all_ok}
