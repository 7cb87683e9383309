"""The map phi(d) = pi(d . w) through the homoclinic kernel w = (f*)^-1,
membership residuals for X_f windows, and the 4-cover lift.  The kernel's
coefficients and l1 masses are those of 1/f (ring.PolyF) read at inverses.

Coordinates of phi on finite-support inputs are exact rationals, computed
by ring.kernel_convolution as integer numerators over one power of M from
the recurrence x . f* = d, and the lift reads them back as integers;
windowed inputs get rigorous interval enclosures whose tails are the full
kernel mass less the same recurrence on the window's indicator.
"""

from dataclasses import dataclass
from fractions import Fraction
import math

from . import groups
from .groups import F2, Z2, check_group
from .ring import PolyF, RingElement, kernel_convolution, kernel_convolutions


class ResidualNonzero(ValueError):
    """A window failed the X_f membership residual check."""


class WidthExceedsOne(ValueError):
    """An interval mod 1 is vacuous because its width reached 1."""


@dataclass
class Configuration:
    """Integer symbols on an explicit finite window, with a declared alphabet."""

    group: str
    values: dict
    alphabet: tuple

    def __post_init__(self):
        check_group(self.group)
        lo, hi = self.alphabet
        self.alphabet = (int(lo), int(hi))
        if lo > hi:
            raise ValueError("alphabet range is empty")
        for el, v in self.values.items():
            groups.check_element(self.group, el)
            if not isinstance(v, int) or not (lo <= v <= hi):
                raise ValueError(
                    f"value {v!r} at {groups.format_element(self.group, el) or '1'} "
                    f"outside alphabet [{lo}, {hi}]"
                )

    def as_ring(self):
        return RingElement(self.group, dict(self.values))

    def to_json_dict(self):
        order = sorted(self.values, key=lambda el: groups.sort_key(self.group, el))
        return {
            "group": self.group,
            "alphabet": [self.alphabet[0], self.alphabet[1]],
            "values": [
                {"w": groups.format_element(self.group, el), "v": self.values[el]}
                for el in order
            ],
        }

    @classmethod
    def from_json_dict(cls, data):
        """Inverse of to_json_dict; ValueError for any other shape."""
        try:
            group = data["group"]
            values = {groups.parse_element(group, entry["w"]): int(entry["v"])
                      for entry in data["values"]}
            lo, hi = data["alphabet"]
            return cls(group, values, (int(lo), int(hi)))
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError("malformed configuration document (%s: %s)"
                             % (type(exc).__name__, exc)) from exc


def _fraction_json(value):
    return {"num": str(value.numerator), "den": str(value.denominator)}


@dataclass(frozen=True)
class TorusValue:
    """A point of R/Z, either exact or enclosed in an interval of width < 1.

    Normalized so lo lies in [0, 1); hi = lo for exact values.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        lo = Fraction(self.lo)
        hi = Fraction(self.hi)
        if hi < lo:
            raise ValueError("empty torus interval")
        if hi - lo >= 1:
            raise WidthExceedsOne(f"interval width {hi - lo} is not below 1")
        shift = math.floor(lo)
        object.__setattr__(self, "lo", lo - shift)
        object.__setattr__(self, "hi", hi - shift)

    @classmethod
    def from_numerator(cls, n, den):
        """The exact value n/den mod 1 (den > 0), as one reduced Fraction
        without the renormalization round of __post_init__."""
        value = Fraction(n % den, den)
        out = object.__new__(cls)
        object.__setattr__(out, "lo", value)
        object.__setattr__(out, "hi", value)
        return out

    @property
    def is_exact(self):
        # exact values from from_numerator share one Fraction
        return self.lo is self.hi or self.lo == self.hi

    @property
    def value(self):
        if not self.is_exact:
            raise ValueError("torus value is an enclosure, not exact")
        return self.lo

    def contains(self, value):
        """Whether the real number `value` lies in the interval mod 1."""
        value = Fraction(value)
        n = math.ceil(self.lo - value)
        return value + n <= self.hi

    def to_json_dict(self):
        if self.is_exact:
            return _fraction_json(self.lo)
        return {"lo": _fraction_json(self.lo), "hi": _fraction_json(self.hi)}

    def __repr__(self):
        if self.is_exact:
            return f"TorusValue({self.lo})"
        return f"TorusValue([{self.lo}, {self.hi}])"


def _exact_coordinates(group, terms, window, M):
    """sum_t terms_t w(t^-1 s) mod 1 at every s of the window, exactly."""
    window = list(window)
    nums, E = kernel_convolution(PolyF(M, group), terms, window,
                                 star=True)
    den = M ** (E + 1)
    return {s: TorusValue.from_numerator(n, den) for s, n in zip(window, nums)}


def phi_exact(d, window, M):
    """Exact torus coordinates of phi(d) = pi(d . w) on the window.

    d is treated as zero outside its own window (finite support).
    """
    return _exact_coordinates(d.group, d.values, window, M)


def phi_windowed(d, eval_window, M):
    """Interval enclosures of phi at eval_window coordinates, valid for every
    extension of d beyond its window by alphabet-range symbols.

    Each coordinate is [exact + lo*tail_s, exact + hi*tail_s] where (lo, hi)
    is the alphabet range and tail_s is the exact kernel mass escaping the
    window at s: the full mass 1/(M-2) less phi of the window's indicator.
    """
    eval_window = list(eval_window)
    f = PolyF(M, d.group)
    (nums, inside), E = kernel_convolutions(
        f, [d.values, dict.fromkeys(d.values, 1)], eval_window, star=True)
    den = M ** (E + 1)
    full = f.full_inverse_l1
    alo, ahi = d.alphabet
    out = {}
    for s, n, m in zip(eval_window, nums, inside):
        exact = Fraction(n, den)
        tail = full - Fraction(m, den)
        out[s] = TorusValue(exact + alo * tail, exact + ahi * tail)
    return out


def _interior(x):
    """The group of a nonempty window x and its interior sites (t, ta, tb),
    those whose a- and b-successors are also in x, in the order of x."""
    group = F2 if isinstance(next(iter(x)), str) else Z2
    step = groups.steps(group, "ab")
    sites = [(t, *step(t)) for t in x]
    return group, [s for s in sites if s[1] in x and s[2] in x]


def xf_residual(x, M):
    """Residual M x_t - x_{ta} - x_{tb} mod 1 at every interior site of the
    window (sites whose a- and b-successors are also present).

    All-zero residuals certify consistency with X_f membership.
    """
    if not x:
        return {}
    lo = {t: v.lo if isinstance(v, TorusValue) else Fraction(v) for t, v in x.items()}
    hi = {t: v.hi if isinstance(v, TorusValue) else lo[t] for t, v in x.items()}
    return {t: TorusValue(M * lo[t] - hi[ta] - hi[tb],
                          M * hi[t] - lo[ta] - lo[tb])
            for t, ta, tb in _interior(x)[1]}


def four_cover_lift(x, M):
    """Lift an exact X_f window to symbols d_t = M v_t - v_{ta} - v_{tb} + 1
    over the alphabet {0, ..., M}, where v is the fractional representative
    in [0,1) of each coordinate.

    Defined on interior sites; raises ResidualNonzero if the window is not
    exactly consistent with the X_f constraint.
    """
    if not x:
        return None
    parts = {}  # (p, q) with p/q in [0, 1) the representative at each site
    for t, v in x.items():
        if isinstance(v, TorusValue) and not v.is_exact:
            raise ValueError("four_cover_lift needs exact coordinates")
        v = v.lo if isinstance(v, TorusValue) else Fraction(v)
        parts[t] = v.numerator % v.denominator, v.denominator
    group, interior = _interior(x)
    values = {}
    for t, ta, tb in interior:
        (pt, qt), (pa, qa), (pb, qb) = parts[t], parts[ta], parts[tb]
        num = M * pt * qa * qb - pa * qt * qb - pb * qt * qa
        den = qt * qa * qb
        d, rem = divmod(num, den)
        if rem:
            raise ResidualNonzero(
                f"residual {Fraction(num, den)} at "
                f"{groups.format_element(group, t) or '1'}")
        d += 1
        if not (0 <= d <= M):
            raise ResidualNonzero(f"lift symbol {d} escapes {{0,...,{M}}}")
        values[t] = d
    return Configuration(group, values, (0, M))


def homoclinic_point(g, window, M):
    """Exact coordinates of g . x_delta on the window, for integral g."""
    if not g.is_integral():
        raise ValueError("homoclinic points come from integral ring elements")
    return _exact_coordinates(
        g.group, {el: int(c) for el, c in g.terms.items()}, window, M)
