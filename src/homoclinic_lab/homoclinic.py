"""The homoclinic kernel w = (f*)^-1, the map phi(d) = pi(d . w), membership
residuals for X_f windows, and the 4-cover lift.

Coordinates of phi on finite-support inputs are exact rationals, computed as
integer numerators over one power of M (ring.kernel_convolution); windowed
inputs get rigorous interval enclosures whose tails come from the geometric
series of the kernel.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
import math

from . import groups
from .groups import F2, Z2, check_group
from .ring import PolyF, RingElement, kernel_convolution


class UnsupportedGroup(ValueError):
    """Only the free group f2 and z2 instances are implemented."""


class ResidualNonzero(ValueError):
    """A window failed the X_f membership residual check."""


class WidthExceedsOne(ValueError):
    """An interval mod 1 is vacuous because its width reached 1."""


@dataclass(frozen=True)
class Kernel:
    """Closed-form geometric-series inverse of f* for f = M - a - b.

    Coefficients are nonnegative, supported on the negative monoid, with
    value M^-(len+1) at each monoid word in the free group and binomial
    multiplicity in z2.  The full l1 norm is 1/(M-2).
    """

    M: int
    group: str
    truncation_radius: int

    @property
    def _poly(self):
        return PolyF.standard(self.M, self.group)

    def coefficient(self, el):
        """Exact coefficient at el; zero off the negative monoid."""
        return self._poly.inv_coeff(groups.inverse(self.group, el))

    def partial_l1(self, n=None):
        """l1 mass through word length n: (1 - (2/M)^(n+1)) / (M - 2)."""
        return self.full_l1 - self.tail_l1(n)

    def tail_l1(self, n=None):
        """l1 mass beyond word length n: (2/M)^(n+1) / (M - 2)."""
        if n is None:
            n = self.truncation_radius
        return self._poly.tail_l1_beyond(n)

    @property
    def full_l1(self):
        return self._poly.full_inverse_l1

    def truncated_ring(self):
        """The kernel restricted to its truncation radius, as a RingElement."""
        terms = {el: self.coefficient(el)
                 for el in groups.negative_monoid(self.group, self.truncation_radius)}
        return RingElement(self.group, terms)


def kernel(M, group=F2, radius=0):
    if group not in groups.GROUPS:
        raise UnsupportedGroup(f"no kernel for group {group!r}")
    if M < 3:
        raise ValueError("M must be at least 3")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return Kernel(M=M, group=group, truncation_radius=radius)


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

    def window(self):
        return set(self.values)

    def get(self, el, default=0):
        return self.values.get(el, default)

    def support(self):
        return sorted(
            (el for el, v in self.values.items() if v),
            key=lambda el: groups.sort_key(self.group, el),
        )

    def as_ring(self):
        return RingElement(self.group, dict(self.values))

    def copy(self):
        return Configuration(self.group, dict(self.values), self.alphabet)

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
        group = data["group"]
        values = {
            groups.parse_element(group, entry["w"]): int(entry["v"])
            for entry in data["values"]
        }
        lo, hi = data["alphabet"]
        return cls(group, values, (int(lo), int(hi)))


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
    def exact(cls, value):
        value = Fraction(value)
        return cls(value, value)

    @classmethod
    def enclosure(cls, lo, hi):
        return cls(lo, hi)

    @property
    def is_exact(self):
        return self.lo == self.hi

    @property
    def value(self):
        if not self.is_exact:
            raise ValueError("torus value is an enclosure, not exact")
        return self.lo

    @property
    def width(self):
        return self.hi - self.lo

    def contains(self, value):
        """Whether the real number `value` lies in the interval mod 1."""
        value = Fraction(value)
        n = math.ceil(self.lo - value)
        return value + n <= self.hi

    def contains_torus(self, other):
        """Whether `other`'s interval fits inside this one mod 1."""
        n = math.ceil(self.lo - other.lo)
        return other.lo + n >= self.lo and other.hi + n <= self.hi

    def to_json_dict(self):
        if self.is_exact:
            return _fraction_json(self.lo)
        return {"lo": _fraction_json(self.lo), "hi": _fraction_json(self.hi)}

    def __repr__(self):
        if self.is_exact:
            return f"TorusValue({self.lo})"
        return f"TorusValue([{self.lo}, {self.hi}])"


def _phi_numerators(d, window, M):
    """Integer numerators of phi(d) = d . w on the window, over M^(E+1)."""
    f = PolyF.standard(M, d.group)
    window = list(window)
    nums, E = kernel_convolution(f, d.values, window, star=True)
    return window, nums, M ** (E + 1)


def phi_exact(d, window, M):
    """Exact torus coordinates of phi(d) = pi(d . w) on the window.

    d is treated as zero outside its own window (finite support).
    """
    window, nums, den = _phi_numerators(d, window, M)
    return {s: TorusValue.exact(Fraction(n, den)) for s, n in zip(window, nums)}


def _cone_tail(group, s, window, M, max_len):
    """Exact kernel mass sum_t K(t^-1 s) over sites t = s.v (v positive)
    lying outside the window.

    Sites at monoid depth beyond limit = max_len + |s| have word length
    > max_len, so they are all outside: the 2^(limit+1) subtrees rooted at
    depth limit+1 contribute the closed form M^-(limit+1) / (M-2) each.
    Shallower sites are counted level by level, with multiplicity (the
    number of monoid words reaching a z2 site), as integers.
    """
    limit = max_len + groups.word_length(group, s)
    num = 0  # sum over depths d <= limit of outside(d) * M^(limit-d)
    for level in islice(groups.cone_levels(group, s), limit + 1):
        num = num * M + sum(n for t, n in level.items() if t not in window)
    return Fraction((M - 2) * num + 2 ** (limit + 1), (M - 2) * M ** (limit + 1))


def phi_windowed(d, eval_window, M):
    """Interval enclosures of phi at eval_window coordinates, valid for every
    extension of d beyond its window by alphabet-range symbols.

    Each coordinate is [exact + lo*tail_s, exact + hi*tail_s] where tail_s is
    the exact kernel mass escaping the window at that coordinate and (lo, hi)
    is the alphabet range.
    """
    group = d.group
    eval_window, nums, den = _phi_numerators(d, eval_window, M)
    window = d.window()
    max_len = max((groups.word_length(group, el) for el in window), default=-1)
    alo, ahi = d.alphabet
    out = {}
    for s, n in zip(eval_window, nums):
        exact = Fraction(n, den)
        tail = _cone_tail(group, s, window, M, max_len)
        out[s] = TorusValue.enclosure(exact + alo * tail, exact + ahi * tail)
    return out


def _as_torus(value):
    if isinstance(value, TorusValue):
        return value
    return TorusValue.exact(value)


def xf_residual(x, M):
    """Residual M x_t - x_{ta} - x_{tb} mod 1 at every interior site of the
    window (sites whose a- and b-successors are also present).

    All-zero residuals certify consistency with X_f membership.
    """
    if not x:
        return {}
    some_key = next(iter(x))
    group = F2 if isinstance(some_key, str) else Z2
    a, b = groups.generators(group)
    out = {}
    for t, xt in x.items():
        ta = groups.multiply(group, t, a)
        tb = groups.multiply(group, t, b)
        if ta in x and tb in x:
            vt, va, vb = _as_torus(xt), _as_torus(x[ta]), _as_torus(x[tb])
            lo = M * vt.lo - va.hi - vb.hi
            hi = M * vt.hi - va.lo - vb.lo
            out[t] = TorusValue.enclosure(lo, hi)
    return out


def four_cover_lift(x, M):
    """Lift an exact X_f window to symbols d_t = M v_t - v_{ta} - v_{tb} + 1
    over the alphabet {0, ..., M}, where v is the fractional representative
    in [0,1) of each coordinate.

    Defined on interior sites; raises ResidualNonzero if the window is not
    exactly consistent with the X_f constraint.
    """
    if not x:
        return None
    some_key = next(iter(x))
    group = F2 if isinstance(some_key, str) else Z2
    a, b = groups.generators(group)
    values = {}
    for t, xt in x.items():
        xt = _as_torus(xt)
        if not xt.is_exact:
            raise ValueError("four_cover_lift needs exact coordinates")
        ta = groups.multiply(group, t, a)
        tb = groups.multiply(group, t, b)
        if ta in x and tb in x:
            raw = M * xt.value - _as_torus(x[ta]).value - _as_torus(x[tb]).value + 1
            if raw.denominator != 1:
                raise ResidualNonzero(
                    f"residual {raw - 1} at {groups.format_element(group, t) or '1'}"
                )
            d = int(raw)
            if not (0 <= d <= M):
                raise ResidualNonzero(f"lift symbol {d} escapes {{0,...,{M}}}")
            values[t] = d
    return Configuration(group, values, (0, M))


def homoclinic_point(g, window, M):
    """Exact coordinates of g . x_delta on the window, for integral g."""
    if not g.is_integral():
        raise ValueError("homoclinic points come from integral ring elements")
    d = Configuration(
        group=g.group,
        values={el: int(c) for el, c in g.terms.items()},
        alphabet=(
            min((int(c) for c in g.terms.values()), default=0),
            max((int(c) for c in g.terms.values()), default=0),
        ),
    )
    return phi_exact(d, window, M)
