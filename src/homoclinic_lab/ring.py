"""Exact rational group-ring arithmetic and division by lopsided elements.

RingElement is a finitely supported map from group elements to Fractions
with convolution and the star involution.  PolyF represents the lopsided
elements f = M - sum_s f_s s (every support element of the lower part has
height >= 1 and M exceeds the lower mass), whose inverse 1/f is given by the
geometric series sum_k (h/M)^k / M.  Because the lower part raises height by
at least 1, each coordinate of 1/f is a finite exact sum, and an integer over
M^(height+1).  kernel_convolution uses this to compute every convolution of
an integer window with 1/f or 1/f* as integer numerators over one power of
M; Fractions are built only by its callers, at their document boundary.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import math

from . import groups
from .groups import F2, Z2, GroupMismatch, WindowTooLarge, check_group

_WINDOW_GUARD = 2_000_000


class NotDivisible(Exception):
    """g is not in the left ideal ZGamma*f.

    Carries a witness: a minimal-height coordinate of g/f that is not an
    integer.  Its fractional part is always k/M for some 1 <= k <= M-1,
    because all strictly lower levels of the quotient are integral.
    """

    def __init__(self, group, site, value):
        self.group = group
        self.site = site
        self.value = value
        shown = groups.format_element(group, site) or "1"
        super().__init__(f"not divisible: quotient coordinate at {shown} is {value}")


class RingElement:
    """Finitely supported map group -> Fraction, with convolution product."""

    __slots__ = ("group", "terms")

    def __init__(self, group, terms=None):
        check_group(group)
        self.group = group
        clean = {}
        if terms:
            for el, c in terms.items():
                groups.check_element(group, el)
                c = Fraction(c)
                if c:
                    clean[el] = c
        self.terms = clean

    @classmethod
    def zero(cls, group):
        return cls(group)

    @classmethod
    def one(cls, group):
        return cls(group, {groups.identity(group): 1})

    @classmethod
    def delta(cls, group, el, coeff=1):
        return cls(group, {el: coeff})

    def coefficient(self, el):
        return self.terms.get(el, Fraction(0))

    def support(self):
        return sorted(self.terms, key=lambda el: groups.sort_key(self.group, el))

    def items(self):
        return [(el, self.terms[el]) for el in self.support()]

    def is_zero(self):
        return not self.terms

    def is_integral(self):
        return all(c.denominator == 1 for c in self.terms.values())

    def l1(self):
        return sum((abs(c) for c in self.terms.values()), Fraction(0))

    def max_word_length(self):
        if not self.terms:
            return 0
        return max(groups.word_length(self.group, el) for el in self.terms)

    def _require_same_group(self, other):
        if self.group != other.group:
            raise GroupMismatch(
                f"cannot combine {self.group} and {other.group} ring elements"
            )

    def __eq__(self, other):
        if isinstance(other, RingElement):
            return self.group == other.group and self.terms == other.terms
        return NotImplemented

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        self._require_same_group(other)
        out = dict(self.terms)
        for el, c in other.terms.items():
            out[el] = out.get(el, Fraction(0)) + c
        return RingElement(self.group, out)

    def __sub__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return RingElement(self.group, {el: -c for el, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, RingElement):
            self._require_same_group(other)
            out = {}
            for t, ct in self.terms.items():
                for u, cu in other.terms.items():
                    key = groups.multiply(self.group, t, u)
                    out[key] = out.get(key, Fraction(0)) + ct * cu
            return RingElement(self.group, out)
        if isinstance(other, (int, Fraction)):
            return RingElement(
                self.group, {el: c * other for el, c in self.terms.items()}
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def star(self):
        """The involution g* = sum_s g_s s^{-1}."""
        return RingElement(
            self.group,
            {groups.inverse(self.group, el): c for el, c in self.terms.items()},
        )

    def pretty(self):
        if not self.terms:
            return "0"
        parts = []
        for el, c in self.items():
            word = groups.format_element(self.group, el)
            mag = abs(c)
            if not word:
                body = str(mag)
            elif mag == 1:
                body = word
            elif mag.denominator == 1:
                body = f"{mag}{word}"
            else:
                body = f"({mag}){word}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"<RingElement {self.group}: {self.pretty()}>"

    def to_json_dict(self):
        return {
            "group": self.group,
            "terms": [
                {
                    "w": groups.format_element(self.group, el),
                    "num": str(c.numerator),
                    "den": str(c.denominator),
                }
                for el, c in self.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, data):
        group = data["group"]
        terms = {}
        for entry in data["terms"]:
            el = groups.parse_element(group, entry["w"])
            num = int(entry["num"])
            den = int(entry.get("den", 1))
            terms[el] = terms.get(el, Fraction(0)) + Fraction(num, den)
        return cls(group, terms)


@dataclass(frozen=True)
class PolyF:
    """A lopsided element f = M - sum f_s s with M > sum f_s and height(s) >= 1."""

    M: int
    group: str
    lower: tuple  # ((element, positive int coefficient), ...) sorted

    def __post_init__(self):
        check_group(self.group)
        if not isinstance(self.M, int) or self.M < 3:
            raise ValueError("M must be an integer >= 3")
        total = 0
        for el, c in self.lower:
            groups.check_element(self.group, el)
            if not isinstance(c, int) or c <= 0:
                raise ValueError("lower-part coefficients must be positive integers")
            if groups.height(self.group, el) < 1:
                raise ValueError("lower-part support must have height >= 1")
            total += c
        if not self.lower:
            raise ValueError("lower part must be nonempty")
        if self.M <= total:
            raise ValueError("not lopsided: M must exceed the lower-part mass")

    @classmethod
    def standard(cls, M, group=F2):
        a, b = groups.generators(group)
        return cls(M=int(M), group=group, lower=((a, 1), (b, 1)))

    @classmethod
    def lopsided(cls, M, group, terms):
        items = sorted(
            ((el, int(c)) for el, c in dict(terms).items()),
            key=lambda pair: groups.sort_key(group, pair[0]),
        )
        return cls(M=int(M), group=group, lower=tuple(items))

    @property
    def is_standard(self):
        a, b = groups.generators(self.group)
        return self.lower in (((a, 1), (b, 1)), ((b, 1), (a, 1)))

    def as_ring(self):
        terms = {groups.identity(self.group): Fraction(self.M)}
        for el, c in self.lower:
            terms[el] = terms.get(el, Fraction(0)) - c
        return RingElement(self.group, terms)

    def star_ring(self):
        return self.as_ring().star()

    @property
    def lower_mass(self):
        return sum(c for _, c in self.lower)

    @property
    def ratio(self):
        return Fraction(self.lower_mass, self.M)

    @property
    def max_height(self):
        return max(groups.height(self.group, el) for el, _ in self.lower)

    @property
    def max_word_len(self):
        return max(groups.word_length(self.group, el) for el, _ in self.lower)

    def tail_l1_beyond(self, n):
        """Exact upper bound on the l1 mass of 1/f at word lengths > n.

        Terms of the series (h/M)^k / M have word length <= k * max_word_len,
        so lengths beyond n only arise from k >= floor(n / max_word_len) + 1.
        For the standard f this is the exact tail (2/M)^(n+1) / (M-2).
        """
        k0 = max(n // self.max_word_len + 1, 0)
        r = self.ratio
        return r**k0 / (self.M * (1 - r))

    @property
    def full_inverse_l1(self):
        """l1 norm of 1/f: 1/(M - lower mass); 1/(M-2) for the standard f."""
        return Fraction(1, self.M - self.lower_mass)

    def inv_coeff(self, el):
        """Exact coefficient of 1/f at el (a finite sum of series terms)."""
        groups.check_element(self.group, el)
        h = groups.height(self.group, el)
        if h < 0:
            return Fraction(0)
        return Fraction(_scaled_inverse(self, h, False)(el), self.M ** (h + 1))


@lru_cache(maxsize=64)
def _inverse_table(poly, max_height):
    """Coefficients of 1/f at every element of height <= max_height, each as
    the integer N(u) with (1/f)_u = N(u) / M^(height(u)+1).

    (h^k)_u = 0 once k > height(u), so summing the first max_height+1 powers
    makes every recorded coordinate exact, and the k-th power term
    (h^k)_u / M^(k+1) is an integer over M^(height(u)+1).
    """
    group = poly.group
    lower = RingElement(group, {el: c for el, c in poly.lower})
    acc = {}
    power = RingElement.one(group)
    for k in range(max_height + 1):
        for el, c in power.terms.items():
            h = groups.height(group, el)
            if h <= max_height:
                acc[el] = acc.get(el, 0) + int(c) * poly.M ** (h - k)
        if k < max_height:
            power = power * lower
    return acc


def _scaled_inverse(f, E, star):
    """u -> M^(E+1) K(u) as an int, where K = 1/f, or its star
    K*(u) = K(u^-1) = the coefficient of 1/f* at u when star is set.

    Valid for every u with height(u) <= E (-height(u) <= E for the star);
    word length <= E suffices.  No validation (inner loops).
    For the standard f the coefficient is 1 (f2) or comb(i+j, i) (z2) over
    M^(height+1); otherwise it comes from the inverse table.
    """
    M = f.M
    pw = [M**k for k in range(E + 1)]
    if f.is_standard and f.group == F2:
        letters = "AB" if star else "ab"
        return lambda u: 0 if u.strip(letters) else pw[E - len(u)]
    if f.is_standard:
        sign = -1 if star else 1

        def standard_z2(u):
            i, j = sign * u[0], sign * u[1]
            if i < 0 or j < 0:
                return 0
            return math.comb(i + j, i) * pw[E - i - j]
        return standard_z2

    table = _inverse_table(f, E)

    def from_table(u):
        if star:
            u = groups.inverse(f.group, u)
        n = table.get(u)
        return n * pw[E - groups.height(f.group, u)] if n else 0
    return from_table


def check_window(group, window):
    """The window as a list, within the size guard and of group elements."""
    window = list(window)
    if len(window) > _WINDOW_GUARD:
        raise WindowTooLarge(f"window of {len(window)} elements exceeds the guard")
    for s in window:
        groups.check_element(group, s)
    return window


def kernel_convolution(f, terms, window, star=False):
    """Exact sum_t g_t K(t^-1 s) at every s of the window, as integers over
    one power of M.

    K is 1/f, or 1/f* (the homoclinic kernel of phi) when star is set;
    terms maps t to the integer g_t.  Every coefficient of K at u is an
    integer over M^(height(u)+1), and height(t^-1 s) <= |t| + |s| <= E with
    E = max |t| + max |s|, so each sum is an integer over M^(E+1).  Returns
    (numerators in window order, E).  Window elements and terms are
    validated once here; the double loop runs unchecked.
    """
    group = f.group
    window = check_window(group, window)
    items = []
    for t, c in terms.items():
        groups.check_element(group, t)
        if not isinstance(c, int):
            raise TypeError(f"convolution coefficients must be ints, got {c!r}")
        if c:
            items.append((t, c))
    E = max((groups.word_length(group, t) for t, _ in items), default=0)
    E += max((groups.word_length(group, s) for s in window), default=0)
    kern = _scaled_inverse(f, E, star)
    if group == F2:
        mul = groups.f2_multiply
    else:
        def mul(g, h):
            return (g[0] + h[0], g[1] + h[1])
    inv_items = [(groups.inverse(group, t), c) for t, c in items]
    nums = [sum(c * kern(mul(t_inv, s)) for t_inv, c in inv_items)
            for s in window]
    return nums, E


def quotient_coordinates(g, f, window):
    """Exact coordinates of g/f = g * (1/f) on the window."""
    if not isinstance(g, RingElement):
        raise TypeError("g must be a RingElement")
    if not isinstance(f, PolyF):
        raise TypeError("f must be a PolyF")
    if g.group != f.group:
        raise GroupMismatch(f"{g.group} element divided by {f.group} polynomial")
    window = list(window)
    # a non-integral g is scaled to integers and divided back at the end
    scale = math.lcm(*(c.denominator for c in g.terms.values()))
    terms = {t: int(c * scale) for t, c in g.terms.items()}
    nums, E = kernel_convolution(f, terms, window)
    den = scale * f.M ** (E + 1)
    return {s: Fraction(n, den) for s, n in zip(window, nums)}


def divide_by_f(g, f, max_levels=100_000):
    """Divide g by f in the integral group ring.

    Returns the unique finitely supported h with h*f = g when g lies in
    ZGamma*f, and raises NotDivisible with a minimal-height witness
    coordinate of g/f otherwise.

    Writing g_s = M x_s - sum_u f_u x_{s u^{-1}} and noting every u in the
    lower part has height >= 1, the level of x at height k is determined by
    strictly lower levels, starting from the minimal height of g.  Once past
    the top height of g, level masses contract by ratio < 1 per block of
    max_height levels, and an all-integral level of l1 mass < 1 is zero; a
    run of max_height zero levels therefore terminates the recursion.
    """
    if not isinstance(f, PolyF):
        raise TypeError("f must be a PolyF")
    if g.group != f.group:
        raise GroupMismatch(f"{g.group} element divided by {f.group} polynomial")
    if not g.is_integral():
        raise ValueError("dividend must have integer coefficients")
    group = g.group
    if g.is_zero():
        return RingElement.zero(group)

    M = f.M
    lower = [
        (u, c, groups.inverse(group, u), groups.height(group, u)) for u, c in f.lower
    ]
    span = f.max_height

    g_levels = {}
    for el, c in g.terms.items():
        g_levels.setdefault(groups.height(group, el), {})[el] = c
    k_min = min(g_levels)
    k_max = max(g_levels)

    levels = {}
    zero_run = 0
    peak = Fraction(1)
    k = k_min
    while True:
        sites = set(g_levels.get(k, ()))
        for u, _, _, hu in lower:
            for t in levels.get(k - hu, ()):
                sites.add(groups.multiply(group, t, u))
        current = {}
        bad = []
        g_here = g_levels.get(k, {})
        for s in sites:
            total = Fraction(g_here.get(s, 0))
            for _, c, u_inv, hu in lower:
                prev = levels.get(k - hu)
                if prev:
                    t = groups.multiply(group, s, u_inv)
                    if t in prev:
                        total += c * prev[t]
            value = total / M
            if value:
                current[s] = value
                if value.denominator != 1:
                    bad.append(s)
        if bad:
            s0 = min(bad, key=lambda el: groups.sort_key(group, el))
            raise NotDivisible(group, s0, current[s0])
        if current:
            levels[k] = current
            zero_run = 0
            peak = max(peak, sum(abs(c) for c in current.values()))
        else:
            zero_run += 1
            if zero_run >= span and k >= k_max:
                break
        k += 1
        if k - k_min > max_levels:
            raise RuntimeError("division level recursion exceeded the level cap")
        if k > k_max:
            # geometric decay cap: beyond k_max an all-integral nonzero level
            # has l1 >= 1, but masses contract by ratio per span levels
            blocks = math.log(float(peak)) / -math.log(float(f.ratio)) + 3
            if k > k_max + span * int(blocks + 1):
                raise RuntimeError("division failed to terminate within its decay cap")

    quotient = {}
    for level in levels.values():
        quotient.update(level)
    result = RingElement(group, quotient)
    if result * f.as_ring() != g:
        raise RuntimeError("internal error: quotient times f does not reproduce g")
    return result


_TOKEN_SYMBOLS = set("+-*()")


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
        elif ch in groups.LETTERS:
            tokens.append(("letter", ch))
            i += 1
        elif ch in _TOKEN_SYMBOLS:
            tokens.append((ch, ch))
            i += 1
        else:
            raise ValueError(f"unexpected character {ch!r} in ring expression")
    return tokens


_Z2_LETTER = {"a": (1, 0), "b": (0, 1), "A": (-1, 0), "B": (0, -1)}


class _ExprParser:
    def __init__(self, tokens, group):
        self.tokens = tokens
        self.pos = 0
        self.group = group

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self):
        if self.pos >= len(self.tokens):
            raise ValueError("ring expression ends unexpectedly")
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def parse_expr(self):
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
        result = self.parse_term() * sign
        while self.peek() in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
            result = result + self.parse_term() * sign
        return result

    def parse_term(self):
        result = self.parse_factor()
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.take()
                result = result * self.parse_factor()
            elif nxt in ("int", "letter", "("):
                result = result * self.parse_factor()
            else:
                return result

    def parse_factor(self):
        kind, value = self.take()
        if kind == "int":
            return RingElement.one(self.group) * value
        if kind == "letter":
            el = value if self.group == F2 else _Z2_LETTER[value]
            return RingElement.delta(self.group, el)
        if kind == "(":
            inner = self.parse_expr()
            if self.peek() != ")":
                raise ValueError("unbalanced parenthesis in ring expression")
            self.take()
            return inner
        raise ValueError(f"unexpected token {value!r} in ring expression")


def parse_ring_element(text, group=F2):
    """Parse expressions like "3 - a - b", "(1+a)*(3-a-b)", "2aB"."""
    check_group(group)
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty ring expression")
    parser = _ExprParser(tokens, group)
    result = parser.parse_expr()
    if parser.pos != len(tokens):
        raise ValueError("trailing input in ring expression")
    return result
