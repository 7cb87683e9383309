"""Exact rational group-ring arithmetic and division by f = M - a - b.

RingElement is a finitely supported map from group elements to Fractions
with convolution and the star involution.  PolyF is f = M - a - b (M >= 3),
whose inverse 1/f is the geometric series sum_k ((a + b)/M)^k / M; each
coordinate of 1/f at u is an integer over M^(height(u)+1).
kernel_convolution computes every convolution of an integer window with 1/f
or 1/f* from the one identity x . f = g (x . f* = g for the star), solved
site by site as integer numerators over one power of M; Fractions are built
only by its callers, at their document boundary.  divide_by_f reads the
same identity level by level over the whole support.
"""

from dataclasses import dataclass
from fractions import Fraction
import math

from . import groups
from .groups import F2, GroupMismatch, WindowTooLarge, check_group


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
    def one(cls, group):
        return cls(group, {groups.identity(group): 1})

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


@dataclass(frozen=True)
class PolyF:
    """The element f = M - a - b of the integral group ring, M >= 3."""

    M: int
    group: str

    def __post_init__(self):
        check_group(self.group)
        if not isinstance(self.M, int) or self.M < 3:
            raise ValueError("M must be an integer >= 3")

    @classmethod
    def standard(cls, M, group=F2):
        """PolyF(M, group) under a second name, kept for the benchmark's
        workloads (perfbench/workloads.py), which call it; src/ calls
        PolyF(M, group)."""
        return cls(M, group)

    def as_ring(self):
        a, b = groups.generators(self.group)
        return RingElement(self.group, {groups.identity(self.group): self.M,
                                        a: -1, b: -1})

    def star_ring(self):
        return self.as_ring().star()

    def tail_l1_beyond(self, n):
        """Exact l1 mass of 1/f at word lengths > n: the series term
        ((a + b)/M)^k / M lies at word length k and has mass (2/M)^k / M,
        so the tail is (2/M)^(n+1) / (M-2), the full mass for n < 0."""
        return Fraction(2, self.M) ** max(n + 1, 0) / (self.M - 2)

    @property
    def full_inverse_l1(self):
        """l1 norm of 1/f: 1/(M-2)."""
        return Fraction(1, self.M - 2)

    def inv_coeff(self, el):
        """Exact coefficient of 1/f at el."""
        [n], E = kernel_convolution(self, {groups.identity(self.group): 1}, [el])
        return Fraction(n, self.M ** (E + 1))


def _pull(group, terms, star):
    """The walk of kernel_convolution's recurrence, unchecked:
    (length, height, step, live).

    step(u) gives the two sites u x, u y that x_u is pulled from (x, y = a, b
    for 1/f*, one level above u; A, B for 1/f, one level below); live(u) is
    False where x_u is known to vanish, off supp(g).{x^-1, y^-1}*.
    """
    step = groups.steps(group, "ab" if star else "AB")
    if group == F2:
        tail = "AB" if star else "ab"
        # u = t.v for some v over the tail letters only if u.rstrip(tail)
        # is a prefix of t.rstrip(tail); a prefix already in heads brings
        # all of its own
        heads = set()
        for t in terms:
            head = t.rstrip(tail)
            while head not in heads:
                heads.add(head)
                head = head[:-1]

        def height(u):
            return len(u) - 2 * (u.count("A") + u.count("B"))

        def live(u):
            return u.rstrip(tail) in heads
        return len, height, step, live
    # on z2 x vanishes outside the support's bounding corner
    sign = 1 if star else -1
    top_i = max((sign * t[0] for t in terms), default=-math.inf)
    top_j = max((sign * t[1] for t in terms), default=-math.inf)

    def length(u):
        return abs(u[0]) + abs(u[1])

    def height(u):
        return u[0] + u[1]

    def live(u):
        return sign * u[0] <= top_i and sign * u[1] <= top_j
    return length, height, step, live


def kernel_convolution(f, terms, window, star=False):
    """Exact sum_t g_t K(t^-1 s) at every s of the window, as integers over
    one power of M.

    K is 1/f, or 1/f* (the homoclinic kernel of phi) when star is set;
    terms maps t to the integer g_t.  x = g . K solves x . f = g, that is
    M x_u = g_u + x_{uA} + x_{uB} (x_{ua}, x_{ub} for the star).  Each
    coefficient of 1/f at v is an integer over M^(height(v)+1), and at a
    site u reached from a window site s by these steps, x_u reads 1/f only
    at heights <= |t| + |s| <= E, with E = max |t| + max |s|.  So
    N_u = M^(E+1) x_u is an integer, and N_u = (g_u M^(E+1) + N_{u x} +
    N_{u y}) / M divides exactly.
    The reached sites are solved once each, by height.  Returns (numerators
    in window order, E).  Window elements and terms are validated once
    here; the recurrence runs unchecked.
    """
    [nums], E = kernel_convolutions(f, [terms], window, star)
    return nums, E


def kernel_convolutions(f, term_maps, window, star=False):
    """kernel_convolution for several term maps over one window: one
    validation and one walk of the sites reached from the union of their
    supports, then the recurrence once per map.  Returns (one numerator
    list per map, E), all over the one power M^(E+1), E taken over the
    union of the supports."""
    group = f.group
    window = list(window)
    if len(window) > groups.MAX_ELEMENTS:
        raise WindowTooLarge(f"window of {len(window)} elements exceeds the guard")
    for s in window:
        groups.check_element(group, s)
    checked = set()
    item_maps = []
    for terms in term_maps:
        items = {}
        for t, c in terms.items():
            if t not in checked:
                groups.check_element(group, t)
                checked.add(t)
            if not isinstance(c, int):
                raise TypeError(f"convolution coefficients must be ints, got {c!r}")
            if c:
                items[t] = c
        item_maps.append(items)
    support = {t: None for items in item_maps for t in items}
    length, height, step, live = _pull(group, support, star)
    E = max(map(length, support), default=0) + max(map(length, window), default=0)
    M, scale = f.M, f.M ** (E + 1)
    successors = {}
    todo = list(window)
    while todo:
        u = todo.pop()
        if u not in successors and live(u):
            successors[u] = step(u)
            todo.extend(successors[u])
    order = sorted(successors, key=height, reverse=star)
    out = []
    for items in item_maps:
        nums = {}
        for u in order:
            ux, uy = successors[u]
            nums[u] = (items.get(u, 0) * scale + nums.get(ux, 0)
                       + nums.get(uy, 0)) // M
        out.append([nums.get(s, 0) for s in window])
    return out, E


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


def divide_by_f(g, f):
    """Divide g by f in the integral group ring.

    Returns the unique finitely supported h with h*f = g when g lies in
    ZGamma*f, and raises NotDivisible with a minimal-height witness
    coordinate of g/f otherwise.

    Writing g_s = M x_s - x_{sA} - x_{sB}, the level of x at height k is
    determined by level k-1, starting from the minimal height of g.  Once
    past the top height of g, level masses contract by 2/M per level, and
    an all-integral level of l1 mass < 1 is zero; a zero level past the top
    height therefore ends the recursion.
    """
    if not isinstance(f, PolyF):
        raise TypeError("f must be a PolyF")
    if g.group != f.group:
        raise GroupMismatch(f"{g.group} element divided by {f.group} polynomial")
    if not g.is_integral():
        raise ValueError("dividend must have integer coefficients")
    group = g.group
    if g.is_zero():
        return RingElement(group)

    M = f.M
    step = groups.steps(group, "ab")
    g_levels = {}
    for el, c in g.terms.items():
        g_levels.setdefault(groups.height(group, el), {})[el] = int(c)
    k_min = min(g_levels)
    k_max = max(g_levels)

    quotient = {}
    prev = {}
    peak = 1
    k = k_min
    while True:
        # M x_s = g_s + x_{sA} + x_{sB}: push level k-1 along a and b
        totals = dict(g_levels.get(k, {}))
        for t, x in prev.items():
            for s in step(t):
                totals[s] = totals.get(s, 0) + x
        bad = [s for s, total in totals.items() if total % M]
        if bad:
            s0 = min(bad, key=lambda el: groups.sort_key(group, el))
            raise NotDivisible(group, s0, Fraction(totals[s0], M))
        current = {s: total // M for s, total in totals.items() if total}
        if current:
            quotient.update(current)
            peak = max(peak, sum(map(abs, current.values())))
        elif k >= k_max:
            break
        prev = current
        k += 1
        if k > k_max:
            # geometric decay cap: beyond k_max an all-integral nonzero level
            # has l1 >= 1, but masses contract by 2/M per level
            levels = math.log(peak) / -math.log(2 / M) + 3
            if k > k_max + int(levels + 1):
                raise RuntimeError("division failed to terminate within its decay cap")

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
            el = value if self.group == F2 else groups._Z2_STEP[value]
            return RingElement(self.group, {el: 1})
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
