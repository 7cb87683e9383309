"""Symbolic-dynamics machinery: one toppling loop behind the reduction
process and the carry/addition machine, the tree and cylinder combinatorics
of the carry cascades, the allowed SFT patterns, and the percolation
analysis behind the injectivity bound.

Trees are finite sets of words over the inverse generators A, B closed under
initial subwords; they index the carry cascades of the addition machine.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import heapq
import math

from . import groups
from .groups import F2
from .homoclinic import Configuration
from .ring import RingElement


class ValueOutOfRange(ValueError):
    """A configuration value violates the declared symbol range."""


class BoundaryOverflow(RuntimeError):
    """A carry tried to leave the stored window."""

    def __init__(self, site):
        self.site = site
        super().__init__(f"carry left the window at {site!r}")


class ConstraintViolated(ValueError):
    """A configuration breaks the SFT pattern constraints on its window."""


@dataclass(frozen=True)
class Tree:
    """A finite set of words over {A, B} closed under initial subwords."""

    nodes: frozenset

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        for w in self.nodes:
            if any(c not in "AB" for c in w):
                raise ValueError(f"tree node {w!r} is not a word over A, B")
            if w and w[:-1] not in self.nodes:
                raise ValueError(f"tree is not initial-subword-closed at {w!r}")

    @property
    def size(self):
        return len(self.nodes)

    def closure(self):
        """T-bar = T together with both children of every node; {""} for T empty."""
        if not self.nodes:
            return frozenset({""})
        out = set(self.nodes)
        for w in self.nodes:
            out.add(w + "A")
            out.add(w + "B")
        return frozenset(out)

    def boundary(self):
        return self.closure() - self.nodes

    def sorted_words(self):
        return sorted(self.nodes, key=lambda w: groups.sort_key(F2, w))


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def _tree_sets(n):
    if n == 0:
        return (frozenset(),)
    out = []
    for left in range(n):
        for ta in _tree_sets(left):
            for tb in _tree_sets(n - 1 - left):
                nodes = {""}
                nodes.update("A" + w for w in ta)
                nodes.update("B" + w for w in tb)
                out.append(frozenset(nodes))
    return tuple(out)


# catalan(12) = 208,012 trees; the next size has 742,900
_TREE_CAP = 12


def enumerate_trees(n):
    """All trees with exactly n nodes; there are catalan(n) of them."""
    if n < 0:
        raise ValueError("tree size must be nonnegative")
    if n > _TREE_CAP:
        raise ValueError(
            f"tree size {n} exceeds the enumeration cap {_TREE_CAP}")
    return [Tree(nodes) for nodes in _tree_sets(n)]


def partition_mass(n_max, M=3):
    """Sum over tree sizes n <= n_max of C_n (M-1)^(n+1) M^-(2n+1).

    This is the total measure of all cylinders E_{T, omega} with |T| <=
    n_max: value M-1 on T and sub-maximal values omega on its n+1 boundary
    sites fix all 2n+1 sites of T-bar, so each cylinder has measure
    M^-(2n+1), and there are C_n trees and (M-1)^(n+1) choices of omega.
    The full series sums to 1.
    """
    total = Fraction(0)
    for n in range(n_max + 1):
        total += catalan(n) * (M - 1) ** (n + 1) * Fraction(1, M ** (2 * n + 1))
    return total


def partition_mass_limit(M=3):
    """The full series of partition_mass, exactly, from the Catalan
    generating function C(x) = (1 - sqrt(1 - 4x)) / (2x) at x = (M-1)/M^2.

    There 1 - 4x = ((M-2)/M)^2 has the rational square root (M-2)/M, so the
    limit ((M-1)/M) C(x) is an exact Fraction; it is 1 for every M >= 3.
    """
    x = Fraction(M - 1, M * M)
    root = Fraction(M - 2, M)
    return Fraction(M - 1, M) * (1 - root) / (2 * x)


def allowed_patterns(M, bound):
    """The frozenset of local SFT patterns (k, l, m) = (c_s, c_sa, c_sb) in
    [-bound, bound]^3 allowed by |M k - l - m| <= M - 1."""
    if M < 3:
        raise ValueError("M must be at least 3")
    rng = range(-bound, bound + 1)
    return frozenset(
        (k, l, m)
        for k in rng
        for l in rng
        for m in rng
        if abs(M * k - l - m) <= M - 1
    )


def pattern_completions(allowed, k):
    """All allowed triples with the given first entry, sorted."""
    return sorted(triple for triple in allowed if triple[0] == k)


@dataclass
class CarryResult:
    """A reduced configuration plus the exact carry bookkeeping.

    The defining identity is output - input = -carry * f' on all of the
    group, where f' = (M - a - b)* and output includes the spill values that
    landed outside the window.
    """

    config: Configuration
    carry: RingElement
    spill: dict


def _check_values(d, lo, hi):
    for el, v in d.values.items():
        if not (lo <= v <= hi):
            raise ValueOutOfRange(
                f"value {v} at {groups.format_element(d.group, el) or '1'} "
                f"outside {{{lo},...,{hi}}}"
            )


def _topple(group, work, M, start):
    """Fire window sites holding M or more until none does.

    A firing site loses M and each inverse-generator neighbor gains 1.
    The start sites are checked first and sites pop in word order; by the
    abelian property of chip-firing any order reaches the same stable
    window and firing counts.  Carries to sites outside the window are
    recorded in spill, in the order they happen, and never fired.  A site
    receives at most two carries, so from values of at most M every site
    fires at most once.  Updates work in place; returns (fired, spill).
    """
    children = groups.steps(group, "AB")
    heap = [(groups.sort_key(group, s), s) for s in start if work[s] >= M]
    heapq.heapify(heap)
    fired = {}
    spill = {}
    while heap:
        _, s = heapq.heappop(heap)
        if work[s] < M:
            continue
        work[s] -= M
        fired[s] = fired.get(s, 0) + 1
        for child in children(s):
            if child not in work:
                spill[child] = spill.get(child, 0) + 1
                continue
            work[child] += 1
            if work[child] >= M:
                heapq.heappush(heap, (groups.sort_key(group, child), child))
    return fired, spill


def reduce_cover(d, M):
    """The reduction process: topple the whole window.

    Every window site with value >= M fires: it loses M and each
    inverse-generator neighbor gains 1.  Window values end in
    {0,...,M-1}; carries to sites outside the window are returned as spill
    and are never fired.
    """
    _check_values(d, 0, M)
    work = dict(d.values)
    fired, spill = _topple(d.group, work, M, work)
    config = Configuration(d.group, work, (0, M - 1))
    return CarryResult(config=config, carry=RingElement(d.group, fired),
                       spill=spill)


def carry_add(d, site, M):
    """The addition machine: add 1 at the site, then topple until stable.

    The result equals d + delta_site - carry * f'.  A carry leaving the
    window raises BoundaryOverflow at the first site it reached.
    """
    _check_values(d, 0, M - 1)
    group = d.group
    groups.check_element(group, site)
    if site not in d.values:
        raise ValueError("the incremented site must lie in the window")
    work = dict(d.values)
    work[site] += 1
    fired, spill = _topple(group, work, M, [site])
    if spill:
        raise BoundaryOverflow(next(iter(spill)))
    config = Configuration(group, work, (0, M - 1))
    return CarryResult(config=config, carry=RingElement(group, fired), spill={})


PAIR_RESTRICTION = frozenset({(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)})

_FORCED_ZERO_PATTERNS = frozenset({(1, 0, 1), (1, 1, 0)})


def percolation_path(c, start, n, M=3):
    """Build the percolation word p in {a,b}^n from a difference
    configuration c valued in {-1,0,1} with c = 1 at the start site.

    Each step stands at the current site, reads the local pattern
    (c_s, c_sa, c_sb), prefers the a-successor when it carries 1, and records
    what the pattern forces: "zero" (the underlying symbol is pinned to 0
    there) for (1,0,1) and (1,1,0), or "pair" (the 5-of-9 restriction on the
    site and its b-successor) for (1,1,1).
    """
    if c.group != F2:
        raise ValueError("percolation paths are built over words")
    _check_values(c, -1, 1)
    allowed = allowed_patterns(M, 1)
    forward = groups.steps(F2, "ab")
    values = c.values
    if start not in values:
        raise ConstraintViolated("start site is outside the window")
    if values[start] != 1:
        raise ConstraintViolated("percolation must start on a site with value 1")
    site = start
    path = []
    steps = []
    for _ in range(n):
        sa, sb = forward(site)
        if sa not in values or sb not in values:
            raise ConstraintViolated("window does not contain the reachable sites")
        pattern = (values[site], values[sa], values[sb])
        if pattern not in allowed:
            raise ConstraintViolated(f"pattern {pattern} at {site!r} is not allowed")
        if pattern in _FORCED_ZERO_PATTERNS:
            forcing = "zero"
        elif pattern == (1, 1, 1):
            forcing = "pair"
        else:
            raise ConstraintViolated(
                f"pattern {pattern} cannot continue a percolation path"
            )
        step = {"site": site, "pattern": pattern, "forcing": forcing}
        if forcing == "pair":
            step["pair_set"] = sorted(PAIR_RESTRICTION)
        steps.append(step)
        letter = "a" if values[sa] == 1 else "b"
        path.append(letter)
        site = sa if letter == "a" else sb
    return {"path": "".join(path), "steps": steps}


def injectivity_bound(n, M):
    """((2M + 2) / M^2) ** n, the per-step collision mass raised to the path
    length."""
    return Fraction(2 * M + 2, M * M) ** n


def binomial_collision_mass(n):
    """Sum over m of binom(n, m) (5/9)^m (1/3)^(n-m), exactly (8/9)^n."""
    return sum(
        math.comb(n, m) * Fraction(5, 9) ** m * Fraction(1, 3) ** (n - m)
        for m in range(n + 1)
    )
