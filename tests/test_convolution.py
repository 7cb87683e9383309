"""Differential and property tests of the integer kernel convolution.

Every integer path (ring.kernel_convolution, the recurrence x . f = g or
x . f* = g, and its callers: PolyF.inv_coeff, quotient_coordinates, the
Fourier plan, phi_exact, phi_windowed and the window tail; the integer
4-cover lift; divide_by_f) is compared with a reference written here and
independent of the solver: the Fraction double loop sum_t g_t K(t^-1 s)
over the geometric series of 1/f, the recursive walk of the kernel cone for
the tail, a Fraction lift, and ring products for division.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homoclinic_lab import groups, rng
from homoclinic_lab.groups import F2, Z2, GroupMismatch, WindowTooLarge
from homoclinic_lab.homoclinic import (Configuration, ResidualNonzero,
                                       TorusValue, WidthExceedsOne,
                                       four_cover_lift, homoclinic_point,
                                       phi_exact, phi_windowed, xf_residual)
from homoclinic_lab.montecarlo import _fourier_plan
from homoclinic_lab.ring import (NotDivisible, PolyF, RingElement,
                                 divide_by_f, kernel_convolution,
                                 parse_ring_element, quotient_coordinates)
from homoclinic_lab.spectral import (Witness, quotient_tail_l1,
                                     rational_witness)
from homoclinic_lab.symbolic import carry_add

# the rest of the settings come from the profile in conftest.py
PROPERTY = settings(max_examples=60)

BALLS = {group: groups.ball(group, 3) for group in (F2, Z2)}


# -- Fraction references -----------------------------------------------------

def reference_convolution(f, terms, window, star=False):
    """sum_t g_t K(t^-1 s) as Fractions, K = 1/f or K*(u) = (1/f)(u^-1),
    with 1/f read from reference_inverse."""
    group = f.group

    def kernel_site(t, s):
        u = groups.multiply(group, groups.inverse(group, t), s)
        return groups.inverse(group, u) if star else u

    top = max((groups.height(group, kernel_site(t, s))
               for s in window for t in terms), default=0)
    series = reference_inverse(f, top)
    return {s: sum((c * series.get(kernel_site(t, s), 0)
                    for t, c in terms.items()), Fraction(0))
            for s in window}


def reference_tail(group, s, window, M, max_len):
    """Kernel mass outside the window along the cone s.P, by recursion."""
    gens = groups.generators(group)
    limit = max_len + groups.word_length(group, s)

    def walk(site, depth):
        inside = site in window
        if not inside and depth > limit:
            return Fraction(1, M**depth) * Fraction(1, M - 2)
        mass = Fraction(0) if inside else Fraction(1, M ** (depth + 1))
        for c in gens:
            mass += walk(groups.multiply(group, site, c), depth + 1)
        return mass

    return walk(s, 0)


def reference_inverse(f, max_height):
    """1/f = sum_k h^k / M^(k+1) as Fractions, at heights <= max_height,
    with the lower part h = M - f read from f.as_ring()."""
    lower = f.M * RingElement.one(f.group) - f.as_ring()
    power = RingElement.one(f.group)
    acc = {}
    for k in range(max_height + 1):
        for el, c in power.terms.items():
            if groups.height(f.group, el) <= max_height:
                acc[el] = acc.get(el, 0) + c / f.M ** (k + 1)
        power = power * lower
    return acc


def reference_lift(x, M):
    """d_t = M v_t - v_{ta} - v_{tb} + 1 as Fractions, v_t = x_t mod 1,
    with four_cover_lift's errors and messages."""
    group = F2 if isinstance(next(iter(x)), str) else Z2
    a, b = groups.generators(group)
    v = {t: (c.value if isinstance(c, TorusValue) else Fraction(c)) % 1
         for t, c in x.items()}
    out = {}
    for t in x:
        ta, tb = groups.multiply(group, t, a), groups.multiply(group, t, b)
        if ta in x and tb in x:
            raw = M * v[t] - v[ta] - v[tb] + 1
            if raw.denominator != 1:
                raise ResidualNonzero(
                    f"residual {raw - 1} at {groups.format_element(group, t) or '1'}")
            # v in [0, 1) puts raw in (-1, M + 1), so this never fires
            if not 0 <= raw <= M:
                raise ResidualNonzero(f"lift symbol {raw} escapes {{0,...,{M}}}")
            out[t] = int(raw)
    return out


def reference_residual(x, M):
    """M x_t - x_{ta} - x_{tb} on TorusValue intervals at interior sites."""
    group = F2 if isinstance(next(iter(x)), str) else Z2
    a, b = groups.generators(group)
    v = {t: c if isinstance(c, TorusValue) else TorusValue(c, c)
         for t, c in x.items()}
    out = {}
    for t in x:
        ta, tb = groups.multiply(group, t, a), groups.multiply(group, t, b)
        if ta in x and tb in x:
            out[t] = TorusValue(M * v[t].lo - v[ta].hi - v[tb].hi,
                                M * v[t].hi - v[ta].lo - v[tb].lo)
    return out


def polys(group):
    """f = M - a - b for M in 3..5."""
    return [PolyF.standard(M, group) for M in (3, 4, 5)]


# -- strategies --------------------------------------------------------------

def elements(group):
    return st.sampled_from(BALLS[group])


def integer_terms(group, max_size=5):
    return st.dictionaries(elements(group), st.integers(-3, 3), max_size=max_size)


def windows(group):
    return st.lists(elements(group), max_size=8)


FAR = {F2: ["aaaa", "abab", "bAAA", "BBBa"], Z2: [(4, 0), (2, 2), (0, 4)]}
# words over A, B (the star's cone) and over a, b, up to length 2
MONOIDS = {group: {True: groups.negative_monoid(group, 2),
                   False: groups.cone_sites(
                       group, groups.identity(group), 2)}
           for group in (F2, Z2)}


@st.composite
def convolution_cases(draw):
    group = draw(st.sampled_from((F2, Z2)))
    f = draw(st.sampled_from(polys(group)))
    terms, star = draw(integer_terms(group)), draw(st.booleans())
    # windows mix sites of supp(g).{A,B}* (supp(g).{a,b}* without the star),
    # where the recurrence lives, with sites of ball(3) and beyond it that
    # mostly miss it
    cone = [groups.multiply(group, t, v)
            for t in terms for v in MONOIDS[group][star]]
    window = draw(st.lists(st.sampled_from(BALLS[group] + FAR[group] + cone),
                           max_size=8))
    return f, terms, window, star


@st.composite
def configurations(draw):
    group = draw(st.sampled_from((F2, Z2)))
    M = draw(st.integers(3, 5))
    lo = draw(st.integers(-1, 1))
    hi = draw(st.integers(lo, lo + 2))
    support = draw(st.lists(elements(group), max_size=8, unique=True))
    values = {s: draw(st.integers(lo, hi)) for s in support}
    d = Configuration(group, values, (lo, hi))
    return d, draw(windows(group)), M


# -- the primitive -----------------------------------------------------------

@PROPERTY
@given(convolution_cases())
def test_kernel_convolution_matches_the_fraction_loop(case):
    f, terms, window, star = case
    nums, den = kernel_convolution(f, terms, window, star=star)
    # one key per distinct window site, in window order, over M^(E+1)
    assert list(nums) == list(dict.fromkeys(window))
    assert all(isinstance(n, int) for n in nums.values())
    length = lambda el: groups.word_length(f.group, el)
    E = (max((length(t) for t, c in terms.items() if c), default=0)
         + max(map(length, window), default=0))
    assert den == f.M ** (E + 1)
    want = reference_convolution(f, terms, window, star)
    for s, n in nums.items():
        assert Fraction(n, den) == want[s]


@pytest.mark.parametrize("group", [F2, Z2])
def test_inv_coeff_is_the_geometric_series(group):
    for f in polys(group):
        series = reference_inverse(f, 4)
        for u in groups.ball(group, 4):
            if groups.height(group, u) <= 4:
                assert f.inv_coeff(u) == series.get(u, 0)


def test_kernel_convolution_validates_once_at_entry():
    f = PolyF.standard(3, F2)
    with pytest.raises(GroupMismatch):
        kernel_convolution(f, {"a": 1}, ["", (0, 0)])
    with pytest.raises(GroupMismatch):
        kernel_convolution(f, {(0, 1): 1}, [""])
    with pytest.raises(TypeError):
        kernel_convolution(f, {"a": Fraction(1, 2)}, [""])
    assert kernel_convolution(f, {}, []) == ({}, 3)
    # a repeated site is one key, at its first place
    nums, den = kernel_convolution(f, {"": 1}, ["A", "", "A", "B", ""],
                                   star=True)
    assert nums == {"A": 1, "": 3, "B": 1} and list(nums) == ["A", "", "B"]
    assert den == 9
    # groups' helpers trust their callers: the ring's boundaries check
    for group, el in ((F2, (0, 0)), (Z2, "a")):
        with pytest.raises(GroupMismatch):
            RingElement(group, {el: 1})
    with pytest.raises(GroupMismatch):
        quotient_coordinates(RingElement(F2, {"": 1}), f, ["", (0, 0)])


# -- the recurrence behind phi and the integer lift ---------------------------

@st.composite
def phi_cases(draw):
    group = draw(st.sampled_from((F2, Z2)))
    terms = draw(integer_terms(group))
    # windows mix sites of supp(d).{A,B}* with sites of ball(3) and beyond
    # it that mostly miss it
    cone = [groups.multiply(group, t, v)
            for t in terms for v in MONOIDS[group][True]]
    window = draw(st.lists(st.sampled_from(BALLS[group] + FAR[group] + cone),
                           max_size=8))
    return group, terms, window, draw(st.integers(3, 5))


@PROPERTY
@given(phi_cases())
def test_phi_recurrence_matches_kernel_convolution(case):
    # phi's recurrence x . f* = d for the standard f, read through phi_exact,
    # is kernel_convolution with the star and matches the Fraction loop
    group, terms, window, M = case
    f = PolyF.standard(M, group)
    nums, den = kernel_convolution(f, terms, window, star=True)
    want = reference_convolution(f, terms, window, star=True)
    assert [Fraction(nums[s], den) for s in window] == [want[s] for s in window]
    d = Configuration(group, terms, (-3, 3))
    got = phi_exact(d, window, M)
    assert list(got) == list(dict.fromkeys(window))
    assert all(got[s] == TorusValue(want[s], want[s]) for s in window)


@pytest.mark.parametrize("group", [F2, Z2])
def test_phi_recurrence_of_an_empty_d_and_a_missed_window(group):
    f = PolyF.standard(3, group)
    window = BALLS[group]
    assert kernel_convolution(f, {}, window, star=True)[0] == dict.fromkeys(
        window, 0)
    # supp(d).{A,B}* misses every site above the support
    t = {F2: "BAB", Z2: (-2, -1)}[group]
    nums, den = kernel_convolution(f, {t: -2}, window, star=True)
    want = reference_convolution(f, {t: -2}, window, star=True)
    assert [Fraction(nums[s], den) for s in window] == [want[s] for s in window]
    above = [s for s in window if groups.height(group, s) > groups.height(group, t)]
    assert above and all(n == 0 for s, n in nums.items() if s in above)


def test_phi_validates_the_window_once_at_entry(monkeypatch):
    d = Configuration(F2, {"": 1}, (0, 1))
    for phi in (phi_exact, phi_windowed):
        with pytest.raises(GroupMismatch):
            phi(d, ["", (0, 0)], 3)
    with pytest.raises(GroupMismatch):
        homoclinic_point(d.as_ring(), ["", (0, 0)], 3)
    # a configuration checks its own sites, and the carry machine its site
    for group, el in ((F2, (0, 0)), (Z2, "a")):
        with pytest.raises(GroupMismatch):
            Configuration(group, {el: 1}, (0, 1))
    with pytest.raises(GroupMismatch):
        carry_add(d, (0, 0), 3)
    # the window is built first: ball reads the same budget
    window = groups.ball(F2, 1)
    monkeypatch.setattr(groups, "MAX_ELEMENTS", 4)
    with pytest.raises(WindowTooLarge, match=r"window has 5 elements \(limit 4\)"):
        phi_exact(d, window, 3)
    with pytest.raises(WindowTooLarge, match=r"window has 5 elements \(limit 4\)"):
        phi_windowed(d, window, 3)


@st.composite
def lift_windows(draw):
    """phi_exact on a ball, some coordinates handed over as plain rationals
    shifted by an integer, and sometimes one coordinate moved off X_f."""
    d, _, M = draw(configurations())
    window = groups.ball(d.group, draw(st.integers(0, 3)))
    x = phi_exact(d, window, M)
    for t in draw(st.lists(st.sampled_from(window), max_size=4, unique=True)):
        x[t] = x[t].value + draw(st.integers(-2, 2))
    if draw(st.booleans()):
        t = draw(st.sampled_from(window))
        x[t] = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    return x, M


@PROPERTY
@given(lift_windows())
def test_integer_lift_matches_the_fraction_lift(case):
    x, M = case
    try:
        want = reference_lift(x, M)
    except ResidualNonzero as exc:
        with pytest.raises(ResidualNonzero) as got:
            four_cover_lift(x, M)
        assert str(got.value) == str(exc)
        return
    lifted = four_cover_lift(x, M)
    assert lifted.values == want
    assert lifted.alphabet == (0, M)


@st.composite
def residual_windows(draw):
    """Plain rationals, exact values and enclosures of width <= 1/8 on a
    ball, so every residual interval stays narrower than 1."""
    group = draw(st.sampled_from((F2, Z2)))
    window = groups.ball(group, draw(st.integers(0, 2)))
    rational = st.fractions(-3, 3, max_denominator=40)
    width = st.fractions(0, Fraction(1, 8), max_denominator=40)
    value = st.one_of(
        rational, st.builds(lambda v: TorusValue(v, v), rational),
        st.builds(lambda lo, w: TorusValue(lo, lo + w), rational, width))
    return {s: draw(value) for s in window}, draw(st.integers(3, 5))


@PROPERTY
@given(residual_windows())
def test_xf_residual_matches_the_torus_loop(case):
    x, M = case
    assert xf_residual(x, M) == (reference_residual(x, M) if x else {})


def test_lift_residual_message_and_exactness_check():
    half = Fraction(1, 2)
    x = {"": TorusValue(half, half), "a": Fraction(5, 3), "b": 0}
    with pytest.raises(ResidualNonzero, match=r"^residual 5/6 at 1$"):
        four_cover_lift(x, 3)
    x = {(0, 0): 0, (1, 0): Fraction(1, 3), (0, 1): Fraction(-2, 7)}
    with pytest.raises(ResidualNonzero, match=r"^residual -22/21 at \(0,0\)$"):
        four_cover_lift(x, 3)
    with pytest.raises(ValueError, match="needs exact coordinates"):
        four_cover_lift({"": TorusValue(0, Fraction(1, 2))}, 3)
    assert four_cover_lift({}, 3) is None


# -- the callers -------------------------------------------------------------

@PROPERTY
@given(convolution_cases(), st.sampled_from((1, 2, 3, 7)))
def test_quotient_coordinates_match_the_fraction_loop(case, den):
    f, terms, window, _ = case
    g = RingElement(f.group, {t: Fraction(c, den) for t, c in terms.items()})
    coords = quotient_coordinates(g, f, window)
    want = reference_convolution(f, g.terms, window)
    assert coords == want


def test_quotient_coordinates_of_a_non_integral_g():
    f = PolyF.standard(5, F2)
    g = RingElement(F2, {"": Fraction(1, 2), "A": Fraction(-2, 3), "b": 3})
    window = groups.ball(F2, 3)
    coords = quotient_coordinates(g, f, window)
    assert coords == reference_convolution(f, g.terms, window)
    assert any(v.denominator % 2 == 0 for v in coords.values())


@PROPERTY
@given(configurations())
def test_phi_exact_and_windowed_match_the_fraction_loop(case):
    d, window, M = case
    f = PolyF.standard(M, d.group)
    want = reference_convolution(f, d.values, window, star=True)
    exact = phi_exact(d, window, M)
    for s in window:
        assert exact[s].is_exact and exact[s].value == want[s] % 1

    max_len = max((groups.word_length(d.group, t) for t in d.values),
                  default=-1)
    tails = {s: reference_tail(d.group, s, set(d.values), M, max_len)
             for s in window}
    lo, hi = d.alphabet
    if any((hi - lo) * tail >= 1 for tail in tails.values()):
        with pytest.raises(WidthExceedsOne):
            phi_windowed(d, window, M)
        return
    enclosed = phi_windowed(d, window, M)
    for s in window:
        shift = math.floor(want[s] + lo * tails[s])
        assert enclosed[s].lo == want[s] + lo * tails[s] - shift
        assert enclosed[s].hi == want[s] + hi * tails[s] - shift


@PROPERTY
@given(st.sampled_from((F2, Z2)).flatmap(
    lambda group: st.tuples(st.just(group), elements(group),
                            st.sets(elements(group), max_size=12))),
    st.integers(3, 5))
def test_cone_tail_matches_the_recursive_walk(case, M):
    # phi_windowed's tail: the full mass 1/(M-2) less phi of the indicator
    group, s, window = case
    indicator = dict.fromkeys(window, 1)
    nums, den = kernel_convolution(PolyF.standard(M, group), indicator, [s],
                                   star=True)
    inside = Fraction(nums[s], den)
    assert inside == reference_convolution(
        PolyF.standard(M, group), indicator, [s], star=True)[s]
    max_len = max((groups.word_length(group, t) for t in window), default=-1)
    assert (Fraction(1, M - 2) - inside
            == reference_tail(group, s, window, M, max_len))


# the member (1 + 3A + 9AA)*f has no term at 1, A or A^2, so at radius 3
# its quotient's site 1 is two steps from AA, one past the cone's cap
LEAVES_THE_SITES = "(1 + 3A + 9A*A)*(3 - a - b)"


@pytest.mark.parametrize("group", [F2, Z2])
@pytest.mark.parametrize("text", ["1", "3 - a - b", "2a - b + 1", "a",
                                  "(1 + a*a*a)*(3 - a - b)", LEAVES_THE_SITES])
def test_fourier_plan_denominator_is_the_lcm(group, text):
    f = PolyF.standard(3, group)
    g = parse_ring_element(text, group)
    radius = 3 if text == LEAVES_THE_SITES else 5
    ids, nums, den, tail = _fourier_plan(g, f, radius)
    cones = []
    for t in g.terms:
        cap = radius - groups.word_length(group, t)
        cones += groups.cone_sites(group, t, cap)
    coords = quotient_coordinates(g, f, cones)
    assert den == math.lcm(*(v.denominator for v in coords.values()))
    assert ({int(i): Fraction(int(n), den) for i, n in zip(ids, nums)}
            == {rng.element_id(group, s): v for s, v in coords.items() if v})
    # nothing is truncated exactly when g/f is a quotient inside the sites
    try:
        inside = set(divide_by_f(g, f).support()) <= set(cones)
    except NotDivisible:
        inside = False
    assert inside == (text not in ("1", "2a - b + 1", "a", LEAVES_THE_SITES))
    assert tail == (0 if inside else quotient_tail_l1(g, f, radius))


def reference_fourier_plan(g, f, radius):
    """The f2 plan by the kernel walk: kernel_convolution over the union of
    the capped cones, as {canonical id: numerator}, den and tail."""
    sites = {}
    for t in g.support():
        sites.update(dict.fromkeys(groups.cone_sites(F2, t, radius - len(t))))
    nums, power = kernel_convolution(
        f, {t: int(c) for t, c in g.terms.items()}, sites)
    common = math.gcd(power, *nums.values())
    kept = {s: n // common for s, n in nums.items() if n}
    den = power // common
    exact = den == 1 and RingElement(F2, kept) * f.as_ring() == g
    tail = 0 if exact else quotient_tail_l1(g, f, radius)
    return {rng.element_id(F2, s): n for s, n in kept.items()}, den, tail


# words of one sign, half the terms of the plan cases: the cone at a
# positive t lies in the cone at 1, and a negative t' of the greatest length
# puts the longest quotient, |t'^-1 s| = E, on the cones at positive words
SIGNED = groups.cone_sites(F2, "", 3) + groups.negative_monoid(F2, 3)


@st.composite
def f2_plan_cases(draw):
    """f, g over ball(3) with inverse letters, or a member h . f, and a
    radius that holds the support."""
    f = draw(st.sampled_from(polys(F2)))
    g = RingElement(F2, draw(st.dictionaries(
        st.one_of(elements(F2), st.sampled_from(SIGNED)), st.integers(-3, 3),
        max_size=5)))
    if draw(st.booleans()):
        g = g * f.as_ring()
    radius = draw(st.integers(max(3, g.max_word_length()), 8))
    return g, f, radius


def assert_plan_matches_the_walk(g, f, radius):
    ids, nums, den, tail = _fourier_plan(g, f, radius)
    got = {int(i): int(n) for i, n in zip(ids, nums)}
    assert len(got) == len(ids)
    assert (got, den, tail) == reference_fourier_plan(g, f, radius)
    return nums


@PROPERTY
@given(f2_plan_cases())
def test_f2_fourier_plan_matches_the_kernel_walk(case):
    assert_plan_matches_the_walk(*case)


@pytest.mark.parametrize("M", [3, 4, 5])
@pytest.mark.parametrize("radius", [3, 5, 8])
@pytest.mark.parametrize("text", [LEAVES_THE_SITES, "A + 1", "AB - ba + 3Ab",
                                  "1 - a", "2B*a - a*B + 1"])
def test_f2_fourier_plan_matches_on_overlapping_cones(text, radius, M):
    assert_plan_matches_the_walk(parse_ring_element(text), PolyF(M, F2),
                                 radius)


def test_f2_fourier_plan_takes_python_ints_past_int64():
    # 2^40 M^(E+1) at M = 5, E = 1 + 8 passes 2^62
    g = RingElement(F2, {"a": 1 << 40, "B": 3, "": -1})
    nums = assert_plan_matches_the_walk(g, PolyF(5, F2), 8)
    assert nums.dtype == object
    assert assert_plan_matches_the_walk(
        RingElement(F2, {"a": 1, "B": 3, "": -1}), PolyF(5, F2), 8
    ).dtype == np.int64


# -- division over the whole support ------------------------------------------

@st.composite
def division_cases(draw):
    """f, an integral h, and g: either the member h*f or h itself."""
    group = draw(st.sampled_from((F2, Z2)))
    f = draw(st.sampled_from(polys(group)))
    h = RingElement(group, draw(integer_terms(group)))
    return f, h, h * f.as_ring() if draw(st.booleans()) else h


@PROPERTY
@given(division_cases())
def test_divide_by_f_inverts_multiplication(case):
    f, h, _ = case
    assert divide_by_f(h * f.as_ring(), f) == h


@PROPERTY
@given(division_cases())
def test_rational_witness_is_a_quotient_or_a_k_over_M_coordinate(case):
    f, _, g = case
    verdict = rational_witness(g, f)
    if isinstance(verdict, RingElement):
        assert verdict * f.as_ring() == g
        return
    assert isinstance(verdict, Witness)
    assert 1 <= verdict.k <= f.M - 1
    # the witness is the coordinate of g/f at its site, k/M mod 1
    site = verdict.site
    assert verdict.value == reference_convolution(f, g.terms, [site])[site]
    assert (verdict.value - Fraction(verdict.k, f.M)).denominator == 1
    # and it is minimal: g/f lives on supp(g).{a,b}*, and every coordinate
    # there below its height, or at its height before it in sort_key order,
    # is an integer
    group = g.group
    top = groups.height(group, site)
    below = set()
    for t in g.terms:
        below.update(groups.cone_sites(
            group, t, top - groups.height(group, t)))
    key = groups.sort_key(group, site)
    below = [s for s in below if groups.height(group, s) < top
             or groups.sort_key(group, s) < key]
    assert all(v.denominator == 1
               for v in reference_convolution(f, g.terms, below).values())


@pytest.mark.parametrize("group", [F2, Z2])
def test_positive_cone_sites_match_the_word_walk(group):
    # every monoid word in turn, first occurrences kept
    for t in groups.ball(group, 2):
        out, frontier = {t: None}, [t]
        for depth in range(1, 8):
            frontier = [groups.multiply(group, s, c) for s in frontier
                        for c in groups.generators(group)]
            out.update(dict.fromkeys(frontier))
            assert groups.cone_sites(group, t, depth) == list(out)
