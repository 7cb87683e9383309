from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from homoclinic_lab import groups
from homoclinic_lab.groups import F2, Z2
from homoclinic_lab.homoclinic import (Configuration, TorusValue,
                                       WidthExceedsOne,
                                       four_cover_lift, homoclinic_point,
                                       phi_exact, phi_windowed,
                                       xf_residual)
from homoclinic_lab.ring import PolyF, kernel_convolution, parse_ring_element
from homoclinic_lab.rng import element_ids, symbols


def kernel_on(M, group, window):
    """Coefficients of the homoclinic kernel 1/f* on the window, read as the
    CLI kernel document reads them."""
    window = list(window)
    nums, E = kernel_convolution(PolyF.standard(M, group),
                                 {groups.identity(group): 1}, window, star=True)
    return {s: Fraction(n, M ** (E + 1)) for s, n in zip(window, nums)}


def test_kernel_coefficients_f2():
    assert kernel_on(3, F2, ["", "A", "B", "AB", "a", "Ab"]) == {
        "": Fraction(1, 3), "A": Fraction(1, 9), "B": Fraction(1, 9),
        "AB": Fraction(1, 27), "a": 0, "Ab": 0}


def test_kernel_coefficients_z2():
    assert kernel_on(3, Z2, [(0, 0), (-1, -1), (0, -2), (1, 0)]) == {
        (0, 0): Fraction(1, 3), (-1, -1): Fraction(2, 27),
        (0, -2): Fraction(1, 27), (1, 0): 0}


@pytest.mark.parametrize("group", [F2, Z2])
def test_kernel_partial_masses(group):
    f = PolyF.standard(3, group)
    for n in range(31):
        assert (f.full_inverse_l1 - f.tail_l1_beyond(n)
                == 1 - Fraction(2, 3) ** (n + 1))
    assert f.full_inverse_l1 == 1
    assert PolyF.standard(5, group).full_inverse_l1 == Fraction(1, 3)
    assert f.tail_l1_beyond(4) == Fraction(2, 3) ** 5


def test_truncated_ring_lives_on_the_negative_monoid():
    # the kernel on ball(2) is supported on the negative monoid, and its
    # mass there is the closed-form partial mass
    for group in (F2, Z2):
        f = PolyF.standard(3, group)
        k = kernel_on(3, group, groups.ball(group, 2))
        assert {s for s, c in k.items() if c} == set(
            groups.negative_monoid(group, 2))
        assert sum(k.values()) == f.full_inverse_l1 - f.tail_l1_beyond(2)


def test_homoclinic_point_of_the_scaled_unit():
    x = homoclinic_point(parse_ring_element("3"), groups.ball(F2, 1), 3)
    assert x[""].value == 0  # 3 * (1/3) wraps to zero
    assert x["A"].value == Fraction(1, 3)
    assert x["a"].value == 0


def test_phi_translation_equivariance():
    window = groups.ball(F2, 2)
    d = Configuration(F2, {"": 2, "a": 1, "B": 2}, (0, 2))
    x = phi_exact(d, window, 3)
    for u in ("a", "ba"):
        shifted = Configuration(
            F2, {groups.multiply(F2, u, t): v for t, v in d.values.items()},
            (0, 2))
        y = phi_exact(shifted, [groups.multiply(F2, u, s) for s in window], 3)
        for s in window:
            assert y[groups.multiply(F2, u, s)].value == x[s].value


def test_phi_additivity():
    window = groups.ball(F2, 1)
    d1 = Configuration(F2, {"": 1, "A": 2}, (0, 2))
    d2 = Configuration(F2, {"": 1, "b": 1}, (0, 1))
    dsum = Configuration(F2, {"": 2, "A": 2, "b": 1}, (0, 2))
    x1 = phi_exact(d1, window, 3)
    x2 = phi_exact(d2, window, 3)
    xs = phi_exact(dsum, window, 3)
    for s in window:
        assert xs[s].contains(x1[s].value + x2[s].value)


def test_phi_residual_vanishes_on_interior():
    # M x_t - x_ta - x_tb is an integer at every interior site
    for group in (F2, Z2):
        support = groups.ball(group, 1)
        ids = element_ids(group, support)
        vals = symbols(11, 0, ids, 3)
        d = Configuration(group, {s: int(v) for s, v in zip(support, vals)},
                          (0, 2))
        x = phi_exact(d, groups.ball(group, 3), 3)
        res = xf_residual(x, 3)
        assert res
        for value in res.values():
            assert value.is_exact and value.value == 0


def test_all_ones_parametrizes_zero():
    ones = Configuration(F2, {s: 1 for s in groups.ball(F2, 4)}, (1, 1))
    out = phi_windowed(ones, groups.ball(F2, 1), 3)
    for v in out.values():
        assert v.is_exact and v.value == 0


def test_phi_windowed_contains_every_extension():
    d = Configuration(F2, {s: 1 for s in groups.ball(F2, 2)}, (0, 2))
    enclosed = phi_windowed(d, [""], 3)[""]
    # extend by zeros: the exact value of the unextended configuration
    exact = phi_exact(d, [""], 3)[""]
    assert enclosed.contains(exact.value)
    # extend by the maximal symbol everywhere on one more shell
    extended = dict(d.values)
    for s in groups.ball(F2, 3):
        extended.setdefault(s, 2)
    d3 = Configuration(F2, extended, (0, 2))
    assert enclosed.contains(phi_exact(d3, [""], 3)[""].value)


def test_four_cover_lift_round_trip():
    support = groups.ball(F2, 2)
    ids = element_ids(F2, support)
    for i in range(25):
        vals = symbols(7, i, ids, 3)
        d = Configuration(F2, {s: int(v) for s, v in zip(support, vals)},
                          (0, 2))
        x = phi_exact(d, groups.ball(F2, 4), 3)
        lifted = four_cover_lift(x, 3)
        assert all(0 <= v <= 3 for v in lifted.values.values())
        evals = groups.ball(F2, 1)
        original = phi_exact(d, evals, 3)
        enclosed = phi_windowed(lifted, evals, 3)
        for s in evals:
            assert enclosed[s].contains(original[s].value)


def test_pairing_identity():
    # sum_t phi(d)_t g_t = sum_s (g/f)_s d_s mod 1
    from homoclinic_lab.ring import PolyF, quotient_coordinates
    f = PolyF.standard(3, F2)
    g = parse_ring_element("2 - a + b*a")
    d = Configuration(F2, {"": 1, "b": 2, "A": 1}, (0, 2))
    window = groups.ball(F2, 3)
    x = phi_exact(d, window, 3)
    lhs = sum(x[t].value * g.coefficient(t) for t in window)
    coords = quotient_coordinates(g, f, list(d.values))
    rhs = sum(coords[s] * d.values[s] for s in d.values)
    assert (lhs - rhs).denominator == 1


def test_torus_value_normalization_and_containment():
    v = TorusValue(Fraction(7, 3), Fraction(7, 3))
    assert v.value == Fraction(1, 3)
    w = TorusValue(Fraction(9, 10), Fraction(11, 10))
    assert w.contains(Fraction(19, 20))
    assert w.contains(Fraction(1, 20))  # wraps past the integer
    assert not w.contains(Fraction(1, 2))
    with pytest.raises(ValueError):
        TorusValue(0, 1)


RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=60)


@given(RATIONALS, RATIONALS)
def test_torus_value_properties(a, b):
    v = TorusValue(a, a)
    assert 0 <= v.lo < 1 and v.hi == v.lo and (a - v.lo).denominator == 1
    fast = TorusValue.from_numerator(a.numerator, a.denominator)
    assert vars(fast) == vars(v)
    assert type(fast.lo) is type(fast.hi) is Fraction

    lo, hi = min(a, b), max(a, b)
    if hi - lo >= 1:
        with pytest.raises(WidthExceedsOne):
            TorusValue(lo, hi)
        return
    w = TorusValue(lo, hi)
    assert 0 <= w.lo < 1 and w.hi - w.lo == hi - lo
    assert (lo - w.lo).denominator == 1
    # contains wraps: the interval's points shifted by any integer lie in it
    for k in (-3, 0, 2):
        assert w.contains(lo + k) and w.contains(hi + k)
        assert w.contains((lo + hi) / 2 + k)
        assert not w.contains(hi + (1 - (hi - lo)) / 2 + k)


def test_lift_requires_exact_consistency():
    from homoclinic_lab.homoclinic import ResidualNonzero
    x = {"": TorusValue(Fraction(1, 2), Fraction(1, 2)),
         "a": TorusValue(0, 0), "b": TorusValue(0, 0)}
    with pytest.raises(ResidualNonzero):
        four_cover_lift(x, 3)
