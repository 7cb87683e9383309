from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homoclinic_lab.groups import F2, Z2, GroupMismatch, ball
from homoclinic_lab.ring import PolyF, RingElement, parse_ring_element
from homoclinic_lab.spectral import (RadiusInsufficient, Witness,
                                     auto_radius, haar_indicator_check,
                                     mu_hat, rational_witness, value_json)

F3 = PolyF.standard(3, F2)
ONE = 1


def test_mu_hat_members_are_exact_one():
    assert mu_hat(F3.as_ring(), F3, 1) == ONE
    g = parse_ring_element("(1 + a)*(3 - a - b)")
    assert mu_hat(g, F3, 2) == ONE
    f4 = PolyF.standard(4, Z2)
    gz = parse_ring_element("(2 - b)*(4 - a - b)", Z2)
    assert mu_hat(gz, f4, 2) == ONE


def test_mu_hat_non_members_are_exact_zero():
    assert mu_hat(parse_ring_element("1"), F3, 1) == 0
    assert mu_hat(parse_ring_element("a"), F3, 2) == 0
    assert mu_hat(parse_ring_element("3 + a"), F3, 2) == 0
    assert mu_hat(parse_ring_element("a*b - 1", Z2),
                  PolyF.standard(3, Z2), 2) == 0


def test_mu_hat_small_radius_raises():
    with pytest.raises(RadiusInsufficient):
        mu_hat(parse_ring_element("3 + a"), F3, 0)


def test_mu_hat_deep_member_needs_quotient_radius():
    # quotient 1 + a^3 leaves a radius-2 window with integral coordinates
    # that do not reproduce g; the window holding all of it decides 1
    f = PolyF.standard(3, Z2)
    q = parse_ring_element("1 + a*a*a", Z2)
    g = q * f.as_ring()
    with pytest.raises(RadiusInsufficient):
        mu_hat(g, f, 2)
    assert mu_hat(g, f, 3) == ONE


def test_mu_hat_argument_validation():
    with pytest.raises(TypeError):
        mu_hat(parse_ring_element("1"), parse_ring_element("3 - a - b"), 1)
    with pytest.raises(GroupMismatch):
        mu_hat(parse_ring_element("1", Z2), F3, 1)
    with pytest.raises(ValueError):
        mu_hat(RingElement(F2, {"": Fraction(1, 2)}), F3, 1)


@st.composite
def _characters(draw):
    """(g, f): integral g on ball(2), either random or q*f with q on
    ball(1), so that both members and non-members come up."""
    group = draw(st.sampled_from([F2, Z2]))
    f = PolyF.standard(draw(st.integers(3, 5)), group)
    coeffs = st.integers(-3, 3)
    if draw(st.booleans()):
        g = draw(st.dictionaries(st.sampled_from(ball(group, 2)), coeffs,
                                 min_size=1, max_size=4))
        return RingElement(group, g), f
    q = draw(st.dictionaries(st.sampled_from(ball(group, 1)), coeffs,
                             min_size=1, max_size=3))
    return RingElement(group, q) * f.as_ring(), f


@settings(max_examples=150)
@given(_characters())
def test_mu_hat_is_exact_or_raises_below_the_auto_radius(case):
    # at every radius up to auto_radius the value is the one membership
    # implies, or the window decides neither; auto_radius always decides
    g, f = case
    verdict = rational_witness(g, f)
    expected = 1 if isinstance(verdict, RingElement) else 0
    top = auto_radius(g, verdict)
    for radius in range(top + 1):
        try:
            assert mu_hat(g, f, radius) == expected
        except RadiusInsufficient:
            assert radius < top


def test_rational_witness_non_members():
    w = rational_witness(parse_ring_element("1"), F3)
    assert isinstance(w, Witness)
    assert w.site == ""
    assert w.value == Fraction(1, 3)
    assert w.k == 1 and w.M == 3
    assert w.to_json_dict(F2) == {"w": "", "k": 1, "M": 3}

    w = rational_witness(parse_ring_element("-1"), F3)
    assert w.value == Fraction(-1, 3)
    assert w.k == 2

    w = rational_witness(parse_ring_element("a"), F3)
    assert w.site == "a"
    assert w.k == 1


def test_rational_witness_members():
    q = parse_ring_element("2 - b")
    verdict = rational_witness(q * F3.as_ring(), F3)
    assert isinstance(verdict, RingElement)
    assert verdict == q
    assert isinstance(rational_witness(RingElement(F2), F3), RingElement)


def test_character_value_helpers():
    assert value_json(0) == {"zero": True}
    d = value_json(ONE)
    assert d == {"zero": False, "re": ["1", "1"], "im": ["0", "0"]}


def test_haar_indicator_check_battery():
    gs = [
        F3.as_ring(),
        parse_ring_element("(1 + a)*(3 - a - b)"),
        parse_ring_element("1"),
        parse_ring_element("a"),
        parse_ring_element("a - b"),
    ]
    rep = haar_indicator_check(gs, F3)
    assert rep["passed"] is True
    assert len(rep["entries"]) == 5
    members = [e["member"] for e in rep["entries"]]
    assert members == [True, True, False, False, False]
    for e in rep["entries"]:
        assert e["pass"] is True
        assert set(e) >= {"g", "member", "mu_hat", "witness", "pass"}
        if e["member"]:
            assert e["witness"] is None
            assert "quotient" in e
            assert e["mu_hat"] == {"zero": False, "re": ["1", "1"],
                                   "im": ["0", "0"]}
        else:
            assert e["mu_hat"] == {"zero": True}
            assert e["witness"]["M"] == 3
