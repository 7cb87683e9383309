from fractions import Fraction

import pytest

from homoclinic_lab.groups import F2, Z2, GroupMismatch
from homoclinic_lab.ring import PolyF, RingElement, parse_ring_element
from homoclinic_lab.spectral import (CharacterValue, InIdeal,
                                     RadiusInsufficient, Witness, _factor,
                                     haar_indicator_check, mu_hat, nu0_hat,
                                     rational_witness)

F3 = PolyF.standard(3, F2)
ONE = CharacterValue.one()


def test_nu0_hat_exact_points():
    for xi in (0, 1, -2, Fraction(6, 1)):
        assert nu0_hat(xi, 3) == ONE
    for xi in (Fraction(1, 3), Fraction(2, 3), Fraction(4, 3), Fraction(-1, 3)):
        v = nu0_hat(xi, 3)
        assert v.exact_zero
        assert v.contains_zero() and not v.contains_one()
    # M*xi integral with xi non-integral, for M = 4
    assert nu0_hat(Fraction(1, 2), 4).exact_zero
    assert not nu0_hat(Fraction(1, 2), 3).exact_zero


def test_nu0_hat_half_for_m_three():
    v = nu0_hat(Fraction(1, 2), 3)
    # (1 + e^{i pi} + e^{2 i pi}) / 3 = 1/3
    assert v.re.contains(Fraction(1, 3))
    assert v.im.contains(0)
    assert v.re.width < Fraction(1, 10**20)
    assert v.im.width < Fraction(1, 10**20)


def test_factor_conjugates_the_phase():
    xi = Fraction(1, 9)
    plain = nu0_hat(xi, 3)
    conj = _factor(xi, 3)
    assert conj.re == plain.re
    assert conj.im == -plain.im
    # sin(2 pi k/9) > 0 for k = 1, 2, so the plain imaginary part is positive
    assert plain.im.lo > 0
    assert conj.im.hi < 0


def test_mu_hat_members_are_exact_one():
    assert mu_hat(F3.as_ring(), F3, 1) == ONE
    g = parse_ring_element("(1 + a)*(3 - a - b)")
    assert mu_hat(g, F3, 2) == ONE
    f4 = PolyF.standard(4, Z2)
    gz = parse_ring_element("(2 - b)*(4 - a - b)", Z2)
    assert mu_hat(gz, f4, 2) == ONE


def test_mu_hat_non_members_are_exact_zero():
    assert mu_hat(parse_ring_element("1"), F3, 1).exact_zero
    assert mu_hat(parse_ring_element("a"), F3, 2).exact_zero
    assert mu_hat(parse_ring_element("3 + a"), F3, 2).exact_zero
    assert mu_hat(parse_ring_element("a*b - 1", Z2),
                  PolyF.standard(3, Z2), 2).exact_zero


def test_mu_hat_small_radius_raises():
    with pytest.raises(RadiusInsufficient):
        mu_hat(parse_ring_element("3 + a"), F3, 0)


def test_mu_hat_deep_member_needs_quotient_radius():
    # quotient 1 + a^3 leaves a radius-2 window, and the tail band alone
    # cannot separate 0 from 1; widening the window restores exactness
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
    assert isinstance(verdict, InIdeal)
    assert verdict.quotient == q
    assert isinstance(rational_witness(RingElement(F2), F3), InIdeal)


def test_character_value_helpers():
    z = CharacterValue.zero()
    assert z.contains_zero() and not z.contains_one() and z != ONE
    o = CharacterValue.one()
    assert o.contains_one() and not o.contains_zero()
    assert z.to_json_dict() == {"zero": True}
    d = o.to_json_dict()
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
