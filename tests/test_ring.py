from fractions import Fraction

import pytest

from homoclinic_lab.groups import F2, Z2
from homoclinic_lab.ring import (NotDivisible, PolyF, RingElement,
                                 divide_by_f, parse_ring_element,
                                 quotient_coordinates)


def test_parse_standard_polynomial():
    f = parse_ring_element("3 - a - b")
    assert f == PolyF.standard(3, F2).as_ring()
    g = parse_ring_element("(1 + a)*(1 + a)")
    assert g.coefficient("") == 1
    assert g.coefficient("a") == 2
    assert g.coefficient("aa") == 1


def test_parse_juxtaposition_and_z2():
    g = parse_ring_element("2aB")
    assert g.coefficient("aB") == 2
    h = parse_ring_element("a*b - 1", group=Z2)
    assert h.coefficient((1, 1)) == 1
    assert h.coefficient((0, 0)) == -1


def test_parse_rejects_malformed_input():
    for text in ("", "a +", "(1 + a", "a ) b", "x"):
        with pytest.raises(ValueError):
            parse_ring_element(text)


def test_star_is_an_involutive_antihomomorphism():
    g = parse_ring_element("1 + 2a - b*a")
    h = parse_ring_element("3 - a + a*b")
    assert g.star().star() == g
    assert (g * h).star() == h.star() * g.star()


def test_f_times_f_star_m3():
    f = PolyF.standard(3, F2)
    prod = f.as_ring() * f.star_ring()
    expected = {"": 11, "a": -3, "b": -3, "A": -3, "B": -3, "aB": 1, "bA": 1}
    assert {w: int(c) for w, c in prod.items()} == expected


def test_divide_round_trips_members():
    for M in (3, 4):
        f = PolyF.standard(M, F2)
        for text in ("1", "a", "1 + a", "a - 2b", "a*b + 3"):
            h = parse_ring_element(text)
            assert divide_by_f(h * f.as_ring(), f) == h
    fz = PolyF.standard(3, Z2)
    h = parse_ring_element("1 - a*b", group=Z2)
    assert divide_by_f(h * fz.as_ring(), fz) == h


def test_divide_witness_for_unit():
    f = PolyF.standard(3, F2)
    with pytest.raises(NotDivisible) as exc:
        divide_by_f(parse_ring_element("1"), f)
    assert exc.value.site == ""
    assert exc.value.value == Fraction(1, 3)


def test_divide_witness_for_generator():
    f = PolyF.standard(3, F2)
    with pytest.raises(NotDivisible) as exc:
        divide_by_f(parse_ring_element("a"), f)
    assert exc.value.site == "a"
    assert exc.value.value == Fraction(1, 3)


def test_quotient_coordinates_of_the_unit():
    f = PolyF.standard(3, F2)
    one = RingElement.one(F2)
    coords = quotient_coordinates(one, f, ["", "a", "ab", "A"])
    assert coords[""] == Fraction(1, 3)
    assert coords["a"] == Fraction(1, 9)
    assert coords["ab"] == Fraction(1, 27)
    assert coords["A"] == 0

    fz = PolyF.standard(3, Z2)
    onez = RingElement.one(Z2)
    coordsz = quotient_coordinates(onez, fz, [(0, 0), (1, 1), (2, 0), (-1, 0)])
    assert coordsz[(1, 1)] == Fraction(2, 27)
    assert coordsz[(2, 0)] == Fraction(1, 27)
    assert coordsz[(-1, 0)] == 0


def test_quotient_coordinates_are_translation_consistent():
    # (a.g / f) at a.s equals (g / f) at s
    f = PolyF.standard(3, F2)
    g = parse_ring_element("1 + b")
    window = ["", "a", "b", "ab"]
    base = quotient_coordinates(g, f, window)
    shifted = quotient_coordinates(parse_ring_element("a") * g, f,
                                   ["a" + w for w in window])
    for w in window:
        assert shifted["a" + w] == base[w]


def test_tail_l1_of_the_inverse():
    f = PolyF.standard(3, F2)
    assert f.full_inverse_l1 == 1
    assert f.tail_l1_beyond(0) == Fraction(2, 3)
    assert f.tail_l1_beyond(4) == Fraction(2, 3) ** 5
    f5 = PolyF.standard(5, F2)
    assert f5.full_inverse_l1 == Fraction(1, 3)


def test_f_is_m_minus_a_minus_b():
    assert PolyF.standard(4, F2).as_ring() == parse_ring_element("4 - a - b")
    assert (PolyF.standard(5, Z2).as_ring()
            == parse_ring_element("5 - a - b", group=Z2))
    assert PolyF(3, Z2) == PolyF.standard(3, Z2)
    for M in (2, 3.0):
        with pytest.raises(ValueError):
            PolyF.standard(M, F2)


def test_inv_coeff_supported_on_positive_words():
    f = PolyF.standard(3, F2)
    assert f.inv_coeff("") == Fraction(1, 3)
    assert f.inv_coeff("ab") == Fraction(1, 27)
    assert f.inv_coeff("A") == 0
    fz = PolyF.standard(3, Z2)
    assert fz.inv_coeff((1, 1)) == Fraction(2, 27)
    assert fz.inv_coeff((-1, 0)) == 0


def test_json_round_trip_uses_decimal_strings():
    g = parse_ring_element("2 - a") * Fraction(1, 3)
    doc = g.to_json_dict()
    assert doc == {"group": F2, "terms": [
        {"w": "", "num": "2", "den": "3"},
        {"w": "a", "num": "-1", "den": "3"}]}


def test_ring_arithmetic_basics():
    g = parse_ring_element("1 + a")
    assert g - g == RingElement(F2)
    assert (g * 0).is_zero()
    assert (2 * g).coefficient("a") == 2
    assert (-g).coefficient("") == -1
    assert g.max_word_length() == 1
