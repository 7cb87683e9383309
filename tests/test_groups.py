import pytest
from hypothesis import given
from hypothesis import strategies as st

from homoclinic_lab import groups
from homoclinic_lab.groups import F2, Z2


def test_reduce_word_cancels_adjacent_inverses():
    assert groups.reduce_word("aA") == ""
    assert groups.reduce_word("abBA") == ""
    assert groups.reduce_word("aab") == "aab"
    assert groups.reduce_word("aBbA") == ""
    assert groups.reduce_word("baBA") == "baBA"


def test_multiply_and_inverse_f2():
    assert groups.multiply(F2, "ab", "BA") == ""
    assert groups.multiply(F2, "a", "a") == "aa"
    assert groups.inverse(F2, "ab") == "BA"
    assert groups.inverse(F2, "") == ""
    for w in ("", "a", "Ab", "baB"):
        assert groups.multiply(F2, w, groups.inverse(F2, w)) == ""


def test_multiply_and_inverse_z2():
    assert groups.multiply(Z2, (1, 2), (-1, 0)) == (0, 2)
    assert groups.inverse(Z2, (3, -4)) == (-3, 4)
    assert groups.identity(Z2) == (0, 0)


def test_height_counts_generator_letters():
    assert groups.height(F2, "") == 0
    assert groups.height(F2, "a") == 1
    assert groups.height(F2, "A") == -1
    assert groups.height(F2, "ab") == 2
    assert groups.height(F2, "aB") == 0
    assert groups.height(Z2, (2, -3)) == -1


@pytest.mark.parametrize("n,size", [(0, 1), (1, 5), (2, 17), (3, 53)])
def test_ball_sizes_f2(n, size):
    # |B_n| = 2 * 3^n - 1 in the free group
    assert len(groups.ball(F2, n)) == size


@pytest.mark.parametrize("n,size", [(0, 1), (1, 5), (2, 13), (3, 25)])
def test_ball_sizes_z2(n, size):
    # |B_n| = 2n^2 + 2n + 1 in the plane
    assert len(groups.ball(Z2, n)) == size


def test_sphere_sizes():
    assert len(groups.sphere(F2, 0)) == 1
    assert len(groups.sphere(F2, 1)) == 4
    assert len(groups.sphere(F2, 3)) == 4 * 9
    assert len(groups.sphere(Z2, 2)) == 8


def test_monoid_windows():
    neg = groups.negative_monoid(F2, 2)
    assert len(neg) == 7
    assert all(all(c in "AB" for c in w) for w in neg)
    pos = groups.cone_sites(F2, "", 3)
    assert len(pos) == 15 and all(all(c in "ab" for c in w) for w in pos)
    assert len(groups.negative_monoid(Z2, 3)) == 10
    assert all(i <= 0 and j <= 0 for i, j in groups.negative_monoid(Z2, 3))


def test_cone_levels_bit_order_and_multiplicities():
    from itertools import islice
    from math import comb
    levels = list(islice(groups.cone_levels(F2, ""), 4))
    for l, level in enumerate(levels):
        # position p spells the word by its bits, a = 0 and b = 1
        assert list(level) == [
            "".join("ab"[(p >> (l - 1 - k)) & 1] for k in range(l))
            for p in range(2 ** l)]
        assert set(level.values()) == {1}
    back = list(islice(groups.cone_levels(F2, "a", "AB"), 3))
    assert list(back[1]) == ["", "aB"]
    assert list(back[2]) == ["A", "B", "aBA", "aBB"]
    for l, level in enumerate(islice(groups.cone_levels(Z2, (2, -1)), 6)):
        assert level == {(2 + k, -1 + l - k): comb(l, k) for k in range(l + 1)}
    neg = list(islice(groups.cone_levels(Z2, (0, 0), "AB"), 3))[2]
    assert neg == {(-2, 0): 1, (-1, -1): 2, (0, -2): 1}


def test_ball_is_sorted_and_deduplicated():
    ball = groups.ball(F2, 2)
    assert ball[0] == ""
    assert ball[1:5] == ["a", "b", "A", "B"]
    for group in (F2, Z2):
        for radius in range(6):
            ball = groups.ball(group, radius)
            assert len(set(ball)) == len(ball)
            keys = [groups.sort_key(group, el) for el in ball]
            assert keys == sorted(keys)


def test_format_parse_round_trip():
    for el in groups.ball(F2, 2):
        assert groups.parse_element(F2, groups.format_element(F2, el)) == el
    for el in groups.ball(Z2, 2):
        assert groups.parse_element(Z2, groups.format_element(Z2, el)) == el
    assert groups.format_element(F2, "") == ""
    assert groups.format_element(Z2, (1, -2)) == "(1,-2)"


def test_parse_element_rejects_garbage():
    with pytest.raises(ValueError):
        groups.parse_element(F2, "ax")
    with pytest.raises(ValueError):
        groups.parse_element(Z2, "(1,)")


def test_ball_cap():
    with pytest.raises(groups.WindowTooLarge):
        groups.ball(F2, 30)


@pytest.mark.parametrize("group,depth,size", [(F2, 5, 63), (Z2, 5, 21)])
def test_cone_guard_counts_before_it_walks(monkeypatch, group, depth, size):
    # a cone of exactly MAX_ELEMENTS sites is walked; one level more is
    # refused from its size alone, without advancing the walk
    monkeypatch.setattr(groups, "MAX_ELEMENTS", size)
    root = groups.identity(group)
    assert len(groups.cone_sites(group, root, depth)) == size
    assert len(groups.negative_monoid(group, depth)) == size

    def refuse(*args):
        raise AssertionError("cone walked past the guard")
        yield

    monkeypatch.setattr(groups, "cone_levels", refuse)
    for walk in (lambda: groups.cone_sites(group, root, depth + 1),
                 lambda: groups.negative_monoid(group, depth + 1)):
        with pytest.raises(groups.WindowTooLarge,
                           match=f"cone of depth {depth + 1} in {group}"):
            walk()


_REDUCED = st.text("abAB", max_size=8).map(groups.reduce_word)
# reduced words, and reduced words ending in a chosen letter, so that each
# step letter meets words that end in its inverse
_F2_WORDS = st.one_of(_REDUCED, st.builds(
    lambda w, c: w.rstrip(c.swapcase()) + c, _REDUCED, st.sampled_from("abAB")))
_Z2_SITES = st.tuples(st.integers(-9, 9), st.integers(-9, 9))


@given(st.sampled_from([F2, Z2]), st.sampled_from(["ab", "AB"]), st.data())
def test_steps_is_multiply_by_each_letter(group, letters, data):
    u = data.draw(_F2_WORDS if group == F2 else _Z2_SITES)
    x, y = (letters if group == F2
            else (groups.Z2_STEP[letters[0]], groups.Z2_STEP[letters[1]]))
    assert groups.steps(group, letters)(u) == (
        groups.multiply(group, u, x), groups.multiply(group, u, y))
