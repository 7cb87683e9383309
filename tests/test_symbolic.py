import heapq
import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homoclinic_lab import groups
from homoclinic_lab.groups import F2, Z2
from homoclinic_lab.homoclinic import Configuration
from homoclinic_lab.ring import PolyF, RingElement
from homoclinic_lab.symbolic import (BoundaryOverflow, ConstraintViolated,
                                     Tree, ValueOutOfRange, allowed_patterns,
                                     binomial_collision_mass, carry_add,
                                     catalan, enumerate_trees,
                                     injectivity_bound, partition_mass,
                                     partition_mass_limit,
                                     pattern_completions, percolation_path,
                                     reduce_cover)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def test_catalan_oracle():
    assert [catalan(n) for n in range(11)] == CATALAN


def test_tree_enumeration_counts():
    for n in range(8):
        trees = enumerate_trees(n)
        assert len(trees) == CATALAN[n]
        assert len(set(t.nodes for t in trees)) == len(trees)
    with pytest.raises(ValueError):
        enumerate_trees(13)
    with pytest.raises(ValueError):
        enumerate_trees(-1)


def test_tree_closure_and_boundary_oracle():
    t = Tree(["", "A", "B", "AB", "BA", "BB"])
    closure = t.closure()
    assert len(closure) == 13
    assert t.boundary() == closure - t.nodes
    assert t.boundary() == {"AA", "ABA", "ABB", "BAA", "BAB", "BBA", "BBB"}


def test_tree_laws_hold_for_all_small_trees():
    for n in range(7):
        for t in enumerate_trees(n):
            assert len(t.closure()) == 2 * t.size + 1
            assert len(t.boundary()) == t.size + 1


def test_tree_rejects_non_prefix_closed_sets():
    with pytest.raises(ValueError):
        Tree(["A", "AB"])
    with pytest.raises(ValueError):
        Tree(["", "ab"])


def _galton_watson_masses(n_max, M):
    """Cumulative total-progeny law of a Galton-Watson tree with 2 children
    w.p. 1/M and none w.p. (M-1)/M: p_0 = (M-1)/M and
    p_n = (1/M) sum_{i+j=n-1} p_i p_j."""
    p = [Fraction(M - 1, M)]
    for n in range(1, n_max + 1):
        p.append(sum(p[i] * p[n - 1 - i] for i in range(n)) / M)
    return list(accumulate(p))


def test_cylinder_measure_and_partition_mass():
    # the M - 1 cylinders of the empty tree have measure 1/M each
    assert partition_mass(0) == Fraction(2, 3)
    assert partition_mass(1) == Fraction(22, 27)
    assert partition_mass(2) == Fraction(214, 243)
    masses = [partition_mass(n) for n in range(12)]
    assert all(m1 < m2 for m1, m2 in zip(masses, masses[1:]))
    assert all(m < 1 for m in masses)
    for M in (3, 4, 5):
        reference = _galton_watson_masses(71, M)
        for n in (0, 1, 5, 30, 70, 71):
            assert partition_mass(n, M) == reference[n]
        assert partition_mass_limit(M) == 1
    # 71 is the smallest tree size meeting the 1 - 1e-6 gate at M = 3
    gate = 1 - Fraction(1, 10 ** 6)
    assert partition_mass(70) <= gate < partition_mass(71) <= 1


def test_pattern_table_counts():
    assert len(allowed_patterns(3, 2)) == 41
    for M in (3, 4, 5, 6, 7):
        assert len(allowed_patterns(M, 1)) == 15
    assert allowed_patterns(4, 1) == allowed_patterns(7, 1)


def test_pattern_completions():
    wide = allowed_patterns(3, 2)
    assert pattern_completions(wide, 2) == [(2, 2, 2)]
    narrow = allowed_patterns(3, 1)
    assert pattern_completions(narrow, 1) == [(1, 0, 1), (1, 1, 0), (1, 1, 1)]
    assert pattern_completions(narrow, -1) == [(-1, -1, -1), (-1, -1, 0),
                                               (-1, 0, -1)]
    # sign symmetry of the table
    assert {(-k, -l, -m) for k, l, m in narrow} == narrow


def test_reduce_cover_single_fire():
    window = {"": 3, "a": 0, "b": 0, "A": 0, "B": 0}
    d = Configuration(F2, window, (0, 3))
    res = reduce_cover(d, 3)
    assert res.config.values == {"": 0, "a": 0, "b": 0, "A": 1, "B": 1}
    assert res.carry == RingElement(F2, {"": 1})
    assert res.spill == {}


def test_reduce_cover_cascade_and_spill():
    window = {"": 3, "a": 0, "b": 0, "A": 2, "B": 0}
    d = Configuration(F2, window, (0, 3))
    res = reduce_cover(d, 3)
    # "" fires first, pushing A to 3; A then fires across the window edge
    assert res.config.values[""] == 0
    assert res.config.values["A"] == 0
    assert res.spill == {"AA": 1, "AB": 1}
    f = PolyF.standard(3, F2)
    din = d.as_ring()
    dout = res.config.as_ring() + RingElement(F2, dict(res.spill))
    assert dout - din == -(res.carry * f.star_ring())


def test_reduce_cover_checks_alphabet():
    with pytest.raises(ValueOutOfRange):
        reduce_cover(Configuration(F2, {"": 4}, (0, 4)), 3)


def test_carry_add_oracle():
    d = Configuration(F2, {"": 2, "A": 0, "B": 1}, (0, 2))
    res = carry_add(d, "", 3)
    assert res.config.values == {"": 0, "A": 1, "B": 2}
    assert res.carry == RingElement(F2, {"": 1})


def test_carry_add_conservation():
    window = {"": 2, "A": 2, "B": 2, "AA": 0, "AB": 1, "BA": 1, "BB": 0}
    d = Configuration(F2, window, (0, 2))
    res = carry_add(d, "", 3)
    f = PolyF.standard(3, F2)
    lhs = res.config.as_ring() - d.as_ring() - RingElement(F2, {"": 1})
    assert lhs == -(res.carry * f.star_ring())
    assert all(0 <= v <= 2 for v in res.config.values.values())


def test_carry_add_boundary_overflow():
    d = Configuration(F2, {"": 2}, (0, 2))
    with pytest.raises(BoundaryOverflow):
        carry_add(d, "", 3)


def test_carry_add_requires_site_in_window():
    d = Configuration(F2, {"": 1}, (0, 2))
    with pytest.raises(ValueError):
        carry_add(d, "a", 3)


# -- references for the toppling loop ---------------------------------------

# the rest of the settings come from the profile in conftest.py
PROPERTY = settings(max_examples=150)


def _children(group):
    a, b = groups.generators(group)
    return groups.inverse(group, a), groups.inverse(group, b)


def reference_sweep(d, M):
    """The reduction process as one descending height sweep: each window
    site fires once in its height turn if it holds M or more.  Returns
    (values, fired, spill)."""
    group = d.group
    work = dict(d.values)
    fired = {}
    spill = {}
    by_height = {}
    for el in work:
        by_height.setdefault(groups.height(group, el), []).append(el)
    for k in sorted(by_height, reverse=True):
        for s in sorted(by_height[k], key=lambda el: groups.sort_key(group, el)):
            if work[s] >= M:
                work[s] -= M
                fired[s] = fired.get(s, 0) + 1
                for c in _children(group):
                    child = groups.multiply(group, s, c)
                    if child in work:
                        work[child] += 1
                    else:
                        spill[child] = spill.get(child, 0) + 1
    return work, fired, spill


def reference_heap(d, site, M):
    """The addition machine as a word-order heap that stops at the first
    carry leaving the window.  Returns (values, fired, overflow site or
    None)."""
    group = d.group
    work = dict(d.values)
    work[site] += 1
    fired = {}
    heap = [(groups.sort_key(group, site), site)] if work[site] >= M else []
    while heap:
        _, s = heapq.heappop(heap)
        if work[s] < M:
            continue
        work[s] -= M
        fired[s] = fired.get(s, 0) + 1
        for c in _children(group):
            child = groups.multiply(group, s, c)
            if child not in work:
                return work, fired, child
            work[child] += 1
            if work[child] >= M:
                heapq.heappush(heap, (groups.sort_key(group, child), child))
    return work, fired, None


WINDOWS = {
    (group, shape, r): (groups.ball(group, r) if shape == "ball"
                        else groups.negative_monoid(group, r))
    for group in (F2, Z2)
    for shape, radii in (("ball", (1, 2, 3)), ("cone", (1, 2, 3, 4, 5)))
    for r in radii
}


@st.composite
def windows(draw, top):
    """A ball or backward cone over f2 or z2, M in 3..5, and values in
    {0,...,M + top}, each the top value at a drawn density (cascades die
    out below 1/2 and tend to run to the window edge above it)."""
    window = WINDOWS[draw(st.sampled_from(sorted(WINDOWS)))]
    group = F2 if isinstance(window[0], str) else Z2
    M = draw(st.integers(3, 5))
    density = draw(st.sampled_from((0.3, 0.45, 0.6)))
    fill = random.Random(draw(st.integers(0, 2 ** 32)))
    values = {s: M + top if fill.random() < density
              else fill.randrange(M + top) for s in window}
    return Configuration(group, values, (0, M + top)), M


@PROPERTY
@given(windows(top=0))
def test_reduce_cover_matches_the_height_sweep(case):
    d, M = case
    values, fired, spill = reference_sweep(d, M)
    res = reduce_cover(d, M)
    assert res.config.values == values
    assert list(res.config.values) == list(d.values)
    assert res.carry == RingElement(d.group, fired)
    assert res.spill == spill


@PROPERTY
@given(windows(top=-1), st.data())
def test_carry_add_matches_the_stopping_heap(case, data):
    d, M = case
    # a full site in the inner quarter of the window starts a cascade with
    # room to stop inside it
    order = sorted(d.values, key=lambda el: groups.sort_key(d.group, el))
    site = data.draw(st.sampled_from(order[:len(order) // 4 + 1]))
    d.values[site] = M - 1
    values, fired, overflow = reference_heap(d, site, M)
    if overflow is not None:
        with pytest.raises(BoundaryOverflow) as exc:
            carry_add(d, site, M)
        assert exc.value.site == overflow
        return
    res = carry_add(d, site, M)
    assert res.config.values == values
    assert res.carry == RingElement(d.group, fired)
    assert res.spill == {}


def test_carry_add_runs_a_long_cascade_to_the_end():
    # value 2 on levels 0..16 of the depth-17 backward cone: adding 1 at
    # the root fires all 2^17 - 1 of those sites once and leaves 1 on
    # every site of level 17
    window = groups.negative_monoid(F2, 17)
    d = Configuration(F2, {s: 0 if len(s) == 17 else 2 for s in window},
                      (0, 2))
    res = carry_add(d, "", 3)
    assert len(res.carry.terms) == 2 ** 17 - 1
    assert set(res.carry.terms.values()) == {1}
    assert all(v == (len(s) == 17) for s, v in res.config.values.items())


def test_percolation_on_the_all_ones_configuration():
    from homoclinic_lab import groups
    ones = Configuration(F2, {s: 1 for s in groups.ball(F2, 4)}, (-1, 1))
    rep = percolation_path(ones, "", 3, 3)
    assert rep["path"] == "aaa"
    assert [s["forcing"] for s in rep["steps"]] == ["pair"] * 3
    for step in rep["steps"]:
        assert step["pattern"] == (1, 1, 1)
        assert len(step["pair_set"]) == 5


def test_percolation_prefers_a_and_records_zero_forcing():
    from homoclinic_lab import groups
    values = {s: 0 for s in groups.ball(F2, 3)}
    values[""] = 1
    values["b"] = 1
    values["ba"] = 1
    c = Configuration(F2, values, (-1, 1))
    rep = percolation_path(c, "", 2, 3)
    assert rep["path"] == "ba"
    assert [s["forcing"] for s in rep["steps"]] == ["zero", "zero"]


def test_percolation_rejects_bad_start():
    from homoclinic_lab import groups
    zeros = Configuration(F2, {s: 0 for s in groups.ball(F2, 2)}, (-1, 1))
    with pytest.raises(ConstraintViolated):
        percolation_path(zeros, "", 1, 3)
    with pytest.raises(ConstraintViolated):
        percolation_path(Configuration(F2, {"": 1}, (-1, 1)), "", 1, 3)


def test_collision_mass_identities():
    for n in range(21):
        assert binomial_collision_mass(n) == Fraction(8, 9) ** n
        assert injectivity_bound(n, 3) == Fraction(8, 9) ** n
    assert injectivity_bound(2, 5) == Fraction(12, 25) ** 2
