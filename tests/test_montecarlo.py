from itertools import islice
import os

import numpy as np
import pytest

from homoclinic_lab import groups, montecarlo, rng, symbolic
from homoclinic_lab.groups import F2, Z2, GroupMismatch, WindowTooLarge
from homoclinic_lab.homoclinic import Configuration
from homoclinic_lab.montecarlo import (EnclosureTooWide, ExperimentConfig,
                                       _assign_bin, collision_search,
                                       empirical_fourier, haar_window_test,
                                       sample_config, tau_invariance_test)
from homoclinic_lab.ring import parse_ring_element, PolyF


def cfg_with(**kw):
    base = dict(seed=77, samples=50)
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.mark.parametrize("dof", [4, 5, 8, 24, 29, 35, 99])
def test_chi_square_p_is_the_scipy_stats_tail_bit_for_bit(dof):
    # every pinned haar document's dof; the package itself never imports
    # scipy.stats
    from scipy.stats import chi2
    gen = np.random.default_rng(dof)
    expected = [10.0] * (dof + 1)
    for _ in range(300):
        counts = gen.poisson(10.0, dof + 1)
        stat, p = montecarlo._chi_square_p(counts, expected)
        assert p == float(chi2.sf(stat, dof))


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        cfg_with(M=2)
    with pytest.raises(ValueError):
        cfg_with(samples=0)
    with pytest.raises(ValueError):
        cfg_with(eval_radius=12, sample_radius=12)
    with pytest.raises(ValueError):
        cfg_with(bins=1)
    with pytest.raises(ValueError):
        cfg_with(group="f3")


def test_rng_symbols_are_pure_functions():
    ids = rng.element_ids(F2, groups.ball(F2, 3))
    a = rng.symbols(9, 4, ids, 3)
    b = rng.symbols(9, 4, ids, 3)
    assert np.array_equal(a, b)
    # value depends only on the site id, not on array position
    sub = rng.symbols(9, 4, ids[5:9], 3)
    assert np.array_equal(sub, a[5:9])
    # different stream, seed or modulus decorrelate
    assert not np.array_equal(rng.symbols(9, 5, ids, 3), a)
    assert not np.array_equal(rng.symbols(10, 4, ids, 3), a)
    assert a.min() >= 0 and a.max() <= 2


def test_rng_child_ids_chain_like_word_ids():
    words = [w for w in groups.ball(F2, 4) if not w.endswith("A")]
    ids = np.array([rng.word_id(w) for w in words], dtype=np.uint64)
    kids = rng.child_ids(ids, "a")
    expect = np.array([rng.word_id(w + "a") for w in words], dtype=np.uint64)
    assert np.array_equal(kids, expect)


def test_rng_rough_uniformity():
    ids = rng.element_ids(F2, groups.ball(F2, 6))  # 1457 sites
    vals = rng.symbols(123, 0, ids, 3)
    counts = np.bincount(vals, minlength=3)
    assert counts.sum() == len(ids)
    # 4 sigma around the uniform mean
    sigma = (len(ids) * (1 / 3) * (2 / 3)) ** 0.5
    assert all(abs(c - len(ids) / 3) < 4 * sigma for c in counts)


def test_sample_config_determinism_and_window_consistency():
    cfg = cfg_with(sample_radius=5)
    d1 = sample_config(cfg, 3)
    d2 = sample_config(cfg, 3)
    assert d1.values == d2.values
    assert d1.alphabet == (0, 2)
    assert set(d1.values) == set(groups.ball(F2, 5))
    small = sample_config(cfg, 3, window=groups.ball(F2, 2))
    assert all(small.values[s] == d1.values[s] for s in small.values)
    assert sample_config(cfg, 4).values != d1.values


def test_assign_bin_certification():
    # depth 2: den 27, tail 16 units
    assert _assign_bin(5, 2, 3, 3) is None    # [5, 21] straddles bins
    assert _assign_bin(20, 2, 3, 3) is None   # [20, 36] wraps past 27
    # depth 8: den 19683, tail 1024 units
    assert _assign_bin(0, 8, 3, 10) == 0      # [0, 1024] inside bin 0
    assert _assign_bin(2000, 8, 3, 10) == 1
    assert _assign_bin(19683 + 2000, 8, 3, 10) == 1  # numerator mod den
    assert _assign_bin(1960, 8, 3, 10) is None       # crosses 19683/10


def test_haar_window_test_passes_and_is_deterministic():
    cfg = cfg_with(samples=200, sample_radius=8, bins=6)
    rep1 = haar_window_test(cfg)
    rep2 = haar_window_test(cfg)
    assert rep1 == rep2
    assert rep1["passed"] is True
    assert rep1["config"] == cfg.to_json_dict()
    assert len(rep1["coordinates"]) == len(groups.ball(F2, 1))
    for c in rep1["coordinates"]:
        assert c["determined"] + c["ambiguous"] == cfg.samples
        assert sum(c["histogram"]) == c["determined"]
        assert c["p_value"] > 1e-3
    assert rep1["pair"]["cells"] == 6
    assert rep1["pair"]["bins_per_cell"] == 1
    assert rep1["ambiguous_rate"] < 0.01


def test_haar_window_test_z2():
    cfg = cfg_with(samples=150, group=Z2, sample_radius=9, bins=5)
    rep = haar_window_test(cfg)
    assert rep["passed"] is True
    assert rep["pair"]["sites"] == ["(0,0)", "(-1,0)"]


def test_haar_jobs_merge_bit_identical():
    cfg = cfg_with(samples=60, sample_radius=8, bins=6)
    assert haar_window_test(cfg, jobs=2) == haar_window_test(cfg, jobs=1)


def test_worker_count_is_capped_at_the_cpu_count(inline_pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg = cfg_with(samples=60, sample_radius=8, bins=6)
    assert haar_window_test(cfg, jobs=10_000) == haar_window_test(cfg, jobs=1)
    assert inline_pool == [3]


def test_haar_rejects_wide_enclosure():
    cfg = cfg_with(samples=10, sample_radius=8, bins=30)
    with pytest.raises(EnclosureTooWide):
        haar_window_test(cfg)


def test_haar_flags_degenerate_sampler(monkeypatch):
    cfg = cfg_with(samples=120, sample_radius=8, bins=6)

    def zeros(seed, index, ids, M, letter=None):
        yield 0, np.zeros(len(ids), dtype=np.uint64)

    monkeypatch.setattr(rng, "draw", zeros)
    rep = haar_window_test(cfg)
    assert rep["passed"] is False
    assert rep["min_p_value"] <= 1e-3


def test_tau_invariance_passes():
    cfg = cfg_with(samples=100, sample_radius=10)
    rep = tau_invariance_test(cfg)
    assert rep["passed"] is True
    assert rep == tau_invariance_test(cfg)
    roots = [v["root"] for v in rep["variants"]]
    assert roots == ["", "a"]
    for v in rep["variants"]:
        assert v["retained"] + v["discarded"] == cfg.samples
        assert v["exact_coordinate_matches"] == v["retained"]
        assert v["image_collisions"] == 0
        assert v["discard_rate"] <= v["discard_bound"]
    assert rep["variants"][0]["rhs"] == {
        "": "1/3", "a": "0", "b": "0", "A": "1/9", "B": "1/9"}


def test_tau_invariance_guards():
    with pytest.raises(ValueError):
        tau_invariance_test(cfg_with(group=Z2, sample_radius=10))
    with pytest.raises(ValueError):
        tau_invariance_test(cfg_with(M=4, sample_radius=10))
    with pytest.raises(ValueError):
        tau_invariance_test(cfg_with(sample_radius=24))


@pytest.mark.parametrize("root", ["", "a"])
def test_tau_cascade_matches_carry_add(root):
    # the numpy cascade on one draw of the stored backward cone against the
    # addition machine on the same window, sample by sample
    cfg = cfg_with(sample_radius=4)
    R = cfg.sample_radius
    cone = montecarlo._Cone(F2, root, "AB")
    cone.grow(R)
    sites = [s for level in islice(groups.cone_levels(F2, root, "AB"), R + 1)
             for s in level]
    assert np.array_equal(cone.ids, rng.element_ids(F2, sites))
    discards = 0
    for index in range(300):
        values, img = montecarlo._tau_cascade(cfg, index, cone)
        d = Configuration(F2, {s: int(v) for s, v in zip(sites, values)},
                          (0, 2))
        try:
            res = symbolic.carry_add(d, root, cfg.M)
        except symbolic.BoundaryOverflow:
            assert img is None
            discards += 1
            continue
        assert img is not None
        assert res.config.values == {s: int(v) for s, v in zip(sites, img)}
    assert 0 < discards < 300


def test_tau_cascade_draws_once_per_sample(monkeypatch):
    # blocks of samples share a draw; every sample index of both variants
    # is still drawn exactly once, over the whole stored cone
    drawn = []
    draw = rng.draw

    def counted(seed, index, ids, *args):
        assert len(ids) == 2 ** 7 - 1
        drawn.extend(index if isinstance(index, range) else [index])
        return draw(seed, index, ids, *args)

    monkeypatch.setattr(rng, "draw", counted)
    cfg = cfg_with(samples=20, sample_radius=6)
    tau_invariance_test(cfg)
    assert sorted(drawn) == list(range(2 * cfg.samples))


@pytest.mark.parametrize("R", [8, 14])
def test_tau_blocks_match_the_one_row_cascade(R):
    # one sample, a block short of one and a block and one more, in the
    # blocks the variant uses: every row is the one-sample cascade
    cfg = cfg_with(sample_radius=R)
    cone = montecarlo._Cone(F2, "a", "AB")
    cone.grow(R)
    per = montecarlo._ROW_BLOCK // len(cone.ids)
    discards = 0
    for n in (1, per - 1, per + 1):
        for lo, hi in montecarlo._row_blocks(5, 5 + n, len(cone.ids)):
            values, img, kept = montecarlo._tau_block(cfg, lo, hi, cone)
            for index, v, i, ok in zip(range(lo, hi), values, img, kept):
                one_v, one_i = montecarlo._tau_cascade(cfg, index, cone)
                assert np.array_equal(v, one_v)
                assert ok == (one_i is not None)
                if ok:
                    assert np.array_equal(i, one_i)
                discards += not ok
    # some of the 1,027 cascades at R = 8 reach the last level
    assert (discards > 0) == (R == 8)


def test_digest_matches_are_rechecked_on_the_images(monkeypatch):
    # with every digest equal, each retained sample after the first is
    # rechecked against the first by regenerating both images
    class Same:
        def __init__(self, data):
            pass

        def digest(self):
            return b"same"

    cfg = cfg_with(samples=30, sample_radius=6)
    honest = tau_invariance_test(cfg)
    cascades = []
    cascade = montecarlo._tau_cascade

    def counted(cfg, index, cone):
        cascades.append(index)
        return cascade(cfg, index, cone)

    monkeypatch.setattr(montecarlo.hashlib, "sha256", Same)
    monkeypatch.setattr(montecarlo, "_tau_cascade", counted)
    rep = tau_invariance_test(cfg)
    rechecks = 0
    for v, h in zip(rep["variants"], honest["variants"]):
        assert v["distinct_images"] == 1
        assert v["image_collisions"] == 0
        assert {k: x for k, x in v.items() if k != "distinct_images"} == \
            {k: x for k, x in h.items() if k != "distinct_images"}
        rechecks += v["retained"] - 1
    assert len(cascades) == 2 * rechecks


@pytest.mark.parametrize("group", [F2, Z2])
def test_base_folds_match_cone_folds(group):
    # 70 samples: not a multiple of any block's row count
    seed, M = 31, 3
    for root in groups.ball(group, 1):
        cone = montecarlo._Cone(group, root)
        for depth in range(2, 9):
            nums = montecarlo._base_folds(cone, seed, range(40, 110), M, depth)
            assert nums == [montecarlo._ConeFold(cone, seed, i, M)
                            .to_depth(depth) for i in range(40, 110)]


def test_fold_depth_guard_fails_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew symbols before the depth check")

    monkeypatch.setattr(rng, "draw", no_draw)
    with pytest.raises(WindowTooLarge):
        haar_window_test(cfg_with(sample_radius=13))  # 13 + 12 > 24
    with pytest.raises(WindowTooLarge):
        haar_window_test(cfg_with(sample_radius=8, bins=6), max_extra=17)
    with pytest.raises(WindowTooLarge):
        collision_search(cfg_with(), pair_depth=8, max_extra=17)
    # the limit is criterion 9's depth, and z2 levels stay small
    montecarlo._check_fold_depth(F2, 24)
    montecarlo._check_fold_depth(Z2, 40)


def test_stored_cone_guard_fails_before_any_cone_grows(monkeypatch):
    def no_grow(*args):
        raise AssertionError("grew a cone before the memory check")

    monkeypatch.setattr(montecarlo._Cone, "grow", no_grow)
    # eval radius 1 has 5 sites; at depth 20 each stores 2^21 - 1 ids
    monkeypatch.setattr(montecarlo, "_MAX_STORED_IDS", 5 * (2 ** 21 - 1) - 1)
    with pytest.raises(WindowTooLarge, match="5 cones stored to level 20"):
        haar_window_test(cfg_with(sample_radius=8))  # 8 + 12 = 20
    monkeypatch.setattr(montecarlo, "_MAX_STORED_IDS", 1000)
    with pytest.raises(WindowTooLarge):
        collision_search(cfg_with(), control=2)  # 5 cones of 2^15 - 1 ids
    with pytest.raises(WindowTooLarge):
        haar_window_test(cfg_with(group=Z2, sample_radius=30, eval_radius=3))


def test_stored_cone_guard_bounds():
    # counted at the deepest stored level: 20 on f2 however deep the fold
    check = montecarlo._check_fold_depth
    check(F2, 24, 17)  # the pinned haar document, about 35.7M ids
    check(F2, 24, 64)
    with pytest.raises(WindowTooLarge):
        check(F2, 21, 65)  # haar-test --eval-radius 4 needs 161 sites
    check(F2, 14, 1457)  # collisions --eval-radius 6
    with pytest.raises(WindowTooLarge):
        check(F2, 14, 4373)  # collisions --eval-radius 7
    # z2 cones store (l + 1)(l + 2) / 2 ids to level l
    check(Z2, 40, montecarlo._MAX_STORED_IDS // 861)
    with pytest.raises(WindowTooLarge):
        check(Z2, 40, montecarlo._MAX_STORED_IDS // 861 + 1)


def test_collision_search_free_group():
    cfg = cfg_with(samples=40)
    rep = collision_search(cfg, control=16)
    assert rep["passed"] is True
    assert rep["control"] == {"pairs": 16, "enclosure_matches": 16,
                              "passed": True}
    rp = rep["random_pairs"]
    assert rp["pairs"] == 40
    assert rp["separated"] == 40 and rp["unresolved"] == 0
    assert rep["collisions_found"] == 0
    fam = rep["family"]
    assert fam["passed"] is True
    assert fam["pattern_allowed"] and fam["difference_is_one_on_interior"]
    assert fam["percolation_forcing"] == ["pair", "pair"]


def test_collision_search_z2_has_no_family_section():
    cfg = cfg_with(samples=15, group=Z2)
    rep = collision_search(cfg, control=8)
    assert rep["family"] is None
    assert rep["passed"] is True


def test_collision_search_requires_m_three():
    with pytest.raises(ValueError):
        collision_search(cfg_with(M=4, samples=5), control=2)


def test_empirical_fourier_member_is_exact():
    cfg = cfg_with(samples=200, sample_radius=10)
    f = PolyF.standard(3, F2)
    g = parse_ring_element("1 + a") * f.as_ring()
    rep = empirical_fourier(cfg, g)
    assert rep["estimate"] == [1.0, 0.0]
    assert rep["bias_bound"] == 0.0
    assert rep["zero_phase_samples"] == cfg.samples
    assert rep["band"] == 3.0 / cfg.samples ** 0.5


def test_empirical_fourier_non_member_stays_in_band():
    cfg = cfg_with(samples=400, sample_radius=10)
    rep = empirical_fourier(cfg, parse_ring_element("1"))
    est = complex(*rep["estimate"])
    assert abs(est) < rep["band"]
    assert rep["sites"] == 2 ** 11 - 1
    assert rep["bias_bound"] > 0


def test_empirical_fourier_jobs_identical():
    cfg = cfg_with(samples=60, sample_radius=8)
    g = parse_ring_element("a - b")
    assert empirical_fourier(cfg, g, jobs=2) == empirical_fourier(cfg, g)


def test_empirical_fourier_guards():
    cfg = cfg_with(samples=10)
    with pytest.raises(GroupMismatch):
        empirical_fourier(cfg, parse_ring_element("1", Z2))
    from fractions import Fraction
    from homoclinic_lab.ring import RingElement
    with pytest.raises(ValueError):
        empirical_fourier(cfg, RingElement(F2, {"": Fraction(1, 2)}))
    with pytest.raises(ValueError):
        empirical_fourier(cfg_with(samples=5, sample_radius=1),
                          parse_ring_element("a*b*a"))


def test_fourier_chunk_python_int_branch_matches_int64():
    # a real plan scaled by 2^40 puts the dot product's bound past 2^62, so
    # the chunk takes its Python-int branch; the residues scale with it
    cfg = cfg_with(sample_radius=8)
    g = parse_ring_element("1 + a - 2*B")
    sites, nums, den, _ = montecarlo._fourier_plan(
        g, PolyF(cfg.M, cfg.group), cfg.sample_radius)
    assert (len(sites), den) == (639, 3 ** 10)
    ids = [rng.element_id(cfg.group, s) for s in sites]
    scale = 1 << 40
    assert max(map(abs, nums)) * scale * (cfg.M - 1) * len(nums) >= 1 << 62
    fast = montecarlo._fourier_chunk(cfg, 0, cfg.samples, ids, nums, den)
    wide = montecarlo._fourier_chunk(cfg, 0, cfg.samples, ids,
                                     [n * scale for n in nums], den * scale)
    assert wide == [r * scale for r in fast]
    assert any(fast)


@pytest.mark.parametrize("n", [0, 3, 70_000])
@pytest.mark.parametrize("scale", [1, 1 << 50])
def test_fourier_chunk_is_the_one_stream_pairing(n, scale):
    # short rows many to a draw block, and rows past rng._BLOCK in parts;
    # at 70,000 sites scale 2^50 takes the Python-int branch
    cfg = cfg_with(samples=20)
    gen = np.random.default_rng(n)
    ids = gen.integers(0, 1 << 64, n, dtype=np.uint64, endpoint=False)
    nums = [int(x) * scale for x in gen.integers(-50, 50, n)]
    den = 3 ** 7 * scale
    got = montecarlo._fourier_chunk(cfg, 4, 17, ids.tolist(), nums, den)
    assert got == [sum(a * int(v) for a, v in
                       zip(nums, rng.symbols(cfg.seed, i, ids, cfg.M))) % den
                   for i in range(4, 17)]
