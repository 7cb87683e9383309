from itertools import islice
import os
import tracemalloc

import numpy as np
import pytest

from homoclinic_lab import groups, montecarlo, rng, symbolic
from homoclinic_lab.groups import F2, Z2, GroupMismatch, WindowTooLarge
from homoclinic_lab.homoclinic import Configuration
from homoclinic_lab.montecarlo import (EnclosureTooWide, ExperimentConfig,
                                       _assign_bin, collision_search,
                                       empirical_fourier, haar_window_test,
                                       tau_invariance_test)
from homoclinic_lab.ring import kernel_convolution, parse_ring_element, PolyF


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


def test_haar_window_of_one_site_has_no_pair_test():
    # at eval radius 0 the pair is the one site with itself, a diagonal
    # grid: it keeps its sites, cells and samples but gets no chi-square,
    # and neither min_p_value nor the verdict reads it
    rep = haar_window_test(cfg_with(samples=150, sample_radius=8, bins=6,
                                    eval_radius=0))
    [coord] = rep["coordinates"]
    pair = rep["pair"]
    assert pair["sites"] == [coord["site"]] * 2
    assert (pair["cells"], pair["samples"]) == (6, coord["determined"])
    assert pair["chi_square"] is None and pair["p_value"] is None
    assert rep["min_p_value"] == coord["p_value"]
    assert rep["passed"] is True


def test_haar_flags_degenerate_sampler(monkeypatch):
    cfg = cfg_with(samples=120, sample_radius=8, bins=6)

    def zeros(seed, rows, ids, M):
        yield 0, np.zeros(len(rows) * len(ids), dtype=np.uint64)

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
        tau_invariance_test(cfg_with(sample_radius=24))
    # the cylinder masses and the carry take any M: M = 4 and 5 run and
    # pass, every retained sample meeting the exact identity
    for M in (4, 5):
        rep = tau_invariance_test(cfg_with(M=M, samples=400,
                                           sample_radius=10))
        assert rep["passed"] is True
        for v in rep["variants"]:
            assert v["exact_coordinate_matches"] == v["retained"] > 0
            assert v["image_collisions"] == 0


@pytest.mark.parametrize("root", ["", "a"])
def test_tau_cascade_matches_carry_add(root):
    # the numpy cascade on one draw of the gathered backward cone against
    # the addition machine on the same window, sample by sample
    cfg = cfg_with(sample_radius=4)
    R = cfg.sample_radius
    window = montecarlo._Cone(F2, root, "AB").gather(R)
    sites = [s for level in islice(groups.cone_levels(F2, root, "AB"), R + 1)
             for s in level]
    assert np.array_equal(window, rng.element_ids(F2, sites))
    discards = 0
    for index in range(300):
        values, img = montecarlo._tau_cascade(cfg, index, window)
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


def _reaches(cfg, index, window, level):
    """Whether the sample's cascade fires a site of the given level."""
    return not montecarlo._tau_block(cfg, index, index + 1, window,
                                     level)[2][0]


def test_tau_cascade_draws_once_per_sample(monkeypatch):
    # every sample index of both variants is drawn once over the prefix
    # levels; only the cascades that reach the prefix's last level are
    # drawn again, once, over the whole window (no prefixes tie at R =
    # 10)
    k = montecarlo._TAU_PREFIX
    prefix, whole = [], []
    draw = rng.draw

    def counted(seed, rows, ids, *args):
        assert len(ids) in (2 ** (k + 1) - 1, 2 ** 11 - 1)
        (prefix if len(ids) < 2 ** 11 - 1 else whole).extend(rows)
        return draw(seed, rows, ids, *args)

    cfg = cfg_with(samples=100, sample_radius=10)
    cones = {root: montecarlo._Cone(F2, root, "AB").gather(cfg.sample_radius)
             for root in ("", "a")}
    reach = [i for i in range(2 * cfg.samples)
             if _reaches(cfg, i, cones["a" if i >= cfg.samples else ""], k)]
    monkeypatch.setattr(rng, "draw", counted)
    tau_invariance_test(cfg)
    assert sorted(prefix) == list(range(2 * cfg.samples))
    assert reach and whole == reach


def test_tau_identity_walks_only_nonzero_diffs(monkeypatch):
    # a sample whose root did not fire is never discarded and changes
    # nothing, so its diff is {root: 0}; every other retained sample runs
    # the identity once.  Each variant also convolves its rhs, {root: 1}
    cfg = cfg_with(samples=200, sample_radius=10)
    plain = tau_invariance_test(cfg)
    calls = []

    def counted(f, terms, window, star=False):
        assert any(terms.values())
        calls.append(terms)
        return kernel_convolution(f, terms, window, star)

    monkeypatch.setattr(montecarlo, "kernel_convolution", counted)
    assert tau_invariance_test(cfg) == plain
    quiet = 0
    for v, lo in zip(plain["variants"], (0, cfg.samples)):
        root = rng.element_ids(F2, [v["root"]])
        rows = rng.symbol_rows(cfg.seed, range(lo, lo + cfg.samples), root,
                               cfg.M)
        quiet += int((rows[:, 0] != cfg.M - 1).sum())
    retained = sum(v["retained"] for v in plain["variants"])
    assert 0 < retained - quiet
    assert len(calls) == 2 + retained - quiet


@pytest.mark.parametrize("R", [8, 14])
def test_tau_blocks_match_the_one_row_cascade(R):
    # one sample, a block short of one and a block and one more, in the
    # blocks the variant uses: every row is the one-sample cascade
    cfg = cfg_with(sample_radius=R)
    window = montecarlo._Cone(F2, "a", "AB").gather(R)
    per = montecarlo._ROW_BLOCK // len(window)
    discards = 0
    for n in (1, per - 1, per + 1):
        for lo, hi in montecarlo._row_blocks(5, 5 + n, len(window)):
            values, img, kept = montecarlo._tau_block(cfg, lo, hi, window)
            for index, v, i, ok in zip(range(lo, hi), values, img, kept):
                one_v, one_i = montecarlo._tau_cascade(cfg, index, window)
                assert np.array_equal(v, one_v)
                assert ok == (one_i is not None)
                if ok:
                    assert np.array_equal(i, one_i)
                discards += not ok
    # some of the 1,027 cascades at R = 8 reach the last level
    assert (discards > 0) == (R == 8)


def test_tied_prefixes_are_settled_on_the_whole_window(monkeypatch):
    # with levels 0..2 as the prefix (the least the frequency tally reads),
    # 1,000 samples of a depth-6 window fall into at most 3^7 prefix
    # images: every sample of a tied prefix is drawn again over the whole
    # window, next to the cascades that reach level 2, some tied prefixes
    # hold different images, and the document is the whole-window one
    cfg = cfg_with(samples=1000, sample_radius=6)
    honest = tau_invariance_test(cfg)
    cascades = []
    cascade = montecarlo._tau_cascade

    def counted(cfg, index, window):
        cascades.append(index)
        return cascade(cfg, index, window)

    monkeypatch.setattr(montecarlo, "_TAU_PREFIX", 2)
    monkeypatch.setattr(montecarlo, "_tau_cascade", counted)
    assert tau_invariance_test(cfg) == honest
    expected = []
    split = 0
    for v, lo in zip(honest["variants"], (0, cfg.samples)):
        window = montecarlo._Cone(F2, v["root"], "AB").gather(cfg.sample_radius)
        prefixes = {}
        for index in range(lo, lo + cfg.samples):
            img = cascade(cfg, index, window)[1]
            if _reaches(cfg, index, window, 2):
                expected.append(index)
            if img is not None:
                prefixes.setdefault(img[:7].tobytes(), []).append(
                    (index, img.tobytes()))
        for tied in prefixes.values():
            if len(tied) > 1:
                expected += [index for index, _ in tied]
                split += len({img for _, img in tied}) > 1
    assert sorted(cascades) == sorted(expected)
    assert split > 0


@pytest.mark.parametrize("R", [1, 2])
def test_equal_inputs_are_not_collisions(R):
    # a window of 3 or 7 sites repeats inputs among 200 samples: their
    # images repeat too, and the carry map stays injective
    rep = tau_invariance_test(cfg_with(seed=3, samples=200, sample_radius=R,
                                       eval_radius=0))
    for v in rep["variants"]:
        assert v["image_collisions"] == 0
        assert v["distinct_images"] < v["retained"]


def _whole_window_variant(cfg, root, index_lo, eval_sites):
    """The counts of _tau_variant from whole-window cascades of every
    sample: retained, discarded, exact matches, the largest deviation of
    the level 0..2 frequency table, distinct images and collisions
    (distinct inputs beyond the distinct images)."""
    M, R = cfg.M, cfg.sample_radius
    window = montecarlo._Cone(F2, root, "AB").gather(R)
    sites = [s for level in islice(groups.cone_levels(F2, root, "AB"), R + 1)
             for s in level]
    f = PolyF(M, F2)
    shallow = groups.cone_size(F2, min(2, R))
    freq = np.zeros((shallow, M), dtype=np.int64)
    discarded = matches = 0
    images, inputs = set(), set()
    values, img, kept = montecarlo._tau_block(
        cfg, index_lo, index_lo + cfg.samples, window)
    for v, i, ok in zip(values, img, kept):
        if not ok:
            discarded += 1
            continue
        freq[np.arange(shallow), i[:shallow]] += 1
        diff = {sites[p]: int(i[p]) - int(v[p]) for p in np.nonzero(i != v)[0]}
        diff[root] = diff.get(root, 0) - 1
        nums, E = kernel_convolution(f, diff, eval_sites, star=True)
        matches += all(n % M ** (E + 1) == 0 for n in nums)
        images.add(i.tobytes())
        inputs.add(v.tobytes())
    retained = cfg.samples - discarded
    return {"retained": retained, "discarded": discarded,
            "exact_coordinate_matches": matches,
            "frequency_max_deviation": float(
                np.abs(freq / max(retained, 1) - 1.0 / M).max()),
            "distinct_images": len(images),
            "image_collisions": len(inputs) - len(images)}


@pytest.mark.parametrize("R", sorted({2, montecarlo._TAU_PREFIX,
                                      montecarlo._TAU_PREFIX + 1, 8, 14}))
@pytest.mark.parametrize("root", ["", "a"])
def test_prefix_cascade_matches_the_whole_window(root, R):
    eval_sites = groups.ball(F2, 1)
    discards = 0
    for seed in (5, 77, 2024):
        cfg = cfg_with(seed=seed, samples=150, sample_radius=R)
        v = montecarlo._tau_variant(cfg, root, 40, eval_sites)
        ref = _whole_window_variant(cfg, root, 40, eval_sites)
        assert {k: v[k] for k in ref} == ref
        discards += ref["discarded"]
    # up to R = 8 a few cascades reach the last level and are discarded
    assert (discards > 0) == (R <= 8)


@pytest.mark.parametrize("group, depths", [
    pytest.param(F2, range(2, 9), id="f2"),
    # past z2 level 62 a level's weighted total can pass int64
    pytest.param(Z2, [*range(2, 9), 70], id="z2")])
def test_base_folds_match_cone_folds(group, depths):
    # 70 samples: not a multiple of any block's row count.  A block's folds
    # to each depth are its samples' one-row folds, and the block's folds
    # deepened at every position from the first depth
    seed, M, indices = 31, 3, range(40, 110)
    for root in groups.ball(group, 1):
        cone = montecarlo._Cone(group, root)
        deep = montecarlo._ConeFolds(cone, seed, indices, M, depths[0])
        for depth in depths:
            nums = montecarlo._ConeFolds(cone, seed, indices, M, depth).nums
            assert nums.tolist() == [
                montecarlo._ConeFolds(cone, seed, range(i, i + 1), M, depth)
                .nums[0] for i in indices]
            while deep.depth < depth:
                deep.deepen(np.arange(len(indices)))
            assert deep.nums.tolist() == nums.tolist()


def test_fold_depth_guard_fails_before_any_draw(monkeypatch, empty_store):
    def no_draw(*args):
        raise AssertionError("drew symbols before the depth check")

    monkeypatch.setattr(rng, "draw", no_draw)
    budget = "store budget %d bytes" % montecarlo._STORE_BYTES
    with pytest.raises(WindowTooLarge, match=budget):
        haar_window_test(cfg_with(sample_radius=13))  # 13 + 12 > 24
    with pytest.raises(WindowTooLarge, match=budget):
        haar_window_test(cfg_with(sample_radius=8, bins=6), max_extra=17)
    with pytest.raises(WindowTooLarge, match=budget):
        collision_search(cfg_with(), pair_depth=8, max_extra=17)
    assert empty_store == {}
    # the limit is criterion 9's depth, and z2 levels stay small
    montecarlo._check_fold_depth(F2, 24)
    montecarlo._check_fold_depth(Z2, 40)
    # half the budget holds criterion 9's folds no more
    monkeypatch.setattr(montecarlo, "_STORE_BYTES", 1 << 27)
    with pytest.raises(WindowTooLarge, match="store budget %d" % (1 << 27)):
        haar_window_test(cfg_with(sample_radius=12))  # 12 + 12 = 24
    montecarlo._check_fold_depth(F2, 23)


@pytest.mark.parametrize("experiment, name", [
    (haar_window_test, "max_extra"),
    (collision_search, "max_extra"),
    (collision_search, "pair_depth"),
    (collision_search, "control"),
])
def test_negative_counts_fail_before_any_draw(experiment, name, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew symbols before the argument check")

    monkeypatch.setattr(rng, "draw", no_draw)
    with pytest.raises(ValueError, match="%s.* must be nonnegative" % name):
        experiment(cfg_with(sample_radius=8, bins=6), **{name: -1})


def test_a_z2_fold_keeps_nothing(empty_store):
    # z2 cones are walked, never kept: once a fold to depth 150 is gone,
    # neither the memo nor anything else holds its levels
    tracemalloc.start()
    try:
        folds = montecarlo._ConeFolds(montecarlo._Cone(Z2, (0, 0)), 3,
                                      range(10), 3, 150)
        del folds
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 100_000
    assert empty_store == {}


def test_stored_cone_guard_fails_before_any_cone_grows(monkeypatch,
                                                       empty_store):
    def no_grow(*args):
        raise AssertionError("grew a cone before the memory check")

    monkeypatch.setattr(rng, "child_ids", no_grow)
    # a fold to depth 20 builds 2^20 ids past the kept levels, 8 MB: a
    # budget one byte short of 16 MB refuses it, 16 MB lets it go on to grow
    monkeypatch.setattr(montecarlo, "_STORE_BYTES", (1 << 24) - 1)
    with pytest.raises(WindowTooLarge, match="depth 20 builds 2\\^20 ids"):
        haar_window_test(cfg_with(sample_radius=8, bins=6))  # 8 + 12 = 20
    monkeypatch.setattr(montecarlo, "_STORE_BYTES", 1 << 24)
    with pytest.raises(AssertionError, match="grew a cone"):
        haar_window_test(cfg_with(sample_radius=8, bins=6))
    monkeypatch.setattr(montecarlo, "_STORE_BYTES", 1000)
    with pytest.raises(WindowTooLarge):
        collision_search(cfg_with(), control=2)  # folds to depth 8 + 6
    with pytest.raises(WindowTooLarge, match="25 cones to depth 42"):
        haar_window_test(cfg_with(group=Z2, sample_radius=30, eval_radius=3))
    with pytest.raises(WindowTooLarge, match="store budget 1000 bytes"):
        tau_invariance_test(cfg_with(sample_radius=6))  # 127 ids, twice


def test_stored_cone_guard_bounds(monkeypatch):
    # f2 folds are refused by their deepest level, 2^depth ids in half the
    # budget, however many sites: each site's levels are kept while a
    # quarter of the budget lasts and built per fold past it
    check = montecarlo._check_fold_depth
    check(F2, 24, 17)  # the pinned haar document
    check(F2, 21, 161)  # haar-test --eval-radius 4
    check(F2, 14, 4373)  # collisions --eval-radius 7
    with pytest.raises(WindowTooLarge, match="depth 25"):
        check(F2, 25)
    monkeypatch.setattr(montecarlo, "_STORE_BYTES", 1 << 20)
    check(F2, 16)
    with pytest.raises(WindowTooLarge, match="store budget %d" % (1 << 20)):
        check(F2, 17)
    # z2 cones hold (l + 1)(l + 2) / 2 ids to level l
    check(Z2, 40, montecarlo._STORE_BYTES // 8 // 861)
    with pytest.raises(WindowTooLarge):
        check(Z2, 40, montecarlo._STORE_BYTES // 8 // 861 + 1)


@pytest.mark.parametrize("budget", [100, 400, 1 << 28])
@pytest.mark.parametrize("group, root", [(F2, ""), (F2, "A"), (Z2, (1, -1))])
def test_interleaved_walks_of_one_cone_give_its_levels(group, root, budget,
                                                       monkeypatch,
                                                       empty_store):
    # two walks of one cone, stepped at different rates, each give the
    # cone's levels: on f2 a walk past the kept levels reads the ones the
    # other walk kept meanwhile (at 100 bytes only the first few fit), and
    # each z2 walk builds its own levels, never kept
    def levels(walk, n):
        return [np.concatenate([ids for ids, _ in parts]).tolist()
                for parts in islice(walk, n)]

    want = levels(montecarlo._Cone(group, root).walk(), 12)
    empty_store.clear()
    monkeypatch.setattr(montecarlo, "_STORE_BYTES", budget)
    slow = montecarlo._Cone(group, root).walk()
    fast = montecarlo._Cone(group, root).walk()
    got_slow, got_fast = [], []
    for _ in range(6):
        got_slow += levels(slow, 1)
        got_fast += levels(fast, 2)
    assert got_slow + levels(slow, 6) == got_fast == want


@pytest.mark.parametrize("room", [None, 0])
def test_store_views_give_the_words_at_heap_positions(room, empty_store):
    # position p of levels 0..d is the word root * _heap_word(p), reduced,
    # whether the levels are kept or there is no room left for them; the
    # Fourier plan reads its sites' ids at those positions
    quarter = montecarlo._STORE_BYTES // 4
    if room is not None:
        empty_store["others"] = [np.empty(quarter, np.uint8)]
    for letters in ("ab", "AB"):
        for root in ("", "a", "b", "A", "B", "aB", "BA", "Aba"):
            got = montecarlo._Cone(F2, root, letters).gather(6)
            words = [groups.f2_multiply(root, montecarlo._heap_word(p, letters))
                     for p in range(len(got))]
            assert got.tolist() == [rng.word_id(w) for w in words]
    g = parse_ring_element("1 + 2a - B + Ab")
    ids, nums, den, tail = montecarlo._fourier_plan(g, PolyF(3, F2), 7)
    assert room is None or montecarlo._kept_bytes() == quarter
    empty_store.clear()
    fresh = montecarlo._fourier_plan(g, PolyF(3, F2), 7)
    assert np.array_equal(ids, fresh[0]) and (den, tail) == fresh[2:]
    assert np.array_equal(nums, fresh[1])


def test_store_bytes_stay_within_the_budget(monkeypatch, empty_store):
    # a 64 KB budget under a sequence of every experiment: the kept levels
    # fill their quarter of it (2,048 ids), never past it, and every
    # document is the one a full budget gives
    def calls():
        yield haar_window_test(cfg_with(sample_radius=8, bins=6), max_extra=3)
        yield collision_search(cfg_with(samples=30), control=2, pair_depth=8,
                               max_extra=3)
        yield tau_invariance_test(cfg_with(samples=40, sample_radius=9))
        yield empirical_fourier(cfg_with(samples=30, sample_radius=10),
                                parse_ring_element("1 - a + 2B"))
        yield haar_window_test(cfg_with(group=Z2, sample_radius=9, bins=5))

    wide = list(calls())
    empty_store.clear()
    budget = 1 << 16
    monkeypatch.setattr(montecarlo, "_STORE_BYTES", budget)
    seen = []
    for doc, want in zip(calls(), wide):
        assert doc == want
        held = sum(ids.nbytes for levels in empty_store.values()
                   for ids in levels)
        assert held == montecarlo._kept_bytes() <= budget // 4
        seen.append(held)
    assert seen == sorted(seen) and seen[-1] > budget // 8


def test_haar_jobs_fork_a_warm_store(empty_store):
    # worker processes fork from a parent that keeps the cones' levels: the
    # merged document is the one a single process gives from no kept levels
    cfg = cfg_with(samples=60, sample_radius=8, bins=6)
    serial = haar_window_test(cfg, jobs=1)
    assert montecarlo._kept_bytes() > 0
    assert haar_window_test(cfg, jobs=2) == serial


def test_a_second_call_on_a_cone_reads_its_kept_levels(monkeypatch,
                                                       empty_store):
    # the reuse the kept levels are for: a second haar test on the same
    # cone, with a new seed, builds no level, and gives the document it
    # gives from no kept levels
    calls = []
    child_ids = rng.child_ids

    def counted(ids, letters):
        calls.append(len(ids))
        return child_ids(ids, letters)

    monkeypatch.setattr(rng, "child_ids", counted)
    radius = 12
    cfgs = [cfg_with(seed=seed, samples=20, sample_radius=radius,
                     eval_radius=0, bins=6) for seed in (5, 6)]
    haar_window_test(cfgs[0], max_extra=0)
    assert len(calls) == radius
    second = haar_window_test(cfgs[1], max_extra=0)
    assert len(calls) == radius
    empty_store.clear()
    assert haar_window_test(cfgs[1], max_extra=0) == second
    assert len(calls) == 2 * radius


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


@pytest.mark.parametrize("M", [4, 5])
def test_collision_search_runs_past_m_three(M):
    # the control family shifts by M - 2; the exact family is M = 3's alone
    for group in (F2, Z2):
        rep = collision_search(cfg_with(M=M, samples=30, group=group),
                               control=8)
        assert rep["control"]["enclosure_matches"] == 8
        assert rep["random_pairs"]["separated"] == 30
        assert rep["family"] is None
        assert rep["passed"] is True


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


@pytest.fixture
def no_growth(monkeypatch, empty_store):
    """Make any cone growth or symbol draw fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("grew a cone or drew before the size check")

    monkeypatch.setattr(rng, "child_ids", refuse)
    monkeypatch.setattr(rng, "draw", refuse)


def test_fourier_plan_guard_fails_before_any_cone_grows(no_growth):
    # one cone to level 20 holds 2^21 - 1 sites, past groups.MAX_ELEMENTS
    with pytest.raises(WindowTooLarge):
        empirical_fourier(cfg_with(samples=5, sample_radius=20),
                          parse_ring_element("1"))


def test_fourier_plan_refuses_a_union_past_the_guard(no_growth):
    # two disjoint cones of 2^20 - 1 sites each: each fits, the union does
    # not, as kernel_convolutions refuses a window of that many sites
    with pytest.raises(WindowTooLarge, match="2097150"):
        empirical_fourier(cfg_with(samples=5, sample_radius=20),
                          parse_ring_element("a + b"))
    # a cone inside another adds no sites: 1 + a at radius 19 is the one
    # cone of 2^20 - 1 sites, which passes the guard and goes on to grow
    with pytest.raises(AssertionError, match="grew a cone"):
        empirical_fourier(cfg_with(samples=5, sample_radius=19),
                          parse_ring_element("1 + a"))


def test_fourier_chunk_python_int_branch_matches_int64():
    # a real plan scaled by 2^40 puts the dot product's bound past 2^62, so
    # the chunk takes its Python-int branch; the residues scale with it
    cfg = cfg_with(sample_radius=8)
    g = parse_ring_element("1 + a - 2*B")
    ids, nums, den, _ = montecarlo._fourier_plan(
        g, PolyF(cfg.M, cfg.group), cfg.sample_radius)
    assert (len(ids), den) == (639, 3 ** 10)
    nums = [int(n) for n in nums]
    scale = 1 << 40
    assert max(map(abs, nums)) * scale * (cfg.M - 1) * len(nums) >= 1 << 62
    fast = montecarlo._fourier_chunk(cfg, 0, cfg.samples, ids, nums, den)
    wide = montecarlo._fourier_chunk(cfg, 0, cfg.samples, ids,
                                     [n * scale for n in nums], den * scale)
    assert wide == [r * scale for r in fast]
    assert any(fast)


@pytest.mark.parametrize("n", [0, 3, 70_000])
@pytest.mark.parametrize("scale", [1, 1 << 50, 1 << 70])
def test_fourier_chunk_is_the_one_stream_pairing(n, scale):
    # short rows many to a draw block, and rows past rng._BLOCK in parts;
    # at 70,000 sites scale 2^50 takes the Python-int branch, and 2^70
    # numerators do not fit in int64 at all
    cfg = cfg_with(samples=20)
    gen = np.random.default_rng(n)
    ids = gen.integers(0, 1 << 64, n, dtype=np.uint64, endpoint=False)
    nums = [int(x) * scale for x in gen.integers(-50, 50, n)]
    den = 3 ** 7 * scale
    got = montecarlo._fourier_chunk(cfg, 4, 17, ids.tolist(), nums, den)
    assert got == [sum(a * int(v) for a, v in
                       zip(nums, rng.symbols(cfg.seed, i, ids, cfg.M))) % den
                   for i in range(4, 17)]
