"""Differential tests of the blocked draw kernel (rng.draw and its readers
symbols, symbol_rows and the weighted symbol_sums) and of child_ids.

Tests with a letter axis also draw, beside random ids, the children of
those ids by a letter as rng.child_ids builds them: the ids of a cone
level, which the kernel draws like any others.

The reference written here is the whole-array formula the kernel must
reproduce bit for bit: xor the stream key into the ids (one key per row
for a range of streams), run the splitmix64 finalizer over the whole
array, re-finalize draws in the final partial block of the 64-bit range
until they fall below it, and reduce mod M.
Rejecting ids are built on purpose with the inverse finalizer, since a
random id reaches that branch with probability about M / 2^64.
"""

from itertools import islice, product
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homoclinic_lab import groups, montecarlo, rng
from homoclinic_lab.groups import F2, Z2
from homoclinic_lab.homoclinic import Configuration, TorusValue, phi_exact
from homoclinic_lab.ring import RingElement

# the rest of the settings come from the profile in conftest.py
PROPERTY = settings(max_examples=40)

B = rng._BLOCK
LENGTHS = (0, 1, 2, B - 1, B, B + 1, 3 * B + 7)
MASK = (1 << 64) - 1
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
GOLD = 0x9E3779B97F4A7C15


# -- whole-array reference ---------------------------------------------------

def ref_mix64(arr):
    arr = arr.astype(np.uint64, copy=True)
    arr ^= arr >> np.uint64(30)
    arr *= np.uint64(MIX1)
    arr ^= arr >> np.uint64(27)
    arr *= np.uint64(MIX2)
    arr ^= arr >> np.uint64(31)
    return arr


def stream_key(seed, index):
    return rng.mix64_int(rng.mix64_int(seed)
                         ^ rng.mix64_int((index + 1) * GOLD))


def ref_limit(M):
    return (1 << 64) - (1 << 64) % M


def ref_symbols(seed, index, ids, M):
    return ref_reduce(ref_mix64(ids ^ np.uint64(stream_key(seed, index))), M)


def ref_rows(seed, rows, ids, M):
    keys = np.array([stream_key(seed, i) for i in rows], dtype=np.uint64)
    return ref_reduce(ref_mix64(ids[None, :] ^ keys[:, None]), M)


def ref_reduce(v, M):
    rem = (1 << 64) % M
    if rem:
        limit = np.uint64((1 << 64) - rem)
        mask = v >= limit
        while mask.any():
            v[mask] = ref_mix64(v[mask])
            mask = v >= limit
    return (v % np.uint64(M)).astype(np.int64)


def ref_child_ids(ids, letter):
    return ref_mix64(ids ^ np.uint64(rng.LETTER[letter]))


def drawn_ids(ids, letter):
    """ids, or their children by the letter built by rng.child_ids, with
    the whole-array reference of the same ids."""
    if letter is None:
        return ids, ids
    return rng.child_ids(ids, letter), ref_child_ids(ids, letter)


# -- inverse finalizer, to build ids that reach the rejection loop -----------

def _unshift(x, k):
    # inverts x ^= x >> k on 64 bits
    y = x
    for _ in range(64 // k + 1):
        y = x ^ (y >> k)
    return y & MASK


def unmix64_int(x):
    x = _unshift(x, 31)
    x = (x * pow(MIX2, -1, 1 << 64)) & MASK
    x = _unshift(x, 27)
    x = (x * pow(MIX1, -1, 1 << 64)) & MASK
    return _unshift(x, 30)


def rejecting_ids(seed, index, M, letter=None):
    """Every id whose first draw lands at or above the rejection limit (or,
    given a letter, whose child by it does)."""
    key = stream_key(seed, index)
    out = []
    for v in range(ref_limit(M), 1 << 64):
        x = unmix64_int(v) ^ key
        if letter is not None:
            x = unmix64_int(x) ^ rng.LETTER[letter]
        out.append(x)
    return np.array(out, dtype=np.uint64)


def random_ids(n, salt):
    gen = np.random.default_rng(salt)
    return gen.integers(0, 1 << 64, n, dtype=np.uint64, endpoint=False)


def test_inverse_finalizer_inverts_mix64():
    for x in (0, 1, MASK, GOLD, 0x0123456789ABCDEF):
        assert unmix64_int(rng.mix64_int(x)) == x
        assert rng.mix64_int(unmix64_int(x)) == x


# -- the kernel against the reference ----------------------------------------

@pytest.mark.parametrize("n,M", list(product(LENGTHS, range(2, 8))))
def test_symbols_match_the_whole_array_formula(n, M):
    ids = random_ids(n, n * 10 + M)
    got = rng.symbols(5, 3, ids, M)
    assert got.dtype == np.int64
    assert np.array_equal(got, ref_symbols(5, 3, ids, M))


def run_totals(matrix, weights=None):
    """The total of each row, each entry times its column's weight, as
    Python ints."""
    matrix = np.asarray(matrix)
    if weights is not None:
        matrix = matrix.astype(object) * np.array(weights, dtype=object)
    return [int(row.sum()) for row in matrix]


# the weights of symbol_sums: none (all 1), small signed ints, nonnegative
# ints one of which is 2^63 (numpy alone would read them as uint64), and
# signed ints of 2^70 scale
WEIGHTS = [None, "small", "2^63", "2^70"]


def weights_of(kind, n, salt):
    if kind is None:
        return None
    small = [int(x) for x in np.random.default_rng(salt).integers(-9, 10, n)]
    if kind == "small":
        return small
    if kind == "2^63":
        return [abs(x) for x in small[:-1]] + [1 << 63] * bool(n)
    return [(2 * x + 1) << 69 for x in small]


def sums_dtype(kind, n):
    """The dtype of symbol_sums: int64 while (M - 1) max|w| n < 2^63, so
    for the small weights, and Python ints past it."""
    return object if n and kind in ("2^63", "2^70") else np.int64


@given(st.integers(2, 7), st.sampled_from(LENGTHS),
       st.sampled_from([None, "a", "B"]), st.sampled_from([None, 2, 7]),
       st.integers(0, 1 << 40), st.integers(0, 1 << 20),
       st.sampled_from(WEIGHTS))
@PROPERTY
def test_symbol_sums_are_run_totals(M, n, letter, rows, seed, index, kind):
    # a range of one stream or of several: rows shorter than a block are
    # drawn several to a block, longer ones block by block, so a row's
    # total gathers the totals of its blocks
    ids = random_ids(n, seed)
    streams = range(index, index + (rows or 1))
    ids, kids = drawn_ids(ids, letter)
    weights = weights_of(kind, n, seed)
    got = rng.symbol_sums(seed, streams, ids, M, weights)
    assert got.dtype == sums_dtype(kind, n)
    assert got.shape == (len(streams),)
    assert got.tolist() == run_totals(ref_rows(seed, streams, kids, M),
                                      weights)


def drawn_matrix(seed, rows, ids, M):
    """rng.draw of a range of streams, its flat blocks put back together as
    one row per stream."""
    flat = np.full(len(rows) * len(ids), -1, dtype=np.int64)
    for lo, vals in rng.draw(seed, rows, ids, M):
        flat[lo:lo + len(vals)] = vals
    return flat.reshape(len(rows), len(ids))


@pytest.mark.parametrize("M, rows", [
    pytest.param(M, rows, id=f"{M}" if rows is None else f"{M}-rows{rows}")
    for rows in (None, 3, 7) for M in (3, 5, 6, 7)])
@pytest.mark.parametrize("letter", [None, "a"])
def test_rejection_branch(M, letter, rows):
    # rows None draws the one stream; 3 rows of 3 blocks each, or 7 short
    # rows three to a block, put the rejecting stream among its neighbours
    seed, index = 11, 4
    bad = rejecting_ids(seed, index, M, letter)
    assert len(bad) == (1 << 64) % M
    # the rejecting ids sit inside the first block, across the first block
    # edge and inside the second block of a three-block draw; in short rows
    # near both ends of the row
    if rows == 7:
        ids = random_ids(B // 3, M)
        spots = (7, B // 3 - len(bad) - 1)
    else:
        ids = random_ids(3 * B, M)
        spots = (7, B - 1, B + 9)
    for pos in spots:
        ids[pos:pos + len(bad)] = bad
    ids, kids = drawn_ids(ids, letter)
    first = ref_mix64(kids ^ np.uint64(stream_key(seed, index)))
    assert int((first >= np.uint64(ref_limit(M))).sum()) == \
        len(spots) * len(bad)

    expect = ref_symbols(seed, index, kids, M)
    if rows is not None:
        streams = range(index - rows // 2, index + rows // 2 + 1)
        ref = [ref_symbols(seed, i, kids, M) for i in streams]
        assert np.array_equal(drawn_matrix(seed, streams, ids, M), ref)
        assert rng.symbol_sums(seed, streams, ids, M).tolist() \
            == run_totals(ref)
        return
    assert np.array_equal(rng.symbols(seed, index, ids, M), expect)
    assert rng.symbol_sums(seed, range(index, index + 1), ids,
                           M).tolist() == run_totals([expect])


@pytest.mark.parametrize("seed", [0, 77, (1 << 64) + 5, (1 << 70) - 1])
@pytest.mark.parametrize("lo, n", [(0, 3), ((1 << 20) - 2, 5),
                                   ((1 << 32) - 3, 7), ((1 << 62) + 1, 2)])
def test_stream_keys_match_the_python_finalizer(seed, lo, n):
    # the vectorized keys wrap (i + 1) * GOLD mod 2^64 as the Python-int
    # finalizer masks it, for indices past 1 << 20, around 2^32 and beyond
    rows = range(lo, lo + n)
    assert rng._stream_keys(seed, rows).tolist() == \
        [stream_key(seed, i) for i in rows]
    ids = random_ids(9, n)
    assert np.array_equal(rng.symbol_rows(seed, rows, ids, 5),
                          ref_rows(seed, rows, ids, 5))


@pytest.mark.parametrize("n", [0, 1, 3, 32, 33])
@pytest.mark.parametrize("ends", [[0], [1], [1, 1, 2], [2, 3, 40], [40]])
@pytest.mark.parametrize("letter", [None, "b"])
def test_symbol_sums_on_short_inputs(n, ends, letter):
    # the fold sums one short level per call, and a level in parts (as
    # _Cone.walk gives a root ending in A or B) part by part: the ids cut
    # at ends into runs, empty where ends are equal, the last one running
    # to the end of the row, have totals that add up to the row's.  n = 0
    # is the empty Fourier plan of g = 0, whose every total is 0
    ids, kids = drawn_ids(random_ids(n, n + len(ends)), letter)
    cuts = [0, *(min(e, n) for e in ends), n]
    for kind, streams in product(WEIGHTS, (range(4, 5), range(2, 6))):
        weights = weights_of(kind, n, len(ends))
        want = run_totals(ref_rows(13, streams, kids, 3), weights)
        got = rng.symbol_sums(13, streams, ids, 3, weights)
        assert got.dtype == sums_dtype(kind, n)
        assert got.tolist() == want
        runs = [rng.symbol_sums(13, streams, ids[a:b], 3,
                                None if weights is None else weights[a:b])
                for a, b in zip(cuts, cuts[1:])]
        assert [sum(map(int, t)) for t in zip(*runs)] == want
    if not n:
        cfg = montecarlo.ExperimentConfig(seed=13, samples=4)
        rep = montecarlo.empirical_fourier(cfg, RingElement(F2, {}))
        assert (rep["sites"], rep["estimate"]) == (0, [1.0, 0.0])


@pytest.mark.parametrize("n", [1, 33, B - 1, B + 5])
@pytest.mark.parametrize("letter", [None, "a"])
def test_index_arrays_draw_the_rows_of_their_range(n, letter):
    # an ascending, scattered index array draws the rows its indices have
    # in the covering range: the stream key depends on the index alone.
    # Rows shorter than a block are drawn several to a block, n > B within
    # the row
    ids, _ = drawn_ids(random_ids(n, n + 2), letter)
    whole = range(3, 40)
    for pos in ([0, 4, 5, 17, 36], [9], list(range(0, 37, 3))):
        rows = np.array([whole[p] for p in pos])
        assert np.array_equal(drawn_matrix(7, rows, ids, 5),
                              drawn_matrix(7, whole, ids, 5)[pos])
        weights = weights_of("small", n, n)
        assert np.array_equal(rng.symbol_sums(7, rows, ids, 5, weights),
                              rng.symbol_sums(7, whole, ids, 5, weights)[pos])
    # gaps far wider than a block of rows
    far = [5, 1 << 40, (1 << 62) + 1]
    assert rng._stream_keys(9, np.array(far)).tolist() == \
        [stream_key(9, i) for i in far]


@pytest.mark.parametrize("n", [0, 1, 5, B // 2 + 3, B + 1])
def test_child_ids_of_a_letter_pair_interleave_in_bit_order(n):
    ids = random_ids(n, 3 * n)
    got = rng.child_ids(ids, "AB")
    assert len(got) == 2 * n
    assert np.array_equal(got[0::2], ref_child_ids(ids, "A"))
    assert np.array_equal(got[1::2], ref_child_ids(ids, "B"))
    for letter in "abAB":
        assert np.array_equal(rng.child_ids(ids, letter),
                              ref_child_ids(ids, letter))


@pytest.mark.parametrize("n, rows", [(1, B + 3), (511, 300), (32767, 5),
                                     (B + 1, 3), (0, 4)])
def test_block_rows_are_the_one_stream_draws(n, rows):
    # whole rows to a block (B // n of them, a count the rows do not
    # divide), or rows past B drawn block by block within the row
    ids = random_ids(n, n + 1)
    streams = range(9, 9 + rows)
    got = rng.symbol_rows(21, streams, ids, 5)
    assert got.shape == (rows, n)
    assert np.array_equal(got, ref_rows(21, streams, ids, 5))
    per = max(1, B // max(n, 1))
    edges = {0, rows - 1} | {r - d for r in range(per, rows, per)
                             for d in (0, 1)}
    for r in sorted(edges):
        assert np.array_equal(got[r], rng.symbols(21, streams[r], ids, 5))
    small = rng.symbol_rows(21, streams, ids, 5, np.int8)
    assert small.dtype == np.int8 and np.array_equal(small, got)


def test_draw_yields_consecutive_blocks():
    ids = random_ids(2 * B + 5, 0)
    starts = [(lo, len(vals)) for lo, vals in rng.draw(1, range(2, 3), ids, 3)]
    assert starts == [(0, B), (B, B), (2 * B, 5)]
    assert list(rng.draw(1, range(2, 3), ids[:0], 3)) == []


# -- cone folds through the kernel against the reference --------------------

@pytest.mark.parametrize("levels", [2, 20])
@pytest.mark.parametrize("root", ["", "a", "Ab"])
def test_cone_fold_matches_the_reference_levels(root, levels, monkeypatch,
                                                empty_store):
    # with room for one cone to level 2 the kept levels end there, and
    # every later level is built from its parent's ids
    monkeypatch.setattr(montecarlo, "_STORE_BYTES",
                        32 * groups.cone_size(F2, levels))
    depth, M, seed, index = 8, 3, 19, 6
    cone = montecarlo._Cone(F2, root)
    folds = montecarlo._ConeFolds(cone, seed, range(index, index + 1), M, 5)
    for _ in range(6, depth + 1):
        folds.deepen(np.array([0]))
    words = [root]
    num = 0
    for level in range(depth + 1):
        if level:
            words = [w + c for w in words for c in "ab"]
        ids = np.array([rng.word_id(w) for w in words], dtype=np.uint64)
        num = num * M + int(ref_symbols(seed, index, ids, M).sum())
    assert (folds.depth, folds.nums.tolist()) == (depth, [num])


@pytest.mark.parametrize("levels", [3, 20])
@pytest.mark.parametrize("group, root", [
    (F2, ""), (F2, "A"), (F2, "aB"), (F2, "BA"), (Z2, (0, 0)), (Z2, (2, -1))])
def test_cone_fold_is_the_exact_coordinate_at_its_root(group, root, levels,
                                                       monkeypatch,
                                                       empty_store):
    # the fold's value over M^(depth+1) is phi of its own stream, cut to the
    # cone, at the root; roots "A" and "BA" cancel on their first steps.
    # Room for one cone to level 3 keeps the levels of the first cones read
    # and builds the rest per fold
    monkeypatch.setattr(montecarlo, "_STORE_BYTES",
                        32 * groups.cone_size(group, levels))
    depth, M, seed, index = 7, 3, 23, 4
    [num] = montecarlo._ConeFolds(montecarlo._Cone(group, root), seed,
                                  range(index, index + 1), M, depth).nums
    sites = groups.cone_sites(group, root, depth)
    vals = rng.symbols(seed, index, rng.element_ids(group, sites), M)
    d = Configuration(group, {s: int(v) for s, v in zip(sites, vals)},
                      (0, M - 1))
    assert TorusValue.from_numerator(num, M ** (depth + 1)) == \
        phi_exact(d, [root], M)[root]


# -- folds over the kept levels against the reference -----------------------

def reference_totals(group, root, seed, indices, M, depth):
    """The reference symbol totals of each level 0..depth of the cone, for
    each sample index, its sites walked by groups.cone_levels (z2 sites
    weighted by their word counts)."""
    levels = list(islice(groups.cone_levels(group, root), depth + 1))
    ids = [rng.element_ids(group, level) for level in levels]

    def total(index, level, level_ids):
        vals = ref_symbols(seed, index, level_ids, M).tolist()
        return sum(w * v for w, v in zip(level.values(), vals))

    return [[total(index, level, level_ids)
             for level, level_ids in zip(levels, ids)] for index in indices]


def reference_numerators(group, root, seed, indices, M, depth):
    """Base-M folds of the reference level totals of each sample."""
    nums = []
    for totals in reference_totals(group, root, seed, indices, M, depth):
        num = 0
        for total in totals:
            num = num * M + total
        nums.append(num)
    return nums


@pytest.mark.parametrize("store", ["below", "past", "warmed"])
@pytest.mark.parametrize("root", ["", "a", "b", "A", "B", "aB"])
def test_store_folds_match_the_reference_levels(root, store, monkeypatch,
                                                empty_store):
    # "", "a" and "b" are chains of their own, "A" and "B" read the cone at
    # "" one level up beside the cones at "Ab" and "Ba", and "aB" those at
    # "aBa" and "a".  Past room for one cone to level 3 the rest is built
    # per walk; kept levels warmed to level 4 are deepened in place, the
    # arrays kept as they were
    seed, M, indices = 29, 3, range(60, 75)
    cone = montecarlo._Cone(F2, root)
    if store == "past":
        monkeypatch.setattr(montecarlo, "_STORE_BYTES",
                            32 * groups.cone_size(F2, 3))
    if store == "warmed":
        assert montecarlo._ConeFolds(cone, seed, indices, M, 4).nums \
            .tolist() == reference_numerators(F2, root, seed, indices, M, 4)
        kept = {key: [ids for ids, _ in levels]
                for key, levels in empty_store.items()}
    want = reference_numerators(F2, root, seed, indices, M, 10)
    assert montecarlo._ConeFolds(cone, seed, indices, M, 10).nums.tolist() \
        == want
    folds = montecarlo._ConeFolds(cone, seed, indices, M, 6)
    assert folds.nums.tolist() == \
        reference_numerators(F2, root, seed, indices, M, 6)
    for _ in range(4):
        folds.deepen(np.arange(len(indices)))
    assert (folds.depth, folds.nums.tolist()) == (10, want)
    assert montecarlo._kept_bytes() <= montecarlo._STORE_BYTES // 4
    if store == "warmed":
        for key, levels in kept.items():
            now = empty_store[key]
            assert len(now) > len(levels)
            assert all(a is b for a, (b, _) in zip(levels, now))


@pytest.mark.parametrize("store", ["below", "past"])
@pytest.mark.parametrize("positions", ["third", "one"])
@pytest.mark.parametrize("group, root", [
    (F2, ""), (F2, "a"), (F2, "A"), (F2, "aB"), (Z2, (1, -2))])
def test_deepening_some_positions_matches_the_reference(group, root,
                                                        positions, store,
                                                        monkeypatch,
                                                        empty_store):
    # the positions deepened from 6 to 10 get the reference numerators to
    # 10, drawn for their own sample indices only; the rest keep theirs to
    # 6.  Past room for one cone to level 3 every deeper level is built
    # from its parents' ids once per walk
    if store == "past":
        monkeypatch.setattr(montecarlo, "_STORE_BYTES",
                            32 * groups.cone_size(F2, 3))
    seed, M, indices = 37, 3, range(200, 223)
    pos = np.arange(0, len(indices), 3) if positions == "third" \
        else np.array([13])
    folds = montecarlo._ConeFolds(montecarlo._Cone(group, root), seed,
                                  indices, M, 6)
    for _ in range(4):
        folds.deepen(pos)
    want = reference_numerators(group, root, seed, indices, M, 6)
    deep = reference_numerators(group, root, seed, [indices[p] for p in pos],
                                M, 10)
    for p, num in zip(pos, deep):
        want[p] = num
    assert (folds.depth, folds.nums.tolist()) == (10, want)
    assert montecarlo._kept_bytes() <= montecarlo._STORE_BYTES // 4


def test_haar_chunk_walks_each_cone_once(monkeypatch, empty_store):
    # past room for one cone to level 3, each level is built from its
    # parents' ids once per cone of the chunk, however many folds read it:
    # the chunk calls child_ids as often as one walk of each cone to the
    # deepest level any of its folds reached.  rng.draw draws exactly the
    # ids of each fold's cone to its final depth: the first depth where its
    # reference enclosure is certified, or the last one allowed
    monkeypatch.setattr(montecarlo, "_STORE_BYTES",
                        32 * groups.cone_size(F2, 3))
    cfg = montecarlo.ExperimentConfig(seed=41, samples=60, sample_radius=8,
                                      bins=6)
    base, max_extra, M = cfg.sample_radius, 3, cfg.M
    sites = groups.ball(F2, cfg.eval_radius)
    final, ambiguous = {}, []
    for site in sites:
        ambiguous.append(0)
        for index, totals in enumerate(reference_totals(
                F2, site, cfg.seed, range(cfg.samples), M, base + max_extra)):
            num = 0
            for depth, total in enumerate(totals):
                num = num * M + total
                if depth >= base and montecarlo._assign_bin(
                        num, depth, M, cfg.bins) is not None:
                    break
            else:
                ambiguous[-1] += 1
            final[site, index] = depth

    calls, drawn = [], []
    child_ids, draw = rng.child_ids, rng.draw

    def counted_child_ids(ids, letters):
        calls.append(len(ids))
        return child_ids(ids, letters)

    def counted_draw(seed, rows, ids, *args):
        drawn.append(len(rows) * len(ids))
        return draw(seed, rows, ids, *args)

    monkeypatch.setattr(rng, "child_ids", counted_child_ids)
    monkeypatch.setattr(rng, "draw", counted_draw)
    _, got, _, _ = montecarlo._haar_chunk(cfg, 0, cfg.samples, max_extra)
    assert got.tolist() == ambiguous
    assert sum(drawn) == sum(groups.cone_size(F2, d) for d in final.values())
    deepened = sum(d - base for d in final.values())
    chunk_calls = len(calls)
    assert 0 < chunk_calls < deepened

    empty_store.clear()
    calls.clear()
    for site in sites:
        deepest = max(final[site, i] for i in range(cfg.samples))
        list(islice(montecarlo._Cone(F2, site).walk(), deepest + 1))
    assert chunk_calls == len(calls)


@pytest.mark.parametrize("root", ["", "a", "A", "aB"])
def test_walk_past_the_store_stays_within_the_fold_guard(root, monkeypatch,
                                                         empty_store):
    # with the kept levels full, every level of a fold is built per walk.
    # At the deepest depth the guard allows, no child_ids call makes more
    # than 2^depth ids (half the budget), and a call's parents and
    # children together stay within 1.5 * 2^depth.  While deepening, the
    # walk holds only the level above the one it builds, so the ids built
    # and still alive stay within that bound too.  So does the base fold,
    # which folds one level at a time; at depth 17 its numerators are
    # checked against the deepened fold
    M, seed, indices = 3, 43, range(5, 9)
    sizes, built = [], []
    child_ids = rng.child_ids

    def watched(ids, letters):
        out = child_ids(ids, letters)
        alive = sum(len(ref()) for ref in built if ref() is not None)
        sizes.append((len(ids), len(out), alive + len(out)))
        built.append(weakref.ref(out))
        return out

    monkeypatch.setattr(rng, "child_ids", watched)
    cone = montecarlo._Cone(F2, root)
    for depth in (10, 17):
        monkeypatch.setattr(montecarlo, "_STORE_BYTES", 16 << depth)
        montecarlo._check_fold_depth(F2, depth)
        with pytest.raises(groups.WindowTooLarge):
            montecarlo._check_fold_depth(F2, depth + 1)
        quarter = montecarlo._STORE_BYTES // 4
        empty_store.clear()
        empty_store["others"] = [(np.empty(quarter, np.uint8), None)]
        limit = 3 << (depth - 1)

        sizes.clear()
        built.clear()
        want = montecarlo._ConeFolds(cone, seed, indices, M, depth).nums \
            .tolist()
        if depth < 17:
            assert want == reference_numerators(F2, root, seed, indices, M,
                                                depth)
        assert max(alive for _, _, alive in sizes) <= limit
        # a root ending in A or B reads each level in two halves
        pieces = 2 if root[-1:] in ("A", "B") else 1
        assert max(n for _, n, _ in sizes) == (1 << depth) // pieces
        assert all(up + n <= limit for up, n, _ in sizes)

        sizes.clear()
        folds = montecarlo._ConeFolds(cone, seed, indices, M, 4)
        for _ in range(4, depth):
            folds.deepen(np.arange(len(indices)))
        assert folds.nums.tolist() == want
        assert max(n for _, n, _ in sizes) <= 1 << depth
        assert all(up + n <= limit and alive <= limit
                   for up, n, alive in sizes)
        assert montecarlo._kept_bytes() == quarter
