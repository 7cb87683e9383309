"""Differential tests of the blocked draw kernel (rng.draw and its readers
symbols, symbol_rows and symbol_sums) and of child_ids.

The reference written here is the whole-array formula the kernel must
reproduce bit for bit: xor the stream key into the ids (one key per row
for a range of streams), run the splitmix64 finalizer over the whole
array, re-finalize draws in the final partial block of the 64-bit range
until they fall below it, and reduce mod M.
Rejecting ids are built on purpose with the inverse finalizer, since a
random id reaches that branch with probability about M / 2^64.
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homoclinic_lab import groups, montecarlo, rng
from homoclinic_lab.groups import F2, Z2
from homoclinic_lab.homoclinic import Configuration, TorusValue, phi_exact

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
    """Every id whose first draw lands at or above the rejection limit."""
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


def run_totals(matrix, ends):
    starts = [0] + list(ends[:-1])
    return [[int(row[a:b].sum()) for a, b in zip(starts, ends)]
            for row in matrix]


@given(st.integers(2, 7), st.sampled_from(LENGTHS),
       st.sampled_from([None, "a", "B"]), st.sampled_from([None, 2, 7]),
       st.integers(0, 1 << 40), st.integers(0, 1 << 20), st.data())
@PROPERTY
def test_symbol_sums_are_run_totals(M, n, letter, rows, seed, index, data):
    # one stream (an int index) or a range of them: rows shorter than a
    # block are drawn several to a block, longer ones block by block
    ids = random_ids(n, seed)
    streams = range(index, index + (rows or 1))
    # ends anywhere, and on either side of every block edge, so runs cross
    # block edges; equal ends make empty runs, and ids past the last end
    # belong to no run
    near_edges = [c for lo in range(0, n + 1, B)
                  for c in (lo - 1, lo, lo + 1) if 0 <= c <= n]
    ends = sorted(data.draw(st.lists(
        st.one_of(st.integers(0, n), st.sampled_from(near_edges)),
        max_size=8)))
    kids = ids if letter is None else ref_child_ids(ids, letter)
    got = rng.symbol_sums(seed, index if rows is None else streams, ids, M,
                          ends, letter)
    assert got.dtype == np.int64 and got.shape == (len(streams), len(ends))
    assert got.tolist() == run_totals(ref_rows(seed, streams, kids, M), ends)


@given(st.integers(2, 7), st.sampled_from(LENGTHS), st.sampled_from("abAB"),
       st.integers(0, 1 << 40), st.integers(0, 1 << 20))
@PROPERTY
def test_child_letter_sums_match_child_ids_then_symbols(M, n, letter,
                                                        seed, index):
    ids = random_ids(n, seed + 1)
    kids = rng.child_ids(ids, letter)
    assert np.array_equal(kids, ref_child_ids(ids, letter))
    expect = int(rng.symbols(seed, index, kids, M).sum())
    assert expect == int(ref_symbols(seed, index, kids, M).sum())
    assert rng.symbol_sums(seed, index, ids, M, [n], letter).tolist() == \
        [[expect]]


def drawn_matrix(seed, rows, ids, M, letter=None):
    """rng.draw of a range of streams, its flat blocks put back together as
    one row per stream."""
    flat = np.full(len(rows) * len(ids), -1, dtype=np.int64)
    for lo, vals in rng.draw(seed, rows, ids, M, letter):
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
    kids = ids if letter is None else ref_child_ids(ids, letter)
    first = ref_mix64(kids ^ np.uint64(stream_key(seed, index)))
    assert int((first >= np.uint64(ref_limit(M))).sum()) == \
        len(spots) * len(bad)

    expect = ref_symbols(seed, index, kids, M)
    # runs that end on either side of each run of rejecting ids, and of
    # the first block edge when the row passes it
    ends = sorted({e for pos in spots + (B,)
                   for e in (pos, pos + len(bad)) if e < len(ids)}
                  | {len(ids)})
    if rows is not None:
        streams = range(index - rows // 2, index + rows // 2 + 1)
        ref = [ref_symbols(seed, i, kids, M) for i in streams]
        assert np.array_equal(
            drawn_matrix(seed, streams, ids, M, letter), ref)
        assert rng.symbol_sums(seed, streams, ids, M, ends, letter).tolist() \
            == run_totals(ref, ends)
        return
    if letter is None:
        assert np.array_equal(rng.symbols(seed, index, ids, M), expect)
    assert rng.symbol_sums(seed, index, ids, M, ends, letter).tolist() == \
        run_totals([expect], ends)


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
    starts = [(lo, len(vals)) for lo, vals in rng.draw(1, 2, ids, 3)]
    assert starts == [(0, B), (B, B), (2 * B, 5)]
    assert list(rng.draw(1, 2, ids[:0], 3)) == []


# -- a cone fold through the kernel against the reference --------------------

@pytest.mark.parametrize("cache", [2, 20])
@pytest.mark.parametrize("root", ["", "a", "Ab"])
def test_cone_fold_matches_the_reference_levels(root, cache, monkeypatch):
    # with a low cache cap the stored run ends at level 2 and every later
    # level is summed from its parent's ids one child letter at a time
    monkeypatch.setattr(montecarlo, "_CACHE_LEVELS", cache)
    depth, M, seed, index = 8, 3, 19, 6
    cone = montecarlo._Cone(F2, root)
    fold = montecarlo._ConeFold(cone, seed, index, M)
    fold.to_depth(5)
    for d in range(6, depth + 1):
        fold.to_depth(d)
    words = [root]
    num = 0
    for level in range(depth + 1):
        if level:
            words = [w + c for w in words for c in "ab"]
        ids = np.array([rng.word_id(w) for w in words], dtype=np.uint64)
        num = num * M + int(ref_symbols(seed, index, ids, M).sum())
    assert (fold.depth, fold.num) == (depth, num)


@pytest.mark.parametrize("cache", [3, 20])
@pytest.mark.parametrize("group, root", [
    (F2, ""), (F2, "A"), (F2, "aB"), (F2, "BA"), (Z2, (0, 0)), (Z2, (2, -1))])
def test_cone_fold_is_the_exact_coordinate_at_its_root(group, root, cache,
                                                       monkeypatch):
    # the fold's value over M^(depth+1) is phi of its own stream, cut to the
    # cone, at the root; roots "A" and "BA" cancel on their first steps
    monkeypatch.setattr(montecarlo, "_CACHE_LEVELS", cache)
    depth, M, seed, index = 7, 3, 23, 4
    fold = montecarlo._ConeFold(montecarlo._Cone(group, root), seed, index, M)
    fold.to_depth(depth)
    sites = groups.cone_sites(group, root, depth)
    vals = rng.symbols(seed, index, rng.element_ids(group, sites), M)
    d = Configuration(group, {s: int(v) for s, v in zip(sites, vals)},
                      (0, M - 1))
    assert TorusValue.from_numerator(fold.num, M ** (depth + 1)) == \
        phi_exact(d, [root], M)[root]
