"""Counter-based deterministic randomness.

Every sampled symbol is a pure function of (seed, stream index, site), with
the site keyed by a canonical 64-bit id: free-group ids chain one finalizer
round per letter from a fixed root, so the id of a word is independent of
which window or cone enumerated it.  Every symbol is drawn from its own
site's id by one blocked, in-place kernel (draw) for the streams of a range
or an ascending array of indices, and read as rows of symbols (symbol_rows,
symbols) or as integer-weighted totals per stream over runs of the ids
(symbol_sums): the cone folds and the Fourier pairings are such totals.
Only this module reads the draw's block layout.  No global state anywhere.
"""

import bisect

import numpy as np

MASK = (1 << 64) - 1
GOLD = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64_int(x):
    """One 64-bit finalizer round on a Python int."""
    x &= MASK
    x ^= x >> 30
    x = (x * _MIX1) & MASK
    x ^= x >> 27
    x = (x * _MIX2) & MASK
    x ^= x >> 31
    return x


# ids per block of the draw kernel: its two uint64 buffers (512 KB each)
# stay in cache through every pass of the finalizer over a block
_BLOCK = 1 << 16


# the finalizer's shifts and multipliers as 0-d uint64 arrays, which numpy
# broadcasts with less overhead per call than scalars
_SHIFTS = [np.array(k, dtype=np.uint64) for k in (30, 27, 31)]
_MULTS = [np.array(k, dtype=np.uint64) for k in (_MIX1, _MIX2)]


def _mix(buf, tmp):
    """The finalizer in place on a uint64 array; tmp is scratch of the same
    length."""
    s30, s27, s31 = _SHIFTS
    m1, m2 = _MULTS
    np.right_shift(buf, s30, out=tmp)
    buf ^= tmp
    buf *= m1
    np.right_shift(buf, s27, out=tmp)
    buf ^= tmp
    buf *= m2
    np.right_shift(buf, s31, out=tmp)
    buf ^= tmp


def mix64(arr):
    """The same finalizer on a uint64 array (wrapping multiplies), in place,
    one block at a time; returns arr."""
    tmp = np.empty(min(len(arr), _BLOCK), dtype=np.uint64)
    for lo in range(0, len(arr), _BLOCK):
        blk = arr[lo:lo + _BLOCK]
        _mix(blk, tmp[:len(blk)])
    return arr


_F2_ROOT = mix64_int(0xF2)
_Z2_ROOT = mix64_int(0x5A32)

LETTER = {c: mix64_int(GOLD ^ ord(c)) for c in "abAB"}


def word_id(word):
    """Canonical id of a reduced free-group word."""
    h = _F2_ROOT
    for c in word:
        h = mix64_int(h ^ LETTER[c])
    return h


def z2_id(el):
    i, j = el
    h = mix64_int(_Z2_ROOT ^ (i & MASK))
    return mix64_int(h ^ ((j & MASK) ^ GOLD))


def element_id(group, el):
    return word_id(el) if isinstance(el, str) else z2_id(el)


def element_ids(group, elements):
    return np.array([element_id(group, el) for el in elements], dtype=np.uint64)


def child_ids(ids, letters):
    """Ids of w*c for each word id w of ids and each letter c of letters,
    valid when no cancellation can occur (no w ends in the inverse of c):
    for a letter pair "xy" the next cone level in bit order, w*x before
    w*y.  Written in place, block by block, into one new array."""
    keys = np.array([LETTER[c] for c in letters], dtype=np.uint64)
    out = np.empty(len(ids) * len(keys), dtype=np.uint64)
    grid = out.reshape(len(ids), len(keys))
    step = _BLOCK // len(keys)
    tmp = np.empty(min(len(out), _BLOCK), dtype=np.uint64)
    for lo in range(0, len(ids), step):
        blk = grid[lo:lo + step]
        for j, key in enumerate(keys):
            np.bitwise_xor(ids[lo:lo + step], key, out=blk[:, j])
        _mix(blk.reshape(-1), tmp[:blk.size])
    return out


def _stream_keys(seed, rows):
    """The key of each stream of rows (a range or an int array): the
    finalizer of the seed's finalizer xor the finalizer of (index + 1) *
    GOLD (mod 2^64)."""
    if isinstance(rows, range):
        rows = np.arange(rows.start, rows.stop, rows.step, dtype=np.uint64)
    keys = np.asarray(rows, dtype=np.uint64) + np.uint64(1)
    keys *= np.uint64(GOLD)
    tmp = np.empty_like(keys)
    _mix(keys, tmp)
    keys ^= np.uint64(mix64_int(seed))
    _mix(keys, tmp)
    return keys


def draw(seed, rows, ids, M):
    """The draw kernel: uniform symbols in {0,...,M-1}, one per id, for
    each stream of rows, a range or an ascending int array.

    The symbols form a matrix, one row per stream, yielded as (start,
    block) for consecutive flat blocks in row order: start is the position
    of the block's first symbol in the flattened matrix.  Rows shorter
    than _BLOCK are drawn _BLOCK // len(ids) whole rows to a block, each
    row xored with its own stream key; longer rows are drawn block by block
    within the row.  Each block is a uint64 view of a buffer that the next
    block overwrites.

    Unbiased via rejection: draws landing in the final partial block of the
    64-bit range are re-finalized until they fall below it.
    """
    n = len(ids)
    if not n or not len(rows):
        return
    keys = _stream_keys(seed, rows)
    # a block is per rows of width ids: whole rows, or part of one row
    per, width = (_BLOCK // n, n) if n < _BLOCK else (1, _BLOCK)
    m = np.uint64(M)
    rem = (1 << 64) % M
    limit = np.uint64(-rem & MASK)
    # both buffers in one allocation: freed, it lifts the allocator's trim
    # threshold above its size, so the next draw reuses its pages
    buf, tmp = np.empty((2, min(len(rows), per) * width), dtype=np.uint64)
    for r0 in range(0, len(rows), per):
        r1 = min(r0 + per, len(rows))
        for c0 in range(0, n, width):
            c1 = min(c0 + width, n)
            v = buf[:(r1 - r0) * (c1 - c0)]
            t = tmp[:len(v)]
            grid = v.reshape(r1 - r0, c1 - c0)
            np.bitwise_xor(ids[c0:c1], keys[r0:r1, None], out=grid)
            _mix(v, t)
            if rem and v.max() >= limit:
                mask = v >= limit
                while mask.any():
                    v[mask] = mix64(v[mask])
                    mask = v >= limit
            # v % M as v - (v // M) * M: numpy divides by a scalar without
            # a hardware division per element
            np.floor_divide(v, m, out=t)
            t *= m
            np.subtract(v, t, out=t)
            yield r0 * n + c0, t


def symbol_rows(seed, rows, ids, M, dtype=np.int64):
    """The symbols of draw() for the streams of rows, as a matrix of the
    given dtype with one row per stream."""
    out = np.empty((len(rows), len(ids)), dtype=dtype)
    flat = out.reshape(-1)
    for lo, vals in draw(seed, rows, ids, M):
        flat[lo:lo + len(vals)] = vals
    return out


def symbols(seed, index, ids, M):
    """The symbols of draw() for every id of one stream, as one int64
    array."""
    return symbol_rows(seed, range(index, index + 1), ids, M)[0]


def symbol_sums(seed, rows, ids, M, ends, weights=None):
    """Totals of the symbols of draw(), each times its id's weight (one
    int per id, all 1 when weights is None), over the consecutive runs
    ids[:ends[0]], ids[ends[0]:ends[1]], ... (ascending ends), as a matrix
    with one row per stream of rows: int64 when every total provably fits,
    (M - 1) * max|w| * len(ids) < 2^63, Python ints (object) otherwise.
    The runs are summed inside the draw's own blocks, so no symbol row is
    kept."""
    n = len(ids)
    w, top = None, 1
    if weights is not None:
        # anything but int64 is read as Python ints: numpy reads a
        # nonnegative list holding 2^63 as uint64, whose products with
        # int64 are float64
        w = np.asarray(weights)
        if w.dtype != np.int64:
            w = np.asarray(weights, dtype=object)
        top = max(int(w.max(initial=0)), -int(w.min(initial=0)))
    dtype = np.int64 if (M - 1) * top * n < 1 << 63 else object
    if w is not None:
        w = w.astype(dtype, copy=False)
    # run edges and block starts (one block per row when n < _BLOCK) cut
    # each row into pieces; the piece at n is an empty, zero column
    cuts = sorted({0, n, *(min(e, n) for e in ends), *range(0, n, _BLOCK)})
    # the pieces of the block at column c, by their starts within it
    spans = {}
    for c in range(0, n, _BLOCK):
        k0 = bisect.bisect_left(cuts, c)
        k1 = bisect.bisect_left(cuts, min(c + _BLOCK, n))
        spans[c] = (k0, k1, np.array(cuts[k0:k1], dtype=np.intp) - c)
    pieces = np.zeros((len(rows), len(cuts)), dtype=dtype)
    for start, vals in draw(seed, rows, ids, M):
        r, c = divmod(start, n)
        k0, k1, local = spans[c]
        block = vals.view(np.int64).reshape(-1, min(n, len(vals)))
        if w is not None:
            part = w[c:c + block.shape[1]]
            # the draw overwrites the block next, so int64 products may
            # take its place
            block = block * part if dtype is object else \
                np.multiply(block, part, out=block)
        np.add.reduceat(block, local, axis=1,
                        out=pieces[r:r + len(block), k0:k1])
    # a run is the pieces from its first cut to the next run's; an empty
    # run (equal edges) would read its neighbour's piece
    first = [bisect.bisect_left(cuts, min(e, n)) for e in (0, *ends)]
    sums = np.add.reduceat(pieces, first, axis=1)[:, :-1]
    empty = [j for j in range(len(ends)) if first[j] == first[j + 1]]
    sums[:, empty] = 0
    return sums
