"""Counter-based deterministic randomness.

Every sampled symbol is a pure function of (seed, stream index, site), with
the site keyed by a canonical 64-bit id: free-group ids chain one finalizer
round per letter from a fixed root, so the id of a word is independent of
which window or cone enumerated it.  Every symbol is drawn by one blocked,
in-place kernel (draw), for one stream or a range of streams at once, and
read as rows of symbols (symbol_rows, symbols) or as totals per stream over
runs of the ids (symbol_sums).  No global state anywhere.
"""

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


def _mix(buf, tmp):
    """The finalizer in place on a uint64 array; tmp is scratch of the same
    length."""
    np.right_shift(buf, np.uint64(30), out=tmp)
    buf ^= tmp
    buf *= np.uint64(_MIX1)
    np.right_shift(buf, np.uint64(27), out=tmp)
    buf ^= tmp
    buf *= np.uint64(_MIX2)
    np.right_shift(buf, np.uint64(31), out=tmp)
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


def child_ids(ids, letter):
    """Ids of w*letter for an array of word ids, valid when no cancellation
    can occur (the words do not end in the letter's inverse)."""
    return mix64(ids ^ np.uint64(LETTER[letter]))


def draw(seed, index, ids, M, letter=None):
    """The draw kernel: uniform symbols in {0,...,M-1}, one per id (per
    child id w*letter when a letter is given, as child_ids would make
    them), for the stream index or for each stream of a range of indices.

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
    rows = index if isinstance(index, range) else range(index, index + 1)
    n = len(ids)
    if not n or not rows:
        return
    base = mix64_int(seed)
    keys = np.array([mix64_int(base ^ mix64_int((i + 1) * GOLD))
                     for i in rows], dtype=np.uint64)
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
            if letter is None:
                np.bitwise_xor(ids[c0:c1], keys[r0:r1, None], out=grid)
            else:
                np.bitwise_xor(ids[c0:c1], np.uint64(LETTER[letter]), out=grid)
                _mix(v, t)
                grid ^= keys[r0:r1, None]
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


def symbol_rows(seed, indices, ids, M, dtype=np.int64):
    """The symbols of draw() for a range of stream indices, as a matrix of
    the given dtype with one row per index."""
    out = np.empty((len(indices), len(ids)), dtype=dtype)
    flat = out.reshape(-1)
    for lo, vals in draw(seed, indices, ids, M):
        flat[lo:lo + len(vals)] = vals
    return out


def symbols(seed, index, ids, M):
    """The symbols of draw() for every id of one stream, as one int64
    array."""
    return symbol_rows(seed, range(index, index + 1), ids, M)[0]


def symbol_sums(seed, index, ids, M, ends, letter=None):
    """Totals of the symbols of draw() over the consecutive runs
    ids[:ends[0]], ids[ends[0]:ends[1]], ... (ascending ends), as an int64
    matrix with one row per stream of index, one int or a range.  The runs
    are summed inside the draw's own blocks, so no symbol row is kept."""
    rows = index if isinstance(index, range) else range(index, index + 1)
    n = len(ids)
    edges = np.minimum(np.array([0, *ends], dtype=np.intp), n)
    # run edges and block starts (one block per row when n < _BLOCK) cut
    # each row into pieces; its k-th block holds pieces span[k]:span[k + 1]
    cols = np.arange(0, n, _BLOCK)
    points = np.union1d(edges[edges < n], cols)
    span = np.searchsorted(points, cols).tolist() + [len(points)]
    pieces = np.empty((len(rows), len(points)), dtype=np.int64)
    for start, vals in draw(seed, index, ids, M, letter):
        r, c = divmod(start, n)
        part = slice(span[c // _BLOCK], span[c // _BLOCK + 1])
        block = vals.view(np.int64).reshape(-1, min(n, len(vals)))
        np.add.reduceat(block, points[part] - c, axis=1,
                        out=pieces[r:r + len(block), part])
    # the total before an edge is the running sum of the pieces before it
    before = np.zeros((len(rows), len(points) + 1), dtype=np.int64)
    np.cumsum(pieces, axis=1, out=before[:, 1:])
    return np.diff(before[:, np.searchsorted(points, edges)], axis=1)
