"""Seeded statistical experiments on the homoclinic parametrization.

Every experiment is a pure function of its ExperimentConfig.  Symbols are
counter-based hashes of (seed, sample index, canonical site id), so results
do not depend on evaluation order and parallel runs reduce exact integer
tallies; reports are reproducible bit for bit for a fixed config.

Coordinate values are never floating point estimates: a sampled coordinate
is certified to lie in [num, num + tail] / M^(depth+1), an interval whose
width is the exact l1 tail of the kernel beyond the sampled cone depth.
Histogram bins are only assigned when the whole interval lands in one bin;
straddling samples deepen their cone adaptively and are counted as
ambiguous if they still straddle at the maximum depth.
"""

import cmath
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np
import scipy.special

from . import groups, rng, symbolic
from .groups import F2, Z2
from .homoclinic import Configuration, phi_windowed
from .intervals import PI_HI
from .ring import PolyF, RingElement, kernel_convolution
from .spectral import quotient_tail_l1


class EnclosureTooWide(ValueError):
    """The base coordinate enclosure is wider than one histogram bin."""


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    samples: int
    M: int = 3
    group: str = F2
    sample_radius: int = 12
    eval_radius: int = 1
    bins: int = 30

    def __post_init__(self):
        groups.check_group(self.group)
        if self.M < 3:
            raise ValueError("M must be at least 3")
        if self.samples < 1:
            raise ValueError("samples must be positive")
        if not 0 <= self.eval_radius < self.sample_radius:
            raise ValueError("eval_radius must be smaller than sample_radius")
        if self.bins < 2:
            raise ValueError("need at least two bins")

    def to_json_dict(self):
        return asdict(self)


_CACHE_LEVELS = 20

# symbols per block of sample rows: the carry cascade, the Fourier residues
# and the base folds draw and process this many at a time (8 samples of the
# depth-14 backward cone)
_ROW_BLOCK = 4 * rng._BLOCK


def _row_blocks(lo, hi, width):
    """[a, b) ranges of at most _ROW_BLOCK // width sample indices (at least
    one) that cover [lo, hi) in order."""
    per = max(1, _ROW_BLOCK // max(width, 1))
    return [(a, min(a + per, hi)) for a in range(lo, hi, per)]

# a free-group fold at depth d draws 2^d ids at its deepest level from the
# 2^(d-1) ids it builds above it; criterion 9 goes as deep as 24 (64 MB of
# ids at level 23, plus its 32 MB parent while it is built)
_MAX_F2_DEPTH = 24

# uint64 ids the stored cones of one call may hold: 1 GiB per process (the
# pinned haar document stores 17 cones of 2^21 - 1 ids)
_MAX_STORED_IDS = 1 << 27


def _stored_level(group, depth):
    """The deepest level a cone stores on the way to depth: depth itself on
    z2, whose level l holds l+1 sites, and at most _CACHE_LEVELS on f2."""
    return min(depth, _CACHE_LEVELS) if group == F2 else depth


def _check_fold_depth(group, depth, sites=1):
    """Refuse, before any draw, folds past _MAX_F2_DEPTH on f2 or cones of
    that many sites storing more than _MAX_STORED_IDS ids at their deepest
    reachable stored level."""
    if group == F2 and depth > _MAX_F2_DEPTH:
        raise groups.WindowTooLarge(
            "a cone fold to depth %d draws 2^%d ids at its deepest level "
            "(limit: depth %d)" % (depth, depth, _MAX_F2_DEPTH))
    level = _stored_level(group, depth)
    stored = sites * groups.cone_size(group, level)
    if stored > _MAX_STORED_IDS:
        raise groups.WindowTooLarge(
            "%d cones stored to level %d hold %d ids (limit %d)"
            % (sites, level, stored, _MAX_STORED_IDS))


class _Cone:
    """Canonical site ids of the monoid cone root*{x, y}*, stored level after
    level in one uint64 array with level offsets.

    A coordinate of the parametrized point at root is determined by the
    sampled symbols on the forward cone root*P (letters "ab"), each level l
    carrying weight M^-(l+1); the carry machine instead spreads over the
    backward cone root*N (letters "AB").

    Levels follow groups.cone_levels in bit order.  Free group: past level
    len(root) no word can cancel into root, so each level chains its ids
    from the level before, one mix per letter, which vectorizes.  Z^2:
    level l holds l+1 sites, and weights holds the number of words reaching
    each one.
    """

    def __init__(self, group, root, letters="ab"):
        self.group = group
        self.letters = letters
        self._walk = groups.cone_levels(group, root, letters)
        self._walk_depth = len(root) if group == F2 else math.inf
        self.ids = np.empty(0, dtype=np.uint64)
        self.offsets = [0]
        self.weights = []

    def grow(self, depth):
        """Store the levels up to depth."""
        stored = len(self.offsets) - 1
        parts = []
        for level in range(stored, depth + 1):
            if level > self._walk_depth:
                top = self.children(parts[-1] if parts else
                                    self.ids[self.offsets[-2]:])
            else:
                sites = next(self._walk)
                top = rng.element_ids(self.group, sites)
                if self.group == Z2:
                    self.weights.extend(sites.values())
            parts.append(top)
            self.offsets.append(self.offsets[-1] + len(top))
        if parts:
            self.ids = np.concatenate([self.ids] + parts)

    def children(self, ids):
        """Free-group ids of the level after ids, in bit order."""
        nxt = np.empty(2 * len(ids), dtype=np.uint64)
        nxt[0::2] = rng.child_ids(ids, self.letters[0])
        nxt[1::2] = rng.child_ids(ids, self.letters[1])
        return nxt


def _tail_units(M, depth):
    """ceil of the kernel l1 tail beyond the given cone depth, in units of
    M^-(depth+1): tail <= (M-1) 2^(depth+1) / (M-2) in those units."""
    t = (M - 1) * (1 << (depth + 1))
    return -(-t // (M - 2))


def _assign_bin(num, depth, M, bins):
    """Histogram bin of the enclosed coordinate, or None if the enclosure
    wraps past an integer or straddles a bin boundary."""
    den = M ** (depth + 1)
    nm = num % den
    hi = nm + _tail_units(M, depth)
    if hi >= den:
        return None
    lo_bin = nm * bins // den
    if lo_bin != hi * bins // den:
        return None
    return lo_bin


class _ConeFold:
    """Running partial numerator of one coordinate of one sample: value
    sum over levels 0..depth in base M, deepened one level at a time; it
    starts empty, or from a numerator already folded to a depth."""

    def __init__(self, cone, seed, index, M, num=0, depth=-1):
        self.cone = cone
        self.seed = seed
        self.index = index
        self.M = M
        self.num = num
        self.depth = depth
        self._top = None

    def to_depth(self, depth):
        """Add the levels down to depth, one per step.  A stored level is
        one run total, its z2 sites weighted by their word counts in Python
        ints.  A free-group level past the cache cap is built only when the
        fold goes below it, and summed from its parent's ids one child
        letter at a time."""
        cone = self.cone
        off = cone.offsets
        while self.depth < depth:
            level = self.depth + 1
            if _stored_level(cone.group, level) == level:
                cone.grow(level)
                ids, letters = cone.ids[off[level]:off[level + 1]], [None]
            else:
                self._top = (cone.ids[off[level - 1]:off[level]]
                             if self._top is None else cone.children(self._top))
                ids, letters = self._top, cone.letters
            if cone.group == Z2:
                vals = rng.symbols(self.seed, self.index, ids, self.M).tolist()
                total = sum(w * v for w, v in
                            zip(cone.weights[off[level]:off[level + 1]], vals))
            else:
                total = sum(int(rng.symbol_sums(self.seed, self.index, ids,
                                                self.M, [len(ids)],
                                                letter)[0, 0])
                            for letter in letters)
            self.num = self.num * self.M + total
            self.depth = level
        return self.num


def _base_folds(cone, seed, indices, M, depth):
    """The numerators of _ConeFold(cone, seed, i, M).to_depth(depth) for
    every sample index i of the range, at a depth the cone stores: the
    levels are drawn for blocks of samples at once and summed per level, z2
    sites weighted by their word counts (as Python ints once a level's
    total can pass int64)."""
    cone.grow(depth)
    ends = cone.offsets[1:depth + 2]
    ids = cone.ids[:ends[-1]]
    # the word counts of z2 level l sum to 2^l
    wide = cone.group == Z2 and (M - 1) << depth >= 1 << 63
    weights = np.array(cone.weights[:len(ids)],
                       dtype=object if wide else np.int64)
    nums = []
    for lo, hi in _row_blocks(indices.start, indices.stop, len(ids)):
        if cone.group == Z2:
            vals = rng.symbol_rows(seed, range(lo, hi), ids, M) * weights
            sums = np.add.reduceat(vals, cone.offsets[:depth + 1], axis=1)
        else:
            sums = rng.symbol_sums(seed, range(lo, hi), ids, M, ends)
        num = np.zeros(len(sums), dtype=object)
        for total in sums.T:
            num = num * M + total
        nums.extend(num.tolist())
    return nums


def _sample_folds(cfg, sites, indices, depth):
    """Each sample's folds on the forward cones at the sites, by position in
    the range, started at the deepest level the cones store toward depth."""
    cones = [_Cone(cfg.group, s) for s in sites]
    stored = _stored_level(cfg.group, depth)
    base = [_base_folds(c, cfg.seed, indices, cfg.M, stored) for c in cones]
    return lambda k: [_ConeFold(c, cfg.seed, indices[k], cfg.M, nums[k], stored)
                      for c, nums in zip(cones, base)]


def _pair_cell(b, bins, cells):
    return b * cells // bins


_PAIR_CELLS = 10


def _chi_square_p(counts, expected):
    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(expected, dtype=float)
    stat = float(((counts - expected) ** 2 / expected).sum())
    dof = counts.size - 1
    return stat, float(scipy.special.chdtrc(dof, stat))


def _chunk_ranges(n, parts):
    parts = max(1, min(parts, n))
    step = -(-n // parts)
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _map_samples(chunk, cfg, jobs, *args):
    """chunk(cfg, lo, hi, *args) over [lo, hi) ranges that split the sample
    indices into at most jobs parts and at most one per CPU, one worker
    process per part when there are several; returns the parts in index
    order."""
    ranges = _chunk_ranges(cfg.samples, min(jobs, os.cpu_count() or 1))
    if len(ranges) == 1:
        return [chunk(cfg, 0, cfg.samples, *args)]
    with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
        futures = [pool.submit(chunk, cfg, lo, hi, *args) for lo, hi in ranges]
        return [fut.result() for fut in futures]


def _haar_chunk(cfg, lo, hi, max_extra):
    """Tallies for sample indices [lo, hi): per-site histograms, ambiguous
    counts and the pair grid.  Pure integer output, so chunk merges are
    exact and order independent."""
    sites = groups.ball(cfg.group, cfg.eval_radius)
    bins = cfg.bins
    cells = min(_PAIR_CELLS, bins)
    hist = np.zeros((len(sites), bins), dtype=np.int64)
    ambiguous = np.zeros(len(sites), dtype=np.int64)
    grid = np.zeros((cells, cells), dtype=np.int64)
    pair_total = 0
    pair_sites = (0, 1) if len(sites) > 1 else (0, 0)
    base = cfg.sample_radius
    folds = _sample_folds(cfg, sites, range(lo, hi), base)
    for k in range(hi - lo):
        sample_bins = []
        for ci, fold in enumerate(folds(k)):
            fold.to_depth(base)
            b = _assign_bin(fold.num, fold.depth, cfg.M, bins)
            while b is None and fold.depth < base + max_extra:
                fold.to_depth(fold.depth + 1)
                b = _assign_bin(fold.num, fold.depth, cfg.M, bins)
            if b is None:
                ambiguous[ci] += 1
            else:
                hist[ci, b] += 1
            sample_bins.append(b)
        b1, b2 = sample_bins[pair_sites[0]], sample_bins[pair_sites[1]]
        if b1 is not None and b2 is not None:
            grid[_pair_cell(b1, bins, cells),
                 _pair_cell(b2, bins, cells)] += 1
            pair_total += 1
    return hist, ambiguous, grid, pair_total


# haar_window_test fails below this p-value or at this ambiguity rate
_P_THRESHOLD = 1e-3
_AMBIGUITY_THRESHOLD = 0.01


def haar_window_test(cfg, max_extra=12, jobs=1):
    """Per-coordinate uniformity and pairwise independence of sampled
    window coordinates, using only bin assignments that are certified by
    the interval enclosure.

    Each eval-window coordinate gets a chi-square test against the uniform
    histogram; one pair of coordinates gets an independence test on a
    coarse product grid (cells are unions of whole bins, so a certified
    bin implies a certified cell).  Fails if any p-value drops below
    _P_THRESHOLD or the ambiguity rate reaches _AMBIGUITY_THRESHOLD.
    """
    sites = groups.ball(cfg.group, cfg.eval_radius)
    _check_fold_depth(cfg.group, cfg.sample_radius + max_extra, len(sites))
    f = PolyF.standard(cfg.M, cfg.group)
    width = (cfg.M - 1) * f.tail_l1_beyond(cfg.sample_radius)
    if width >= Fraction(1, cfg.bins):
        raise EnclosureTooWide(
            "enclosure width %s at depth %d is not below bin width 1/%d"
            % (width, cfg.sample_radius, cfg.bins))
    bins = cfg.bins

    parts = _map_samples(_haar_chunk, cfg, jobs, max_extra)
    hist, ambiguous, grid, pair_total = (sum(p[k] for p in parts)
                                         for k in range(4))

    coords = []
    worst_p = 1.0
    for ci, site in enumerate(sites):
        n_det = int(hist[ci].sum())
        if n_det == 0:
            raise EnclosureTooWide("no sample produced a certified bin")
        stat, p = _chi_square_p(hist[ci], [n_det / bins] * bins)
        worst_p = min(worst_p, p)
        coords.append({
            "site": groups.format_element(cfg.group, site),
            "determined": n_det,
            "ambiguous": int(ambiguous[ci]),
            "chi_square": stat,
            "p_value": p,
            "histogram": [int(c) for c in hist[ci]],
        })

    cells = min(_PAIR_CELLS, bins)
    cells_per = bins // cells if bins % cells == 0 else None
    if pair_total > 0:
        cell_prob = np.zeros(cells)
        for b in range(bins):
            cell_prob[_pair_cell(b, bins, cells)] += 1.0 / bins
        expected = pair_total * np.outer(cell_prob, cell_prob)
        pair_stat, pair_p = _chi_square_p(grid.ravel(), expected.ravel())
    else:
        pair_stat, pair_p = 0.0, 1.0
    worst_p = min(worst_p, pair_p)

    total_evals = cfg.samples * len(sites)
    amb_rate = float(ambiguous.sum()) / total_evals
    passed = worst_p > _P_THRESHOLD and amb_rate < _AMBIGUITY_THRESHOLD
    return {
        "experiment": "haar_window",
        "config": cfg.to_json_dict(),
        "coordinates": coords,
        "pair": {
            "sites": [groups.format_element(cfg.group, sites[0]),
                      groups.format_element(cfg.group, sites[min(1, len(sites) - 1)])],
            "cells": cells,
            "bins_per_cell": cells_per,
            "samples": int(pair_total),
            "chi_square": pair_stat,
            "p_value": pair_p,
        },
        "ambiguous_rate": amb_rate,
        "min_p_value": worst_p,
        "thresholds": {"p_value": _P_THRESHOLD,
                       "ambiguity": _AMBIGUITY_THRESHOLD},
        "passed": bool(passed),
    }


_HEAP_LETTERS = {pair: str.maketrans("01", pair) for pair in ("ab", "AB")}
_BITS = str.maketrans("ab", "01")


def _heap_word(p, letters):
    """The word from the root of a stored free-group cone to position p of
    its levels, over the letter pair: the binary expansion of p+1 after its
    leading 1, 0 for the first letter (see _tau_block)."""
    return bin(p + 1)[3:].translate(_HEAP_LETTERS[letters])


def _fourier_plan(g, f, radius):
    """The pairing of a sample with g/f on the union of the forward cones
    t*{a, b}* of the terms of g, capped at word length radius: the ids of
    the sites with a nonzero coordinate, those coordinates as integers over
    their lcm den (int64 when that surely fits), den, and the l1 tail bound
    of the rest.

    On f2, 1/f puts M^-(|v|+1) on each positive word v and 0 elsewhere, so
    over M^(E+1), E = max |t| + radius, N_s = sum_t' g_t' M^(E - |t'^-1 s|)
    [t'^-1 s positive].  The site t v sits at position bits(v) of level |v|
    of the cone at t (a = 0, b = 1).  A pair of terms with t'^-1 t = x y^-1
    (x, y positive; no other form reaches the cone at t) makes t'^-1 t v =
    x v' positive exactly when v = y v': it adds g_t' M^(E - |x| - l + |y|)
    to the slice bits(y) << (l - |y|), 2^(l - |y|) long, of each level l.
    When t' comes first and |x| + l - |y| <= radius - |t'|, that slice is
    in the cone at t' already and is dropped.  z2 cones hold (R+1)(R+2)/2
    sites and are solved by kernel_convolution.
    """
    group, M = g.group, f.M
    support = g.support()
    caps = [radius - groups.word_length(group, t) for t in support]
    if min(caps, default=0) < 0:
        raise ValueError("sample radius smaller than the support of g")
    terms = {t: int(c) for t, c in g.terms.items()}
    if group == Z2 or not support:
        site_ids = {}
        for t, cap in zip(support, caps):
            cone = _Cone(group, t)
            cone.grow(cap)
            # a site already in an earlier cone keeps its place (same id)
            site_ids.update(zip(groups.cone_sites(group, t, cap),
                                cone.ids.tolist()))
        nums, E = kernel_convolution(f, terms, list(site_ids))
        sites = [s for s, n in zip(site_ids, nums) if n]
        ids = np.array([site_ids[s] for s in sites], dtype=np.uint64)
        nums = np.array([n for n in nums if n], dtype=object)
    else:
        E = max(map(len, support)) + radius
        wide = sum(map(abs, terms.values())) * M ** (E + 1) >= 1 << 62
        ids, nums, kept, union = [], [], [], 0
        for i, (t, cap) in enumerate(zip(support, caps)):
            size = groups.cone_size(F2, cap)
            groups._check_size("cone of depth %d in f2" % cap, size)
            num = np.zeros(size, dtype=object if wide else np.int64)
            keep = np.ones(size, dtype=bool)
            for j, u in enumerate(support):
                c = groups.f2_multiply(groups.inverse(F2, u), t)
                x = c.rstrip("AB")
                if "A" in x or "B" in x:
                    continue
                y = groups.inverse(F2, c[len(x):])
                bits = int("0" + y.translate(_BITS), 2)
                for l in range(len(y), cap + 1):
                    h = len(x) + l - len(y)
                    lo = (1 << l) - 1 + (bits << (l - len(y)))
                    part = slice(lo, lo + (1 << (l - len(y))))
                    num[part] += terms[u] * M ** (E - h)
                    if j < i and h <= caps[j]:
                        keep[part] = False
            union += int(keep.sum())
            kept.append(np.flatnonzero(keep & (num != 0)))
            nums.append(num[kept[-1]])
        groups._check_size("union of the cones", union)
        for t, cap, pos in zip(support, caps, kept):
            cone = _Cone(F2, t)
            cone.grow(cap)
            ids.append(cone.ids[pos])
        ids, nums = np.concatenate(ids), np.concatenate(nums)
        sites = (groups.f2_multiply(t, _heap_word(int(p), "ab"))
                 for t, pos in zip(support, kept) for p in pos)
    # coordinates are nums / M^(E+1); dividing out the common factor gives
    # the lcm of their reduced denominators
    power = M ** (E + 1)
    common = math.gcd(power, *nums.tolist())
    nums //= common
    den = power // common
    if den == 1 and RingElement(group, dict(zip(sites, nums.tolist()))) \
            * f.as_ring() == g:
        # an integral quotient inside the sites that reproduces g is all of
        # g/f: nothing is truncated, the window pairing is exact
        tail = Fraction(0)
    else:
        tail = quotient_tail_l1(g, f, radius)
    return ids, nums, den, tail


def _fourier_chunk(cfg, lo, hi, ids, nums, den):
    """Exact residues (mod den) of the pairing exponent for each sample in
    [lo, hi), one block of samples at a time: one int64 matrix-vector
    product per block when the dot products provably fit, Python ints row
    by row otherwise."""
    ids = np.asarray(ids, dtype=np.uint64)
    nums = np.asarray(nums)
    top = max(int(nums.max(initial=0)), -int(nums.min(initial=0)))
    use_i64 = top * (cfg.M - 1) * max(len(nums), 1) < (1 << 62)
    nvec = nums.astype(np.int64 if use_i64 else object)
    exps = np.zeros(hi - lo, dtype=np.int64) if use_i64 else [0] * (hi - lo)
    # the draw's own blocks: whole rows, or part of one row from column c
    for start, vals in rng.draw(cfg.seed, range(lo, hi), ids, cfg.M):
        r, c = divmod(start, len(ids))
        rows = vals.view(np.int64).reshape(-1, min(len(ids), len(vals)))
        part = nvec[c:c + rows.shape[1]]
        if use_i64:
            exps[r:r + len(rows)] += rows @ part
        else:
            for j, row in enumerate(rows, r):
                exps[j] += sum(n * int(v) for n, v in zip(part, row))
    return [int(e) % den for e in exps]


def empirical_fourier(cfg, g, jobs=1):
    """Monte Carlo estimate of the transform at the integral character g,
    with an error band combining the statistical term 3/sqrt(N) and the
    exact bias bound from truncating the pairing to the sampled window.

    The per-sample exponent <x, g> mod 1 is computed in exact integer
    arithmetic (quotient coordinates over a common power-of-M denominator),
    so parallel chunks return exact residues and the float fold happens
    once, in index order.
    """
    if g.group != cfg.group:
        raise groups.GroupMismatch("character and config disagree on group")
    if not g.is_integral():
        raise ValueError("empirical_fourier needs an integral character")
    f = PolyF.standard(cfg.M, cfg.group)
    ids, nums, den, tail = _fourier_plan(g, f, cfg.sample_radius)

    parts = _map_samples(_fourier_chunk, cfg, jobs if len(ids) else 1,
                         ids, nums, den)
    residues = [r for part in parts for r in part]

    acc = 0j
    exact_ones = 0
    for r in residues:
        if r == 0:
            exact_ones += 1
            acc += 1.0
        else:
            acc += cmath.exp(-2j * math.pi * (r / den))
    est = acc / cfg.samples
    bias = 2 * PI_HI * (cfg.M - 1) * tail
    band = 3.0 / math.sqrt(cfg.samples) + float(bias)
    return {
        "experiment": "empirical_fourier",
        "config": cfg.to_json_dict(),
        "g": g.to_json_dict(),
        "sites": len(ids),
        "estimate": [est.real, est.imag],
        "band": band,
        "bias_bound": float(bias),
        "zero_phase_samples": exact_ones,
    }


# Levels of the backward cone every sample draws.  The root fires with
# probability 1/3 and a fired site's two children fire with probability
# 1/3 each, a branching process of mean offspring 2/3: level l holds
# (1/3)(2/3)^l fired sites on average, which bounds the chance that a
# cascade reaches it.  Only those samples, and ties of prefix images, are
# drawn again over the whole window, so a sample costs about
# 2^(k+1) + (2^(R+1)/3)(2/3)^k symbols; at R = 14 that is least at k = 7
# (255 + 639, against 32,767 for the whole window).  At least 2: the
# frequency tally reads levels 0..2 of the image.
_TAU_PREFIX = 7


def _tau_variant(cfg, root, index_lo, eval_sites):
    """One shift variant of the carry-invariance experiment.

    Samples the window root*N to the configured depth, adds 1 at root,
    runs the carry cascade, and checks per retained sample that the exact
    difference of parametrized coordinates equals the corresponding
    homoclinic coordinate mod 1.

    Each sample is drawn to level k = min(_TAU_PREFIX, R) only; a cascade
    that reaches level k < R is run again over the whole window.  Otherwise
    the cascade touches no site below level k, so the image equals the
    input there and every field but the image counts reads the prefix.
    Injectivity: images of different prefixes differ, so retained samples
    are bucketed by prefix image and only a bucket of two or more is drawn
    over the whole window, where a collision is two distinct inputs with
    one image.
    """
    M = cfg.M
    R = cfg.sample_radius
    N = cfg.samples
    cone = _Cone(F2, root, "AB")
    cone.grow(R)
    k = min(_TAU_PREFIX, R)

    # the homoclinic coordinate at the carry site: the kernel of phi,
    # 1/f*, translated to root, as integers over M^(E+1)
    f = PolyF.standard(M, F2)
    nums, E = kernel_convolution(f, {root: 1}, eval_sites, star=True)
    rhs = {s: Fraction(n, M ** (E + 1)) for s, n in zip(eval_sites, nums)}

    # levels 0..min(2, R) are the first positions of the stored cone
    shallow = groups.cone_size(F2, min(2, R))
    freq = np.zeros((shallow, M), dtype=np.int64)

    discarded = 0
    retained = 0
    exact_matches = 0
    buckets = {}

    prefix = cone.offsets[k + 1]
    for lo, hi in _row_blocks(index_lo, index_lo + N, prefix):
        block_values, block_img, kept = _tau_block(cfg, lo, hi, cone, k)
        for index, values, img, ok in zip(range(lo, hi), block_values,
                                          block_img, kept):
            if not ok and k < R:
                values, img = _tau_cascade(cfg, index, cone)
                ok = img is not None
            if not ok:
                discarded += 1
                continue
            retained += 1

            freq[np.arange(shallow), img[:shallow]] += 1

            # the exact identity: the change of symbols convolved with 1/f*,
            # minus the translated kernel (the -1 at root), is 0 mod 1.  A
            # root that did not fire changes nothing, and 0 convolves to 0
            diff = {root: int(img[0]) - int(values[0]) - 1}
            if diff[root] == 0:
                exact_matches += 1
            else:
                for p in np.nonzero(img[1:] != values[1:])[0] + 1:
                    word = _heap_word(int(p), "AB")
                    diff[groups.f2_multiply(root, word)] = \
                        int(img[p]) - int(values[p])
                nums, E = kernel_convolution(f, diff, eval_sites, star=True)
                exact_matches += all(n % M ** (E + 1) == 0 for n in nums)

            buckets.setdefault(img[:prefix].tobytes(), []).append(index)

    # a tie of prefix images is settled on the whole windows: since the
    # carry map is a function, equal inputs give equal images, so the
    # inputs beyond the distinct images are collisions
    distinct = len(buckets)
    collisions = 0
    for tied in buckets.values():
        if len(tied) > 1:
            windows = [_tau_cascade(cfg, index, cone) for index in tied]
            images = len({img.tobytes() for _, img in windows})
            distinct += images - 1
            collisions += len({v.tobytes() for v, _ in windows}) - images

    n_eval = retained if retained else 1
    sigma = math.sqrt((1.0 / M) * (1 - 1.0 / M) / n_eval)
    max_dev = float(np.abs(freq / n_eval - 1.0 / M).max())

    p_disc = 1.0 - float(symbolic.partition_mass(R - 2, M))
    sigma_disc = math.sqrt(max(p_disc * (1 - p_disc), 1e-12) / N)
    disc_rate = discarded / N
    disc_bound = p_disc + 4 * sigma_disc

    passed = (exact_matches == retained and collisions == 0
              and max_dev <= 4 * sigma and disc_rate <= disc_bound)
    return {
        "root": groups.format_element(F2, root),
        "samples": N,
        "retained": retained,
        "discarded": discarded,
        "discard_rate": disc_rate,
        "discard_bound": disc_bound,
        "exact_coordinate_matches": exact_matches,
        "frequency_max_deviation": max_dev,
        "frequency_tolerance": 4 * sigma,
        "distinct_images": distinct,
        "image_collisions": collisions,
        "rhs": {groups.format_element(F2, s): str(v) for s, v in rhs.items()},
        "passed": bool(passed),
    }


_BOTH = np.uint16(0x0101)


def _tau_block(cfg, lo, hi, cone, depth=None):
    """Add 1 at the root of the stored backward cone, cut at level depth
    (default: its last stored level), and carry, for the samples [lo, hi)
    at once.

    One draw covers levels 0..depth of every sample, one row per sample.
    In that layout the children of position p sit at 2p+1 and 2p+2, and the
    word from the root to p is the binary expansion of p+1 after its
    leading 1 (0 = A, 1 = B).  Returns (values, img, kept): int8 matrices
    of the sampled symbols and the image windows, and per row whether the
    cascade stayed above level depth (False is a discard, whose img row
    is not an image).
    """
    M = cfg.M
    off = cone.offsets if depth is None else cone.offsets[:depth + 2]
    values = rng.symbol_rows(cfg.seed, range(lo, hi), cone.ids[:off[-1]], M,
                             np.int8)
    # a full site fires when its parent does, the root when it is full.  A
    # level's sites pair up under the level above: as uint16 each pair is
    # one element, and a parent's 0/1 byte times _BOTH covers both bytes
    fired = values == M - 1
    for a, b, c in zip(off, off[1:], off[2:]):
        kids = fired[:, b:c].view(np.uint16)
        kids &= fired[:, a:b].view(np.uint8) * _BOTH
    kept = ~fired[:, off[-2]:].any(axis=1)
    # a fired site gives M away and one to each child; the root gets 1.
    # The gifts come first, so no byte passes M and no pair carries
    img = values.copy()
    img[:, 0] += 1
    kids = img[:, 1:].view(np.uint16)
    kids += fired[:, :off[-2]].view(np.uint8) * _BOTH
    img -= M * fired.view(np.int8)
    return values, img, kept


def _tau_cascade(cfg, index, cone):
    """_tau_block for one sample: (values, img), img None on a discard."""
    values, img, kept = _tau_block(cfg, index, index + 1, cone)
    return values[0], img[0] if kept[0] else None


def tau_invariance_test(cfg):
    """Statistical check that adding 1 at a site and carrying preserves the
    sampled symbol distribution, plus the exact coordinate identity: for
    every retained sample the difference of parametrized coordinates
    equals the homoclinic coordinate translated to the carry site.

    Runs two variants on disjoint sample streams: the carry at the group
    identity and at the generator a.  Discards (cascade reaching the
    window boundary) are counted against the exact cylinder mass bound.
    """
    if cfg.group != F2:
        raise ValueError("carry invariance experiment is defined over the "
                         "free group window")
    if cfg.M != 3:
        raise ValueError("the exact cylinder accounting needs M = 3")
    if cfg.sample_radius > _CACHE_LEVELS:
        raise ValueError("sample_radius beyond the cone cache cap")
    eval_sites = groups.ball(F2, cfg.eval_radius)
    v_e = _tau_variant(cfg, "", 0, eval_sites)
    v_a = _tau_variant(cfg, "a", cfg.samples, eval_sites)
    return {
        "experiment": "tau_invariance",
        "config": cfg.to_json_dict(),
        "variants": [v_e, v_a],
        "passed": bool(v_e["passed"] and v_a["passed"]),
    }


def collision_search(cfg, control=64, pair_depth=8, max_extra=6):
    """Search for distinct samples with equal parametrized coordinates.

    Three parts: (i) a positive control on the known family d -> d + 1,
    whose windowed coordinate enclosures must agree exactly; (ii) random
    pairs of independent samples, cfg.samples of them, separated by
    certified intervals with adaptive deepening, expecting zero unresolved
    pairs; (iii) a symbolic reconstruction of the family from an all-ones
    pattern configuration, confirming the forced pair-restriction structure
    along percolation paths.
    """
    if cfg.M != 3:
        raise ValueError("the exact collision family needs M = 3")
    group = cfg.group
    M = cfg.M
    eval_sites = groups.ball(group, cfg.eval_radius)
    _check_fold_depth(group, pair_depth + max_extra, len(eval_sites))

    # (i) control family: e = d + 1 sitewise gives identical enclosures
    window = groups.ball(group, 4)
    ids = rng.element_ids(group, window)
    control_matches = 0
    for n in range(control):
        raw = rng.symbols(cfg.seed, n, ids, 2)
        d = Configuration(group, {s: int(v) for s, v in zip(window, raw)}, (0, 1))
        e = Configuration(group, {s: int(v) + 1 for s, v in zip(window, raw)}, (1, 2))
        enc_d = phi_windowed(d, eval_sites, M)
        enc_e = phi_windowed(e, eval_sites, M)
        control_matches += all(enc_d[s] == enc_e[s] for s in eval_sites)
    control_ok = control_matches == control

    # (ii) independent pairs, samples base + i and base + n + i: the folds
    # of all of them start from stored levels drawn at once, and only the
    # close pairs go deeper
    n_pairs = cfg.samples
    base_offset = 1 << 20
    folds = _sample_folds(cfg, eval_sites,
                          range(base_offset, base_offset + 2 * n_pairs), pair_depth)
    folds_ok = 0
    deepened = 0
    for i in range(n_pairs):
        fa, fb = folds(i), folds(n_pairs + i)
        for depth in range(pair_depth, pair_depth + max_extra + 1):
            for fold in fa + fb:
                fold.to_depth(depth)
            separated = _pair_separated(fa, fb, M, depth)
            if separated:
                break
            deepened += depth == pair_depth
        folds_ok += separated
    unresolved = n_pairs - folds_ok
    pairs_ok = unresolved == 0

    # (iii) symbolic reconstruction of the family from the all-ones pattern
    family = None
    if group == F2:
        f = PolyF.standard(M, group)
        cwin = groups.ball(F2, 3)
        ones = Configuration(F2, {s: 1 for s in cwin}, (-1, 1))
        forward = groups.steps(F2, "ab")
        interior = [s for s in cwin if all(t in ones.values for t in forward(s))]
        patt_ok = ((1, 1, 1) in symbolic.allowed_patterns(M, M - 1)
                   and bool(interior))
        conv = ones.as_ring() * f.star_ring()
        conv_ok = all(conv.coefficient(s) == 1 for s in interior)
        perc = symbolic.percolation_path(ones, "", 2, M)
        forcing = [step["forcing"] for step in perc["steps"]]
        family = {
            "pattern_allowed": bool(patt_ok),
            "difference_is_one_on_interior": bool(conv_ok),
            "percolation_forcing": forcing,
            "all_pair_forced": all(fo == "pair" for fo in forcing),
        }
        family["passed"] = bool(family["pattern_allowed"]
                                and family["difference_is_one_on_interior"]
                                and family["all_pair_forced"])

    passed = control_ok and pairs_ok and (family is None or family["passed"])
    return {
        "experiment": "collision_search",
        "config": cfg.to_json_dict(),
        "control": {"pairs": control, "enclosure_matches": control_matches,
                    "passed": bool(control_ok)},
        "random_pairs": {"pairs": n_pairs, "separated": folds_ok,
                         "deepened": deepened, "unresolved": unresolved,
                         "passed": bool(pairs_ok)},
        "family": family,
        "collisions_found": 0 if pairs_ok else None,
        "passed": bool(passed),
    }


def _pair_separated(fa, fb, M, depth):
    """Whether the two samples' enclosures at depth are disjoint mod 1 at
    some site: each is [num, num + t] / den, so they are when the distance
    of the numerators mod den exceeds t both ways round."""
    t = _tail_units(M, depth)
    den = M ** (depth + 1)
    return any(t < (b.num - a.num) % den < den - t for a, b in zip(fa, fb))
