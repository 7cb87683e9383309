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
import itertools
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


# bytes of cone ids a process may hold.  Kept levels (_KEPT) take at most
# a quarter; a walk past them holds at most three quarters: its deepest
# level, at most half by _check_fold_depth, and the level above it.  So f2
# folds reach depth 24, criterion 9's deepest
_STORE_BYTES = 1 << 28

# symbols per block of sample rows: the carry cascade draws and processes
# this many at a time (8 samples of the depth-14 backward cone)
_ROW_BLOCK = 1 << 18


def _row_blocks(lo, hi, width):
    """[a, b) ranges of at most _ROW_BLOCK // width sample indices (at least
    one) that cover [lo, hi) in order."""
    per = max(1, _ROW_BLOCK // max(width, 1))
    return [(a, min(a + per, hi)) for a in range(lo, hi, per)]


def _check_fold_depth(group, depth, sites=1):
    """Refuse, before any draw, folds past a bound on their ids.  On f2
    the bound is memory: a fold whose deepest level, 2^depth ids, takes
    more than half of _STORE_BYTES, so that the walk with the level above
    stays within three quarters.  A z2 fold walks one level of at most
    depth + 1 ids at a time, so there the refusal bounds no memory the
    fold holds: it caps the ids drawn per sample, sites cones to depth, at
    _STORE_BYTES // 8."""
    if group == F2:
        need, limit = 8 << depth, _STORE_BYTES // 2
        what = "a cone fold to depth %d builds 2^%d ids" % (depth, depth)
    else:
        need, limit = 8 * sites * groups.cone_size(group, depth), _STORE_BYTES
        what = "%d cones to depth %d hold %d ids" % (
            sites, depth, need // 8)
    if need > limit:
        raise groups.WindowTooLarge(
            "%s, %d bytes (limit %d: store budget %d bytes)"
            % (what, need, limit, _STORE_BYTES))


def _free(root, letters):
    """Whether no word of the cone root*{x, y}* cancels into root: root is
    the identity or ends in x or y."""
    return not root or root[-1] in letters


# (root, letters) -> the id arrays of the first levels of that f2 chain as
# _Cone.walk built them, kept for the life of the process (and inherited by
# forked workers) while all of them fit in _STORE_BYTES // 4
_KEPT = {}


def _kept_bytes():
    return sum(ids.nbytes for levels in _KEPT.values() for ids in levels)


class _Cone:
    """The monoid cone root*{x, y}* of a fold, a carry window or a Fourier
    plan term.

    A coordinate of the parametrized point at root is determined by the
    sampled symbols on the forward cone root*P (letters "ab"), each level l
    carrying weight M^-(l+1); the carry machine instead spreads over the
    backward cone root*N (letters "AB").

    A z2 cone is one walk of groups.cone_levels, never kept.  A free-group
    cone whose root is free (_free) is one chain of levels of canonical
    site ids in bit order: level 0 is the root's id and level l the
    children of level l-1 (rng.child_ids), its first levels kept in _KEPT.
    A root ending in X (the inverse of x) is its own site at level 0 and,
    below it, the cone at root[:-1] one level up followed by the cone at
    root y: level l of the cone at "A" is level l-1 of the cone at "" and
    then of the one at "Ab"; at "B" the cone at "Ba" comes first.
    """

    def __init__(self, group, root, letters="ab"):
        self.group = group
        self.root = root
        self.letters = letters

    def walk(self):
        """Each level of the cone, as a list of (ids, weights): weights None
        on f2, on z2 the number of words reaching each site.  An f2 chain
        level kept in _KEPT is read; any other is built from the level above
        and kept while the kept bytes stay within _STORE_BYTES // 4."""
        group, root, letters = self.group, self.root, self.letters
        if group == Z2:
            for counts in groups.cone_levels(Z2, root, letters):
                yield [(rng.element_ids(Z2, counts), list(counts.values()))]
            return
        if not _free(root, letters):
            x, y = letters
            halves = ((root[:-1], root + y) if root[-1] == x.swapcase()
                      else (root + x, root[:-1]))
            yield [(rng.element_ids(F2, [root]), None)]
            for a, b in zip(*(_Cone(F2, r, letters).walk() for r in halves)):
                yield a + b
            return
        kept = _KEPT.setdefault((root, letters), [])
        for l in itertools.count():
            if l < len(kept):
                ids = kept[l]
            elif l:
                ids = rng.child_ids(ids, letters)
            else:
                ids = rng.element_ids(F2, [root])
            if l == len(kept) and \
                    _kept_bytes() + ids.nbytes <= _STORE_BYTES // 4:
                kept.append(ids)
            yield [(ids, None)]

    def gather(self, depth):
        """The ids of levels 0..depth in one array, level after level: on
        f2 the ids of the word at heap position p (see _heap_word)."""
        out = np.empty(groups.cone_size(self.group, depth), dtype=np.uint64)
        pos = 0
        for parts in itertools.islice(self.walk(), depth + 1):
            for ids, _ in parts:
                out[pos:pos + len(ids)] = ids
                pos += len(ids)
        return out


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


class _ConeFolds:
    """Running partial numerators of one coordinate for each sample index
    of a range: value sum over the cone's levels 0..depth in base M.  The
    levels fold one at a time, each read once from the cone's one walk, so
    the walk holds only the level it builds and the one above it; deepen
    folds the next level at the given positions only."""

    def __init__(self, cone, seed, indices, M, depth):
        self.seed = seed
        self.indices = indices
        self.M = M
        self.depth = depth
        self._levels = cone.walk()
        self.nums = np.zeros(len(indices), dtype=object)
        for parts in itertools.islice(self._levels, depth + 1):
            self.nums = _fold(seed, indices, M, parts, self.nums)

    def deepen(self, pos):
        """Add the next level to the numerators at the ascending positions
        pos."""
        self.depth += 1
        rows = np.arange(self.indices.start, self.indices.stop)[pos]
        self.nums[pos] = _fold(self.seed, rows, self.M, next(self._levels),
                               self.nums[pos])


def _fold(seed, indices, M, parts, nums):
    """The object array nums of numerators of the samples of indices (a
    range or an ascending int array), each times M plus the symbol total of
    one cone level (its _Cone.walk parts), as a new object array: each part
    is drawn for all the samples at once and summed by rng.symbol_sums,
    z2 sites weighted by their word counts."""
    return nums * M + sum(rng.symbol_sums(seed, indices, ids, M, weights)
                          for ids, weights in parts)


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
    found = np.array([_certified_bins(cfg, site, range(lo, hi), max_extra)
                      for site in sites])
    hist = np.array([np.bincount(b[b >= 0], minlength=bins) for b in found])
    b1, b2 = found[0], found[min(1, len(sites) - 1)]
    both = (b1 >= 0) & (b2 >= 0)
    cell = _pair_cell(b1[both], bins, cells) * cells \
        + _pair_cell(b2[both], bins, cells)
    grid = np.bincount(cell, minlength=cells * cells).reshape(cells, cells)
    return hist, (found < 0).sum(axis=1), grid, int(both.sum())


def _certified_bins(cfg, site, indices, max_extra):
    """The certified bin of each sample's coordinate at site, -1 where it
    still straddles at the sample radius plus max_extra: all samples are
    folded to the sample radius at once, and the straddling ones deepen
    together one level at a time."""
    folds = _ConeFolds(_Cone(cfg.group, site), cfg.seed, indices, cfg.M,
                       cfg.sample_radius)
    found = np.full(len(indices), -1, dtype=np.int64)
    pos = np.arange(len(indices))
    for extra in range(max_extra + 1):
        if extra:
            folds.deepen(pos)
        got = [_assign_bin(num, folds.depth, cfg.M, cfg.bins)
               for num in folds.nums[pos]]
        found[pos] = [-1 if b is None else b for b in got]
        pos = pos[found[pos] < 0]
        if not len(pos):
            break
    return found


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
    bin implies a certified cell).  A window of one site pairs it with
    itself, so its pair has no test (chi_square and p_value None).  Fails
    if any p-value drops below _P_THRESHOLD or the ambiguity rate reaches
    _AMBIGUITY_THRESHOLD.
    """
    if max_extra < 0:
        raise ValueError("max_extra must be nonnegative")
    sites = groups.ball(cfg.group, cfg.eval_radius)
    _check_fold_depth(cfg.group, cfg.sample_radius + max_extra, len(sites))
    f = PolyF(cfg.M, cfg.group)
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
    if len(sites) == 1:
        pair_stat = pair_p = None
    elif pair_total > 0:
        cell_prob = np.zeros(cells)
        for b in range(bins):
            cell_prob[_pair_cell(b, bins, cells)] += 1.0 / bins
        expected = pair_total * np.outer(cell_prob, cell_prob)
        pair_stat, pair_p = _chi_square_p(grid.ravel(), expected.ravel())
        worst_p = min(worst_p, pair_p)
    else:
        pair_stat, pair_p = 0.0, 1.0

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
    """The word from the root of a free-group cone to position p of its
    gathered levels, over the letter pair: the binary expansion of p+1
    after its leading 1, 0 for the first letter (see _tau_block)."""
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
        # the union of the cones, a site in two at its first place
        sites = list(dict.fromkeys(s for t, cap in zip(support, caps)
                                   for s in groups.cone_sites(group, t, cap)))
        nums, E = kernel_convolution(f, terms, sites)
        sites = [s for s, n in zip(sites, nums) if n]
        ids = rng.element_ids(group, sites)
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
            ids.append(_Cone(F2, t).gather(cap)[pos])
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
    [lo, hi): the sample's symbols at ids weighted by nums, summed by
    rng.symbol_sums."""
    sums = rng.symbol_sums(cfg.seed, range(lo, hi),
                           np.asarray(ids, dtype=np.uint64), cfg.M, nums)
    return [int(e) % den for e in sums]


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
    f = PolyF(cfg.M, cfg.group)
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
    ids = _Cone(F2, root, "AB").gather(R)
    k = min(_TAU_PREFIX, R)

    # the homoclinic coordinate at the carry site: the kernel of phi,
    # 1/f*, translated to root, as integers over M^(E+1)
    f = PolyF(M, F2)
    nums, E = kernel_convolution(f, {root: 1}, eval_sites, star=True)
    rhs = {s: Fraction(n, M ** (E + 1)) for s, n in zip(eval_sites, nums)}

    # levels 0..min(2, R) are the first positions of the window
    shallow = groups.cone_size(F2, min(2, R))
    freq = np.zeros((shallow, M), dtype=np.int64)

    discarded = 0
    retained = 0
    exact_matches = 0
    buckets = {}

    prefix = groups.cone_size(F2, k)
    for lo, hi in _row_blocks(index_lo, index_lo + N, prefix):
        block_values, block_img, kept = _tau_block(cfg, lo, hi, ids, k)
        for index, values, img, ok in zip(range(lo, hi), block_values,
                                          block_img, kept):
            if not ok and k < R:
                values, img = _tau_cascade(cfg, index, ids)
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
            windows = [_tau_cascade(cfg, index, ids) for index in tied]
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


def _tau_block(cfg, lo, hi, ids, depth=None):
    """Add 1 at the root of the backward cone whose levels ids holds (as
    _Cone.gather gives them), cut at level depth (default: its last), and
    carry, for the samples [lo, hi) at once.

    One draw covers levels 0..depth of every sample, one row per sample.
    In that layout the children of position p sit at 2p+1 and 2p+2, and the
    word from the root to p is the binary expansion of p+1 after its
    leading 1 (0 = A, 1 = B).  Returns (values, img, kept): int8 matrices
    of the sampled symbols and the image windows, and per row whether the
    cascade stayed above level depth (False is a discard, whose img row
    is not an image).
    """
    M = cfg.M
    depth = len(ids).bit_length() - 1 if depth is None else depth
    off = [(1 << level) - 1 for level in range(depth + 2)]
    values = rng.symbol_rows(cfg.seed, range(lo, hi), ids[:off[-1]], M,
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


def _tau_cascade(cfg, index, ids):
    """_tau_block for one sample: (values, img), img None on a discard."""
    values, img, kept = _tau_block(cfg, index, index + 1, ids)
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
    # each variant gathers its whole window into one array, beside the
    # levels its walk reads, which hold at most as many ids
    window = 8 * groups.cone_size(F2, cfg.sample_radius)
    if 2 * window > _STORE_BYTES:
        raise groups.WindowTooLarge(
            "a carry window of sample radius %d holds %d bytes of ids, "
            "stored and copied (limit: store budget %d bytes)"
            % (cfg.sample_radius, window, _STORE_BYTES))
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

    Three parts: (i) a positive control on the known family d -> d + M - 2
    (d of symbols 0 and 1; the kernel sums to 1 / (M - 2), so the shift
    adds 1), whose windowed coordinate enclosures must agree exactly; (ii)
    random pairs of independent samples, cfg.samples of them, separated by
    certified intervals with adaptive deepening, expecting zero unresolved
    pairs; (iii) on the free group at M = 3 only (family None otherwise), a
    symbolic reconstruction of the family from an all-ones pattern
    configuration, confirming the forced pair-restriction structure along
    percolation paths.
    """
    if min(control, pair_depth, max_extra) < 0:
        raise ValueError("control, pair_depth and max_extra must be nonnegative")
    group = cfg.group
    M = cfg.M
    eval_sites = groups.ball(group, cfg.eval_radius)
    _check_fold_depth(group, pair_depth + max_extra, len(eval_sites))

    # (i) control family: e = d + M - 2 sitewise gives identical enclosures
    window = groups.ball(group, 4)
    ids = rng.element_ids(group, window)
    control_matches = 0
    for n in range(control):
        raw = rng.symbols(cfg.seed, n, ids, 2)
        d = Configuration(group, {s: int(v) for s, v in zip(window, raw)}, (0, 1))
        e = Configuration(group, {s: v + M - 2 for s, v in d.values.items()},
                          (M - 2, M - 1))
        enc_d = phi_windowed(d, eval_sites, M)
        enc_e = phi_windowed(e, eval_sites, M)
        control_matches += all(enc_d[s] == enc_e[s] for s in eval_sites)
    control_ok = control_matches == control

    # (ii) independent pairs, samples base + i and base + n + i: the folds
    # of all of them start from base folds drawn at once, and the close
    # pairs deepen together one level at a time
    n_pairs = cfg.samples
    indices = range(1 << 20, (1 << 20) + 2 * n_pairs)
    folds = [_ConeFolds(_Cone(group, s), cfg.seed, indices, M, pair_depth)
             for s in eval_sites]
    close = np.arange(n_pairs)
    for extra in range(max_extra + 1):
        if extra:
            for fold in folds:
                fold.deepen(np.r_[close, close + n_pairs])
        nums = np.array([fold.nums for fold in folds])
        apart = _pair_separated(nums[:, close], nums[:, close + n_pairs], M,
                                pair_depth + extra)
        if not extra:
            deepened = int((~apart).sum())
        close = close[~apart]
        if not len(close):
            break
    unresolved = len(close)
    folds_ok = n_pairs - unresolved
    pairs_ok = unresolved == 0

    # (iii) symbolic reconstruction of the family from the all-ones pattern
    family = None
    if group == F2 and M == 3:
        f = PolyF(M, group)
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


def _pair_separated(na, nb, M, depth):
    """Whether each pair's enclosures at depth, numerators na and nb (sites
    by pairs), are disjoint mod 1 at some site: each is [num, num + t] /
    den, so they are when the distance of the numerators mod den exceeds t
    both ways round."""
    t = _tail_units(M, depth)
    d = (nb - na) % M ** (depth + 1)
    return ((t < d) & (d < M ** (depth + 1) - t)).any(axis=0)
