"""The benchmark's workloads: inputs made from the seed, the timed calls into
the package's public functions, and the checks applied to every result.

Inputs come from ``random.Random`` seeded with the workload name and the
benchmark seed, never from the package's own ``rng``, so the program only
receives finished configurations, windows and characters.  Checks use
arithmetic written here rather than the package's ring code, so a defect in
the layer under test cannot also hide in its oracle.

Every call is looked up through its module at call time
(``montecarlo.haar_window_test``, not a bound reference), so the tracer's
patches apply to the benchmark's own calls as well.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from homoclinic_lab import groups, homoclinic, montecarlo, spectral, symbolic
from homoclinic_lab.groups import F2, Z2
from homoclinic_lab.homoclinic import Configuration
from homoclinic_lab.montecarlo import ExperimentConfig
from homoclinic_lab.ring import PolyF, RingElement

@dataclass
class Call:
    """One timed call: run() is the whole timed region; check(result)
    returns (fields hashed for the digest, list of problems found)."""

    label: str
    run: object
    items: int
    check: object
    tally: object = None


@dataclass
class Workload:
    """tracks_reference: the time goes to Python code whose speed the
    benchmark's exact-arithmetic reference loop follows."""

    name: str
    calls: list
    size: dict
    tracks_reference: bool = True


def _random(name, seed):
    return random.Random(f"{name}:{seed}")


# -- group arithmetic written independently of the package ------------------

_INV = {"a": "A", "A": "a", "b": "B", "B": "b"}


def _mul(group, g, h):
    if group == Z2:
        return (g[0] + h[0], g[1] + h[1])
    i = len(g)
    j = 0
    while i > 0 and j < len(h) and _INV[g[i - 1]] == h[j]:
        i -= 1
        j += 1
    return g[:i] + h[j:]


def _gens(group):
    return ("a", "b") if group == F2 else ((1, 0), (0, 1))


def _fmt(group, el):
    return el if group == F2 else "(%d,%d)" % el


def _frac(q):
    return str(Fraction(q))


def _times_f(group, h, M):
    """h * (M - a - b) as a plain dict."""
    a, b = _gens(group)
    out = {}
    for t, c in h.items():
        for s, w in ((t, M * c), (_mul(group, t, a), -c), (_mul(group, t, b), -c)):
            out[s] = out.get(s, 0) + w
    return {s: c for s, c in out.items() if c}


# -- haar-deep ---------------------------------------------------------------

# Base folds at depth 21 walk the cone level by level and build level 21
# outside the 20-level id cache, so every fold pays for the deepening that
# dominates criterion 9, at a cost that does not depend on the seed.  One
# coordinate keeps a call near 0.4 s; three samples per call keep a call
# from failing with no certified bin (each fold is ambiguous w.p. ~0.007).
HAAR = {"group": F2, "M": 3, "sample_radius": 21, "eval_radius": 0,
        "bins": 30, "max_extra": 0, "samples_per_call": 3, "calls": 4}


def _haar_check(cfg):
    sites = 2 * 3 ** cfg.eval_radius - 1

    def check(doc):
        problems = []
        coords = doc["coordinates"]
        if len(coords) != sites:
            problems.append("expected %d coordinates" % sites)
        for c in coords:
            if len(c["histogram"]) != cfg.bins:
                problems.append("histogram length at %r" % c["site"])
            if sum(c["histogram"]) != c["determined"]:
                problems.append("histogram total at %r" % c["site"])
            if c["determined"] + c["ambiguous"] != cfg.samples:
                problems.append("sample count at %r" % c["site"])
        if not 0 <= doc["pair"]["samples"] <= cfg.samples:
            problems.append("pair sample count")
        fields = {
            "coordinates": [[c["site"], c["determined"], c["ambiguous"],
                             c["histogram"]] for c in coords],
            "pair": [doc["pair"]["sites"], doc["pair"]["cells"],
                     doc["pair"]["samples"]],
        }
        return fields, problems
    return check


def _haar_tally(doc, acc):
    for c in doc["coordinates"]:
        acc["haar.determined"] += c["determined"]
        acc["haar.coordinates"] += c["determined"] + c["ambiguous"]


def haar_deep(seed):
    r = _random("haar-deep", seed)
    p = HAAR
    calls = []
    for k in range(p["calls"]):
        cfg = ExperimentConfig(seed=r.getrandbits(62), samples=p["samples_per_call"],
                               M=p["M"], group=p["group"],
                               sample_radius=p["sample_radius"],
                               eval_radius=p["eval_radius"], bins=p["bins"])
        calls.append(Call(
            "haar/%d" % k,
            lambda cfg=cfg: montecarlo.haar_window_test(
                cfg, max_extra=p["max_extra"], jobs=1),
            cfg.samples, _haar_check(cfg), _haar_tally))
    size = dict(p, samples=p["samples_per_call"] * p["calls"])
    return Workload("haar-deep", calls, size, tracks_reference=False)


# -- exact-cover -------------------------------------------------------------

# Round-trip cost grows with the number of nonzero symbols, so each input
# has a fixed count of them (two thirds of the support, as uniform symbols
# give on average) at positions and values drawn from the seed.
EXACT = {"M": 3, "round_trips_per_group": 12, "support_radius": 2,
         "lift_radius": 5, "eval_radius": 1,
         "conservation_runs": 100, "runs_per_call": 20,
         "battery_members": 8, "battery_non_members": 8, "battery_M": [3, 4, 5]}


def _round_trip(d, big, evals, M):
    x = homoclinic.phi_exact(d, big, M)
    lifted = homoclinic.four_cover_lift(x, M)
    original = homoclinic.phi_exact(d, evals, M)
    enclosed = homoclinic.phi_windowed(lifted, evals, M)
    return x, lifted, original, enclosed


def _round_trip_check(group, evals, M):
    def check(result):
        x, lifted, original, enclosed = result
        problems = []
        if any(not v.is_exact for v in x.values()):
            problems.append("phi_exact returned an enclosure")
        if any(not 0 <= v <= M for v in lifted.values.values()):
            problems.append("lift leaves {0..M}")
        for s in evals:
            v = original[s].lo
            lo, hi = enclosed[s].lo, enclosed[s].hi
            if v + math.ceil(lo - v) > hi:
                problems.append("enclosure misses coordinate %r" % _fmt(group, s))
        fields = {
            "x": sorted([_fmt(group, s), _frac(v.lo)] for s, v in x.items()),
            "lift": sorted([_fmt(group, s), v] for s, v in lifted.values.items()),
            "enclosed": sorted([_fmt(group, s), _frac(v.lo), _frac(v.hi)]
                               for s, v in enclosed.items()),
        }
        return fields, problems
    return check


def _conservation_problems(before, after, carry, M):
    """output - input = -carry * (M - A - B) at every site, i.e.
    after(s) - before(s) = -M c(s) + c(sa) + c(sb)."""
    sites = set(before) | set(after) | set(carry)
    for t in carry:
        sites.add(_mul(F2, t, "A"))
        sites.add(_mul(F2, t, "B"))
    for s in sites:
        lhs = after.get(s, 0) - before.get(s, 0)
        rhs = (-M * carry.get(s, 0) + carry.get(_mul(F2, s, "a"), 0)
               + carry.get(_mul(F2, s, "b"), 0))
        if lhs != rhs:
            return ["conservation identity fails at %r" % s]
    return []


def _run_reduce(batch):
    return [symbolic.reduce_cover(d, M) for d, M in batch]


def _run_carry(batch):
    out = []
    for d, M in batch:
        try:
            out.append(symbolic.carry_add(d, "", M))
        except symbolic.BoundaryOverflow as exc:
            out.append(exc)
    return out


def _carry_json(res):
    return {"values": sorted([s, v] for s, v in res.config.values.items()),
            "carry": sorted([s, _frac(c)] for s, c in res.carry.terms.items()),
            "spill": sorted([s, v] for s, v in res.spill.items())}


def _reduce_check(batch):
    def check(results):
        problems = []
        fields = []
        for (d, M), res in zip(batch, results):
            after = dict(res.config.values)
            for s, v in res.spill.items():
                after[s] = after.get(s, 0) + v
            problems += _conservation_problems(d.values, after, res.carry.terms, M)
            if any(not 0 <= v <= M - 1 for v in res.config.values.values()):
                problems.append("reduce_cover leaves {0..M-1}")
            fields.append(_carry_json(res))
        return fields, problems
    return check


def _carry_check(batch):
    def check(results):
        problems = []
        fields = []
        for (d, M), res in zip(batch, results):
            if isinstance(res, symbolic.BoundaryOverflow):
                fields.append({"overflow": res.site})
                continue
            before = dict(d.values)
            before[""] += 1
            problems += _conservation_problems(before, res.config.values,
                                               res.carry.terms, M)
            if any(not 0 <= v <= M - 1 for v in res.config.values.values()):
                problems.append("carry_add leaves {0..M-1}")
            fields.append(_carry_json(res))
        return fields, problems
    return check


def _member_certificate(M):
    """A ring map to Z/p killing f = M - a - b: (p, image of a, image of b).
    Any g in the ideal maps to 0, so a nonzero image proves g is outside."""
    if M - 2 > 1:
        p = next(q for q in range(2, M - 1) if (M - 2) % q == 0)
        return p, 1, 1
    return 3, 1, 2


def _image(group, g, cert):
    p, ia, ib = cert
    img = {"a": ia, "b": ib, "A": pow(ia, -1, p), "B": pow(ib, -1, p)}
    total = 0
    for el, c in g.items():
        if group == F2:
            v = 1
            for ch in el:
                v = v * img[ch] % p
        else:
            v = pow(ia, el[0], p) * pow(ib, el[1], p) % p
        total += c * v
    return total % p


def _random_element(r, support, coeffs, n_terms):
    return {s: r.choice(coeffs) for s in r.sample(support, n_terms)}


def _battery(r, group, M, n_members, n_non):
    small = groups.ball(group, 1)
    cert = _member_certificate(M)
    chars = []
    for _ in range(n_members):
        h = _random_element(r, small, (-2, -1, 1, 2), r.randint(1, 3))
        chars.append((_times_f(group, h, M), h))
    while len(chars) < n_members + n_non:
        g = _random_element(r, small, (-3, -2, -1, 1, 2, 3), r.randint(1, 3))
        if _image(group, g, cert):
            chars.append((g, None))
    r.shuffle(chars)
    g_list = [RingElement(group, g) for g, _ in chars]
    return g_list, [h for _, h in chars]


def _battery_check(group, M, quotients):
    def check(report):
        problems = []
        entries = report["entries"]
        if len(entries) != len(quotients):
            return {}, ["battery length"]
        for e, h in zip(entries, quotients):
            if e["member"] != (h is not None):
                problems.append("membership verdict")
            if not e["pass"]:
                problems.append("transform disagrees with membership")
            if h is None:
                if not (e["witness"] and 1 <= e["witness"]["k"] <= M - 1):
                    problems.append("witness outside 1..M-1")
            else:
                got = {t["w"]: Fraction(int(t["num"]), int(t["den"]))
                       for t in e["quotient"]["terms"]}
                want = {_fmt(group, s): Fraction(c) for s, c in h.items()}
                if got != want:
                    problems.append("quotient differs from the factor")
        if not report["passed"]:
            problems.append("battery failed")
        return report, problems
    return check


def exact_cover(seed):
    r = _random("exact-cover", seed)
    p = EXACT
    M = p["M"]
    calls = []
    for group in (F2, Z2):
        support = groups.ball(group, p["support_radius"])
        big = groups.ball(group, p["lift_radius"])
        evals = groups.ball(group, p["eval_radius"])
        for i in range(p["round_trips_per_group"]):
            nonzero = set(r.sample(support, 2 * len(support) // 3))
            values = {s: r.randrange(1, M) if s in nonzero else 0 for s in support}
            d = Configuration(group, values, (0, M - 1))
            calls.append(Call(
                "round-trip/%s/%d" % (group, i),
                lambda d=d, big=big, evals=evals: _round_trip(d, big, evals, M),
                1, _round_trip_check(group, evals, M)))

    window = groups.ball(F2, 3)
    neg_window = groups.negative_monoid(F2, 6)
    reduce_runs, carry_runs = [], []
    for i in range(p["conservation_runs"]):
        Mi = 3 if i % 2 == 0 else 4
        vals = {s: r.randrange(Mi + 1) for s in window}
        reduce_runs.append((Configuration(F2, vals, (0, Mi)), Mi))
        vals = {s: r.randrange(Mi) for s in neg_window}
        carry_runs.append((Configuration(F2, vals, (0, Mi - 1)), Mi))
    per = p["runs_per_call"]
    for k in range(0, len(reduce_runs), per):
        b = reduce_runs[k:k + per]
        calls.append(Call("reduce/%d" % (k // per), lambda b=b: _run_reduce(b),
                          len(b), _reduce_check(b)))
    for k in range(0, len(carry_runs), per):
        b = carry_runs[k:k + per]
        calls.append(Call("carry/%d" % (k // per), lambda b=b: _run_carry(b),
                          len(b), _carry_check(b)))

    for group in (F2, Z2):
        for Mb in p["battery_M"]:
            f = PolyF.standard(Mb, group)
            g_list, quotients = _battery(r, group, Mb, p["battery_members"],
                                         p["battery_non_members"])
            calls.append(Call(
                "battery/%s/M%d" % (group, Mb),
                lambda g_list=g_list, f=f: spectral.haar_indicator_check(g_list, f),
                len(g_list), _battery_check(group, Mb, quotients)))
    size = dict(p, round_trips=2 * p["round_trips_per_group"],
                characters=len(p["battery_M"]) * 2
                * (p["battery_members"] + p["battery_non_members"]))
    return Workload("exact-cover", calls, size)


# -- sampling-stream ---------------------------------------------------------

# Calls are kept short (0.1-0.5 s): collision_search runs 8 control pairs
# instead of its default 64, whose fixed cost would otherwise fill the pass.
STREAM = {"group": F2, "M": 3, "eval_radius": 1, "tau_sample_radius": 14,
          "tau_samples": 100, "tau_calls": 3, "sample_radius": 12,
          "collision_pairs": 200, "collision_control": 8, "pair_depth": 8,
          "max_extra": 6, "fourier_samples": 600}


def _fourier_characters(M):
    """Criterion 11's characters 1, f, (1+a)*f and a; the middle two lie in
    the ideal, so every sampled phase is exactly zero."""
    return {"1": {"": 1}, "f": _times_f(F2, {"": 1}, M),
            "(1+a)*f": _times_f(F2, {"": 1, "a": 1}, M), "a": {"a": 1}}


def _tau_check(cfg):
    def check(doc):
        problems = []
        fields = []
        for v in doc["variants"]:
            if v["exact_coordinate_matches"] != v["retained"]:
                problems.append("exact coordinate identity at root %r" % v["root"])
            if v["retained"] + v["discarded"] != cfg.samples:
                problems.append("retained + discarded at root %r" % v["root"])
            if v["image_collisions"]:
                problems.append("carry map not injective at root %r" % v["root"])
            fields.append([v["root"], v["retained"], v["discarded"],
                           v["exact_coordinate_matches"], v["distinct_images"],
                           v["image_collisions"], sorted(v["rhs"].items())])
        return fields, problems
    return check


def _tau_tally(doc, acc):
    for v in doc["variants"]:
        acc["tau.retained"] += v["retained"]
        acc["tau.samples"] += v["samples"]


def _collision_check(cfg):
    def check(doc):
        problems = []
        control, pairs = doc["control"], doc["random_pairs"]
        if control["enclosure_matches"] != control["pairs"]:
            problems.append("control family enclosures differ")
        if pairs["separated"] + pairs["unresolved"] != cfg.samples:
            problems.append("pair count")
        if pairs["unresolved"]:
            problems.append("unresolved pairs")
        if not doc["family"]["passed"]:
            problems.append("collision family reconstruction")
        fields = [control["enclosure_matches"], pairs["separated"],
                  pairs["deepened"], pairs["unresolved"], doc["family"]]
        return fields, problems
    return check


def _collision_tally(doc, acc):
    acc["collision.deepened"] += doc["random_pairs"]["deepened"]
    acc["collision.pairs"] += doc["random_pairs"]["pairs"]


def _fourier_check(cfg, member):
    def check(doc):
        problems = []
        if doc["sites"] < 1:
            problems.append("empty Fourier plan")
        if member and (doc["zero_phase_samples"] != cfg.samples
                       or doc["estimate"] != [1.0, 0.0]):
            problems.append("member character with a nonzero phase")
        if math.hypot(*doc["estimate"]) > 1 + 1e-9:
            problems.append("estimate outside the unit disc")
        fields = [doc["sites"], doc["zero_phase_samples"], doc["estimate"],
                  doc["band"], doc["bias_bound"]]
        return fields, problems
    return check


def sampling_stream(seed):
    r = _random("sampling-stream", seed)
    p = STREAM
    calls = []

    def cfg(samples, radius):
        return ExperimentConfig(seed=r.getrandbits(62), samples=samples, M=p["M"],
                                group=p["group"], sample_radius=radius,
                                eval_radius=p["eval_radius"])

    for k in range(p["tau_calls"]):
        c = cfg(p["tau_samples"], p["tau_sample_radius"])
        calls.append(Call("tau/%d" % k,
                          lambda c=c: montecarlo.tau_invariance_test(c),
                          2 * c.samples, _tau_check(c), _tau_tally))
    c = cfg(p["collision_pairs"], p["sample_radius"])
    calls.append(Call(
        "collision",
        lambda c=c: montecarlo.collision_search(
            c, control=p["collision_control"], pair_depth=p["pair_depth"],
            max_extra=p["max_extra"]),
        2 * c.samples, _collision_check(c), _collision_tally))
    for label, g in _fourier_characters(p["M"]).items():
        c = cfg(p["fourier_samples"], p["sample_radius"])
        g = RingElement(F2, g)
        calls.append(Call(
            "fourier/%s" % label,
            lambda c=c, g=g: montecarlo.empirical_fourier(c, g, jobs=1),
            c.samples, _fourier_check(c, label in ("f", "(1+a)*f"))))
    return Workload("sampling-stream", calls, dict(p))


WORKLOADS = {"haar-deep": haar_deep, "exact-cover": exact_cover,
             "sampling-stream": sampling_stream}
