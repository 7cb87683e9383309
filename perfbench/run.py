"""Benchmark for homoclinic-lab: one workload per invocation.

    python3 perfbench/run.py --workload haar-deep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is installed.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records provenance.

With ``--trace 0`` the workload's calls are repeated in passes for
``--seconds`` seconds; every call keeps the inputs made from the seed, so
each pass does identical work.  This shared 2-core host runs Python code up
to 2x slower for stretches of seconds to minutes, so times are taken
against a reference: a fixed exact-arithmetic loop (``reference_seconds``)
is timed just before every call.  ``wall_s`` sums, over the calls, the
median of call time / reference time, scaled by the reference's nominal
``REFERENCE_S``: the calls' wall time at the speed where the reference
takes 1 ms.  Over six runs of exact-cover (seeds 1 to 6) this moved 2%
where the raw time moved 20%.  haar-deep spends its time in memory-bound numpy
draws that the reference does not track (its ratio spread wider than its
raw time), so its ``wall_s`` is the sum of each call's fastest raw time.
``setup_s`` is the median over five fresh processes that each import the
package and build the inputs, scaled by references timed just before and
after the setup in the same process.
Raw seconds for every call are printed in the detail line.

With ``--trace 1`` the run makes untraced, traced, untraced and traced
passes and reports per-layer metrics from the first traced pass.  It also
tests itself: traced digests must equal untraced ones and every count must
repeat exactly in the second traced pass; a difference counts as a failure.

``--record-digests`` rewrites ``perfbench/digests.json`` from the default
seed; every run at that seed compares its result digests against the file.
"""

import argparse
import collections
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
TRACE_DIR = ROOT / ".perfbench"

DEFAULT_SEED = 20260815
REFERENCE_S = 1e-3
REFERENCE_TERMS = 400
SETUP_REPEATS = 5
MIN_PASSES = 3
CHILD_TIMEOUT_S = 120


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=["haar-deep", "exact-cover",
                                           "sampling-stream"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build inputs, print the seconds taken")
    ap.add_argument("--record-digests", action="store_true",
                    help="rewrite digests.json from one pass at the default seed")
    args = ap.parse_args(argv)
    if args.workload is None and not args.record_digests:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def reference_seconds():
    """Time one fixed exact-arithmetic loop, about 1 ms at full speed."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


def _digest(fields):
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _build(name, seed):
    import workloads
    return workloads.WORKLOADS[name](seed)


class Checker:
    """Counts attempted and failed calls; a call fails when it raises, when
    its check finds a problem, or when its digest differs from the recorded
    one (default seed) or from its own first execution in this run."""

    def __init__(self, expected):
        self.expected = expected
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def execute(self, call, tracer=None):
        """Run one call, returning (seconds, reference seconds, result,
        digest); the reference is timed just before the call."""
        self.attempted += 1
        ref = reference_seconds()
        if tracer is not None:
            tracer.install()
        error = None
        start = time.perf_counter()
        try:
            result = call.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            error = exc
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        if error is not None:
            self._fail(call, "raised %s: %s" % (type(error).__name__, error))
            return elapsed, ref, None, None
        fields, problems = call.check(result)
        digest = _digest(fields)
        if self.expected is not None and self.expected.get(call.label) != digest:
            problems.append("digest differs from the recorded one")
        if self.first.setdefault(call.label, digest) != digest:
            problems.append("digest differs from the first execution")
        for p in problems:
            self._fail(call, p)
            break
        return elapsed, ref, result, digest

    def _fail(self, call, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append("%s: %s" % (call.label, message))


def _run_pass(wl, checker, tracer=None, tally=None):
    """Execute every call once; results are dropped after their check (and
    tally), so a pass holds one result at a time.  Returns per-call lists of
    (seconds, reference seconds) and digests."""
    times, digests = [], []
    for call in wl.calls:
        t, ref, res, dg = checker.execute(call, tracer)
        if tally is not None and call.tally is not None and res is not None:
            call.tally(res, tally)
        times.append((t, ref))
        digests.append(dg)
    return times, digests


def _wall(wl, reps):
    """Wall-time estimate from repeated passes: reps[k][c] is (seconds,
    reference seconds) of call c in pass k (see the module docstring)."""
    per_call = zip(*reps)
    if wl.tracks_reference:
        return REFERENCE_S * sum(statistics.median(t / r for t, r in runs)
                                 for runs in per_call)
    return sum(min(t for t, _ in runs) for runs in per_call)


def _setup_times(args):
    """Setup seconds, raw and scaled to the reference, measured in fresh
    processes so that imports count."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("setup process failed:\n" + proc.stderr)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def _git_rev():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _provenance(args, wl):
    import numpy
    import scipy
    return {"git_rev": _git_rev(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "seed": args.seed,
            "workload": wl.name, "size": wl.size, "calls": len(wl.calls),
            "run_seconds": args.seconds, "trace": args.trace}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_timed(args, wl, checker):
    setup = _setup_times(args)
    reps = []
    start = time.perf_counter()
    while len(reps) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        reps.append(_run_pass(wl, checker)[0])
    wall = _wall(wl, reps)
    items = sum(call.items for call in wl.calls)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": _metric(statistics.median(r["setup_s"] for r in setup), "s"),
        "wall_s": _metric(wall, "s"),
        "items_per_s": _metric(items / wall, "1/s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    detail = {"passes": len(reps), "setup_runs": setup,
              "call_times_s": {c.label: [rep[i] for rep in reps]
                               for i, c in enumerate(wl.calls)}}
    return metrics, detail


def _ratio(num, den):
    return num / den if den else 0.0


def run_traced(args, wl, checker):
    untraced, traced, tracers = [], [], []
    tally = collections.Counter()
    for k in range(4):
        if k % 2 == 0:
            untraced.append(_run_pass(wl, checker))
            continue
        tracers.append(tracing.Tracer())
        traced.append(_run_pass(wl, checker, tracers[-1],
                                tally if k == 1 else None))

    # self-test: tracing must not change results, and counts must repeat
    for (_, d_u), (_, d_t) in zip(untraced, traced):
        if d_u != d_t:
            checker.failed += 1
            checker.problems.append("self-test: traced digests differ")
    if tracers[0].counts != tracers[1].counts:
        checker.failed += 1
        diff = sorted(set(tracers[0].counts.items()) ^ set(tracers[1].counts.items()))
        checker.problems.append("self-test: counts differ %s" % diff[:6])

    tr = tracers[0]
    counts = tr.counts
    selfs = tr.self_times()
    # shares refer to the pass the spans come from; trace.wall_s and the
    # overhead use the same estimate as wall_s, over the traced passes and
    # over the untraced ones
    pct = 100.0 / sum(t for t, _ in traced[0][0])
    traced_wall = _wall(wl, [t for t, _ in traced])
    overhead = traced_wall - _wall(wl, [t for t, _ in untraced])

    m = {}
    for name in tracing.SPAN_NAMES:
        m[name + ".calls"] = _metric(counts[name + ".calls"], "count")
        m[name + ".self_pct"] = _metric(selfs.get(name, 0.0) * pct, "%")
    for name in tracing.COUNT_NAMES:
        m[name + ".calls"] = _metric(counts[name + ".calls"], "count")
    m["rng.symbols.ids"] = _metric(counts["rng.symbols.ids"], "count")
    m["rng.symbols.ids_past_cap"] = _metric(counts["rng.symbols.ids_past_cap"], "count")
    m["rng.symbols.max_ids"] = _metric(counts["rng.symbols.max_ids"], "count")
    m["rng.child_ids.ids"] = _metric(counts["rng.child_ids.ids"], "count")
    m["montecarlo.haar.certified_ratio"] = _metric(
        _ratio(tally["haar.determined"], tally["haar.coordinates"]), "ratio")
    m["montecarlo.haar.ids_per_coordinate"] = _metric(
        _ratio(counts["montecarlo.haar_window_test.symbol_ids"],
               tally["haar.coordinates"]), "ids/coordinate")
    m["montecarlo.tau.retained_ratio"] = _metric(
        _ratio(tally["tau.retained"], tally["tau.samples"]), "ratio")
    m["montecarlo.collision.deepened_ratio"] = _metric(
        _ratio(tally["collision.deepened"], tally["collision.pairs"]), "ratio")
    m["symbolic.carry_add.overflow_ratio"] = _metric(
        _ratio(counts["symbolic.carry_add.raised.BoundaryOverflow"],
               counts["symbolic.carry_add.calls"]), "ratio")
    m["trace.wall_s"] = _metric(traced_wall, "s")
    m["trace.overhead_s"] = _metric(overhead, "s")

    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / ("trace-%s-%d.json" % (wl.name, args.seed))
    tr.write(path, {"workload": wl.name, "seed": args.seed,
                    "calls": [c.label for c in wl.calls]})
    return m, {"trace_file": str(path.relative_to(ROOT))}


def record_digests():
    import workloads
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for name, build in workloads.WORKLOADS.items():
        wl = build(DEFAULT_SEED)
        checker = Checker(None)
        _, digests = _run_pass(wl, checker)
        if checker.failed:
            raise SystemExit("not recording: %s" % checker.problems)
        out["workloads"][name] = {c.label: d for c, d in zip(wl.calls, digests)}
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    args = _parse(argv)
    # setup is bracketed by reference timings, which stay outside it
    refs = [reference_seconds() for _ in range(5)] if args.setup_only else []
    start = time.perf_counter()
    if not (SRC / "homoclinic_lab" / "__init__.py").is_file():
        print("perfbench: no package source at %s; run from the root of a "
              "homoclinic-lab checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_digests:
        record_digests()
        return 0
    wl = _build(args.workload, args.seed)
    if args.setup_only:
        raw = time.perf_counter() - start
        ref = statistics.median(refs + [reference_seconds() for _ in range(5)])
        print(json.dumps({"setup_s": raw * REFERENCE_S / ref, "raw_s": raw,
                          "reference_s": ref}))
        return 0

    expected = None
    if args.seed == DEFAULT_SEED:
        expected = json.loads(DIGESTS.read_text())["workloads"][wl.name]
    checker = Checker(expected)
    if args.trace:
        metrics, detail = run_traced(args, wl, checker)
    else:
        metrics, detail = run_timed(args, wl, checker)
    print(json.dumps({"provenance": _provenance(args, wl), "detail": detail,
                      "problems": checker.problems}))
    print(json.dumps({"correct": checker.failed == 0,
                      "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
