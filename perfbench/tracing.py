"""In-memory span and count recording around the package's public functions.

The tracer patches functions from outside the package: each target is
replaced in every ``homoclinic_lab`` namespace that holds it by name (so
``montecarlo.phi_windowed`` and ``spectral.divide_by_f`` are covered too),
and methods are replaced on their class.  Timed targets record a span
(name, start, end, parent span); counted targets only bump a counter,
because they are called millions of times and a clock read per call would
dominate what it measures.  Nothing under ``src/`` changes.
"""

import collections
import json
import sys
import time

# (module, attribute path, kind); kind is "span" or "count"
TARGETS = [
    ("rng", "symbols", "span"),
    ("rng", "child_ids", "span"),
    ("groups", "multiply", "count"),
    ("groups", "check_element", "count"),
    ("ring", "quotient_coordinates", "span"),
    ("ring", "divide_by_f", "span"),
    ("ring", "RingElement.__mul__", "span"),
    ("ring", "PolyF.inv_coeff", "count"),
    ("intervals", "cos_sin_2pi", "count"),
    ("homoclinic", "phi_exact", "span"),
    ("homoclinic", "phi_windowed", "span"),
    ("homoclinic", "four_cover_lift", "span"),
    ("symbolic", "reduce_cover", "span"),
    ("symbolic", "carry_add", "span"),
    ("spectral", "haar_indicator_check", "span"),
    ("spectral", "mu_hat", "span"),
    ("spectral", "rational_witness", "span"),
    ("montecarlo", "haar_window_test", "span"),
    ("montecarlo", "tau_invariance_test", "span"),
    ("montecarlo", "collision_search", "span"),
    ("montecarlo", "empirical_fourier", "span"),
]

SPAN_NAMES = [f"{m}.{a}" for m, a, kind in TARGETS if kind == "span"]
COUNT_NAMES = [f"{m}.{a}" for m, a, kind in TARGETS if kind == "count"]

# rng.symbols calls of more ids than this draw a cone level past the
# 20-level id cache, or a whole base fold stacked to depth 20
PAST_CAP_IDS = 1 << 20

PACKAGE = "homoclinic_lab"


class Tracer:
    """Spans and counters for one traced pass; install() before each timed
    call and uninstall() after it, so benchmark checks are never traced."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []
        self._patches = self._find_patch_points()

    def _find_patch_points(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        patches = []
        for mod_name, path, kind in TARGETS:
            name = f"{mod_name}.{path}"
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                patches.append((cls, attr, original,
                                self._wrap(name, kind, original)))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, kind, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original, wrapper))
        return patches

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, name, kind, fn):
        counts = self.counts
        calls_key = name + ".calls"
        if kind == "count":
            def counted(*args, **kwargs):
                counts[calls_key] += 1
                return fn(*args, **kwargs)
            return counted

        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        ids_arg = {"rng.symbols": 2, "rng.child_ids": 0}.get(name)

        def timed(*args, **kwargs):
            counts[calls_key] += 1
            if ids_arg is not None:
                self._count_ids(name, len(args[ids_arg]))
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append((index, name))
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
        return timed

    def _count_ids(self, name, n):
        counts = self.counts
        counts[name + ".ids"] += n
        if name == "rng.symbols":
            if n > PAST_CAP_IDS:
                counts["rng.symbols.ids_past_cap"] += n
            counts["rng.symbols.max_ids"] = max(counts["rng.symbols.max_ids"], n)
            # ids drawn under each outermost traced function
            if self._stack:
                counts[f"{self._stack[0][1]}.symbol_ids"] += n

    def self_times(self):
        """Self seconds per span name: each span minus its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = collections.defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def write(self, path, meta):
        """Write the recorded spans once, as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))
