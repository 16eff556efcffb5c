"""Outside-in span recorder for the traced run.

`install()` replaces the public functions of each layer with a timing
wrapper at every name they are bound under (the defining module, every
planeheights module that imported them, and the package namespace), so the
library's own calls between layers are seen too.  Spans (name, start, end,
parent, op) stay in memory until the run ends; a layer's self time is its
spans' durations minus the durations of their direct child spans.

Counters are taken at the same boundaries, after the wrapped call returns
and outside its span:

* `ratpoly.compose.out_terms`: terms of each composed polynomial;
* `heights.normalize.in_bits`: numerator plus denominator bits of the input;
* `useful_ratio`: distinct map objects (dynamical_degree) or distinct
  (map, point) pairs (is_periodic) within one op, over calls;
* `orbit.h_bounds`: a repeated (tracker, l) is a cache hit; a first call is
  classified by the public `tracker.point(l)`, which raises once iterate l
  is held in interval form.  The first interval iterate l > 0 of a tracker
  is its switch iterate.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import weakref
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, attribute) of each wrapped public function; a dotted
# attribute is a method.
TARGETS = (
    ("ratpoly.evaluate", "planeheights.ratpoly", "BivarPoly.evaluate"),
    ("ratpoly.mul", "planeheights.ratpoly", "BivarPoly.__mul__"),
    ("ratpoly.compose", "planeheights.ratpoly", "BivarPoly.compose"),
    ("heights.normalize", "planeheights.heights", "normalize"),
    ("heights.growth_constant", "planeheights.heights", "growth_constant"),
    ("automorphism.compose_maps", "planeheights.automorphism", "compose_maps"),
    ("automorphism.degree_sequence", "planeheights.automorphism", "degree_sequence"),
    ("automorphism.dynamical_degree", "planeheights.automorphism", "dynamical_degree"),
    ("canonical.make_engine", "planeheights.canonical", "make_engine"),
    ("canonical.hplus", "planeheights.canonical", "hplus"),
    ("canonical.hminus", "planeheights.canonical", "hminus"),
    ("canonical.hcanonical", "planeheights.canonical", "hcanonical"),
    ("canonical.is_periodic", "planeheights.canonical", "is_periodic"),
    ("orbit.counting_enclosure", "planeheights.orbit", "counting_enclosure"),
    ("orbit.hpm_from_h", "planeheights.orbit", "hpm_from_h"),
    ("orbit.tracker_init", "planeheights.orbit", "OrbitHeightTracker.__init__"),
    ("orbit.h_bounds", "planeheights.orbit", "OrbitHeightTracker.h_bounds"),
    ("picard.solve_pullbacks", "planeheights.picard", "solve_pullbacks"),
    ("cli.main", "planeheights.cli", "main"),
)

# Every per-layer metric with its unit, in report order.
PER_LAYER = (
    ("ratpoly.evaluate.calls", "count"),
    ("ratpoly.evaluate.self_s", "s"),
    ("ratpoly.mul.calls", "count"),
    ("ratpoly.mul.self_s", "s"),
    ("ratpoly.compose.calls", "count"),
    ("ratpoly.compose.self_s", "s"),
    ("ratpoly.compose.out_terms", "count"),
    ("heights.normalize.calls", "count"),
    ("heights.normalize.self_s", "s"),
    ("heights.normalize.in_bits", "bits"),
    ("heights.growth_constant.calls", "count"),
    ("automorphism.compose_maps.calls", "count"),
    ("automorphism.compose_maps.self_s", "s"),
    ("automorphism.degree_sequence.self_s", "s"),
    ("automorphism.dynamical_degree.calls", "count"),
    ("automorphism.dynamical_degree.self_s", "s"),
    ("automorphism.dynamical_degree.useful_ratio", "ratio"),
    ("canonical.make_engine.calls", "count"),
    ("canonical.make_engine.self_s", "s"),
    ("canonical.hcanonical.calls", "count"),
    ("canonical.hcanonical.self_s", "s"),
    ("canonical.half_walks", "count"),
    ("canonical.walks_per_op", "1/op"),
    ("canonical.is_periodic.calls", "count"),
    ("canonical.is_periodic.self_s", "s"),
    ("canonical.is_periodic.useful_ratio", "ratio"),
    ("orbit.counting_enclosure.calls", "count"),
    ("orbit.counting_enclosure.self_s", "s"),
    ("orbit.hpm_from_h.calls", "count"),
    ("orbit.trackers", "count"),
    ("orbit.trackers_per_op", "1/op"),
    ("orbit.h_bounds.calls", "count"),
    ("orbit.h_bounds.hit_ratio", "ratio"),
    ("orbit.exact_steps", "count"),
    ("orbit.exact_s", "s"),
    ("orbit.interval_steps", "count"),
    ("orbit.interval_s", "s"),
    ("orbit.switch_iterate", "iterate"),
    ("orbit.peak_exact_bits", "bits"),
    ("picard.solve_pullbacks.calls", "count"),
    ("picard.solve_pullbacks.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)


class Recorder:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op index]
        self._stack = []
        self.op = -1
        self.counters = Counter()
        self.peak_exact_bits = 0
        self.switch_iterates = []
        self._op_objects = {}  # id -> object, keeps ids unique within an op
        self._op_keys = set()
        self._trackers = weakref.WeakKeyDictionary()  # tracker -> [seen l's, switched]

    def begin_op(self, index: int):
        self.op = index
        self._op_objects.clear()
        self._op_keys.clear()

    # -- counters taken after a wrapped call returns ---------------------------

    def _distinct(self, counter: str, key, *keep):
        for obj in keep:
            self._op_objects[id(obj)] = obj
        if key not in self._op_keys:
            self._op_keys.add(key)
            self.counters[counter] += 1

    def after(self, name: str, args, result, duration: float):
        if name == "ratpoly.compose":
            self.counters["ratpoly.compose.out_terms"] += len(result.terms)
        elif name == "heights.normalize":
            self.counters["heights.normalize.in_bits"] += sum(
                c.numerator.bit_length() + c.denominator.bit_length() for c in args[0])
        elif name == "automorphism.dynamical_degree":
            self._distinct("automorphism.dynamical_degree.distinct", ("dd", id(args[0])), args[0])
        elif name == "canonical.is_periodic":
            f, x = args[0], args[1]
            self._distinct("canonical.is_periodic.distinct", ("per", id(f), x[0], x[1]), f)
        elif name == "orbit.h_bounds":
            self._classify_h_bounds(args[0], args[1], duration)

    def _classify_h_bounds(self, tracker, l: int, duration: float):
        from planeheights.errors import ResourceCapError

        state = self._trackers.get(tracker)
        if state is None:
            state = self._trackers[tracker] = [set(), False]
        if l in state[0]:
            self.counters["orbit.h_bounds.hits"] += 1
            return
        state[0].add(l)
        try:
            x, y = tracker.point(l)
        except ResourceCapError:
            self.counters["orbit.interval_steps"] += 1
            self.counters["orbit.interval_s"] += duration
            if l > 0 and not state[1]:
                state[1] = True
                self.switch_iterates.append(l)
            return
        self.counters["orbit.exact_steps"] += 1
        self.counters["orbit.exact_s"] += duration
        bits = max(c.bit_length() for c in (x.numerator, x.denominator, y.numerator, y.denominator))
        self.peak_exact_bits = max(self.peak_exact_bits, bits)

    # -- wrapping --------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = (name, start, perf_counter(), parent, self.op)

    def wrap(self, name: str, fn):
        with_counters = name in ("ratpoly.compose", "heights.normalize", "automorphism.dynamical_degree",
                                 "canonical.is_periodic", "orbit.h_bounds")

        def traced(*args, **kwargs):
            index = len(self.spans)
            with self.span(name):
                result = fn(*args, **kwargs)
            if with_counters:
                _, start, end, _, _ = self.spans[index]
                self.after(name, args, result, end - start)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        if hasattr(fn, "cache_clear"):  # keep an lru_cache's controls reachable
            traced.cache_clear = fn.cache_clear
        return traced

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict:
        calls = Counter()
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[self.spans[parent][0]] += end - start
        self_s = {name: total[name] - child[name] for name in total}
        c = self.counters
        out = {}
        for layer in ("ratpoly.evaluate", "ratpoly.mul", "ratpoly.compose", "heights.normalize",
                      "automorphism.compose_maps", "automorphism.dynamical_degree", "canonical.make_engine",
                      "canonical.hcanonical", "canonical.is_periodic", "orbit.counting_enclosure",
                      "picard.solve_pullbacks"):
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        half_walks = calls["canonical.hplus"] + calls["canonical.hminus"]
        out.update({
            "ratpoly.compose.out_terms": c["ratpoly.compose.out_terms"],
            "heights.normalize.in_bits": c["heights.normalize.in_bits"],
            "heights.growth_constant.calls": calls["heights.growth_constant"],
            "automorphism.degree_sequence.self_s": self_s.get("automorphism.degree_sequence", 0.0),
            "automorphism.dynamical_degree.useful_ratio": _ratio(
                c["automorphism.dynamical_degree.distinct"], calls["automorphism.dynamical_degree"]),
            "canonical.half_walks": half_walks,
            "canonical.walks_per_op": _ratio(half_walks, ops),
            "canonical.is_periodic.useful_ratio": _ratio(
                c["canonical.is_periodic.distinct"], calls["canonical.is_periodic"]),
            "orbit.hpm_from_h.calls": calls["orbit.hpm_from_h"],
            "orbit.trackers": calls["orbit.tracker_init"],
            "orbit.trackers_per_op": _ratio(calls["orbit.tracker_init"], ops),
            "orbit.h_bounds.calls": calls["orbit.h_bounds"],
            "orbit.h_bounds.hit_ratio": _ratio(c["orbit.h_bounds.hits"], calls["orbit.h_bounds"]),
            "orbit.exact_steps": c["orbit.exact_steps"],
            "orbit.exact_s": float(c["orbit.exact_s"]),
            "orbit.interval_steps": c["orbit.interval_steps"],
            "orbit.interval_s": float(c["orbit.interval_s"]),
            "orbit.switch_iterate": (statistics.median(self.switch_iterates) if self.switch_iterates else 0),
            "orbit.peak_exact_bits": self.peak_exact_bits,
            "cli.main.self_s": self_s.get("cli.main", 0.0),
            "trace.spans": len(self.spans),
        })
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def install() -> Recorder:
    """Wrap every target at every name it is bound under; returns the recorder."""
    rec = Recorder()
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "planeheights" or name.startswith("planeheights."))]
    for span_name, module_name, attr in TARGETS:
        module = sys.modules.get(module_name)
        if module is None:  # e.g. the cli module in a library-only workload
            continue
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = vars(owner)[method]
            traced = rec.wrap(span_name, original)
            for key, value in list(vars(owner).items()):
                if value is original:  # e.g. BivarPoly.__rmul__ = __mul__
                    setattr(owner, key, traced)
            continue
        original = getattr(module, attr)
        traced = rec.wrap(span_name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
    return rec
