"""Span tracing of g2flow from outside the package.

`install(tracer)` replaces the public functions and methods listed in TARGETS
with wrappers that record one span per call.  A wrapper is placed on every module
attribute that refers to the original object, so callers that imported a name
(`from .exterior import pullback_matrix`) see it as well as callers that go
through the defining module.  Methods are wrapped on their class.

A span is (item id, name, start, end, parent).  Spans stay in memory in flat
arrays and are written once, when the run ends.  A span's self time is its
duration minus the durations of its direct children; child spans nest inside
their parent, so that difference is the part of the interval no child covers.
"""

from __future__ import annotations

import array
import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

ITEM = "item"  # root span of one benchmark item: the benchmark's own glue

# (module, attribute, span name).  "Class.method" wraps a method on the class;
# several entries may share a span name when a metric groups them.
TARGETS = [
    ("exterior", "pullback_matrix", "exterior.pullback_matrix"),
    ("exterior", "theta", "exterior.theta"),
    ("exterior", "wedge", "exterior.wedge"),
    ("g2core", "G2Structure.__init__", "g2core.G2Structure"),
    ("g2core", "metric_from_3form", "g2core.metric_from_3form"),
    ("g2core", "G2Structure.solve_Q", "g2core.solve_Q"),
    ("g2core", "G2Structure.torsion_forms", "g2core.torsion_forms"),
    ("liealg", "LieBracket.__init__", "liealg.LieBracket"),
    ("liealg", "hodge_laplacian", "liealg.hodge_laplacian"),
    ("liealg", "ce_differential", "liealg.ce_differential"),
    ("liealg", "delta_mu", "liealg.delta_mu"),
    ("liealg", "derivations", "liealg.derivations"),
    ("liealg", "ricci", "liealg.ricci"),
    ("flow", "bracket_flow", "flow.bracket_flow"),
    ("flow", "laplacian_flow", "flow.laplacian_flow"),
    ("flow", "reconstruct_h", "flow.reconstruct_h"),
    ("flow", "detect_algebraic", "flow.detect"),
    ("flow", "detect_semialgebraic", "flow.detect"),
    ("flow", "lf_diagonal_test", "flow.lf_diagonal_test"),
    ("almostabelian", "AAMatrix.from_matrix", "almostabelian.AAMatrix"),
    ("almostabelian", "classify_soliton", "almostabelian.classify_soliton"),
    ("almostabelian", "flow_rhs", "almostabelian.flow_rhs"),
    ("almostabelian", "matrix_bracket_flow", "almostabelian.matrix_bracket_flow"),
    ("almostabelian", "laplacian_phi", "almostabelian.closed_forms"),
    ("almostabelian", "q_operator", "almostabelian.closed_forms"),
    ("almostabelian", "torsion_two_form", "almostabelian.closed_forms"),
    ("almostabelian", "ricci_aa", "almostabelian.closed_forms"),
    ("almostabelian", "closed_forms", "almostabelian.closed_forms"),
    ("almostabelian", "moment_map", "almostabelian.closed_forms"),
    ("cli", "main", "cli.main"),
]
# the step generators; their right-hand sides get spans of their own
STEPPERS = [("integrate", "rk45_steps"), ("integrate", "rk4_steps")]
STEP_SPAN = "integrate.steps"

MODULES = ("exterior", "g2core", "liealg", "integrate", "flow",
           "almostabelian", "corpus", "cli")

# per-layer metrics with a calls count and a self time
CALLS_AND_SELF = [
    "exterior.pullback_matrix", "exterior.theta", "exterior.wedge",
    "g2core.G2Structure", "g2core.metric_from_3form", "g2core.solve_Q",
    "g2core.torsion_forms",
    "liealg.LieBracket", "liealg.hodge_laplacian", "liealg.ce_differential",
    "liealg.delta_mu", "liealg.derivations", "liealg.ricci",
    "almostabelian.AAMatrix", "almostabelian.flow_rhs", "cli.main",
]
# per-layer metrics with a self time only; a flow function's self time includes
# the right-hand side closures it hands to the integrator (pack/unpack glue)
SELF_ONLY = [
    "flow.bracket_flow", "flow.laplacian_flow", "flow.reconstruct_h",
    "flow.detect", "flow.lf_diagonal_test",
    "almostabelian.classify_soliton", "almostabelian.matrix_bracket_flow",
    "almostabelian.closed_forms",
]
COUNTS = ["integrate.rhs_evals", "integrate.steps_accepted", "flow.samples"]


def metric_units():
    """Name -> unit of every per-layer metric the traced run reports."""
    units = {}
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    for name in SELF_ONLY:
        units[f"{name}.self_ms"] = "ms"
    units.update({
        "integrate.rhs_evals": "count",
        "integrate.steps_accepted": "count",
        "integrate.rhs_per_step": "ratio",
        "integrate.self_ms": "ms",
        "integrate.rhs_ms": "ms",
        "integrate.steps_ms": "ms",
        "flow.samples": "count",
        "host.ref_ms": "ms",
        "trace.items_per_s": "1/s",
        "trace.untraced_items_per_s": "1/s",
        "trace.items_per_s_ratio": "ratio",
    })
    return units


def is_count(metric):
    """True for the machine-independent metrics, which must repeat exactly."""
    return (metric.endswith(".calls") or metric in COUNTS
            or metric == "integrate.rhs_per_step")


class Tracer:
    """In-memory span store.  `on` gates recording; wrappers stay installed."""

    def __init__(self):
        self.on = False
        self.item = -1
        self.names = []
        self._name_ids = {}
        self._item = array.array("l")
        self._name = array.array("l")
        self._start = array.array("d")
        self._end = array.array("d")
        self._parent = array.array("l")
        self._stack = [-1]
        self.counts = defaultdict(Counter)  # item id -> counter name -> n

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id):
        idx = len(self._start)
        self._item.append(self.item)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(perf_counter())
        return idx

    def close(self, idx):
        self._end[idx] = perf_counter()
        self._stack.pop()

    def begin_item(self, index):
        """Open the root span of item `index` and start recording."""
        self.item = index
        idx = self.open(self.name_id(ITEM))
        self.on = True
        return idx

    def end_item(self, idx):
        self.on = False
        self.close(idx)

    def count(self, key, n=1):
        self.counts[self.item][key] += n

    def n_spans(self):
        return len(self._start)

    def self_times(self):
        """Per span: (item, name id, duration, self time)."""
        n = len(self._start)
        dur = [self._end[i] - self._start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                child[p] += dur[i]
        return [(self._item[i], self._name[i], dur[i], dur[i] - child[i])
                for i in range(n)]

    def save(self, path):
        """Write every span as columns of an .npz file."""
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names),
            item=np.frombuffer(self._item, dtype=np.int64),
            name=np.frombuffer(self._name, dtype=np.int64),
            start=np.frombuffer(self._start), end=np.frombuffer(self._end),
            parent=np.frombuffer(self._parent, dtype=np.int64))


def _span_wrapper(fn, tracer, name_id, after=None):
    def traced(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        idx = tracer.open(name_id)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(out)
        return out
    return functools.wraps(fn)(traced)


def _rhs_span_name(f):
    """Right-hand sides are closures of a flow function; charge them to it."""
    layer = getattr(f, "__module__", "") or ""
    layer = layer.rsplit(".", 1)[-1] or "unknown"
    outer = (getattr(f, "__qualname__", "") or type(f).__name__).split(".")[0]
    return f"{layer}.{outer}.rhs"


def _stepper_wrapper(gen_fn, tracer):
    step_id = tracer.name_id(STEP_SPAN)

    def traced_steps(f, *args, **kwargs):
        if not tracer.on:
            yield from gen_fn(f, *args, **kwargs)
            return
        rhs_id = tracer.name_id(_rhs_span_name(f))

        def rhs(t, y):
            tracer.count("integrate.rhs_evals")
            idx = tracer.open(rhs_id)
            try:
                return f(t, y)
            finally:
                tracer.close(idx)

        gen = gen_fn(rhs, *args, **kwargs)
        first = True
        while True:
            idx = tracer.open(step_id)
            try:
                state = next(gen)
            except StopIteration:
                return
            finally:
                tracer.close(idx)
            if not first:
                tracer.count("integrate.steps_accepted")
            first = False
            yield state

    return functools.wraps(gen_fn)(traced_steps)


def _replace_everywhere(mods, orig, wrapper):
    for mod in mods:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


def install(tracer):
    """Wrap every target in the imported g2flow package.  Returns the list of
    targets that could not be found, so a caller can report them."""
    import importlib
    pkg = importlib.import_module("g2flow")
    mods = {m: importlib.import_module(f"g2flow.{m}") for m in MODULES}
    everywhere = [pkg] + list(mods.values())
    missing = []

    def count_samples(res):
        samples = getattr(res, "samples", None)
        if samples is None:
            samples = getattr(res, "times", ())
        tracer.count("flow.samples", len(samples))

    for mod_name, attr, span in TARGETS:
        mod = mods[mod_name]
        after = count_samples if mod_name == "flow" and attr in (
            "bracket_flow", "laplacian_flow", "reconstruct_h") else None
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            raw = None if cls is None else cls.__dict__.get(meth)
            if raw is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(_span_wrapper(raw.__func__, tracer,
                                                    tracer.name_id(span)))
            else:
                wrapped = _span_wrapper(raw, tracer, tracer.name_id(span))
            setattr(cls, meth, wrapped)
            continue
        orig = getattr(mod, attr, None)
        if orig is None:
            missing.append(f"{mod_name}.{attr}")
            continue
        _replace_everywhere(everywhere, orig,
                            _span_wrapper(orig, tracer, tracer.name_id(span), after))

    for mod_name, attr in STEPPERS:
        orig = getattr(mods[mod_name], attr, None)
        if orig is None:
            missing.append(f"{mod_name}.{attr}")
            continue
        _replace_everywhere(everywhere, orig, _stepper_wrapper(orig, tracer))
    return missing


def per_layer_metrics(tracer, count_items, scale, untraced_ips):
    """Per-item per-layer metrics over the traced items.

    Counts use only items with id < count_items, a fixed prefix of the seeded
    item stream, so they repeat exactly for one seed.  Times average over all
    traced items; the spans of item i are scaled by scale[i], the factor that
    brings its wall time to reference host speed.
    """
    n_items = 0
    item_total = 0.0
    calls_prefix = Counter()
    self_total = defaultdict(float)
    rhs_total = steps_total = 0.0  # durations with their children
    for item, nid, dur, self_t in tracer.self_times():
        name = tracer.names[nid]
        if name == ITEM:
            n_items += 1
            item_total += dur * scale[item]
        self_total[name] += self_t * scale[item]
        if name == STEP_SPAN:
            steps_total += dur * scale[item]
        elif name.endswith(".rhs"):
            rhs_total += dur * scale[item]
        if item < count_items:
            calls_prefix[name] += 1
    counts = Counter()
    for item, ctr in tracer.counts.items():
        if item < count_items:
            counts.update(ctr)

    def self_ms(name):
        return 1e3 * self_total.get(name, 0.0) / n_items

    def per_item(n):
        return n / count_items

    rhs_names = [n for n in self_total if n.endswith(".rhs")]
    out = {}
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = per_item(calls_prefix[name])
        out[f"{name}.self_ms"] = self_ms(name)
    for name in SELF_ONLY:
        out[f"{name}.self_ms"] = self_ms(name) + self_ms(f"{name}.rhs")
    evals = counts["integrate.rhs_evals"]
    steps = counts["integrate.steps_accepted"]
    out["integrate.rhs_evals"] = per_item(evals)
    out["integrate.steps_accepted"] = per_item(steps)
    out["integrate.rhs_per_step"] = evals / steps if steps else 0.0
    out["integrate.self_ms"] = self_ms(STEP_SPAN)
    out["integrate.rhs_ms"] = 1e3 * rhs_total / n_items
    out["integrate.steps_ms"] = 1e3 * steps_total / n_items
    out["flow.samples"] = per_item(counts["flow.samples"])
    traced_ips = n_items / item_total
    out["trace.items_per_s"] = traced_ips
    out["trace.untraced_items_per_s"] = untraced_ips
    out["trace.items_per_s_ratio"] = traced_ips / untraced_ips
    unreported = sorted(set(rhs_names) - {f"{n}.rhs" for n in SELF_ONLY})
    if unreported:
        print(f"trace: right-hand sides charged to no metric: {unreported}",
              file=sys.stderr)
    return out
