"""In-memory tracer for the benchmark's traced run.

It wraps public canm functions by rebinding module attributes: every loaded
``canm.*`` module whose attribute *is* the original function gets the traced
wrapper, so calls made through ``from .scm import sample`` style imports are
seen too. Each call records a span (name, start, end, parent, op) and the
wrappers' hooks add counts (rows drawn, pairs tested, bytes written, ...).
Nothing is written while ops run; ``layer_metrics`` derives the per-layer
figures once at the end. Wrappers never change arguments or results, so
traced outputs are byte-identical to untraced ones.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import weakref
from collections import Counter

ORACLE = "scm.true_ace_oracle"

# (module, function) pairs whose calls become spans.
TRACED = (
    ("scm", "sample"),
    ("scm", "true_ace_oracle"),
    ("scm", "save_dataset"),
    ("scm", "load_dataset"),
    ("util", "derive_seed"),
    ("graph", "transitive_reduction"),
    ("discovery", "learn_observable_graph"),
    ("estimation", "fit_model"),
    ("estimation", "ace"),
    ("harness", "run_discovery_experiment"),
    ("harness", "run_mae_experiment"),
)
# Dependence-test factories: their returned test (and its batch) are wrapped.
TEST_FACTORIES = (("independence", "data_ci_test"), ("independence", "oracle_ci_test"))

CLI_SUBCOMMANDS = ("gen-scm", "discover", "fit", "ace")

# Per-layer metrics: name -> unit. Values are per traced op.
LAYER_METRICS = {
    "scm.sample.calls": "count/op",
    "scm.sample.rows": "rows/op",
    "scm.sample.busy_s": "s/op",
    "scm.sample.read_ratio": "ratio",
    "util.derive_seed.calls": "count/op",
    "util.derive_seed.busy_s": "s/op",
    "independence.test.pairs": "count/op",
    "independence.test.batch_calls": "count/op",
    "independence.test.busy_s": "s/op",
    "graph.transitive_reduction.calls": "count/op",
    "graph.transitive_reduction.busy_s": "s/op",
    "discovery.learn_observable_graph.self_s": "s/op",
    "discovery.interventions": "count/op",
    "discovery.datasets": "count/op",
    "scm.true_ace_oracle.calls": "count/op",
    "scm.true_ace_oracle.rows": "rows/op",
    "scm.true_ace_oracle.busy_s": "s/op",
    "estimation.fit_model.calls": "count/op",
    "estimation.fit_model.busy_s": "s/op",
    "estimation.ace.calls": "count/op",
    "estimation.ace.mc_rows": "rows/op",
    "estimation.ace.busy_s": "s/op",
    "scm.save_dataset.calls": "count/op",
    "scm.save_dataset.bytes": "B/op",
    "scm.save_dataset.busy_s": "s/op",
    "scm.load_dataset.calls": "count/op",
    "scm.load_dataset.busy_s": "s/op",
    **{f"cli.{sub}.busy_s": "s/op" for sub in CLI_SUBCOMMANDS},
    "harness.run_discovery_experiment.self_s": "s/op",
    "harness.run_mae_experiment.self_s": "s/op",
    "trace.overhead_frac": "ratio",
}


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Spans and counts for the ops run while it is installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent span index or -1, op]
        self.counts = Counter()
        self.op = -1
        self._open = []
        self._undo = []
        self._drawn = {}  # id(dataset) -> weakref, for datasets not yet read

    def call(self, name, fn, *args, **kwargs):
        """Call fn inside a span named name."""
        rec = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1, self.op]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def _inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    # -- installation -------------------------------------------------------

    def install(self):
        canm_mods = [m for k, m in list(sys.modules.items()) if k == "canm" or k.startswith("canm.")]
        for mod_name, attr in TRACED:
            original = getattr(sys.modules[f"canm.{mod_name}"], attr)
            hook = getattr(self, f"_after_{attr}", None)
            self._rebind(canm_mods, original, self._wrap(f"{mod_name}.{attr}", original, hook))
        for mod_name, attr in TEST_FACTORIES:
            original = getattr(sys.modules[f"canm.{mod_name}"], attr)
            self._rebind(canm_mods, original, self._wrap_factory(original))

    def uninstall(self):
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)
        self._drawn.clear()

    def _rebind(self, mods, original, replacement):
        attr = original.__name__
        for mod in mods:
            if mod.__dict__.get(attr) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, replacement)

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            self.counts[f"{name}.calls"] += 1
            if hook is not None:
                hook(fn, result, args, kwargs)
            return result

        return traced

    def _wrap_factory(self, factory):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            test = factory(*args, **kwargs)
            reads = getattr(test, "needs_data", True)

            def traced_test(ds, a, b):
                verdict = self.call("independence.test", test, ds, a, b)
                self.counts["independence.test.pairs"] += 1
                if reads:
                    self._mark_read(ds)
                return verdict

            traced_test.needs_data = reads
            batch = getattr(test, "batch", None)
            if batch is not None:
                def traced_batch(ds, pairs):
                    verdicts = self.call("independence.test", batch, ds, pairs)
                    self.counts["independence.test.pairs"] += len(pairs)
                    self.counts["independence.test.batch_calls"] += 1
                    if reads:
                        self._mark_read(ds)
                    return verdicts

                traced_test.batch = traced_batch
            return traced_test

        return traced_factory

    # -- counting hooks -----------------------------------------------------

    def _mark_read(self, ds):
        ref = self._drawn.pop(id(ds), None)
        if ref is not None and ref() is ds:
            self.counts["scm.sample.read"] += 1

    def _after_sample(self, fn, ds, args, kwargs):
        self.counts["scm.sample.rows"] += ds.m
        if self._inside(ORACLE):
            return  # the oracle consumes its own draws; they are not handed out
        self.counts["scm.sample.drawn"] += 1
        key = id(ds)
        self._drawn[key] = weakref.ref(ds, lambda _ref, key=key: self._drawn.pop(key, None))

    def _after_true_ace_oracle(self, fn, result, args, kwargs):
        self.counts["scm.true_ace_oracle.rows"] += int(_bound(fn, args, kwargs)["m_mc"])

    def _after_ace(self, fn, result, args, kwargs):
        self.counts["estimation.ace.mc_rows"] += int(_bound(fn, args, kwargs)["m_mc"])

    def _after_fit_model(self, fn, result, args, kwargs):
        for ds in _bound(fn, args, kwargs)["datasets"]:
            self._mark_read(ds)

    def _after_save_dataset(self, fn, result, args, kwargs):
        bound = _bound(fn, args, kwargs)
        self._mark_read(bound["ds"])
        csv_path = str(bound["csv_path"])
        meta_path = bound["meta_path"]
        if meta_path is None:
            meta_path = (csv_path[:-4] if csv_path.endswith(".csv") else csv_path) + ".meta.json"
        self.counts["scm.save_dataset.bytes"] += os.path.getsize(csv_path) + os.path.getsize(meta_path)

    def _after_learn_observable_graph(self, fn, result, args, kwargs):
        self.counts["discovery.interventions"] += result.interventions_used
        self.counts["discovery.datasets"] += len(result.collected)

    # -- derived metrics ----------------------------------------------------

    def layer_metrics(self, traced_ops: int) -> dict:
        """Per-op averages of counts, busy time (span time) and self time
        (span time minus the time of its direct child spans)."""
        busy = Counter()
        child = Counter()
        for name, start, end, parent, _op in self.spans:
            busy[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time = Counter()
        for idx, (name, start, end, _parent, _op) in enumerate(self.spans):
            self_time[name] += (end - start) - child[idx]
        per_op = max(traced_ops, 1)
        out = {}
        for metric in LAYER_METRICS:
            layer, _, kind = metric.rpartition(".")
            if kind == "busy_s":
                value = busy[layer]
            elif kind == "self_s":
                value = self_time[layer]
            elif metric == "scm.sample.read_ratio":
                drawn = self.counts["scm.sample.drawn"]
                out[metric] = self.counts["scm.sample.read"] / drawn if drawn else 0.0
                continue
            elif metric == "trace.overhead_frac":
                continue  # filled in by the caller, which has the untraced times
            else:
                value = self.counts[metric]
            out[metric] = value / per_op
        return out

    def span_records(self) -> list:
        return [[name, round(start, 7), round(end, 7), parent, op]
                for name, start, end, parent, op in self.spans]
