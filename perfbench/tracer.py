"""Span tracer that times predcurves' layers from outside the package.

No source file of the package is edited. While a traced op runs, each
function in ``TARGETS`` is replaced at every module attribute (and class
attribute, for methods) where callers look it up, by a wrapper that
records a span: layer, start, end, parent span and op id. The harness
opens one root span named ``op`` per traced op, so every span has a
parent chain that ends at its op. Spans stay in memory until the run
ends; ``per_layer`` turns them into per-op counts and times.

A layer's self time is its span's duration minus the durations of its
direct child spans. Calls are strictly nested on one thread, so the
children never overlap and the self times of all spans of an op add up
to the op's duration.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import warnings
from collections import defaultdict
from time import perf_counter

# (module under predcurves, attribute or Class.method, layer name)
TARGETS = (
    ("scenarios", "gen_linear", "scenarios"),
    ("scenarios", "gen_nn", "scenarios"),
    ("rng", "RngStream.generator", "rng"),
    ("rng", "labeled_generator", "rng"),
    ("linalg", "least_squares", "linalg.least_squares"),
    ("studies", "score_matrix", "studies.score_matrix"),
    ("closed_form", "interval_from_scores", "closed_form.interval"),
    ("quantiles", "order_stat_index", "quantiles.order_stat_index"),
    ("conformal", "build_loo_ensemble", "conformal.loo_ensemble"),
    ("conformal", "LooEnsemble.prediction_matrix", "conformal.prediction_matrix"),
    ("mlp", "MlpModel.predict", "mlp.predict"),
    ("mlp", "train_batched", "mlp.train_batched"),
    ("conformal", "curve_grid", "conformal.curve_grid"),
    ("emit", "emit_results", "emit"),
    ("emit", "emit_curves", "emit"),
)

ROOT = "op"


def _networks(signature, args, kwargs, result):
    """Networks trained in one ``train_batched`` call: folds x restarts."""
    bound = signature.bind(*args, **kwargs).arguments
    folds = 1 if bound.get("fold_masks") is None else bound["fold_masks"].shape[0]
    return "mlp.train_batched.networks", folds * bound["config"].restarts


# layer -> counter(signature, args, kwargs, result) -> (metric name, increment)
COUNTERS = {
    "mlp.train_batched": _networks,
    "conformal.curve_grid": lambda sig, args, kwargs, grid: ("conformal.curve_grid.points", len(grid)),
    "emit": lambda sig, args, kwargs, text: ("emit.bytes", len(text.encode("utf-8"))),
}


class Tracer:
    """Records spans for the ops run inside ``trace_op``."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index or -1, op id]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = None
        self._patches = self._plan()

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every place a target is looked up."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "predcurves"]
        patches = []
        for module_name, attr, layer in TARGETS:
            home = sys.modules[f"predcurves.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[meth]
                patches.append((owner, meth, original, self._wrap(layer, original)))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(layer, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, name, original, wrapper))
        return patches

    def _wrap(self, layer: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(layer)
        signature = inspect.signature(fn) if counter else None
        call = _counting_clamps(fn, counts) if layer == "quantiles.order_stat_index" else fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, 0.0, 0.0, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = call(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counter is not None:
                name, value = counter(signature, args, kwargs, result)
                counts[name] += value
            return result

        return traced

    def trace_op(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` as one traced op under a root span."""
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)
        self._op = op_id
        try:
            return self._wrap(ROOT, fn)(*args)
        finally:
            self._op = None
            for owner, name, original, _ in self._patches:
                setattr(owner, name, original)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, busy (inclusive) seconds and self seconds, summed over spans."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for (layer, start, end, _, _), covered in zip(self.spans, child_time):
            t = totals[layer]
            t["calls"] += 1
            t["busy_s"] += end - start
            t["self_s"] += end - start - covered
        return totals

    def dump(self, path) -> None:
        """Write every span, gzipped JSON, with times relative to the first span."""
        layers = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(layers)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[l], round(s - t0, 9), round(e - t0, 9), p, op] for l, s, e, p, op in self.spans]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["layer", "start_s", "end_s", "parent", "op"], "layers": layers, "spans": rows}, fh)


def _counting_clamps(fn, counts):
    """Count the RuntimeWarnings ``order_stat_index`` raises for clamped levels, then re-issue them."""

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
        for w in caught:
            if issubclass(w.category, RuntimeWarning):
                counts["quantiles.clamped"] += 1
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return result

    return counted


def per_layer(tracer: Tracer, traced_s: float, untraced_s: float, ops: int) -> dict[str, float]:
    """Per-op layer metrics plus the tracing overhead and the share of wall time the spans account for.

    ``traced_s`` and ``untraced_s`` are the summed durations of the same
    ``ops`` ops run with and without tracing.
    """
    totals = tracer.layer_totals()
    metrics: dict[str, float] = {}
    layers = {layer for _, _, layer in TARGETS} | {ROOT}
    for layer in layers:
        t = totals.get(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for stat, value in t.items():
            metrics[f"{layer}.{stat}"] = value / ops
    for name in ("mlp.train_batched.networks", "conformal.curve_grid.points", "emit.bytes", "quantiles.clamped"):
        metrics[name] = tracer.counts.get(name, 0.0) / ops
    accounted = sum(t["self_s"] for t in totals.values())
    metrics["trace.accounted_frac"] = accounted / traced_s
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return metrics
