"""Span recorder that wraps the calls each modelselect module makes into the next.

Wrappers are installed on the attribute the *calling* module looks up (for
example ``harness.fit_cascade_router`` or ``_engine.query_normals``), never by
editing the package, and are removed by ``uninstall``. Spans are kept in
memory as ``(name, start, end, parent, request)`` and written out when the
run ends. A span's name is ``<layer>.<function>``, where the layer is the
module that owns the code, so a layer's self time is the summed duration of
its spans minus the time their direct children cover.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# Module file name -> layer prefix used in span and metric names.
LAYERS = {
    "estimators": "estimators",
    "harness": "harness",
    "cascading": "cascading",
    "cascade_routing": "cascade_routing",
    "routing": "routing",
    "_fitting": "fitting",
    "search": "search",
    "_engine": "engine",
    "montecarlo": "montecarlo",
    "core": "core",
}

_FEASIBILITY_SLACK = 1e-9  # the search's own acceptance slack


class Tracer:
    def __init__(self, ms):
        self.ms = ms  # dict of the package's modules, keyed by file name
        self.spans: list = []
        self.counts: Counter = Counter()
        self.durations: defaultdict = defaultdict(list)  # span name -> seconds
        self.request = None
        self.val_tables: set = set()
        self.test_tables: set = set()
        self._stack: list = []
        self._patches: list = []  # (owner, attr, original object)

    # -- spans -------------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.request)
            self.durations[name].append(end - start)

    def _wrap(self, owner, attr, name, before=None, after=None):
        original = vars(owner).get(attr)
        if original is None:
            return  # absent in this version of the package: nothing to measure
        tracer = self

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            result = tracer.call(name, original, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def _count(self, owner, attr, name):
        """Count calls without a span, for functions too hot to time one by one."""
        original = vars(owner).get(attr)
        if original is None:
            return
        counts = self.counts

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    # -- hooks -------------------------------------------------------------

    def _counted_cost_fn(self, args, kwargs):
        cost_fn = args[0] if args else kwargs.pop("cost_fn")
        counts = self.counts

        def counted(lam, pick):
            counts["fitting.cost_evals"] += 1
            return cost_fn(lam, pick)

        return (counted,) + tuple(args[1:]), kwargs

    def _counted_objective(self, args, kwargs):
        objective = args[0] if args else kwargs.pop("objective")
        budget = args[1] if len(args) > 1 else kwargs["budget"]
        counts = self.counts
        best = [None]

        def counted(x):
            quality, cost = objective(x)
            counts["search.evals"] += 1
            if cost <= budget + _FEASIBILITY_SLACK:
                if best[0] is None:
                    best[0] = quality  # the initial point
                elif quality > best[0]:
                    best[0] = quality
                    counts["search.improving_evals"] += 1
            return quality, cost

        return (counted,) + tuple(args[1:]), kwargs

    def _set_point_request(self, args, kwargs):
        budget_index = args[2] if len(args) > 2 else kwargs["budget_index"]
        self.request = f"{args[0].name}@{budget_index}"
        return args, kwargs

    def _request_tag(self, tag):
        def before(args, kwargs):
            self.request = f"{args[0].name}@{tag}"
            return args, kwargs

        return before

    def _on_prepare(self, args, ctx):
        self.register(ctx)

    def register(self, ctx):
        self.val_tables.add(id(ctx.val_table))
        self.test_tables.add(id(ctx.test_table))

    def _on_engine_run(self, args, result):
        engine = args[0]
        table_id = id(engine.table)
        split = "val" if table_id in self.val_tables else "test" if table_id in self.test_tables else None
        seconds = self.durations["engine.run"][-1]
        if split is not None:
            self.counts[f"engine.{split}.runs"] += 1
            self.counts[f"engine.{split}.run_s"] += seconds
        self.counts["engine.rows"] += engine.table.n_queries
        order = result.exec_order
        bits = np.where(order >= 0, np.left_shift(1, np.maximum(order, 0)), 0)
        masks = np.concatenate([np.zeros((order.shape[0], 1), dtype=bits.dtype), np.cumsum(bits, axis=1)], axis=1)
        self.counts["engine.prefixes_visited"] += int(np.unique(masks).size)

    def _on_prune(self, args, result):
        self.counts["cascade_routing.prune.enumerated"] += len(args[0].extensions)
        self.counts["cascade_routing.prune.dropped"] += len(args[0].extensions) - len(result.extensions)

    # -- install / uninstall -------------------------------------------------

    def install(self):
        ms = self.ms
        h, cr, c, r = ms["harness"], ms["cascade_routing"], ms["cascading"], ms["routing"]
        e, mc = ms["_engine"], ms["montecarlo"]
        w = self._wrap
        w(h, "prepare_run", "harness.prepare_run", after=self._on_prepare)
        w(h, "generate_workload", "estimators.generate_workload")
        w(h, "simulate_estimates", "estimators.simulate_estimates")
        w(h, "estimate_sigma", "cascading.estimate_sigma")
        w(h, "fit_router", "routing.fit_router")
        w(h, "fit_threshold_cascade", "cascading.fit_threshold_cascade")
        w(h, "fit_cascade", "cascading.fit_cascade")
        w(h, "fit_cascade_router", "cascade_routing.fit_cascade_router")
        w(h, "route_floor_cost", "cascade_routing.route_floor_cost")
        w(h, "route_query", "routing.route_query")
        w(h, "threshold_cascade", "cascading.threshold_cascade")
        w(h, "run_cascade", "cascading.run_cascade")
        w(h, "run_cascade_route_timed", "cascade_routing.run_cascade_route_timed")
        runner = vars(h).get("_StrategyRunner")
        if runner is not None:
            w(runner, "floor", "harness.floor", before=self._request_tag("floor"))
            w(runner, "fit", "harness.fit_point", before=self._set_point_request)
            w(runner, "evaluate", "harness.evaluate")
            w(runner, "measure_decision_ms", "harness.measure_decision_ms",
              before=self._request_tag("timing"))
        for mod in (cr, c):
            w(mod, "fit_budget_mixture", "fitting.fit_budget_mixture", before=self._counted_cost_fn)
            w(mod, "optimize", "search.optimize", before=self._counted_objective)
        w(c, "optimize_thresholds", "search.optimize_thresholds", before=self._counted_objective)
        w(cr, "route_floor_cost", "cascade_routing.route_floor_cost")
        w(cr, "prune_candidates", "cascade_routing.prune_candidates", after=self._on_prune)
        w(c, "cascade_step", "cascading.cascade_step")
        w(r, "strategy_cost", "routing.strategy_cost")
        w(r, "argmax_tradeoff_rows", "core.argmax_tradeoff_rows")
        engine_cls = vars(e).get("BatchCascadeEngine")
        if engine_cls is not None:
            w(engine_cls, "run", "engine.run", after=self._on_engine_run)
        w(e, "query_normals", "montecarlo.query_normals")
        w(e, "argmax_tradeoff_rows", "core.argmax_tradeoff_rows")
        w(mc, "query_normals", "montecarlo.query_normals")
        evaluator_cls = vars(mc).get("EmaxEvaluator")
        if evaluator_cls is not None:
            self._count(evaluator_cls, "expected_max", "montecarlo.expected_max.calls")
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict:
        """Seconds per layer spent in its own spans, children excluded."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS.values()}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += (end - start) - child_time[i]
        return out

    def total(self, name) -> float:
        return float(sum(self.durations.get(name, ())))

    def calls(self, name) -> int:
        return len(self.durations.get(name, ()))

    def write(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, name, start, end, request]) + "\n")
        return path
