#!/usr/bin/env python3
"""Budget-sweep and decision-latency benchmark for modelselect.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-default --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

One run generates several datasets from ``--seed`` (the first uses the
seed itself) and sweeps them in turn, round after round, for about
``--seconds``, one ``run_sweep`` per strategy as ``modelselect sweep
--strategy`` does; ``sweep_s`` is the mean over datasets, without the
fastest and the slowest, of each one's mean sweep time. Before each sweep
the dataset is also set up a few times in a row, a block; ``setup_s`` is
the median over the run's blocks of a block's mean ``prepare_run`` time.
The load is a closed loop from one caller: each call starts after the
previous one returns.

A shared host runs a core at well under full speed for stretches of seconds
to minutes, long enough to cover a whole run. So a gauge, a fixed round of
arithmetic, numpy and dict work (``Gauge``), is timed between every two
``run_sweep`` calls and set-up blocks. Each call's or block's time is
scaled by ``GAUGE_REF_MS`` over the mean of the gauge readings just before
and after it: it reads as seconds on an uncontended core of the reference
host. The gauge calls no code of
modelselect, so a slower program still reads slower by the same share. The
unscaled times and the gauge readings are in the run record.

Outputs are checked: no strategy may report an error, every AUC is finite,
and on the reference seed each AUC must lie within 0.002 of the value
recorded in ``reference.json``; a changed report fingerprint is reported,
not failed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` sweeps the first
dataset once untraced and once with wrappers around every call one module
makes into the next (see ``tracer.py``), traces a few hundred per-query
decisions, then times per-query decisions through ``run_cascade_route`` and
``run_cascade`` untraced, checking each against the batch engine, and prints
per-layer metrics; the spans go to ``perfbench/out/``. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# One BLAS thread: steadier than two on a shared 2-core machine, and the
# per-query path runs no BLAS-sized work anyway. Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402 - after the thread settings above

STRATEGIES = ("linear-interp", "routing", "threshold", "cascade", "cascade-routing")
SETUP_REPEATS = 5  # prepare_run calls in the set-up block before each sweep
MIN_DECISIONS = 1100  # per strategy, so at least 11 samples lie beyond p99
DECISION_SHARE = 0.5  # of --seconds, spent timing per-query decisions in the traced run
AUC_GATE = 0.002  # the acceptance gate's AUC tolerance
# Per-query decisions are timed at three fixed prices (quality per unit cost),
# from cheap (about 1.3 models run per query) to dear (about 4 of 5 at k=5,
# 6 of 8 at k=8). Fixed prices keep the mix of short and long decisions the
# same on every seed; fitted prices move it with each dataset.
DECISION_PRICES = (1000.0, 100.0, 10.0)
DECISION_GAMMA = 0.5
TRACED_DECISIONS = 300  # per strategy in the traced run
VARIANT_DECISIONS = 60  # per variant for the slow/greedy probe
MAX_PROBLEMS_SHOWN = 20
PROBE_PRICES = (0.0, 30.0, 100.0, 300.0, 1000.0, 3000.0, 10000.0, 1e5)
GAUGE_LOOPS = 50_000
GAUGE_BLOCK = (200, 512, 5)  # float64, 4 MB
GAUGE_TABLE = 50_000  # dict entries, about 5 MB
GAUGE_LOOKUPS = 30_000
# One Gauge round on an uncontended core of the reference host (2-vCPU Xeon
# Sapphire Rapids KVM guest, Python 3.11.7, numpy 2.4.6), its 10th
# percentile; end-to-end times are scaled to it.
GAUGE_REF_MS = 24.0


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload; data seeds come from ``--seed``.

    A run sweeps each of ``datasets`` independently generated suites at
    least once, in turn, until ``--seconds`` are spent, and reports the mean
    over the suites without the fastest and the slowest: the work one sweep
    does varies from one dataset to the next by 15-30%, so averaging many
    keeps run-to-run spread small, and a burst of load on the host that
    doubles one suite's time, between two gauge readings, is left out.
    """

    n_queries: int
    n_models: int
    budget_points: int
    max_evals: int
    datasets: int


# Sizes are cut from the ROADMAP suites so that one suite sweeps in a few
# seconds; see BENCHMARK.json for why each workload exists.
WORKLOADS = {
    "sweep-default": Workload(n_queries=1000, n_models=5, budget_points=3, max_evals=20, datasets=8),
    "sweep-wide": Workload(n_queries=120, n_models=8, budget_points=3, max_evals=5, datasets=8),
    "sweep-tall": Workload(n_queries=4000, n_models=5, budget_points=3, max_evals=10, datasets=4),
}


def data_seed(seed: int, d: int) -> int:
    """Seed of the run's ``d``-th dataset; the first is ``seed`` itself."""
    return seed + 1000 * d


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_package():
    """Import modelselect from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "modelselect" / "__init__.py").is_file():
        fail(f"no modelselect package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    names = ("harness", "cascading", "cascade_routing", "routing", "_fitting", "search",
             "_engine", "montecarlo", "core", "estimators")
    ms = {n: importlib.import_module(f"modelselect.{n}") for n in names}
    if Path(ms["harness"].__file__).resolve().parent != (SRC / "modelselect").resolve():
        fail("modelselect was imported from outside this checkout")
    return ms


def load_json(name: str, base: Path = BENCH_DIR) -> dict:
    path = base / name
    if not path.is_file():
        fail(f"missing {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of a nonempty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def trimmed_mean(values) -> float:
    """Mean without the lowest and the highest value, given three or more."""
    ordered = sorted(values)
    return statistics.fmean(ordered[1:-1] if len(ordered) >= 3 else ordered)


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text(encoding="ascii").strip()
    except OSError:
        return "unavailable"


class Gauge:
    """How fast the host runs this core now, for the three kinds of work a
    sweep does: an arithmetic loop, a numpy pass over an array larger than
    L2, and scattered dict lookups. It calls nothing of modelselect."""

    def __init__(self):
        self.block = np.random.default_rng(0).standard_normal(GAUGE_BLOCK)
        self.table = {i: str(i) for i in range(GAUGE_TABLE)}
        self.keys = random.Random(0).sample(range(GAUGE_TABLE), GAUGE_LOOKUPS)
        self.samples: list[float] = []

    def __call__(self) -> float:
        """Time one fixed round of the three; keep and return it, in milliseconds."""
        t0 = time.perf_counter()
        total = 0
        for i in range(GAUGE_LOOPS):
            total += i * i % 7
        np.maximum.accumulate(self.block, axis=2).sum(axis=1)
        for key in self.keys:
            total += len(self.table[key])
        self.samples.append((time.perf_counter() - t0) * 1000.0)
        return self.samples[-1]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


class Bench:
    """One workload, one seed: set-up, sweep phase, decision phase, checks."""

    def __init__(self, ms, name: str, spec: Workload, seed: int, seconds: float, reference: dict,
                 min_decisions: int = MIN_DECISIONS):
        self.ms = ms
        self.min_decisions = min_decisions
        self.name = name
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.ctxs: dict = {}  # dataset index -> RunContext
        ref = reference.get("workloads", {}).get(name)
        self.reference = ref if seed == reference.get("seed") else None

    def config(self, d: int, strategy: str):
        """What ``modelselect sweep --strategy`` runs on the ``d``-th dataset."""
        spec = self.spec
        return self.ms["harness"].BenchmarkConfig(
            data={"workload": {"n_queries": spec.n_queries, "n_models": spec.n_models,
                               "seed": data_seed(self.seed, d)}},
            noise="low",
            budget_points=spec.budget_points,
            strategies=(strategy,),
            search={"max_evals": spec.max_evals},
        )

    # -- set-up -------------------------------------------------------------

    def setup(self, d: int):
        """``SETUP_REPEATS`` ``prepare_run`` calls on dataset ``d``: (wall times, last context)."""
        prepare = self.ms["harness"].prepare_run
        cfg = self.config(d, "cascade-routing")
        times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            ctx = prepare(cfg)
            times.append(time.perf_counter() - t0)
        return times, ctx

    # -- sweep phase --------------------------------------------------------

    def sweep(self, d: int, call=None, gauge=None):
        """One ``run_sweep`` per strategy on dataset ``d``:
        ({strategy: s}, {strategy: scale}, {strategy: report}).

        With a ``gauge``, which the caller has just read, it is read again
        after each call, and a call's scale is ``GAUGE_REF_MS`` over the
        mean of the readings around it; without, there are no scales.
        """
        run_sweep = self.ms["harness"].run_sweep
        times, scales, reports = {}, {}, {}
        before = gauge.samples[-1] if gauge else 0.0
        for s in STRATEGIES:
            cfg = self.config(d, s)
            gc.collect()  # the previous sweep's garbage is not this one's cost
            t0 = time.perf_counter()
            reports[s] = call(s, run_sweep, cfg) if call else run_sweep(cfg)
            times[s] = time.perf_counter() - t0
            if gauge:
                after = gauge()
                scales[s] = 2.0 * GAUGE_REF_MS / (before + after)
                before = after
        self.account(reports)
        return times, scales, reports

    def account(self, reports):
        for s, rep in reports.items():
            res = rep.strategies[s]
            self.attempted += self.spec.budget_points
            if res.error is not None:
                self.failed += self.spec.budget_points
                self.problems.append(f"{s}: {res.error}")

    def check_aucs(self, d: int, reports) -> dict:
        aucs = {s: reports[s].strategies[s].auc for s in STRATEGIES}
        for s, value in aucs.items():
            if value is None or not math.isfinite(value):
                self.problems.append(f"dataset {data_seed(self.seed, d)} {s}: AUC {value!r} is not finite")
        if self.reference is not None and d < len(self.reference["auc"]):
            for s, want in self.reference["auc"][d].items():
                got = aucs.get(s)
                if got is None or abs(got - want) > AUC_GATE:
                    self.problems.append(
                        f"dataset {data_seed(self.seed, d)} {s}: AUC {got} moved more than {AUC_GATE} from {want}")
        return aucs

    # -- decision phase -----------------------------------------------------

    def prepare_decisions(self):
        """Shuffled (dataset, price, test query) triples to time, and the
        executed models the batch engine reaches for each with the same params.
        """
        ms = self.ms
        Variant, Pick = ms["_engine"].Variant, ms["core"].Pick
        Engine = ms["_engine"].BatchCascadeEngine
        self.expected = {}
        triples = []
        for d, ctx in self.ctxs.items():
            test, k = ctx.test_table, ctx.test_table.n_models
            coins = [ms["montecarlo"].mixing_uniform(ctx.mc.seed, int(q)) for q in test.query_ids]
            for strategy, chain_only in (("cascade-routing", False), ("cascade", True)):
                engine = Engine(test, ctx.sigma, ctx.mc, Variant.DEFAULT, chain_only=chain_only)
                for p in range(len(DECISION_PRICES)):
                    params = self.decision_params(d, p)
                    runs = {pick: engine.run(params.lambdas, pick) for pick in Pick}
                    self.expected[strategy, d, p] = [
                        runs[Pick.MIN_COST if coins[q] < params.gamma else Pick.MAX_COST].executed_list(q)
                        for q in range(test.n_queries)
                    ]
            triples += [(d, p, q) for p in range(len(DECISION_PRICES)) for q in range(test.n_queries)]
        random.Random(self.seed).shuffle(triples)
        self.triples = triples

    def decision_params(self, d: int, p: int):
        k = self.ctxs[d].test_table.n_models
        return self.ms["core"].StrategyParams.equal(DECISION_PRICES[p], k, DECISION_GAMMA)

    def decide(self, strategy: str, d: int, p: int, q: int, variant=None) -> float:
        """One per-query decision; returns its wall time in milliseconds."""
        ms, ctx = self.ms, self.ctxs[d]
        params = self.decision_params(d, p)
        t0 = time.perf_counter()
        if strategy == "cascade":
            trace = ms["cascading"].run_cascade(ctx.test_table, q, params, ctx.sigma, ctx.mc)
        else:
            trace = ms["cascade_routing"].run_cascade_route(
                ctx.test_table, q, params, ctx.sigma, variant or ms["_engine"].Variant.DEFAULT, ctx.mc)
        elapsed = (time.perf_counter() - t0) * 1000.0
        want = self.expected[strategy, d, p][q]
        if variant is None and trace.executed != want:
            self.problems.append(f"{strategy}: dataset {data_seed(self.seed, d)} price {DECISION_PRICES[p]} "
                                 f"query {q} executed {trace.executed}, engine {want}")
        return elapsed

    def decision_phase(self, deadline: float):
        """Time decisions until the deadline and ``min_decisions`` per strategy.

        The two strategies take turns so that each gets the same share of the
        time and of any slowdown of the machine, and the cheaper one gets more
        samples. Each walks the shuffled triples in the same order.
        """
        samples = {"cascade-routing": [], "cascade": []}
        spent = dict.fromkeys(samples, 0.0)
        for d, p, q in self.triples[:20]:  # warm-up, untimed
            for strategy in samples:
                self.decide(strategy, d, p, q)
        # As timeit does, keep the cycle collector's pauses out of sub-millisecond timings.
        gc.collect()
        gc.disable()
        try:
            while True:
                # Past the deadline only a strategy still short of samples goes on.
                waiting = [s for s in samples if len(samples[s]) < self.min_decisions
                           or time.perf_counter() < deadline]
                if not waiting:
                    break
                strategy = min(waiting, key=spent.get)
                taken = samples[strategy]
                elapsed = self.decide(strategy, *self.triples[len(taken) % len(self.triples)])
                taken.append(elapsed)
                spent[strategy] += elapsed
                self.attempted += 1
        finally:
            gc.enable()
        return samples

    # -- untraced run -------------------------------------------------------

    def run_untraced(self):
        n = self.spec.datasets
        gauge = Gauge()
        blocks = []  # per set-up block: (mean prepare_run time, scale)
        sweeps = [[] for _ in range(n)]  # per dataset: what sweep() returns, per sweep
        gauge()
        start = time.perf_counter()
        for i in itertools.count():
            d = i % n
            # Every dataset once; then on while its next sweep, as long as
            # its last one, still ends within the time.
            if i >= n and time.perf_counter() - start + sum(sweeps[d][-1][0].values()) > self.seconds:
                break
            before = gauge.samples[-1]
            setup = statistics.fmean(self.setup(d)[0])
            blocks.append((setup, 2.0 * GAUGE_REF_MS / (before + gauge())))
            sweeps[d].append(self.sweep(d, gauge=gauge))
        gauges = gauge.samples
        reports = [runs[0][2] for runs in sweeps]
        digest = fingerprint_digest(reports)
        if any(fingerprint_digest([r]) != fingerprint_digest([reports[d]])
               for d, runs in enumerate(sweeps) for _, _, r in runs[1:]):
            self.problems.append("repeated sweeps gave different fingerprints")
        aucs = [self.check_aucs(d, r) for d, r in enumerate(reports)]
        mean = statistics.fmean

        def summary(scaled: bool) -> dict:
            # Per dataset the mean over its sweeps, not the fastest or a
            # median: a mean grows in step with the gauge as the host slows.
            per_dataset = [{s: mean([t[s] * (k[s] if scaled else 1.0) for t, k, _ in runs])
                            for s in STRATEGIES} for runs in sweeps]
            return {
                "setup_s": statistics.median([t * (k if scaled else 1.0) for t, k in blocks]),
                "sweep_s": trimmed_mean([sum(times.values()) for times in per_dataset]),
                "sweep_s.cascade-routing": trimmed_mean([times["cascade-routing"] for times in per_dataset]),
                "sweep_s.cascade": trimmed_mean([times["cascade"] for times in per_dataset]),
                "by_dataset": [sum(times.values()) for times in per_dataset],
            }

        metrics, raw = summary(True), summary(False)
        by_dataset = metrics.pop("by_dataset")
        metrics.update({
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "auc.cascade-routing": mean([a["cascade-routing"] for a in aucs]),
            "auc.cascade": mean([a["cascade"] for a in aucs]),
        })
        scaled = "scaled to the reference gauge"
        swept = f"{sum(map(len, sweeps))} sweeps of {n} datasets, {scaled}"
        notes = {
            "setup_s": f"median of {len(blocks)} blocks of {SETUP_REPEATS} prepare_run calls, {scaled}",
            "sweep_s": swept, "sweep_s.cascade-routing": swept, "sweep_s.cascade": swept,
            "peak_rss_mb": "ru_maxrss of this process",
            "auc.cascade-routing": f"mean over {n} datasets", "auc.cascade": f"mean over {n} datasets",
        }
        match = None if self.reference is None else digest == self.reference["fingerprint"]
        extra = {"data_seeds": [data_seed(self.seed, d) for d in range(n)],
                 "fingerprint_sha256": digest, "fingerprint_match": match, "auc": aucs,
                 "sweep_s_by_dataset": by_dataset, "unscaled": raw,
                 "gauge_ref_ms": GAUGE_REF_MS,
                 "gauge_ms": {"mean": mean(gauges), "min": min(gauges), "max": max(gauges),
                              "n": len(gauges)}}
        return metrics, notes, extra

    # -- traced run ---------------------------------------------------------

    def run_traced(self):
        """Per-layer numbers from the first dataset: one untraced and one traced
        sweep, traced decisions, then untraced per-query decision latency."""
        from tracer import Tracer

        ms = self.ms
        self.ctxs[0] = self.setup(0)[1]
        self.prepare_decisions()
        t0 = time.perf_counter()
        base_reports = self.sweep(0)[2]
        base_sweep_s = time.perf_counter() - t0
        originals = snapshot(ms)
        tracer = Tracer(ms)
        tracer.register(self.ctxs[0])
        try:
            tracer.install()

            def traced_sweep(strategy, fn, cfg):
                tracer.request = f"{strategy}@prepare"
                return tracer.call("harness.run_sweep", fn, cfg)

            t0 = time.perf_counter()
            reports = self.sweep(0, traced_sweep)[2]
            traced_sweep_s = time.perf_counter() - t0
            self.traced_decisions(tracer)
        finally:
            tracer.uninstall()
        if snapshot(ms) != originals:
            self.problems.append("a wrapped attribute was not restored")
        self.check_aucs(0, reports)
        if fingerprint_digest([reports]) != fingerprint_digest([base_reports]):
            self.problems.append("traced and untraced sweeps gave different fingerprints")
        metrics = layer_metrics(tracer, reports, traced_sweep_s / base_sweep_s)
        metrics.update(self.variant_probe())
        metrics.update(self.engine_probe())
        samples = self.decision_phase(time.perf_counter() + self.seconds * DECISION_SHARE)
        for strategy, times in samples.items():
            for q in (0.50, 0.99):
                metrics[f"decision_ms.p{round(q * 100)}.{strategy}"] = quantile(times, q)
        out = tracer.write(BENCH_DIR / "out" / f"trace-{self.name}-seed{self.seed}.jsonl")
        notes = {f"decision_ms.p50.{s}": f"{len(samples[s])} samples, untraced" for s in samples}
        notes.update({"trace.spans": f"written to {out.relative_to(ROOT)}",
                 "trace.overhead": "traced over untraced sweep_s, first dataset",
                 "engine.draw_bytes": "computed from sizes, never allocated",
                 "cascade_routing.pruned_ratio": (
                     f"{tracer.counts['cascade_routing.prune.dropped']} dropped of "
                     f"{tracer.counts['cascade_routing.prune.enumerated']} enumerated")})
        return metrics, notes, {"data_seeds": [data_seed(self.seed, 0)]}

    def traced_decisions(self, tracer):
        """Per-query decisions under the tracer, one request id per query."""
        spans = {"cascade-routing": "cascade_routing.run_cascade_route", "cascade": "cascading.run_cascade"}
        for d, p, q in self.triples[:TRACED_DECISIONS]:
            for strategy, span in spans.items():
                tracer.request = f"query:{strategy}:{data_seed(self.seed, d)}:{p}:{q}"
                self.attempted += 1
                tracer.call(span, self.decide, strategy, d, p, q)

    def variant_probe(self) -> dict:
        """p50 decision time of slow and greedy cascade routing at default-variant prices."""
        Variant = self.ms["_engine"].Variant
        out = {}
        for variant in (Variant.SLOW, Variant.GREEDY):
            times = [self.decide("cascade-routing", d, p, q, variant)
                     for d, p, q in self.triples[:VARIANT_DECISIONS]]
            out[f"cascade_routing.decision_ms.p50.{variant.value}"] = quantile(times, 0.5)
        return out

    def engine_probe(self) -> dict:
        """Cold and warm runs of a fresh lattice engine over a fixed price ladder."""
        ms, ctx = self.ms, self.ctxs[0]
        engine = ms["_engine"].BatchCascadeEngine(
            ctx.val_table, ctx.sigma, ctx.mc, ms["_engine"].Variant.DEFAULT)
        k = ctx.val_table.n_models
        pick = ms["core"].Pick.MIN_COST
        t0 = time.perf_counter()
        for lam in PROBE_PRICES:
            engine.run([lam] * k, pick)
        cold_s = time.perf_counter() - t0
        warm = []
        for lam in PROBE_PRICES:
            t0 = time.perf_counter()
            engine.run([lam] * k, pick)
            warm.append((time.perf_counter() - t0) * 1000.0)
        samples = 2 * ctx.mc.half
        return {
            "engine.cold_s": cold_s,
            "engine.warm_run_ms": statistics.median(warm),
            "engine.draw_bytes": float(ctx.val_table.n_queries * samples * k * 8),
        }


def snapshot(ms) -> dict:
    """Identity of every module and class attribute the tracer may replace."""
    out = {}
    for mod in ms.values():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    out[(mod.__name__, attr, cattr)] = id(cvalue)
    return out


def fingerprint_digest(sweeps: list) -> str:
    """SHA-256 of every report's ``fingerprint()``, dataset by dataset."""
    blob = json.dumps([{s: rep.fingerprint() for s, rep in sorted(reports.items())} for reports in sweeps],
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def layer_metrics(tracer, reports, overhead: float) -> dict:
    c, total, calls = tracer.counts, tracer.total, tracer.calls
    run_ms = [s * 1000.0 for s in tracer.durations.get("engine.run", ())] or [0.0]
    points = sum(len(rep.strategies[s].points) for s, rep in reports.items())
    failed = sum(len(rep.strategies[s].points) for s, rep in reports.items()
                 if rep.strategies[s].error is not None)

    def us_p50(name):
        return quantile([d * 1e6 for d in tracer.durations.get(name, ())] or [0.0], 0.5)

    m = {
        "estimators.generate_workload_s": total("estimators.generate_workload"),
        "estimators.simulate_estimates_s": total("estimators.simulate_estimates"),
        "cascading.estimate_sigma_s": total("cascading.estimate_sigma"),
        "harness.prepare_run_s": total("harness.prepare_run"),
        "fitting.calls": calls("fitting.fit_budget_mixture"),
        "fitting.cost_evals": c["fitting.cost_evals"],
        "fitting.s": total("fitting.fit_budget_mixture"),
        "search.calls": calls("search.optimize") + calls("search.optimize_thresholds"),
        "search.evals": c["search.evals"],
        "search.improving_evals": c["search.improving_evals"],
        "search.s": total("search.optimize") + total("search.optimize_thresholds"),
        "engine.val.runs": c["engine.val.runs"],
        "engine.val.run_s": c["engine.val.run_s"],
        "engine.test.runs": c["engine.test.runs"],
        "engine.test.run_s": c["engine.test.run_s"],
        "engine.run_ms.p50": quantile(run_ms, 0.50),
        "engine.run_ms.p99": quantile(run_ms, 0.99),
        "engine.prefixes_visited": c["engine.prefixes_visited"],
        "engine.rows_per_s": c["engine.rows"] / max(total("engine.run"), 1e-12),
        "montecarlo.query_normals.calls": calls("montecarlo.query_normals"),
        "montecarlo.query_normals_s": total("montecarlo.query_normals"),
        "montecarlo.expected_max.calls": c["montecarlo.expected_max.calls"],
        "cascade_routing.fit_s": total("cascade_routing.fit_cascade_router"),
        "cascade_routing.floor_s": total("cascade_routing.route_floor_cost"),
        "cascade_routing.prune.calls": calls("cascade_routing.prune_candidates"),
        "cascade_routing.prune_s": total("cascade_routing.prune_candidates"),
        "cascade_routing.prune.enumerated": c["cascade_routing.prune.enumerated"],
        "cascade_routing.pruned_ratio": (c["cascade_routing.prune.dropped"]
                                         / max(c["cascade_routing.prune.enumerated"], 1)),
        "cascading.fit_s": total("cascading.fit_cascade"),
        "cascading.cascade_step.calls": calls("cascading.cascade_step"),
        "routing.fit_s": total("routing.fit_router"),
        "routing.strategy_cost.calls": calls("routing.strategy_cost"),
        "routing.route_query_us.p50": us_p50("routing.route_query"),
        "cascading.threshold_fit_s": total("cascading.fit_threshold_cascade"),
        "cascading.threshold_cascade_us.p50": us_p50("cascading.threshold_cascade"),
        "core.argmax_tradeoff_rows.calls": calls("core.argmax_tradeoff_rows"),
        "core.argmax_tradeoff_rows_s": total("core.argmax_tradeoff_rows"),
        "harness.points": points,
        "harness.points_failed": failed,
        "harness.decision_timing_s": total("harness.measure_decision_ms"),
        "trace.overhead": overhead,
        "trace.spans": len(tracer.spans),
    }
    for layer, seconds in tracer.self_times().items():
        m[f"{layer}.self_s"] = seconds
    return m


def run_one(args, spec: Workload, min_decisions: int = MIN_DECISIONS) -> dict:
    """Measure one workload, print its metrics and return the result object."""
    ms = import_package()
    bench_spec = load_json("BENCHMARK.json", ROOT)
    reference = load_json("reference.json")
    wanted = bench_spec["per_layer" if args.trace else "end_to_end"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS, "numpy": np.__version__,
        "python": platform.python_version(), "commit": git_commit(), "loadavg_start": loadavg(),
        "load": "closed loop, one caller",
    }
    bench = Bench(ms, args.workload, spec, args.seed, args.seconds, reference, min_decisions)
    metrics, notes, extra = bench.run_traced() if args.trace else bench.run_untraced()
    record["loadavg_end"] = loadavg()
    record.update(extra)

    out = {}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for spec in wanted:
        name = spec["name"]
        if name not in metrics:
            bench.problems.append(f"metric {name} was not measured")
            continue
        value = float(metrics[name])
        out[name] = {"value": value, "unit": spec["unit"]}
        note = notes.get(name, "")
        print(f"  {name:<40} {value:>16.6g} {spec['unit']:<8} {note}")
    print(f"  attempted {bench.attempted}  failed {bench.failed}  "
          f"fingerprint_match {extra.get('fingerprint_match')}")
    for problem in bench.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"  PROBLEM {problem}")
    if len(bench.problems) > MAX_PROBLEMS_SHOWN:
        print(f"  ... {len(bench.problems) - MAX_PROBLEMS_SHOWN} more problems")
    print("record " + json.dumps(record, sort_keys=True))
    result = {"correct": not bench.problems, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": out}
    print(json.dumps(result))
    return result


def run_all(args) -> int:
    """Every workload in a fresh process, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            fail(f"workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    run_one(args, WORKLOADS[args.workload])
    return 0


if __name__ == "__main__":
    sys.exit(main())
