#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes, for every workload.

    python3 perfbench/selftest.py

For each workload it runs a shrunken copy untraced and traced, in this
process, and checks that:

- every metric in BENCHMARK.json is printed with its unit, and the result
  line carries exactly those metrics;
- the metric catalogue ``metrics.json`` names the same metrics;
- the run's own checks pass, including identical traced and untraced
  fingerprints and agreement of every timed per-query decision with the engine;
- the tracer wrapped something on every layer, and every wrapped module or
  class attribute is the original object again after the run.

Exits non-zero on the first failed check.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from dataclasses import replace

import run

TINY = dict(n_queries=60, budget_points=2, max_evals=2, datasets=2)
TINY_DECISIONS = 40
# Counters that must be nonzero in a traced run, one or more per layer.
MUST_COUNT = (
    "estimators.generate_workload_s", "harness.prepare_run_s", "cascading.estimate_sigma_s",
    "fitting.cost_evals", "search.evals", "engine.val.runs", "engine.test.runs",
    "montecarlo.query_normals.calls", "montecarlo.expected_max.calls", "cascade_routing.prune.calls",
    "cascading.cascade_step.calls", "routing.strategy_cost.calls", "core.argmax_tradeoff_rows.calls",
    "harness.points", "harness.decision_timing_s", "engine.self_s", "trace.spans",
    "decision_ms.p99.cascade-routing", "decision_ms.p99.cascade",
)


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        raise SystemExit(1)


def run_tiny(name: str, spec, trace: int) -> tuple[str, dict]:
    args = argparse.Namespace(workload=name, seed=3, seconds=0.01, trace=trace)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = run.run_one(args, spec, min_decisions=TINY_DECISIONS)
    text = buf.getvalue()
    check(json.loads(text.strip().splitlines()[-1]) == result, f"{name}: last line is not the result")
    return text, result


def main() -> int:
    bench = run.load_json("BENCHMARK.json", run.ROOT)
    catalogue = run.load_json("metrics.json")
    for kind in ("end_to_end", "per_layer"):
        names = [m["name"] for m in bench[kind]]
        check(names == list(catalogue[kind]), f"metrics.json {kind} names differ from BENCHMARK.json")
    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS), "workload lists disagree")

    ms = run.import_package()
    before = run.snapshot(ms)
    for name, full in run.WORKLOADS.items():
        spec = replace(full, **TINY)
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            text, result = run_tiny(name, spec, trace)
            check(result["correct"], f"{name} trace={trace}: run reported problems:\n{text}")
            check(result["failed"] == 0 and result["attempted"] > 0, f"{name} trace={trace}: bad counts")
            names = [m["name"] for m in bench[kind]]
            check(list(result["metrics"]) == names, f"{name} trace={trace}: metric set differs")
            for m in bench[kind]:
                value = result["metrics"][m["name"]]
                check(value["unit"] == m["unit"], f"{name}: {m['name']} has unit {value['unit']}")
                line = next((ln for ln in text.splitlines() if ln.split()[:1] == [m["name"]]), None)
                check(line is not None and line.split()[2] == m["unit"],
                      f"{name}: {m['name']} is not printed with its unit")
            if trace:
                for metric in MUST_COUNT:
                    check(result["metrics"][metric]["value"] > 0, f"{name}: {metric} is zero when traced")
            else:
                check("fingerprint_match" in text, f"{name}: fingerprint_match is not printed")
                for metric in ("sweep_s", "setup_s"):
                    check(result["metrics"][metric]["value"] > 0, f"{name}: {metric} is zero")
        check(run.snapshot(ms) == before, f"{name}: a wrapped attribute was not restored")
        print(f"selftest {name}: ok")
    print("selftest: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
