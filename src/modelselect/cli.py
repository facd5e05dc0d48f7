"""Command-line interface.

Subcommands: ``generate`` (synthetic workload to CSV), ``sweep`` (the full
budget-sweep protocol), ``fit`` (one strategy at one budget, params dumped as
JSON), ``evaluate`` (fitted params against the test split), and ``ablate``
(variant timing/AUC comparison). Exit codes: 0 success, 1 usage error,
2 data error, 3 a strategy failed in ``sweep --strict`` or a variant in
``ablate --strict``.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from ._engine import Variant
from .estimators import WorkloadSpec, generate_workload
from .harness import (
    STRATEGIES,
    STRATEGY_NAMES,
    BenchmarkConfig,
    DataFormatError,
    params_field,
    prepare_run,
    run_sweep,
    write_csv,
    write_report,
)

USAGE_ERROR = 1
DATA_ERROR = 2
STRATEGY_ERROR = 3


def _variant_name(variant: Variant) -> str:
    """A variant's name on the command line and in ablation rows."""
    return variant.value.replace("_", "-")


# Each variant's hyphenated name, then its enum value where that differs.
VARIANT_CHOICES = list(dict.fromkeys(n for v in Variant for n in (_variant_name(v), v.value)))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _build_parser() -> _Parser:
    parser = _Parser(prog="modelselect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a workload and write it as CSV")
    gen.add_argument("--queries", type=int, default=1000)
    gen.add_argument("--models", type=int, default=5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", required=True)

    for command in ("sweep", "fit", "evaluate", "ablate"):
        cmd = sub.add_parser(command)
        cmd.add_argument("--config", required=True, help="JSON benchmark config")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--output", default=None)
        cmd.add_argument("--budget-points", type=int, default=None)
        cmd.add_argument("--variant", default=None, choices=VARIANT_CHOICES)
        if command in ("fit", "evaluate"):
            cmd.add_argument("--strategy", choices=list(STRATEGY_NAMES), default="cascade-routing")
        if command == "fit":
            cmd.add_argument(
                "--budget", type=float, required=True,
                help="validation cost budget; a budget equal to grid point i of the sweep "
                     "is raised to the strategy's floor and uses that point's search seed, "
                     "as in the sweep, so it reproduces the sweep's fit; any other budget "
                     "searches with the config seed and must not lie below the floor",
            )
        if command == "evaluate":
            cmd.add_argument("--params", required=True, help="params JSON written by fit")
        if command == "sweep":
            cmd.add_argument(
                "--strategy", choices=list(STRATEGY_NAMES), default=None,
                help="run a single strategy instead of the config list",
            )
        if command in ("sweep", "ablate"):
            cmd.add_argument(
                "--strict", action="store_true",
                help=f"exit {STRATEGY_ERROR} when any strategy or variant recorded an error",
            )
    return parser


def _load_config(args) -> BenchmarkConfig:
    """The config file with the command line's overrides, checked as one mapping."""
    raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise DataFormatError(f"{args.config}: config must be a JSON object")
    overrides = {"seed": args.seed, "output": args.output, "budget_points": args.budget_points, "variant": args.variant}
    if args.command == "sweep" and args.strategy:
        overrides["strategies"] = [args.strategy]
    raw.update((key, value) for key, value in overrides.items() if value is not None)
    return BenchmarkConfig.from_dict(raw)


def _cmd_generate(args) -> int:
    spec = WorkloadSpec(n_queries=args.queries, n_models=args.models, seed=args.seed)
    table = generate_workload(spec)
    write_csv(args.output, table)
    print(f"wrote {args.queries} queries x {args.models} models to {args.output}")
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    report = run_sweep(config)
    if config.output:
        out, curves = write_report(report, config.output)
        print(f"report: {out}\ncurves: {curves}")
    else:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    failures = [n for n, r in report.strategies.items() if r.error]
    if failures:
        print(f"strategies with errors: {', '.join(sorted(failures))}", file=sys.stderr)
    return STRATEGY_ERROR if failures and args.strict else 0


def _cmd_fit(args) -> int:
    budget = args.budget
    if not math.isfinite(budget):  # linear-interp fits nothing, so no fit would check it
        raise ValueError(f"budget must be finite, got {budget}")
    config = _load_config(args)
    ctx = prepare_run(config)
    runner = STRATEGIES[args.strategy](ctx)
    grid = np.flatnonzero(ctx.budgets == budget)
    if grid.size:
        index = int(grid[0])
        fitted = runner.fit(runner.grid_budget(index, runner.floor())[0], index)
    else:
        fitted = runner.fit_seeded(budget, config.seed)
    payload = {"strategy": args.strategy, "budget": budget, **runner.to_json(fitted)}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        print(f"params: {args.output}")
    else:
        print(text)
    return 0


def _cmd_evaluate(args) -> int:
    config = _load_config(args)
    ctx = prepare_run(config)
    payload = json.loads(Path(args.params).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise DataFormatError(f"{args.params}: params must be a JSON object")
    strategy = payload.get("strategy", args.strategy)
    budget = params_field(payload, "budget")
    if not math.isfinite(budget):
        raise DataFormatError(f"{args.params}: params field 'budget' must be finite, got {budget!r}")
    if strategy not in STRATEGY_NAMES:
        raise DataFormatError(f"{args.params}: unknown strategy {strategy!r}")
    runner = STRATEGIES[strategy](ctx)
    fitted = runner.from_json(payload)
    cost, quality = runner.evaluate(fitted, budget)
    result = {"strategy": strategy, "budget": budget, "test_cost": cost, "test_quality": quality}
    text = json.dumps(result, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
        print(f"metrics: {args.output}")
    else:
        print(text)
    return 0


def _cmd_ablate(args) -> int:
    config = _load_config(args)
    rows = {}
    for variant in map(_variant_name, Variant):
        cfg = {**config.to_dict(), "variant": variant, "strategies": ["cascade-routing"], "output": None}
        report = run_sweep(BenchmarkConfig.from_dict(cfg))
        res = report.strategies["cascade-routing"]
        rows[variant] = {
            "auc": res.auc,
            "mean_decision_ms": res.mean_decision_ms,
            "error": res.error,
        }
    print(f"{'variant':<12} {'AUC':>10} {'ms/query':>10}")
    for variant, row in rows.items():
        auc_s = "-" if row["auc"] is None else f"{row['auc']:.4f}"
        ms_s = "-" if row["mean_decision_ms"] is None else f"{row['mean_decision_ms']:.3f}"
        print(f"{variant:<12} {auc_s:>10} {ms_s:>10}")
    if args.output:
        Path(args.output).write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"ablation: {args.output}")
    failures = [variant for variant, row in rows.items() if row["error"]]
    for variant in failures:
        print(f"variant {variant} failed: {rows[variant]['error']}", file=sys.stderr)
    return STRATEGY_ERROR if failures and args.strict else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        if args.command == "ablate":
            return _cmd_ablate(args)
        return USAGE_ERROR
    except (DataFormatError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
