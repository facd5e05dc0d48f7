"""Benchmark harness: data IO, splits, budget sweep, AUC, and baselines.

The evaluation protocol: take a ground-truth table (CSV or synthetic),
simulate noisy estimates, split queries into estimator-train /
hyperparameter-validation / test, and for every strategy and every budget on
a grid spanning the cheapest to the most expensive model, fit on the
validation split and report realized (true) cost and quality on the test
split. Curves are summarized by trapezoidal AUC normalized to the cost
range. Estimates drive decisions only; realized metrics always come from
ground truth.

``run_sweep`` runs each strategy in two stages. The fit stage finds the
floor and fits every budget point on the validation split. The test stage
evaluates every fitted point on the test split and times decisions, with a
fresh runner, once the fitting runner and its validation engine are freed.
So a sweep holds one split's engine at a time, and a strategy that fails
while fitting reports its error with no points.
"""
from __future__ import annotations

import csv
import hashlib
import json
import numbers
import time
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._engine import BatchCascadeEngine, Variant
from .cascading import (
    cascade_floor_cost,
    estimate_sigma,
    fit_cascade,
    fit_threshold_cascade,
    run_cascade,
    threshold_cascade,
    threshold_metrics,
)
from .cascade_routing import fit_cascade_router, route_floor_cost, run_cascade_route
from .core import EstimateTable, Pick, StrategyParams, TrueTable, check_integer, from_mapping
from .estimators import (
    NOISE_PRESETS,
    NoiseSpec,
    WorkloadSpec,
    generate_workload,
    simulate_estimates,
)
from .montecarlo import MonteCarloConfig, mixing_uniforms
from .routing import (
    FittedRouter,
    cheapest_strategy_cost,
    choose_models,
    fit_router,
    route_query,
)
from .search import SearchConfig

_STREAM_SPLIT = 0x50
_STREAM_SEARCH_MIX = 0x5A

# Fields that may differ between otherwise identical runs.
TIMING_FIELDS = ("mean_decision_ms",)


class DataFormatError(ValueError):
    """Raised for malformed input data files."""


def params_field(payload: dict, key: str, vector: bool = False):
    """A number, or with ``vector`` a list of numbers, read from a params file.

    A missing or mistyped field is a ``DataFormatError`` naming the field.
    """
    value = payload.get(key)
    items = value if vector and isinstance(value, list) else [value]
    if (vector and not isinstance(value, list)) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in items
    ):
        kind = "a list of numbers" if vector else "a number"
        raise DataFormatError(f"params field {key!r} must be {kind}, got {value!r}")
    return [float(v) for v in value] if vector else float(value)


# -- IO ------------------------------------------------------------------------


def _query_id_value(raw: str) -> int:
    """The integer a CSV ``query_id`` cell stands for.

    A decimal integer below 2^63 is kept as it is; any other id maps to the
    first 8 bytes of its UTF-8 SHA-256 digest shifted right by one, which is
    stable across processes and always a non-negative int64.
    """
    if raw.isascii() and raw.isdigit() and int(raw) < 1 << 63:
        return int(raw)
    return int.from_bytes(hashlib.sha256(raw.encode("utf-8")).digest()[:8], "big") >> 1


def load_csv(path) -> TrueTable:
    """Load a ground-truth table.

    Expected header: ``query_id``, then ``quality.<name>`` and ``cost.<name>``
    for each model (model order follows the quality columns), optionally
    ``split`` with values train/validation/test. Comma-separated, ``.``
    decimals, UTF-8. Query ids are read by ``_query_id_value``, so per-query
    random streams follow the id, not the row; two ids that map to the same
    integer are rejected.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if "query_id" not in header:
            raise DataFormatError(f"{path}: missing required column query_id")
        qcol = header.index("query_id")
        model_names = [h[len("quality."):] for h in header if h.startswith("quality.")]
        if not model_names:
            raise DataFormatError(f"{path}: no quality.<model> columns found")
        col_of = {h: i for i, h in enumerate(header)}
        for name in model_names:
            if f"cost.{name}" not in col_of:
                raise DataFormatError(f"{path}: missing column cost.{name}")
        split_col = col_of.get("split")

        seen: dict[int, tuple[str, int]] = {}
        ids, quality_rows, cost_rows, labels = [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataFormatError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            qid = row[qcol]
            value = _query_id_value(qid)
            if value in seen:
                other, first = seen[value]
                if other == qid:
                    raise DataFormatError(f"{path}:{lineno}: duplicate query_id {qid!r} (first at line {first})")
                raise DataFormatError(
                    f"{path}:{lineno}: query_id {qid!r} maps to the same id {value} as {other!r} (line {first})"
                )
            seen[value] = (qid, lineno)
            ids.append(value)

            def cell(colname: str) -> float:
                raw = row[col_of[colname]]
                try:
                    value = float(raw)
                except ValueError:
                    raise DataFormatError(
                        f"{path}:{lineno}: non-numeric value {raw!r} in column {colname}"
                    ) from None
                if not np.isfinite(value):
                    raise DataFormatError(
                        f"{path}:{lineno}: non-finite value {raw!r} in column {colname}"
                    )
                return value

            quality_rows.append([cell(f"quality.{m}") for m in model_names])
            cost_rows.append([cell(f"cost.{m}") for m in model_names])
            if split_col is not None:
                labels.append(row[split_col])
    if not quality_rows:
        raise DataFormatError(f"{path}: no data rows")
    return TrueTable(
        query_ids=np.array(ids, dtype=np.int64),
        quality=np.array(quality_rows),
        cost=np.array(cost_rows),
        split_labels=np.array(labels) if labels else None,
    )


def write_csv(path, table: TrueTable, model_names: Optional[Sequence[str]] = None) -> None:
    names = list(model_names or (f"m{i}" for i in range(table.n_models)))
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["query_id"]
        header += [f"quality.{m}" for m in names]
        header += [f"cost.{m}" for m in names]
        writer.writerow(header)
        for i in range(table.n_queries):
            row = [str(int(table.query_ids[i]))]
            row += [repr(float(v)) for v in table.quality[i]]
            row += [repr(float(v)) for v in table.cost[i]]
            writer.writerow(row)


# -- splits, grid, metrics -------------------------------------------------------


def _split_fractions(fractions) -> tuple[float, float, float]:
    """``fractions`` as three floats, or a ``ValueError`` naming ``splits``.

    They must be three positive numbers summing to at most 1.
    """
    values = tuple(fractions) if isinstance(fractions, (list, tuple, np.ndarray)) else ()
    if (
        len(values) != 3
        or not all(isinstance(f, numbers.Real) and not isinstance(f, bool) and f > 0 for f in values)
        or sum(values) > 1.0 + 1e-9
    ):
        raise ValueError(f"splits must be three positive fractions summing to at most 1, got {fractions!r}")
    return tuple(float(f) for f in values)


def split_dataset(table, fractions: Sequence[float], seed: int):
    """Seeded shuffle then contiguous slicing into three index arrays.

    ``table`` may be a table object or a plain query count. The parts are
    disjoint, cover the selected fractions exactly, and are stable under the
    seed: estimator-train, hyperparameter-validation, test.
    """
    n_queries = table if isinstance(table, int) else table.n_queries
    fracs = _split_fractions(fractions)
    rng = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_SPLIT)))
    order = rng.permutation(n_queries)
    b1 = int(np.floor(n_queries * fracs[0]))
    b2 = int(np.floor(n_queries * (fracs[0] + fracs[1])))
    b3 = int(np.floor(n_queries * (fracs[0] + fracs[1] + fracs[2])))
    parts = (order[:b1], order[b1:b2], order[b2:b3])
    if any(p.size == 0 for p in parts):
        raise ValueError("a split is empty; adjust fractions or add data")
    return parts


def split_from_labels(labels: np.ndarray):
    """Index arrays from an explicit split column (train/validation/test)."""
    groups = {"train": [], "validation": [], "test": []}
    for i, raw in enumerate(labels):
        name = str(raw).strip().lower()
        if name not in groups:
            raise DataFormatError(f"unknown split label {raw!r} (expected train/validation/test)")
        groups[name].append(i)
    parts = tuple(np.array(groups[g], dtype=np.int64) for g in ("train", "validation", "test"))
    if any(p.size == 0 for p in parts):
        raise ValueError("a split is empty; the split column must cover all three parts")
    return parts


def _model_mean_costs(table) -> np.ndarray:
    if isinstance(table, TrueTable):
        costs = table.cost
    elif table.true_cost is not None:
        costs = table.true_cost
    else:
        costs = table.cost_mean[:, 0, :]
    return costs.mean(axis=0)


def _model_mean_qualities(table: EstimateTable) -> np.ndarray:
    quality = table.true_quality if table.true_quality is not None else table.quality_mean[:, 0, :]
    return quality.mean(axis=0)


def budget_grid(table, n_points: int = 20) -> np.ndarray:
    """Evenly spaced budgets from the cheapest to the dearest model's mean cost."""
    means = _model_mean_costs(table)
    lo, hi = float(means.min()), float(means.max())
    if lo == hi:
        return np.array([lo])
    return np.linspace(lo, hi, n_points)


def auc(points) -> float:
    """Trapezoidal quality-over-cost integral, normalized by the cost range.

    Points sharing a cost are averaged first; at least two distinct costs are
    required.
    """
    by_cost: dict[float, list[float]] = {}
    for cost, quality in points:
        by_cost.setdefault(float(cost), []).append(float(quality))
    if len(by_cost) < 2:
        raise ValueError("auc needs at least 2 points with distinct costs")
    costs = np.array(sorted(by_cost))
    quals = np.array([float(np.mean(by_cost[c])) for c in costs])
    area = float(np.sum(0.5 * (quals[1:] + quals[:-1]) * np.diff(costs)))
    return area / float(costs[-1] - costs[0])


def pareto_indices(costs: np.ndarray, qualities: np.ndarray) -> list[int]:
    """Indices of the upper frontier, cheapest first."""
    order = np.lexsort((-np.asarray(qualities), np.asarray(costs)))
    kept = []
    best = -np.inf
    for i in order:
        if qualities[i] > best:
            kept.append(int(i))
            best = float(qualities[i])
    return kept


def _interp_mixture(frontier: list[tuple[float, float]], budget: float):
    """(model_positions, weights) realizing the frontier value at ``budget``."""
    xs = [c for c, _ in frontier]
    if budget <= xs[0]:
        return [0], [1.0]
    if budget >= xs[-1]:
        return [len(xs) - 1], [1.0]
    j = int(np.searchsorted(xs, budget, side="right"))
    a, b = j - 1, j
    alpha = (xs[b] - budget) / (xs[b] - xs[a])
    return [a, b], [float(alpha), float(1.0 - alpha)]


# -- strategies -------------------------------------------------------------------


class _StrategyRunner:
    """One strategy's part of a sweep on a prepared run.

    Each subclass holds everything about its strategy: ``name``, the engines
    it needs, ``floor()`` (the cheapest validation cost it can reach),
    ``fit_seeded(budget, search_seed)``, ``evaluate(fitted, budget)`` (the
    realized test-split cost and quality), ``decide(fitted, q)`` (one test
    query's decision) and the fitted params' JSON form, ``to_json(fitted)``
    and ``from_json(payload)``. A strategy that fits nothing returns None and
    needs no ``decide``. ``STRATEGIES`` lists the subclasses.
    """

    name: str

    def __init__(self, ctx: RunContext):
        self.ctx = ctx

    def fit(self, budget: float, budget_index: int):
        """Fit at grid point ``budget_index`` with that point's search seed."""
        return self.fit_seeded(budget, _search_seed(self.ctx.config, self.name, budget_index))

    def grid_budget(self, budget_index: int, floor: float) -> tuple[float, bool]:
        """The budget a grid point is fitted and evaluated at, and whether it was clamped.

        A grid budget below the strategy's ``floor`` is raised to it; the
        sweep and ``modelselect fit`` both fit grid points at this budget.
        """
        budget = float(self.ctx.budgets[budget_index])
        if budget < floor:
            return float(floor), True
        return budget, False

    def measure_decision_ms(self, fits: dict, sample_size: int = 32) -> float:
        """Mean per-query ``decide`` wall time, milliseconds.

        Sampled over a few fitted budgets so one atypical operating point
        does not dominate; model "execution" (a table lookup) is excluded.
        """
        n = min(sample_size, self.ctx.test_table.n_queries)
        total, count = 0.0, 0
        for fitted in fits.values():
            for q in range(n):
                t0 = time.perf_counter()
                self.decide(fitted, q)
                total += time.perf_counter() - t0
                count += 1
        return total / max(count, 1) * 1000.0


class _LinearInterp(_StrategyRunner):
    """Mix the two validation-frontier models around the budget; nothing is fitted."""

    name = "linear-interp"

    def __init__(self, ctx: RunContext):
        super().__init__(ctx)
        mean_cost = _model_mean_costs(ctx.val_table)
        mean_quality = _model_mean_qualities(ctx.val_table)
        self.frontier_models = pareto_indices(mean_cost, mean_quality)
        self.frontier = [(float(mean_cost[i]), float(mean_quality[i])) for i in self.frontier_models]

    def floor(self) -> float:
        return -np.inf

    def fit_seeded(self, budget: float, search_seed: int):
        return None

    def evaluate(self, fitted, budget: float) -> tuple[float, float]:
        # realize the validation-frontier mixture on test data
        positions, weights = _interp_mixture(self.frontier, budget)
        model_cols = [self.frontier_models[p] for p in positions]
        test_cost_means = _model_mean_costs(self.ctx.test_table)
        test_quality_means = _model_mean_qualities(self.ctx.test_table)
        cost = sum(w * test_cost_means[m] for w, m in zip(weights, model_cols))
        quality = sum(w * test_quality_means[m] for w, m in zip(weights, model_cols))
        return float(cost), float(quality)

    def to_json(self, fitted) -> dict:
        return {}

    def from_json(self, payload: dict):
        return None


class _Routing(_StrategyRunner):
    name = "routing"

    def floor(self) -> float:
        return cheapest_strategy_cost(self.ctx.val_table)

    def fit_seeded(self, budget: float, search_seed: int) -> FittedRouter:
        return fit_router(self.ctx.val_table, budget)

    def evaluate(self, fitted: FittedRouter, budget: float) -> tuple[float, float]:
        test = self.ctx.test_table
        pick_min = choose_models(test, fitted.lambda_star, Pick.MIN_COST)
        pick_max = choose_models(test, fitted.lambda_max, Pick.MAX_COST)
        chosen = np.where(self.ctx.test_coins < fitted.gamma, pick_min, pick_max)
        rows = np.arange(test.n_queries)
        return float(test.true_cost[rows, chosen].mean()), float(test.true_quality[rows, chosen].mean())

    def decide(self, fitted: FittedRouter, q: int):
        return route_query(fitted, self.ctx.test_table, q, self.ctx.test_coins[q])

    def to_json(self, fitted: FittedRouter) -> dict:
        return asdict(fitted)

    def from_json(self, payload: dict) -> FittedRouter:
        return FittedRouter(**{f.name: params_field(payload, f.name) for f in fields(FittedRouter)})


class _Threshold(_StrategyRunner):
    name = "threshold"

    def floor(self) -> float:
        return cascade_floor_cost(self.ctx.val_table)

    def fit_seeded(self, budget: float, search_seed: int) -> np.ndarray:
        search = self.ctx.config.search_config(search_seed)
        return fit_threshold_cascade(self.ctx.val_table, budget, search_config=search)

    def evaluate(self, fitted: np.ndarray, budget: float) -> tuple[float, float]:
        quality, cost = threshold_metrics(self.ctx.test_table, fitted)
        return cost, quality

    def decide(self, fitted: np.ndarray, q: int):
        return threshold_cascade(self.ctx.test_table, q, fitted)

    def to_json(self, fitted: np.ndarray) -> dict:
        return {"thresholds": [float(v) for v in fitted]}

    def from_json(self, payload: dict) -> np.ndarray:
        return np.asarray(params_field(payload, "thresholds", vector=True), dtype=np.float64)


class _EngineStrategy(_StrategyRunner):
    """A strategy fitted and evaluated through ``BatchCascadeEngine`` runs."""

    def __init__(self, ctx: RunContext, variant: Variant, chain_only: bool):
        super().__init__(ctx)
        self.variant = variant
        self.val_engine = BatchCascadeEngine(ctx.val_table, ctx.sigma, ctx.mc, variant, chain_only)
        self.test_engine = BatchCascadeEngine(ctx.test_table, ctx.sigma, ctx.mc, variant, chain_only)

    def evaluate(self, fitted: StrategyParams, budget: float) -> tuple[float, float]:
        run_min = self.test_engine.run(fitted.lambdas, Pick.MIN_COST)
        run_max = (
            run_min if fitted.gamma == 1.0 else self.test_engine.run(fitted.lambdas, Pick.MAX_COST)
        )
        take_min = self.ctx.test_coins < fitted.gamma
        rows = np.arange(self.ctx.test_table.n_queries)
        truth_q = self.ctx.test_table.true_quality
        cost = np.where(take_min, run_min.realized_cost, run_max.realized_cost)
        quality = np.where(take_min, truth_q[rows, run_min.answer], truth_q[rows, run_max.answer])
        return float(cost.mean()), float(quality.mean())

    def to_json(self, fitted: StrategyParams) -> dict:
        return {"lambdas": list(fitted.lambdas), "gamma": fitted.gamma}

    def from_json(self, payload: dict) -> StrategyParams:
        lambdas = tuple(params_field(payload, "lambdas", vector=True))
        return StrategyParams(lambdas=lambdas, gamma=params_field(payload, "gamma"))


class _Cascade(_EngineStrategy):
    name = "cascade"

    def __init__(self, ctx: RunContext):
        super().__init__(ctx, Variant.DEFAULT, chain_only=True)

    def floor(self) -> float:
        return cascade_floor_cost(self.ctx.val_table)

    def fit_seeded(self, budget: float, search_seed: int) -> StrategyParams:
        ctx = self.ctx
        return fit_cascade(
            ctx.val_table, budget, sigma=ctx.sigma, mc=ctx.mc,
            search_config=ctx.config.search_config(search_seed), engine=self.val_engine,
        ).params

    def decide(self, fitted: StrategyParams, q: int):
        return run_cascade(self.ctx.test_table, q, fitted, self.ctx.sigma, self.ctx.mc)


class _CascadeRouting(_EngineStrategy):
    name = "cascade-routing"

    def __init__(self, ctx: RunContext):
        super().__init__(ctx, ctx.config.variant_enum(), chain_only=False)

    def floor(self) -> float:
        return route_floor_cost(self.ctx.val_table, self.ctx.sigma, self.ctx.mc, engine=self.val_engine)

    def fit_seeded(self, budget: float, search_seed: int) -> StrategyParams:
        ctx = self.ctx
        return fit_cascade_router(
            ctx.val_table, budget, self.variant, sigma=ctx.sigma, mc=ctx.mc,
            search_config=ctx.config.search_config(search_seed), engine=self.val_engine,
        )

    def decide(self, fitted: StrategyParams, q: int):
        ctx = self.ctx
        return run_cascade_route(ctx.test_table, q, fitted, ctx.sigma, self.variant, ctx.mc)


# Strategy name -> runner class. The order is part of every search seed
# (``_search_seed`` hashes a strategy's index), so new strategies go last.
STRATEGIES = {
    cls.name: cls for cls in (_LinearInterp, _Routing, _Threshold, _Cascade, _CascadeRouting)
}
STRATEGY_NAMES = tuple(STRATEGIES)


# -- configuration ----------------------------------------------------------------


DEFAULT_SPLITS = (0.3, 0.35, 0.35)

DEFAULT_WORKLOAD = dict(n_queries=1000, n_models=5, seed=7)


@dataclass
class BenchmarkConfig:
    """Everything a sweep needs; serializable to/from the JSON config file."""

    data: dict
    noise: object = "low"
    splits: tuple = DEFAULT_SPLITS
    budget_points: int = 20
    strategies: tuple = STRATEGY_NAMES
    variant: str = "default"
    seed: int = 0
    search: dict = field(default_factory=dict)
    mc_samples: int = 512
    output: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("budget_points", "seed", "mc_samples"):
            check_integer(name, getattr(self, name))
        if not isinstance(self.data, Mapping):
            raise ValueError(f"data must be a mapping, got {self.data!r}")
        if not isinstance(self.output, (str, type(None))):
            raise ValueError(f"output must be a path or null, got {self.output!r}")
        if not isinstance(self.strategies, (list, tuple)):
            raise ValueError(f"strategies must be a list of strategy names, got {self.strategies!r}")
        if self.budget_points < 2:
            raise ValueError(f"budget_points must be >= 2, got {self.budget_points}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.mc_samples < 2:
            raise ValueError(f"mc_samples must be >= 2, got {self.mc_samples}")
        unknown = set(self.strategies) - set(STRATEGY_NAMES)
        if unknown:
            raise ValueError(f"unknown strategies: {sorted(unknown)}")
        self.splits = _split_fractions(self.splits)
        self.strategies = tuple(self.strategies)
        try:
            self.variant_enum()
        except (AttributeError, ValueError):
            raise ValueError(f"unknown variant {self.variant!r}") from None
        # each raises on a bad value
        self.search_config(0)
        self.noise_spec()
        self.workload_spec()
        if "seed" in self.search:  # each fit's seed is derived per sweep point (``_search_seed``)
            raise ValueError("search must not set a seed: each sweep point derives its own")

    def noise_spec(self) -> NoiseSpec:
        if isinstance(self.noise, NoiseSpec):
            return self.noise
        if isinstance(self.noise, str):
            try:
                return NOISE_PRESETS[self.noise]
            except KeyError:
                raise ValueError(f"unknown noise preset {self.noise!r}") from None
        return from_mapping(NoiseSpec, self.noise, "noise")

    def workload_spec(self) -> Optional[WorkloadSpec]:
        wl = self.data.get("workload")
        if wl is None:
            return None
        if wl == "default":
            wl = DEFAULT_WORKLOAD
        return from_mapping(WorkloadSpec, wl, "data.workload")

    def search_config(self, seed: int) -> SearchConfig:
        return replace(from_mapping(SearchConfig, self.search, "search"), seed=seed)

    def variant_enum(self) -> Variant:
        return Variant(self.variant.replace("-", "_"))

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        if isinstance(self.noise, NoiseSpec):
            d["noise"] = asdict(self.noise)
        d.update(splits=list(self.splits), strategies=list(self.strategies), search=dict(self.search))
        return d

    @staticmethod
    def from_dict(d: dict) -> "BenchmarkConfig":
        return from_mapping(BenchmarkConfig, d, "config")


# -- report ----------------------------------------------------------------------


@dataclass
class StrategyResult:
    name: str
    points: list = field(default_factory=list)  # dicts: budget, cost, quality
    auc: Optional[float] = None
    mean_decision_ms: Optional[float] = None
    clamped_budgets: int = 0
    error: Optional[str] = None


@dataclass
class SweepReport:
    config: dict
    seed: int
    model_order: list
    strategies: dict  # name -> StrategyResult

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "seed": self.seed,
            "model_order": list(self.model_order),
            "strategies": {name: asdict(res) for name, res in self.strategies.items()},
        }

    @staticmethod
    def from_dict(d: dict) -> "SweepReport":
        return SweepReport(
            config=d["config"],
            seed=d["seed"],
            model_order=list(d["model_order"]),
            strategies={k: StrategyResult(**v) for k, v in d["strategies"].items()},
        )

    def fingerprint(self) -> dict:
        """Report content with timing fields removed, for determinism checks."""
        d = self.to_dict()
        for res in d["strategies"].values():
            for fieldname in TIMING_FIELDS:
                res.pop(fieldname, None)
        return d


def write_report(report: SweepReport, output) -> tuple[Path, Path]:
    out = Path(output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    curves = out.with_suffix(".curves.csv")
    with curves.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "budget", "cost", "quality"])
        for name, res in sorted(report.strategies.items()):
            for p in res.points:
                writer.writerow([name, repr(p["budget"]), repr(p["cost"]), repr(p["quality"])])
    return out, curves


# -- sweep ------------------------------------------------------------------------


@dataclass
class RunContext:
    """Prepared data shared by every strategy in one sweep.

    It holds the validation and test splits' tables, not the full estimate
    table or the split indices, so the full table is freed once
    ``prepare_run`` returns.
    """

    config: BenchmarkConfig
    model_order: list
    val_table: EstimateTable
    test_table: EstimateTable
    sigma: np.ndarray
    budgets: np.ndarray
    mc: MonteCarloConfig

    @property
    def test_coins(self) -> np.ndarray:
        coins = getattr(self, "_coins", None)
        if coins is None:
            coins = mixing_uniforms(self.config.seed, self.test_table.query_ids)
            self._coins = coins
        return coins


def prepare_run(config: BenchmarkConfig, estimates: Optional[EstimateTable] = None) -> RunContext:
    """Load/generate data, order models by mean cost, simulate, split."""
    wl = config.workload_spec()
    if estimates is not None:
        table = estimates
        n = table.n_queries
        perm = list(range(table.n_models))
        if table.true_cost is not None:
            perm = list(np.argsort(table.true_cost.mean(axis=0), kind="stable"))
            table = table.reorder_models(perm)
        parts = split_dataset(n, config.splits, config.seed)
    else:
        if wl is not None:
            truth = generate_workload(wl)
        elif "csv" in config.data:
            truth = load_csv(config.data["csv"])
        else:
            raise ValueError("config data must give a csv path or a workload spec")
        perm = list(np.argsort(truth.cost.mean(axis=0), kind="stable"))
        truth = truth.reorder_models(perm)
        if truth.split_labels is not None:
            parts = split_from_labels(truth.split_labels)
        else:
            parts = split_dataset(truth.n_queries, config.splits, config.seed)
        table = simulate_estimates(truth, config.noise_spec(), config.seed, fit_indices=parts[0])
    _, val_idx, test_idx = parts
    val_table = table.subset(val_idx)
    return RunContext(
        config=config,
        model_order=perm,
        val_table=val_table,
        test_table=table.subset(test_idx),
        sigma=estimate_sigma(val_table),
        budgets=budget_grid(val_table, config.budget_points),
        mc=MonteCarloConfig(n_samples=config.mc_samples, seed=config.seed),
    )


def _search_seed(config: BenchmarkConfig, strategy: str, budget_index: int) -> int:
    si = STRATEGY_NAMES.index(strategy)
    seq = np.random.SeedSequence((config.seed, _STREAM_SEARCH_MIX, si, budget_index))
    return int(seq.generate_state(1)[0])


def run_sweep(
    config: BenchmarkConfig,
    estimates: Optional[EstimateTable] = None,
) -> SweepReport:
    """The full protocol. Per-strategy failures are recorded, not raised."""
    ctx = prepare_run(config, estimates)
    config_echo = config.to_dict()
    config_echo.pop("output", None)  # not part of the experiment's identity
    report = SweepReport(
        config=config_echo,
        seed=config.seed,
        model_order=[int(p) for p in ctx.model_order],
        strategies={},
    )
    n_budgets = len(ctx.budgets)
    timing_budgets = sorted({0, n_budgets // 2, n_budgets - 1})
    for name in config.strategies:
        result = StrategyResult(name=name)
        try:
            # fit stage: the floor and every budget point on the validation split
            runner = STRATEGIES[name](ctx)
            floor = runner.floor()
            fits = []
            for bi in range(n_budgets):
                eff, clamped = runner.grid_budget(bi, floor)
                result.clamped_budgets += clamped
                fits.append((eff, runner.fit(eff, bi)))
            # test stage: a fresh runner, whose engines allocate nothing until
            # first run, so the fitting runner's validation engine is freed here
            runner = STRATEGIES[name](ctx)
            for budget, (eff, fitted) in zip(ctx.budgets, fits):
                cost, quality = runner.evaluate(fitted, eff)
                result.points.append(
                    {"budget": float(budget), "cost": cost, "quality": quality}
                )
            timing_fits = {bi: fits[bi][1] for bi in timing_budgets if fits[bi][1] is not None}
            if len(ctx.budgets) >= 2:
                try:
                    result.auc = auc([(p["cost"], p["quality"]) for p in result.points])
                except ValueError:
                    result.auc = None  # curve degenerated to one distinct cost
            result.mean_decision_ms = runner.measure_decision_ms(timing_fits)
        except Exception as exc:  # noqa: BLE001 - recorded per strategy by design
            result.error = f"{type(exc).__name__}: {exc}"
        report.strategies[name] = result

    if config.output:
        write_report(report, config.output)
    return report
