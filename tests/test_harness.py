import hashlib
import json
import os
import subprocess
import sys
import weakref
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from modelselect import harness
from modelselect._fitting import check_budget_floor
from modelselect.cli import STRATEGY_ERROR, _build_parser, main as cli_main
from modelselect.core import EstimateTable, TrueTable
from modelselect._engine import Variant
from modelselect.harness import (
    STRATEGIES,
    STRATEGY_NAMES,
    TIMING_FIELDS,
    BenchmarkConfig,
    DataFormatError,
    SweepReport,
    auc,
    budget_grid,
    _interp_mixture,
    load_csv,
    pareto_indices,
    prepare_run,
    run_sweep,
    split_dataset,
    write_csv,
)
from modelselect.search import SearchConfig


# Config entries of the wrong type; each would otherwise fail later, with a
# traceback, at set-up or one sweep point after another.
WRONG_TYPES = [
    {"mc_samples": "512"},
    {"mc_samples": 100.5},
    {"budget_points": 3.5},
    {"seed": 1.5},
    {"seed": True},
    {"noise": 5},
    {"output": 5},
    {"data": 5},
    {"strategies": "routing"},
]

# Config entries that would only fail inside a fit, one sweep point after another.
BAD_ENTRIES = [
    {"variant": "fast"},
    {"variant": 3},
    {"search": {"max_eval": 3}},
    {"search": {"seed": 3}},
    {"search": {"max_evals": 0}},
    {"search": {"max_evals": "3"}},
    {"search": {"max_evals": 2.5}},
    {"search": {"gamma_scale": float("nan")}},
    {"search": [["max_evals", 3]]},
    {"seed": -1},
] + WRONG_TYPES

LOW_NOISE = {"quality_sigma_before": 0.6, "quality_sigma_after": 0.3, "cost_sigma_before": 2e-4, "cost_sigma_after": 5e-5}

# Noise, workload, mc_samples and splits entries that would otherwise fail at
# set-up, with a traceback or a message naming no field, or later as another
# field; each with the field its message names.
BAD_SPEC_ENTRIES = [
    ({"noise": {**LOW_NOISE, "quality_sigma_before": "0.6"}}, "quality_sigma_before"),
    ({"noise": {**LOW_NOISE, "quality_sigma_before": float("nan")}}, "quality_sigma_before"),
    ({"noise": {**LOW_NOISE, "cost_sigma_after": True}}, "cost_sigma_after"),
    ({"noise": {**LOW_NOISE, "quality_sigma_befor": 0.6}}, "quality_sigma_befor"),
    ({"noise": {**LOW_NOISE, "bogus": 1}}, "bogus"),
    ({"noise": {"quality_sigma_before": 0.6}}, "quality_sigma_after"),
    ({"data": {"workload": {"n_queries": "60", "n_models": 3, "seed": 4}}}, "n_queries"),
    ({"data": {"workload": {"n_queries": 60, "n_models": 3, "seed": -4}}}, "seed"),
    ({"data": {"workload": {"n_queries": 60, "n_models": 3, "bogus": 1}}}, "bogus"),
    ({"data": {"workload": {"n_queries": 60, "n_models": 3, "cost_spread": float("inf")}}}, "cost_spread"),
    ({"data": {"workload": {"n_queries": 60, "n_models": 3, "binary_quality": 1}}}, "binary_quality"),
    ({"data": {"workload": {"n_queries": 60, "n_models": 3, "base_costs": [1.0, "2", 3.0]}}}, "base_costs"),
    ({"data": {"workload": "tall"}}, "data.workload"),
    ({"mc_samples": 1}, "mc_samples"),
    ({"splits": ["a", 1, 1]}, "splits"),
    ({"splits": [0.5, 0.5]}, "splits"),
]
BAD_ENTRIES += [entry for entry, _ in BAD_SPEC_ENTRIES]

# Every SearchConfig field a config may set; the seed is derived per sweep point.
VALID_SEARCH = {"max_evals": 3, "lambda_log_scale": 0.5, "gamma_scale": 0.1, "threshold_scale": 0.2}

SMALL_WORKLOAD = {"workload": {"n_queries": 60, "n_models": 3, "seed": 4}}


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


WELL_FORMED = """query_id,quality.a,quality.b,cost.a,cost.b
q1,0.85,0.9,1.0,2.0
q2,0.2,0.95,1.5,2.5
"""


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        t = load_csv(write(tmp_path, "ok.csv", WELL_FORMED))
        assert t.n_queries == 2 and t.n_models == 2
        assert t.quality[0, 0] == 0.85

    def test_missing_cost_column(self, tmp_path):
        text = "query_id,quality.a,quality.b,cost.a\nq1,0.1,0.2,1.0\n"
        with pytest.raises(DataFormatError, match="cost.b"):
            load_csv(write(tmp_path, "bad.csv", text))

    def test_non_numeric_cell_reports_line(self, tmp_path):
        text = "query_id,quality.a,cost.a\nq1,0.5,1.0\nq2,oops,1.0\n"
        with pytest.raises(DataFormatError, match=":3"):
            load_csv(write(tmp_path, "bad.csv", text))

    def test_non_finite_cell_rejected(self, tmp_path):
        text = "query_id,quality.a,cost.a\nq1,nan,1.0\n"
        with pytest.raises(DataFormatError, match="non-finite"):
            load_csv(write(tmp_path, "nan.csv", text))

    def test_duplicate_query_id(self, tmp_path):
        text = "query_id,quality.a,cost.a\nq1,0.5,1.0\nq1,0.6,1.0\n"
        with pytest.raises(DataFormatError, match="duplicate"):
            load_csv(write(tmp_path, "dup.csv", text))

    def test_split_column_loaded(self, tmp_path):
        text = (
            "query_id,quality.a,cost.a,split\n"
            "q1,0.5,1.0,train\nq2,0.6,1.0,validation\nq3,0.7,1.0,test\n"
        )
        t = load_csv(write(tmp_path, "split.csv", text))
        assert list(t.split_labels) == ["train", "validation", "test"]

    def test_roundtrip_with_write_csv(self, tmp_path, rng):
        t = TrueTable(np.arange(4), rng.uniform(0, 1, (4, 2)), rng.uniform(0.1, 1, (4, 2)))
        path = tmp_path / "rt.csv"
        write_csv(path, t)
        back = load_csv(path)
        np.testing.assert_allclose(back.quality, t.quality)
        np.testing.assert_allclose(back.cost, t.cost)

    def test_shuffled_rows_keep_their_ids(self, tmp_path, rng):
        ids = np.array([17, 3, 42, 8, 0, 99])
        t = TrueTable(ids, rng.uniform(0, 1, (6, 2)), rng.uniform(0.1, 1, (6, 2)))
        path = tmp_path / "shuffled.csv"
        write_csv(path, t)
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        rows = [rows[i] for i in rng.permutation(len(rows))]
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        back = load_csv(path)
        file_ids = [int(r.split(",")[0]) for r in rows]
        assert back.query_ids.tolist() == file_ids
        order = [int(np.flatnonzero(ids == q)[0]) for q in file_ids]
        np.testing.assert_array_equal(back.quality, t.quality[order])

    def test_string_ids_hash_stably(self, tmp_path):
        t = load_csv(write(tmp_path, "ok.csv", WELL_FORMED))
        want = [int.from_bytes(hashlib.sha256(q.encode()).digest()[:8], "big") >> 1 for q in ("q1", "q2")]
        assert t.query_ids.tolist() == want
        assert (t.query_ids >= 0).all()

    def test_ids_mapping_to_one_value_rejected(self, tmp_path):
        text = "query_id,quality.a,cost.a\n7,0.5,1.0\nq,0.4,1.0\n007,0.6,1.0\n"
        with pytest.raises(DataFormatError, match=r":4: query_id '007' .* as '7' \(line 2\)"):
            load_csv(write(tmp_path, "clash.csv", text))


class TestSplitDataset:
    def test_exact_sizes(self):
        a, b, c = split_dataset(100, (0.25, 0.25, 0.5), seed=1)
        assert (len(a), len(b), len(c)) == (25, 25, 50)
        assert len(set(a) | set(b) | set(c)) == 100

    def test_same_seed_same_split(self):
        x = split_dataset(50, (0.4, 0.2, 0.4), seed=7)
        y = split_dataset(50, (0.4, 0.2, 0.4), seed=7)
        for p, q in zip(x, y):
            np.testing.assert_array_equal(p, q)

    def test_different_seeds_differ(self):
        x = split_dataset(200, (0.4, 0.2, 0.4), seed=1)[0]
        y = split_dataset(200, (0.4, 0.2, 0.4), seed=2)[0]
        assert not np.array_equal(x, y)

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            split_dataset(3, (0.05, 0.05, 0.9), seed=1)

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            split_dataset(10, (0.5, 0.6, 0.2), seed=1)


class TestBudgetGrid:
    def test_three_point_grid(self):
        t = TrueTable(np.arange(2), np.ones((2, 2)), np.array([[1.0, 3.0], [1.0, 3.0]]))
        np.testing.assert_allclose(budget_grid(t, 3), [1.0, 2.0, 3.0])

    def test_single_model(self):
        t = TrueTable(np.arange(2), np.ones((2, 1)), np.ones((2, 1)))
        assert budget_grid(t, 5).shape == (1,)

    def test_endpoints_match_model_means(self, rng):
        t = TrueTable(np.arange(30), rng.uniform(0, 1, (30, 3)), rng.uniform(0.1, 2, (30, 3)))
        grid = budget_grid(t, 7)
        means = t.cost.mean(axis=0)
        assert grid[0] == pytest.approx(means.min(), abs=1e-12)
        assert grid[-1] == pytest.approx(means.max(), abs=1e-12)


class TestAuc:
    def test_triangle(self):
        assert auc([(0, 0), (1, 1)]) == pytest.approx(0.5)

    def test_constant(self):
        assert auc([(0, 0.7), (1, 0.7)]) == pytest.approx(0.7)

    def test_two_trapezoids(self):
        assert auc([(0, 0), (1, 1), (2, 0)]) == pytest.approx(0.5)

    def test_duplicate_costs_averaged(self):
        assert auc([(0, 0.0), (0, 1.0), (1, 0.5)]) == pytest.approx(0.5)

    def test_too_few_distinct_costs(self):
        with pytest.raises(ValueError):
            auc([(1.0, 0.5), (1.0, 0.7)])


class TestLinearInterpBaseline:
    """The frontier and mixture the sweep's linear-interp strategy realizes."""

    frontier = [(1.0, 0.5), (3.0, 0.9)]

    def test_midpoint(self):
        assert _interp_mixture(self.frontier, 2.0) == ([0, 1], [0.5, 0.5])

    def test_dominated_model_ignored(self):
        costs = np.array([1.0, 2.0, 3.0])
        quals = np.array([0.5, 0.4, 0.9])
        assert pareto_indices(costs, quals) == [0, 2]

    def test_clamped_beyond_range(self):
        assert _interp_mixture(self.frontier, 10.0) == ([1], [1.0])
        assert _interp_mixture(self.frontier, 0.1) == ([0], [1.0])

    def test_frontier_sorted_and_dominant(self, rng):
        costs = rng.uniform(0.1, 3, 6)
        quals = rng.uniform(0, 1, 6)
        kept = pareto_indices(costs, quals)
        assert list(costs[kept]) == sorted(costs[kept])
        assert list(quals[kept]) == sorted(quals[kept])
        for i in set(range(6)) - set(kept):
            assert any(costs[j] <= costs[i] and quals[j] >= quals[i] for j in kept)


def small_config(**overrides):
    base = dict(
        data={"workload": {"n_queries": 160, "n_models": 3, "seed": 5}},
        noise="low",
        splits=(0.3, 0.2, 0.5),
        budget_points=4,
        strategies=("linear-interp", "routing", "threshold", "cascade", "cascade-routing"),
        seed=3,
        search={"max_evals": 15},
        mc_samples=128,
    )
    base.update(overrides)
    return BenchmarkConfig(**base)


class TestRunSweep:
    def test_test_coins_equal_per_query_coins(self):
        from modelselect.montecarlo import mixing_uniform

        ctx = prepare_run(small_config(seed=2**32 + 5))
        assert "_coins" not in vars(ctx)  # drawn on first use, not in set-up
        want = [mixing_uniform(2**32 + 5, int(q)) for q in ctx.test_table.query_ids]
        assert np.array_equal(ctx.test_coins, want)

    def test_full_protocol_shapes(self):
        report = run_sweep(small_config())
        assert set(report.strategies) == set(small_config().strategies)
        for name, res in report.strategies.items():
            assert res.error is None, f"{name}: {res.error}"
            assert len(res.points) == 4
            assert res.auc is not None

    def test_zero_noise_expert_workload_routing_beats_interp(self):
        # with perfect estimates, routing exploits per-query expertise that a
        # frontier interpolation cannot see
        cfg = small_config(
            data={"workload": {"n_queries": 240, "n_models": 4, "seed": 9,
                               "binary_quality": False}},
            noise={"quality_sigma_before": 0.0, "quality_sigma_after": 0.0,
                   "cost_sigma_before": 0.0, "cost_sigma_after": 0.0},
            strategies=("routing", "linear-interp"),
            budget_points=6,
        )
        report = run_sweep(cfg)
        assert report.strategies["routing"].error is None
        assert report.strategies["routing"].auc > report.strategies["linear-interp"].auc

    def test_validation_cost_feasibility_recorded_in_points(self):
        report = run_sweep(small_config())
        for res in report.strategies.values():
            for p in res.points:
                assert p["cost"] > 0

    def test_report_roundtrip(self):
        report = run_sweep(small_config(strategies=("routing", "linear-interp")))
        again = SweepReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert again.to_dict() == report.to_dict()

    def test_determinism_modulo_timing(self):
        cfg = small_config(strategies=("routing", "cascade"))
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        assert a.fingerprint() == b.fingerprint()

    def test_single_model_degenerates_gracefully(self):
        cfg = small_config(
            data={"workload": {"n_queries": 60, "n_models": 1, "seed": 2}},
            strategies=("routing", "cascade", "linear-interp"),
        )
        report = run_sweep(cfg)
        for name, res in report.strategies.items():
            assert res.error is None, f"{name}: {res.error}"
            assert res.auc is None  # single-point budget grid has no area
            assert len(res.points) == 1

    def test_partial_failure_recorded(self, rng):
        # estimates without ground truth: strategies needing realized metrics
        # record errors, the run itself survives and the baseline still works
        qm = rng.uniform(0, 1, (60, 2))
        cm = rng.uniform(0.5, 2.0, (60, 2))
        table = EstimateTable.build(qm, cm)
        cfg = small_config(strategies=("routing", "cascade", "linear-interp"))
        report = run_sweep(cfg, estimates=table)
        assert report.strategies["routing"].error is not None
        assert report.strategies["cascade"].error is not None
        assert report.strategies["linear-interp"].error is None
        assert len(report.strategies["linear-interp"].points) == 4

    def test_failure_while_fitting_reports_no_points(self, monkeypatch):
        fit = harness._StrategyRunner.fit

        def fit_failing_at_second_budget(self, budget, budget_index):
            if budget_index == 1:
                raise RuntimeError("no fit")
            return fit(self, budget, budget_index)

        monkeypatch.setattr(harness._StrategyRunner, "fit", fit_failing_at_second_budget)
        res = run_sweep(small_config(strategies=("threshold",))).strategies["threshold"]
        assert res.error == "RuntimeError: no fit"
        assert res.points == [] and res.auc is None and res.mean_decision_ms is None

    @pytest.mark.parametrize("strategy", ["cascade", "cascade-routing"])
    def test_validation_engine_is_freed_before_the_test_split_runs(self, monkeypatch, strategy):
        fit, evaluate = harness._StrategyRunner.fit, harness._EngineStrategy.evaluate
        fitting_engines, freed_at_first_evaluate = set(), []

        def spy_fit(self, budget, budget_index):
            fitting_engines.add(weakref.ref(self.val_engine))
            return fit(self, budget, budget_index)

        def spy_evaluate(self, fitted, budget):
            if not freed_at_first_evaluate:
                freed_at_first_evaluate.append(all(ref() is None for ref in fitting_engines))
            return evaluate(self, fitted, budget)

        monkeypatch.setattr(harness._StrategyRunner, "fit", spy_fit)
        monkeypatch.setattr(harness._EngineStrategy, "evaluate", spy_evaluate)
        res = run_sweep(small_config(strategies=(strategy,))).strategies[strategy]
        assert res.error is None and len(res.points) == 4
        assert len(fitting_engines) == 1
        assert freed_at_first_evaluate == [True]

    def test_one_strategy_sweeps_reproduce_the_all_strategy_sweep(self):
        def results(config):
            out = {}
            for name, res in run_sweep(config).strategies.items():
                out[name] = asdict(res)
                for fieldname in TIMING_FIELDS:
                    out[name].pop(fieldname)
            return out

        data = {"workload": {"n_queries": 300, "n_models": 5, "seed": 7}}
        together = results(small_config(data=data))
        assert list(together) == list(STRATEGY_NAMES)
        for name in STRATEGY_NAMES:
            assert results(small_config(data=data, strategies=(name,))) == {name: together[name]}

    def test_infeasible_budgets_clamped_and_recorded(self, rng):
        # inflated cost estimates push the routing feasibility floor above
        # the low end of the true-cost budget grid
        qm = rng.uniform(0, 1, (80, 2))
        tc = rng.uniform(0.5, 2.0, (80, 2))
        table = EstimateTable.build(
            qm, tc * 3.0, true_quality=qm, true_cost=tc
        )
        cfg = small_config(strategies=("routing",))
        report = run_sweep(cfg, estimates=table)
        res = report.strategies["routing"]
        assert res.error is None
        assert res.clamped_budgets > 0

    def test_config_roundtrip(self):
        cfg = small_config()
        again = BenchmarkConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again.to_dict() == cfg.to_dict()

    def test_fitted_validation_cost_within_budget(self):
        # realized validation cost respects the budget for the strategies
        # whose fit constrains realized cost; routing's search is pinned to
        # estimated cost, so it is checked in estimate space
        from modelselect._engine import BatchCascadeEngine, Variant
        from modelselect.cascading import threshold_metrics
        from modelselect.harness import prepare_run
        from modelselect.routing import expected_metrics

        ctx = prepare_run(small_config())
        for name in ("cascade", "cascade-routing", "threshold", "routing"):
            runner = STRATEGIES[name](ctx)
            floor = runner.floor()
            for bi, budget in enumerate(ctx.budgets):
                eff = max(float(budget), floor)
                fitted = runner.fit(eff, bi)
                if name == "routing":
                    _, cost = expected_metrics(fitted, ctx.val_table)
                elif name == "threshold":
                    _, cost = threshold_metrics(ctx.val_table, fitted)
                else:
                    engine = runner.val_engine
                    _, cost = engine.params_metrics(fitted)
                assert cost <= eff + 1e-6, (name, bi, cost, eff)

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            BenchmarkConfig.from_dict({"data": {}, "nonsense": 1})

    @pytest.mark.parametrize("entry", BAD_ENTRIES, ids=repr)
    def test_bad_variant_or_search_entry_rejected(self, entry):
        with pytest.raises(ValueError):
            BenchmarkConfig(**{"data": {}, **entry})
        with pytest.raises(ValueError):
            BenchmarkConfig.from_dict({"data": {}, **entry})

    @pytest.mark.parametrize("entry", WRONG_TYPES, ids=repr)
    def test_wrong_type_names_its_field(self, entry):
        with pytest.raises(ValueError, match=f"^{next(iter(entry))} must be"):
            BenchmarkConfig.from_dict({"data": {}, **entry})

    @pytest.mark.parametrize("entry, name", BAD_SPEC_ENTRIES, ids=repr)
    def test_bad_noise_or_workload_entry_names_its_field(self, entry, name):
        with pytest.raises(ValueError, match=name):
            BenchmarkConfig.from_dict({"data": {}, **entry})

    def test_valid_variant_and_search_entries_accepted(self):
        for name, variant in (("default", Variant.DEFAULT), ("slow", Variant.SLOW), ("greedy", Variant.GREEDY),
                              ("no-expect", Variant.NO_EXPECT), ("no_expect", Variant.NO_EXPECT)):
            assert BenchmarkConfig.from_dict({"data": {}, "variant": name}).variant_enum() is variant
        cfg = BenchmarkConfig.from_dict({"data": {}, "search": dict(VALID_SEARCH)})
        assert cfg.search_config(5) == SearchConfig(seed=5, **VALID_SEARCH)
        for key, value in VALID_SEARCH.items():
            assert BenchmarkConfig.from_dict({"data": {}, "search": {key: value}}).search == {key: value}


class TestCli:
    def test_generate_then_sweep(self, tmp_path):
        csv_path = tmp_path / "w.csv"
        assert cli_main(["generate", "--queries", "80", "--models", "3",
                         "--seed", "2", "--output", str(csv_path)]) == 0
        cfg = {
            "data": {"csv": str(csv_path)},
            "noise": "low",
            "splits": [0.3, 0.2, 0.5],
            "budget_points": 3,
            "strategies": ["routing", "linear-interp"],
            "seed": 1,
            "search": {"max_evals": 5},
            "mc_samples": 64,
        }
        cfg_path = write(tmp_path, "c.json", json.dumps(cfg))
        out = tmp_path / "r.json"
        assert cli_main(["sweep", "--config", str(cfg_path), "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert "strategies" in report and "routing" in report["strategies"]
        assert (tmp_path / "r.curves.csv").exists()

    def test_unknown_flag_exits_one(self, capsys):
        assert cli_main(["sweep", "--config", "x.json", "--bogus"]) == 1

    @pytest.mark.parametrize("entry", BAD_ENTRIES, ids=repr)
    def test_bad_variant_or_search_entry_exits_two(self, tmp_path, entry):
        cfg = write(tmp_path, "c.json", json.dumps({"data": SMALL_WORKLOAD, "budget_points": 2, **entry}))
        assert cli_main(["sweep", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("flags, name", [
        (["--budget-points", "1"], "budget_points"),
        (["--budget-points", "0"], "budget_points"),
        (["--seed", "-1"], "seed"),
    ])
    def test_bad_override_exits_two(self, tmp_path, capsys, flags, name):
        # an override is checked as the config file's own entry would be
        cfg = write(tmp_path, "c.json", json.dumps({"data": SMALL_WORKLOAD, "budget_points": 2}))
        assert cli_main(["sweep", "--config", str(cfg), "--strategy", "linear-interp", *flags]) == 2
        assert f"error: {name} must be" in capsys.readouterr().err

    def test_hyphenated_variant_and_every_search_key_sweep(self, tmp_path):
        cfg = write(tmp_path, "c.json", json.dumps({
            "data": SMALL_WORKLOAD, "budget_points": 2, "strategies": ["cascade-routing"],
            "variant": "no-expect", "search": VALID_SEARCH, "mc_samples": 16,
        }))
        out = tmp_path / "r.json"
        assert cli_main(["sweep", "--config", str(cfg), "--output", str(out)]) == 0
        result = json.loads(out.read_text())["strategies"]["cascade-routing"]
        assert result["error"] is None and result["auc"] is not None

    @pytest.mark.parametrize("strict", [False, True])
    def test_strict_sweep_exits_nonzero_on_a_strategy_error(self, tmp_path, monkeypatch, capsys, strict):
        def broken(ctx):
            raise RuntimeError("no fit")

        monkeypatch.setitem(harness.STRATEGIES, "routing", broken)
        cfg = write(tmp_path, "c.json", json.dumps({
            "data": SMALL_WORKLOAD, "budget_points": 2, "strategies": ["routing", "linear-interp"],
        }))
        out = tmp_path / "r.json"
        flags = ["--strict"] if strict else []
        assert cli_main(["sweep", "--config", str(cfg), "--output", str(out), *flags]) == (STRATEGY_ERROR if strict else 0)
        assert "strategies with errors: routing" in capsys.readouterr().err
        strategies = json.loads(out.read_text())["strategies"]
        assert strategies["routing"]["error"] == "RuntimeError: no fit"
        assert strategies["linear-interp"]["error"] is None

    def test_strict_sweep_without_errors_exits_zero(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", json.dumps({
            "data": SMALL_WORKLOAD, "budget_points": 2, "strategies": ["linear-interp"],
        }))
        assert cli_main(["sweep", "--config", str(cfg), "--output", str(tmp_path / "r.json"), "--strict"]) == 0
        assert "strategies with errors" not in capsys.readouterr().err

    def test_missing_config_is_data_error(self, tmp_path):
        assert cli_main(["sweep", "--config", str(tmp_path / "none.json")]) == 2

    def test_malformed_csv_is_data_error(self, tmp_path):
        bad = write(tmp_path, "bad.csv", "query_id,quality.a,cost.a\nq1,zzz,1\n")
        cfg = write(tmp_path, "c.json", json.dumps({
            "data": {"csv": str(bad)}, "noise": "low", "budget_points": 2,
        }))
        assert cli_main(["sweep", "--config", str(cfg)]) == 2

    def test_fit_and_evaluate(self, tmp_path):
        cfg = {
            "data": {"workload": {"n_queries": 100, "n_models": 2, "seed": 3}},
            "noise": "low",
            "splits": [0.3, 0.2, 0.5],
            "budget_points": 2,
            "seed": 2,
            "search": {"max_evals": 5},
            "mc_samples": 64,
        }
        cfg_path = write(tmp_path, "c.json", json.dumps(cfg))
        params_path = tmp_path / "p.json"
        assert cli_main(["fit", "--config", str(cfg_path), "--strategy", "routing",
                         "--budget", "0.002", "--output", str(params_path)]) == 0
        payload = json.loads(params_path.read_text())
        assert payload["strategy"] == "routing"
        metrics_path = tmp_path / "m.json"
        assert cli_main(["evaluate", "--config", str(cfg_path), "--params", str(params_path),
                         "--output", str(metrics_path)]) == 0
        metrics = json.loads(metrics_path.read_text())
        assert {"test_cost", "test_quality"} <= set(metrics)

    GRID_CONFIG = {
        "data": {"workload": {"n_queries": 120, "n_models": 3, "seed": 8}},
        "noise": "low", "splits": [0.3, 0.3, 0.4], "budget_points": 4,
        "seed": 6, "search": {"max_evals": 12}, "mc_samples": 64,
    }

    def fit_at_grid_point(self, tmp_path, strategy, index):
        """``modelselect fit`` at grid budget ``index``; returns the paths, ctx and budget."""
        cfg_path = write(tmp_path, "c.json", json.dumps(self.GRID_CONFIG))
        ctx = prepare_run(BenchmarkConfig.from_dict(self.GRID_CONFIG))
        budget = float(ctx.budgets[index])
        params_path = tmp_path / "p.json"
        assert cli_main(["fit", "--config", str(cfg_path), "--strategy", strategy,
                         "--budget", repr(budget), "--output", str(params_path)]) == 0
        return cfg_path, params_path, ctx, budget

    # for cascade-routing and threshold, grid points where the config seed
    # and the sweep's search seed disagree; routing's grid point 0 lies below
    # its floor, so the sweep fits it at the floor
    @pytest.mark.parametrize("strategy,index", [
        ("cascade-routing", 3), ("threshold", 2), ("routing", 1), ("cascade", 1),
        ("linear-interp", 1), ("routing", 0),
    ])
    def test_fit_at_grid_budget_reproduces_sweep_point(self, tmp_path, strategy, index):
        _, params_path, ctx, budget = self.fit_at_grid_point(tmp_path, strategy, index)
        payload = json.loads(params_path.read_text())
        runner = STRATEGIES[strategy](ctx)
        want = runner.fit(max(budget, runner.floor()), index)
        assert payload == {"strategy": strategy, "budget": budget, **runner.to_json(want)}

    def test_fit_off_grid_below_floor_fails(self, tmp_path):
        cfg_path = write(tmp_path, "c.json", json.dumps(self.GRID_CONFIG))
        ctx = prepare_run(BenchmarkConfig.from_dict(self.GRID_CONFIG))
        floor = STRATEGIES["routing"](ctx).floor()
        budget = 0.5 * floor
        assert budget not in ctx.budgets
        assert cli_main(["fit", "--config", str(cfg_path), "--strategy", "routing",
                         "--budget", repr(budget)]) == 2

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_evaluate_round_trip(self, tmp_path, strategy):
        cfg_path, params_path, ctx, budget = self.fit_at_grid_point(tmp_path, strategy, 2)
        metrics_path = tmp_path / "m.json"
        assert cli_main(["evaluate", "--config", str(cfg_path), "--params", str(params_path),
                         "--output", str(metrics_path)]) == 0
        runner = STRATEGIES[strategy](ctx)
        cost, quality = runner.evaluate(runner.fit(budget, 2), budget)
        assert json.loads(metrics_path.read_text()) == {
            "strategy": strategy, "budget": budget, "test_cost": cost, "test_quality": quality,
        }

    def test_evaluate_reads_params_with_null_thresholds(self, tmp_path):
        # cascade params files once carried "thresholds": null
        cfg_path, params_path, ctx, budget = self.fit_at_grid_point(tmp_path, "cascade", 1)
        payload = json.loads(params_path.read_text())
        assert "thresholds" not in payload
        params_path.write_text(json.dumps({**payload, "thresholds": None}))
        metrics_path = tmp_path / "m.json"
        assert cli_main(["evaluate", "--config", str(cfg_path), "--params", str(params_path),
                         "--output", str(metrics_path)]) == 0
        runner = STRATEGIES["cascade"](ctx)
        want = runner.evaluate(runner.fit(budget, 1), budget)
        metrics = json.loads(metrics_path.read_text())
        assert (metrics["test_cost"], metrics["test_quality"]) == want

    @pytest.mark.parametrize("strategy,key,value", [
        ("threshold", "thresholds", lambda v: [v[0], float("nan")] + v[2:]),
        ("threshold", "thresholds", lambda v: v + [0.5]),
        ("threshold", "thresholds", lambda v: v[:-1]),
        ("routing", "lambda_star", lambda v: float("nan")),
        ("routing", "lambda_max", lambda v: float("inf")),
    ], ids=["thresholds-nan", "thresholds-too-long", "thresholds-too-short",
            "lambda_star-nan", "lambda_max-inf"])
    def test_evaluate_rejects_bad_params(self, tmp_path, capsys, strategy, key, value):
        cfg_path, params_path, _, _ = self.fit_at_grid_point(tmp_path, strategy, 2)
        payload = json.loads(params_path.read_text())
        params_path.write_text(json.dumps({**payload, key: value(payload[key])}))
        assert cli_main(["evaluate", "--config", str(cfg_path), "--params", str(params_path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy,key,value", [
        ("routing", "gamma", None),
        ("routing", "lambda_star", "abc"),
        ("threshold", "thresholds", ["abc"]),
        ("threshold", "thresholds", None),
        ("cascade", "lambdas", "abc"),
        ("cascade", "gamma", True),
        ("cascade-routing", "lambdas", None),
        ("cascade-routing", "gamma", [0.5]),
        ("cascade-routing", "budget", None),
        ("linear-interp", "budget", "abc"),
    ], ids=["routing-gamma-missing", "routing-lambda_star-str", "threshold-thresholds-str",
            "threshold-thresholds-missing", "cascade-lambdas-str", "cascade-gamma-bool",
            "cascade-routing-lambdas-missing", "cascade-routing-gamma-list",
            "cascade-routing-budget-missing", "linear-interp-budget-str"])
    def test_evaluate_rejects_missing_or_mistyped_field(self, tmp_path, capsys, strategy, key, value):
        # None stands for a missing field
        cfg_path, params_path, _, _ = self.fit_at_grid_point(tmp_path, strategy, 2)
        payload = json.loads(params_path.read_text())
        if value is None:
            del payload[key]
        else:
            payload[key] = value
        params_path.write_text(json.dumps(payload))
        assert cli_main(["evaluate", "--config", str(cfg_path), "--params", str(params_path)]) == 2
        assert f"data error: params field {key!r}" in capsys.readouterr().err

    def test_evaluate_rejects_params_that_are_not_an_object(self, tmp_path, capsys):
        cfg_path, params_path, _, _ = self.fit_at_grid_point(tmp_path, "routing", 2)
        params_path.write_text(json.dumps([1, 2]))
        assert cli_main(["evaluate", "--config", str(cfg_path), "--params", str(params_path)]) == 2
        assert "data error:" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("strategy", ["cascade-routing", "routing", "linear-interp"])
    def test_fit_rejects_a_budget_that_is_not_finite(self, tmp_path, capsys, strategy, budget):
        cfg_path = write(tmp_path, "c.json", json.dumps(self.GRID_CONFIG))
        assert cli_main(["fit", "--config", str(cfg_path), "--strategy", strategy,
                         f"--budget={budget}"]) == 2
        assert "budget must be finite" in capsys.readouterr().err

    def test_budget_floor_rejects_a_budget_that_is_not_finite(self):
        for budget in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="budget must be finite"):
                check_budget_floor(budget, 1.0, "below the floor")

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), float("-inf")])
    def test_evaluate_rejects_a_budget_that_is_not_finite(self, tmp_path, capsys, budget):
        # json writes these as NaN, Infinity and -Infinity, which it also reads
        cfg_path, params_path, _, _ = self.fit_at_grid_point(tmp_path, "cascade", 2)
        payload = json.loads(params_path.read_text())
        params_path.write_text(json.dumps({**payload, "budget": budget}))
        assert cli_main(["evaluate", "--config", str(cfg_path), "--params", str(params_path)]) == 2
        assert "data error: " in capsys.readouterr().err

    def test_python_dash_m_runs_the_cli(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "modelselect", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and "evaluate" in proc.stdout

    def test_choices_follow_the_tables(self):
        commands = _build_parser()._subparsers._group_actions[0].choices

        def choices(command, dest):
            return next(a.choices for a in commands[command]._actions if a.dest == dest)

        assert STRATEGY_NAMES == (
            "linear-interp", "routing", "threshold", "cascade", "cascade-routing"
        )
        for command in ("sweep", "fit", "evaluate"):
            assert choices(command, "strategy") == list(STRATEGY_NAMES)
        for command in ("sweep", "fit", "evaluate", "ablate"):
            assert choices(command, "variant") == [
                "default", "slow", "greedy", "no-expect", "no_expect"
            ]

    def test_ablate_runs_all_variants(self, tmp_path, capsys):
        cfg = {
            "data": {"workload": {"n_queries": 90, "n_models": 3, "seed": 6}},
            "noise": "low", "budget_points": 3,
            "seed": 4, "search": {"max_evals": 6}, "mc_samples": 64,
        }
        cfg_path = write(tmp_path, "c.json", json.dumps(cfg))
        out = tmp_path / "ab.json"
        assert cli_main(["ablate", "--config", str(cfg_path), "--output", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert set(rows) == {"default", "slow", "greedy", "no-expect"}
        for row in rows.values():
            assert row["error"] is None
            assert row["auc"] is not None

    @pytest.mark.parametrize("strict", [False, True])
    def test_ablate_reports_failed_variants(self, tmp_path, monkeypatch, capsys, strict):
        def broken(ctx):
            raise RuntimeError("no fit")

        monkeypatch.setitem(harness.STRATEGIES, "cascade-routing", broken)
        cfg = write(tmp_path, "c.json", json.dumps({"data": SMALL_WORKLOAD, "budget_points": 2}))
        out = tmp_path / "ab.json"
        flags = ["--strict"] if strict else []
        assert cli_main(["ablate", "--config", str(cfg), "--output", str(out), *flags]) == (STRATEGY_ERROR if strict else 0)
        err = capsys.readouterr().err
        for variant in ("default", "slow", "greedy", "no-expect"):
            assert f"variant {variant} failed: RuntimeError: no fit" in err
        assert all(row["error"] == "RuntimeError: no fit" for row in json.loads(out.read_text()).values())

    def test_strict_ablate_without_errors_exits_zero(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", json.dumps({
            "data": {"workload": {"n_queries": 60, "n_models": 2, "seed": 6}}, "budget_points": 2,
            "search": {"max_evals": 2}, "mc_samples": 16,
        }))
        assert cli_main(["ablate", "--config", str(cfg), "--strict"]) == 0
        assert "failed" not in capsys.readouterr().err

    def test_sweep_determinism_bytes(self, tmp_path):
        cfg = {
            "data": {"workload": {"n_queries": 90, "n_models": 2, "seed": 4}},
            "noise": "low", "budget_points": 3,
            "strategies": ["routing", "linear-interp"],
            "seed": 5, "search": {"max_evals": 5}, "mc_samples": 64,
        }
        cfg_path = write(tmp_path, "c.json", json.dumps(cfg))
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert cli_main(["sweep", "--config", str(cfg_path), "--output", str(out)]) == 0
            report = SweepReport.from_dict(json.loads(out.read_text()))
            outs.append(json.dumps(report.fingerprint(), sort_keys=True))
        assert outs[0] == outs[1]
