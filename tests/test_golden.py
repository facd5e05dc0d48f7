"""Pinned digests of batch-engine, per-query and sweep outcomes.

Every field of every ``RunResult`` (with its dtype) and every ``run_metrics``
pair over a fixed matrix of engines and prices is hashed into one sha256,
and so is every field of the ``DecisionTrace``s of the per-query paths, and
the fingerprint of two small sweeps of every strategy, and so are the
estimate tables of the default workload. Changes meant to keep behaviour
must keep them; a change that moves a decision on purpose updates
``GOLDEN``, ``BATCH_GOLDEN``, ``PER_QUERY_GOLDEN``,
``ESTIMATED_SIGMA_GOLDEN``, ``SWEEP_GOLDEN``, ``DEFAULT_SUITE_GOLDEN`` or
``ESTIMATES_GOLDEN`` and says why in CHANGES.md.
"""
import hashlib
import json

import numpy as np
import pytest

from modelselect._engine import BatchCascadeEngine, Variant
from modelselect._fitting import LAMBDA_CAP
from modelselect.cascade_routing import run_cascade_route
from modelselect.cascading import run_cascade
from modelselect.core import EstimateTable, Pick, StrategyParams
from modelselect.estimators import generate_workload, simulate_estimates
from modelselect.harness import BenchmarkConfig, run_sweep, split_dataset
from modelselect.montecarlo import MonteCarloConfig

GOLDEN = "1cf9fc35ae46991262f411eb467f1c0b89050a4dbb67be26d619d87342bfece2"

# Lattice engines driven the way a fit drives them, long enough that later
# steps compile many small fills.
BATCH_GOLDEN = "7d9f4280b3b8846a1dd324b3abcbb21f89de6a18b6b3bdd669b9c1f7c6e70fb9"

# ``run_cascade`` and ``run_cascade_route`` over a price ladder.
PER_QUERY_GOLDEN = "e56b504ca516bafef7fcbec14e25d5af30fac476b2a25fca66e69b266d2aeb90"

# Lattice and chain engines with sigma shaped like an estimate's, where the
# models a row has computed hold no uncertainty.
ESTIMATED_SIGMA_GOLDEN = "b4182e163fe781ca527375e20010b5cbff0bc8cc8c18559191cc8a78c49a27df"

# ``SweepReport.fingerprint()`` of a low-noise sweep of every strategy, 4
# budgets, 20 search evaluations and 128 Monte Carlo samples, per (queries,
# models) of its synthetic workload.
SWEEP_GOLDEN = {
    (300, 5): "79dbc40acc6e748f0b9a212fb6fadff1d7746e7931079c04593538817f938494",
    (200, 8): "4f555a560fd7f1f41e6ac6a1b6779be27107d145a35e831fde747ddef2fe3944",
}

# The same digest of the default suite (1000 queries, 5 models, 20 budgets,
# 200 search evaluations, every strategy) per seed: the ROADMAP's identity
# gate for changes meant to keep behaviour.
DEFAULT_SUITE_GOLDEN = {
    0: "4c454356b7edf5114b4f9c38306f8ecdb9dc9bcb804581c222a7d275b49d535a",
    3: "6ad0df0c3f6b1fce1872cdb17bebcd3b224c910f51f49a1de4ad18673a30a151",
}

# ``simulate_estimates`` of the default workload per seed, as ``prepare_run``
# makes it (models in mean-cost order, fitted on the train split): every
# array of the table, with its dtype.
ESTIMATES_GOLDEN = {
    0: "07b5508a515b1a5fdd3d88f53320dc8de17795ee5ea91ce2d374550d64e5aa72",
    3: "4a64651e6681da2c9672093e23a78db2d9f551f6c56e7dd59f28fc95b396dbc9",
}

RUN_FIELDS = ("answer", "exec_order", "n_executed", "realized_cost")
ESTIMATE_FIELDS = ("query_ids", "quality_mean", "cost_mean", "true_quality", "true_cost")


def table(rng, n, k, tied):
    """Random step-varying estimates; a tied table has coarse values and a zero-cost model k // 2.

    Built here rather than from the shared test helpers, so that editing
    those cannot move the pinned digest.
    """
    qm = rng.uniform(0.0, 1.0, (n, k + 1, k))
    cm = rng.uniform(0.2, 2.0, (n, k + 1, k))
    if tied:
        qm, cm = np.round(qm * 4) / 4, np.round(cm * 2) / 2
        cm[:, :, k // 2] = 0.0
    return EstimateTable.build(
        qm, cm, true_quality=rng.uniform(0.0, 1.0, (n, k)), true_cost=rng.uniform(0.2, 2.0, (n, k))
    )


def update(digest, engine, lambdas, pick) -> None:
    """Hash one run's ``RunResult`` fields with their dtypes, then its ``run_metrics`` pair."""
    result = engine.run(lambdas, pick)
    for field in RUN_FIELDS:
        arr = getattr(result, field)
        digest.update(str(arr.dtype).encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    digest.update(repr(engine.run_metrics(lambdas, pick)).encode())


def run_sequence(digest, t, sigma, per_step) -> None:
    """Hash every engine's run sequence on one table: equal prices, per-step prices, then a 40-step bisection.

    One lattice and one chain engine per variant; each is reused along the
    sequence, so warm runs, delta runs and the chain's thresholds are all
    exercised.
    """
    k = t.n_models
    for chain_only in (False, True):
        for variant in Variant:
            engine = BatchCascadeEngine(t, sigma, MonteCarloConfig(n_samples=32, seed=k), variant, chain_only)
            runs = [[lam] * k for lam in (0.0, 0.05, 0.2, 0.6, 2.0, LAMBDA_CAP)] + per_step
            for lambdas in runs:
                for pick in Pick:
                    update(digest, engine, lambdas, pick)
            lo, hi = 0.0, 2.0
            budget = float(t.computed_cost.mean(axis=0)[: (k + 1) // 2].sum())
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                metrics = engine.run_metrics([mid] * k, Pick.MIN_COST)
                digest.update(repr(metrics).encode())
                lo, hi = (mid, hi) if metrics[1] > budget else (lo, mid)


def engine_digest() -> str:
    """sha256 over ``run_sequence`` on plain tables with random sigma and tied tables with zero sigma.

    Tables of 70 rows compile price cells at k = 3 and 5; the 24-row k = 8
    tables compile none.
    """
    digest = hashlib.sha256()
    for k, n in ((3, 70), (5, 70), (8, 24)):
        for tied in (False, True):
            rng = np.random.default_rng(100 * k + tied)
            t = table(rng, n, k, tied)
            sigma = np.zeros((k, k + 1)) if tied else rng.uniform(0.0, 0.35, (k, k + 1))
            per_step = [list(rng.choice([0.0, 0.05, 0.2, 0.6, 2.0], k)) for _ in range(4)]
            run_sequence(digest, t, sigma, per_step)
    return digest.hexdigest()


def estimated_sigma_digest() -> str:
    """sha256 over ``run_sequence`` with sigma shaped like an estimate's, at k = 3, 5 and 8.

    An estimate stops moving once its model has run, so ``estimate_sigma``
    gives every computed model zero std. The shaped sigma does so exactly,
    ``sigma[i, s] = 0`` for ``s >= i + 1``, so every sampled fill row at a
    step t >= 1 has constant members; the measured sigma, the population std
    of each slice's distance from the final one, does so only at the final
    slice, so its fills mix rows with constant and with varying members.
    """
    digest = hashlib.sha256()
    for k, n in ((3, 70), (5, 70), (8, 24)):
        for tied in (False, True):
            rng = np.random.default_rng(2000 + 10 * k + tied)
            t = table(rng, n, k, tied)
            shaped = rng.uniform(0.05, 0.35, (k, k + 1))
            shaped[np.arange(k + 1) >= np.arange(1, k + 1)[:, None]] = 0.0
            measured = (t.quality_mean - t.quality_mean[:, -1:]).std(axis=0).T
            per_step = [list(rng.choice([0.0, 0.05, 0.2, 0.6, 2.0], k)) for _ in range(4)]
            for sigma in (shaped, measured):
                run_sequence(digest, t, sigma, per_step)
    return digest.hexdigest()


def batch_digest() -> str:
    """sha256 over lattice engines run through a 40-step bisection, then 60 search-style proposals.

    DEFAULT and SLOW engines at k = 5 and 8 on tables large enough to
    compile step 0. Each bisection price and each proposal is run under
    both picks. A proposal perturbs some of the incumbent's per-step prices
    in log space and is accepted when the mean of its two picks is within
    budget and better, so every run after the first few reaches a few
    (prefix, row) pairs for the first time.
    """
    digest = hashlib.sha256()
    for k, n in ((5, 96), (8, 264)):
        rng = np.random.default_rng(7 * k)
        t = table(rng, n, k, tied=False)
        sigma = rng.uniform(0.0, 0.35, (k, k + 1))
        budget = float(t.computed_cost.mean(axis=0)[: (k + 1) // 2].sum())
        for variant in (Variant.DEFAULT, Variant.SLOW):
            engine = BatchCascadeEngine(t, sigma, MonteCarloConfig(n_samples=16, seed=k), variant)
            lo, hi = 0.0, 2.0
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                for pick in Pick:
                    update(digest, engine, [mid] * k, pick)
                lo, hi = (mid, hi) if engine.run_metrics([mid] * k, Pick.MIN_COST)[1] > budget else (lo, mid)
            best, best_q = np.full(k, hi), -np.inf
            for _ in range(60):
                move = rng.random(k) < 0.5
                lambdas = np.where(move, best * np.exp(0.6 * rng.standard_normal(k)), best).tolist()
                for pick in Pick:
                    update(digest, engine, lambdas, pick)
                q, c = np.mean([engine.run_metrics(lambdas, pick) for pick in Pick], axis=0)
                if c <= budget and q > best_q:
                    best, best_q = np.array(lambdas), q
    return digest.hexdigest()


def per_query_digest() -> str:
    """sha256 over the ``DecisionTrace``s of both per-query paths at k = 3, 5 and 8.

    On plain and tied tables, every query runs ``run_cascade`` under both
    forced coins and the seeded one, and ``run_cascade_route`` under both
    picks for every variant, at each price vector of a ladder of equal
    prices and a few per-step ones.
    """
    digest = hashlib.sha256()
    for k, n in ((3, 12), (5, 8), (8, 4)):
        for tied in (False, True):
            rng = np.random.default_rng(1000 + 10 * k + tied)
            t = table(rng, n, k, tied)
            sigma = np.zeros((k, k + 1)) if tied else rng.uniform(0.0, 0.35, (k, k + 1))
            mc = MonteCarloConfig(n_samples=33, seed=k)
            ladder = [[lam] * k for lam in (0.0, 0.05, 0.2, 0.6, 2.0, 1e6, LAMBDA_CAP)]
            ladder += [list(rng.choice([0.0, 0.05, 0.2, 0.6, 2.0], k)) for _ in range(3)]
            for lambdas in ladder:
                params = StrategyParams(tuple(lambdas), gamma=0.5)
                for q in range(n):
                    traces = [run_cascade(t, q, params, sigma, mc, u) for u in (0.25, 0.75, None)]
                    for variant in Variant:
                        traces += [run_cascade_route(t, q, params, sigma, variant, mc, pick) for pick in Pick]
                    digest.update(repr(traces).encode())
    return digest.hexdigest()


def test_engine_outcomes_match_golden_digest():
    assert engine_digest() == GOLDEN


def test_estimated_sigma_outcomes_match_golden_digest():
    assert estimated_sigma_digest() == ESTIMATED_SIGMA_GOLDEN


def test_batch_compiled_outcomes_match_golden_digest():
    assert batch_digest() == BATCH_GOLDEN


def test_per_query_decisions_match_golden_digest():
    assert per_query_digest() == PER_QUERY_GOLDEN


def report_digest(config: BenchmarkConfig) -> str:
    """sha256 of ``json.dumps`` of the fingerprint of one sweep, keys sorted."""
    report = run_sweep(config)
    assert all(result.error is None for result in report.strategies.values())
    return hashlib.sha256(json.dumps(report.fingerprint(), sort_keys=True).encode()).hexdigest()


def sweep_digest(n_queries: int, n_models: int) -> str:
    """The digest of one small sweep."""
    return report_digest(BenchmarkConfig(
        data={"workload": {"n_queries": n_queries, "n_models": n_models, "seed": 7}},
        budget_points=4,
        search={"max_evals": 20},
        mc_samples=128,
    ))


@pytest.mark.parametrize("shape", list(SWEEP_GOLDEN))
def test_sweep_fingerprint_matches_golden_digest(shape):
    assert sweep_digest(*shape) == SWEEP_GOLDEN[shape]


@pytest.mark.parametrize("seed", list(DEFAULT_SUITE_GOLDEN))
def test_default_suite_fingerprint_matches_golden_digest(seed):
    config = BenchmarkConfig(data={"workload": "default"}, seed=seed)
    assert report_digest(config) == DEFAULT_SUITE_GOLDEN[seed]


def estimates_digest(seed: int) -> str:
    """sha256 of the dtype and bytes of every array of the default workload's estimate table."""
    config = BenchmarkConfig(data={"workload": "default"}, seed=seed)
    truth = generate_workload(config.workload_spec())
    truth = truth.reorder_models(list(np.argsort(truth.cost.mean(axis=0), kind="stable")))
    train, _, _ = split_dataset(truth.n_queries, config.splits, seed)
    est = simulate_estimates(truth, config.noise_spec(), seed, fit_indices=train)
    digest = hashlib.sha256()
    for field in ESTIMATE_FIELDS:
        arr = getattr(est, field)
        digest.update(str(arr.dtype).encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", list(ESTIMATES_GOLDEN))
def test_default_estimates_match_golden_digest(seed):
    assert estimates_digest(seed) == ESTIMATES_GOLDEN[seed]
