import numpy as np
import pytest

from modelselect.core import StrategyParams
from modelselect import search
from modelselect.search import SearchConfig, optimize, optimize_thresholds


def batched(objective):
    """The batch objective the search takes, from a one-point objective."""
    return lambda points: [objective(p) for p in points]


def quad_objective(center, budget_slope=1.0):
    """Concave 1-D quality in lambda with cost proportional to lambda."""

    def objective(params: StrategyParams):
        lam = params.lambdas[0]
        quality = 1.0 - (np.log10(max(lam, 1e-9)) - np.log10(center)) ** 2
        return quality, budget_slope * lam
    return objective


class TestOptimize:
    def test_constant_objective_returns_init(self):
        init = StrategyParams(lambdas=(0.5, 2.0), gamma=0.25)
        best = optimize(batched(lambda p: (1.0, 0.0)), budget=10.0, config=SearchConfig(seed=1), init=init)
        assert best == init

    def test_concave_objective_near_grid_optimum(self):
        center = 0.37
        objective = quad_objective(center, budget_slope=0.0)
        init = StrategyParams(lambdas=(3.0,), gamma=0.5)
        best = optimize(batched(objective), budget=1.0, config=SearchConfig(max_evals=200, seed=3), init=init)
        grid = 10 ** np.linspace(-3, 1, 2000)
        grid_best = max(objective(StrategyParams(lambdas=(g,), gamma=0.5))[0] for g in grid)
        found = objective(best)[0]
        assert found >= grid_best - 0.05 * abs(grid_best)

    def test_quality_never_below_init(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            noise = rng.normal(size=64)

            def objective(p):
                key = int(1000 * p.lambdas[0]) % 64
                return float(noise[key]), p.lambdas[0]

            init = StrategyParams(lambdas=(0.8,), gamma=0.1)
            q0 = objective(init)[0]
            best = optimize(batched(objective), budget=5.0, config=SearchConfig(max_evals=40, seed=seed), init=init)
            assert objective(best)[0] >= q0

    def test_result_always_feasible(self):
        def objective(p):
            return p.lambdas[0], p.lambdas[0]  # quality rises with cost

        init = StrategyParams(lambdas=(0.5,), gamma=0.0)
        best = optimize(batched(objective), budget=1.0, config=SearchConfig(max_evals=300, seed=7), init=init)
        assert objective(best)[1] <= 1.0 + 1e-9

    def test_infeasible_init_raises(self):
        init = StrategyParams(lambdas=(5.0,), gamma=0.0)
        with pytest.raises(ValueError, match="initial point violates budget"):
            optimize(batched(lambda p: (0.0, p.lambdas[0])), budget=1.0,
                     config=SearchConfig(seed=1), init=init)

    def test_deterministic_under_seed(self):
        objective = quad_objective(0.2)
        init = StrategyParams(lambdas=(1.0,), gamma=0.5)
        cfg = SearchConfig(max_evals=60, seed=11)
        a = optimize(batched(objective), 10.0, cfg, init=init)
        b = optimize(batched(objective), 10.0, cfg, init=init)
        assert a == b

    def test_gamma_stays_in_unit_interval(self):
        def objective(p):
            return p.gamma, 0.0

        init = StrategyParams(lambdas=(1.0,), gamma=0.95)
        best = optimize(batched(objective), 1.0, SearchConfig(max_evals=200, seed=13), init=init)
        assert 0.0 <= best.gamma <= 1.0


class TestOptimizeThresholds:
    def test_improves_toward_target(self):
        target = np.array([0.2, 0.7, 0.4])

        def objective(thr):
            return -float(((thr - target) ** 2).sum()), 0.0

        best = optimize_thresholds(batched(objective), budget=1.0, init=np.zeros(3),
                                   config=SearchConfig(max_evals=300, seed=17))
        assert objective(best)[0] > objective(np.zeros(3))[0]

    def test_feasibility_enforced(self):
        def objective(thr):
            return float(thr.sum()), float(thr.sum())

        best = optimize_thresholds(batched(objective), budget=0.5, init=np.zeros(2),
                                   config=SearchConfig(max_evals=200, seed=19))
        assert objective(best)[1] <= 0.5 + 1e-9


def sequential_optimize(objective, budget, config, init):
    """The one-proposal-at-a-time search, drawing each proposal as it goes.

    Returns the best params and the numbers of the accepted proposals.
    """
    k = len(init.lambdas)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, search._STREAM_SEARCH)))
    best_x = np.array(list(init.lambdas) + [init.gamma])
    best_q = objective(init)[0]
    limit = budget * (1.0 + search.FEASIBILITY_SLACK)
    accepted = []
    for i in range(config.max_evals):
        x = best_x
        cand = x.copy()
        move = rng.random(k + 1) < max(1.0 / (k + 1), float(rng.random()))
        amplitude = np.exp(rng.standard_normal())
        lam = np.maximum(x[:k], search._LAMBDA_FLOOR)
        scaled = lam * np.exp(config.lambda_log_scale * amplitude * rng.standard_normal(k))
        cand[:k] = np.where(move[:k], scaled, x[:k])
        if move[k]:
            cand[k] = search._reflect_unit(x[k] + config.gamma_scale * amplitude * rng.standard_normal())
        q, c = objective(StrategyParams(lambdas=tuple(float(v) for v in cand[:k]), gamma=float(cand[k])))
        if c <= limit and q > best_q:
            best_x, best_q = cand, q
            accepted.append(i)
    return StrategyParams(lambdas=tuple(float(v) for v in best_x[:k]), gamma=float(best_x[k])), accepted


def random_objective(seed, k):
    """Piecewise-constant random quality and a cost that rises with the prices' sum."""
    noise = np.random.default_rng(seed).normal(size=(97, 2))

    def objective(p):
        key = int(1e3 * (sum(p.lambdas) + 0.37 * p.gamma)) % 97
        return float(noise[key, 0]), float(sum(p.lambdas) + 0.1 * noise[key, 1])

    return objective


class TestBatchedSearch:
    """Evaluating proposals in batches accepts what the one-at-a-time search accepts."""

    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("seed", range(6))
    def test_batches_accept_the_sequential_proposals(self, monkeypatch, batch, seed):
        k = 1 + seed % 3
        objective = random_objective(seed, k)
        init = StrategyParams(lambdas=(0.4,) * k, gamma=0.3)
        budget = 1.5 * k
        config = SearchConfig(max_evals=80, seed=seed)
        want, want_accepted = sequential_optimize(objective, budget, config, init)
        assert want_accepted  # the objective is rough enough to move

        passes, log = [], []
        local_search = search._local_search

        def spy(*args):
            best, accepted = local_search(*args)
            log.append(accepted)
            return best, accepted

        def many(params):
            passes.append(len(params))
            return [objective(p) for p in params]

        monkeypatch.setattr(search, "PROPOSAL_BATCH", batch)
        monkeypatch.setattr(search, "_local_search", spy)
        got = optimize(many, budget, config, init)
        assert got == want and log == [want_accepted]
        # the start point is a pass of its own; each later pass starts after
        # the last accepted proposal, and takes at most `batch`
        assert passes[0] == 1 and sum(passes) >= 1 + config.max_evals and max(passes) <= batch
        assert len(passes) <= 1 + -(-config.max_evals // batch) + len(want_accepted)

    def test_threshold_search_result_is_pinned(self):
        # computed with the one-proposal-at-a-time search: a change in the
        # order of the random draws changes it
        target = np.array([0.3, -0.2, 0.5])

        def objective(thr):
            return -float(((thr - target) ** 2).sum()), float(np.abs(thr).sum())

        best = optimize_thresholds(batched(objective), budget=0.8, init=np.zeros(3),
                                   config=SearchConfig(max_evals=60, seed=23))
        assert best.tolist() == [0.22590004735516794, -0.08596317395786378, 0.4585753598733374]
