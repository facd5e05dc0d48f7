"""Budget-constrained model selection.

Three strategies over a pool of models with noisy quality/cost estimates:

- routing picks one model per query up front;
- cascading walks a fixed model chain and stops when the last answer's
  tradeoff beats every continuation;
- cascade routing re-routes at every step among all supermodels extending
  the models already computed.

Plus a benchmark harness that reproduces the budget-sweep/AUC evaluation
protocol on CSV data or seeded synthetic workloads.
"""

from ._engine import BatchCascadeEngine, Variant
from .cascade_routing import (
    CandidateSet,
    enumerate_candidates,
    fit_cascade_router,
    prune_candidates,
    run_cascade_route,
    select_with_pick,
)
from .cascading import (
    FittedCascade,
    MonteCarloConfig,
    StepEstimates,
    estimate_sigma,
    expected_max,
    fit_cascade,
    fit_threshold_cascade,
    run_cascade,
    threshold_cascade,
)
from .core import (
    DecisionTrace,
    EstimateTable,
    Pick,
    StrategyParams,
    Supermodel,
    TrueTable,
    argmax_tradeoff,
    tradeoff,
)
from .estimators import (
    NOISE_PRESETS,
    NoiseSpec,
    WorkloadSpec,
    generate_workload,
    simulate_estimates,
)
from .harness import (
    BenchmarkConfig,
    SweepReport,
    auc,
    budget_grid,
    load_csv,
    run_sweep,
    split_dataset,
)
from .routing import FittedRouter, fit_router, route, strategy_cost
from .search import SearchConfig, optimize

__version__ = "0.1.0"
