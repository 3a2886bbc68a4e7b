"""CMA-ES with online adaptation of its covariance learning rates.

A primary CMA-ES minimizes the user's objective while a small auxiliary
CMA-ES continuously re-estimates the learning rates (c_1, c_mu, c_c) that
govern the covariance update. Candidate rates are scored by replaying the
most recent distribution update under them and checking how well the newest
population's fitness ranking agrees with its likelihood ranking. The
package ships four classic benchmark problems, a restart driver with
doubling population size, and a seeded experiment harness with CSV logs and
SVG trajectory charts.
"""

from . import errors
from .adapt import (
    AUX_DIM,
    AUX_SIGMA0,
    BOX_HIGH,
    DEFAULT_LAMBDA_H,
    HyperVector,
    RateSearch,
    SelectionWeights,
    decode,
    descending_ranks,
    encode,
    h_objective,
    init_search,
    penalty,
    project_feasible,
)
from .benchmarks import (
    PROBLEM_NAMES,
    Problem,
    ellipsoid,
    make_problem,
    rosenbrock,
    sharpridge,
    sphere,
)
from .core import (
    INIT_BOX,
    INIT_SIGMA,
    CmaState,
    EvaluatedPopulation,
    StrategyParams,
    default_lambda,
    default_params,
    default_weights,
    expected_norm,
    generation,
    initial_state,
    sample_population,
    update_distribution,
)
from .harness import (
    ExperimentConfig,
    compare_dirs,
    evals_to_target,
    load_run_logs,
    run_experiment,
    single_run,
)
from .restart import (
    RestartReport,
    StopConfig,
    StopReason,
    check_stop,
    hist_window,
    ipop_run,
)
from .rng import RngStream
from .runlog import CSV_COLUMNS, GenRecord, RunLog, aggregate_medians, lower_median
from .svgplot import emit_plot, parse_extents

__version__ = "0.1.0"

__all__ = [
    "AUX_DIM",
    "AUX_SIGMA0",
    "BOX_HIGH",
    "CSV_COLUMNS",
    "CmaState",
    "DEFAULT_LAMBDA_H",
    "EvaluatedPopulation",
    "ExperimentConfig",
    "GenRecord",
    "HyperVector",
    "INIT_BOX",
    "INIT_SIGMA",
    "PROBLEM_NAMES",
    "Problem",
    "RateSearch",
    "RestartReport",
    "RngStream",
    "RunLog",
    "SelectionWeights",
    "StopConfig",
    "StopReason",
    "StrategyParams",
    "aggregate_medians",
    "check_stop",
    "compare_dirs",
    "decode",
    "default_lambda",
    "default_params",
    "default_weights",
    "descending_ranks",
    "ellipsoid",
    "emit_plot",
    "encode",
    "errors",
    "evals_to_target",
    "expected_norm",
    "generation",
    "h_objective",
    "hist_window",
    "init_search",
    "initial_state",
    "ipop_run",
    "load_run_logs",
    "lower_median",
    "make_problem",
    "parse_extents",
    "penalty",
    "project_feasible",
    "rosenbrock",
    "run_experiment",
    "sample_population",
    "sharpridge",
    "single_run",
    "sphere",
    "update_distribution",
]
