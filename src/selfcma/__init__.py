"""CMA-ES with online adaptation of its covariance learning rates.

A primary CMA-ES minimizes the user's objective while a small auxiliary
CMA-ES continuously re-estimates the learning rates (c_1, c_mu, c_c) that
govern the covariance update. Candidate rates are scored on the covariance
half of the last update under the candidate rates, by how well the newest
population's fitness ranking agrees with its likelihood ranking. The
package ships four classic benchmark problems, a restart driver with
doubling population size, and a seeded experiment harness with CSV logs and
SVG trajectory charts.

Only the names the README documents are exported here; everything else is
reached through its module (`selfcma.core`, `selfcma.adapt`, ...).
"""

from . import errors
from .benchmarks import make_problem
from .core import default_params, initial_state, sample_population, update_distribution
from .harness import ExperimentConfig, run_experiment
from .restart import ipop_run
from .rng import RngStream

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "RngStream",
    "default_params",
    "errors",
    "initial_state",
    "ipop_run",
    "make_problem",
    "run_experiment",
    "sample_population",
    "update_distribution",
]
