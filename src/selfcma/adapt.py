"""Online adaptation of the covariance learning rates.

A second, 3-dimensional CMA-ES searches over the triple (c_1, c_mu, c_c) in
a normalized unit box. Each candidate triple is scored by replaying the most
recent distribution update under that triple and measuring how well the
newest population's fitness ranking agrees with its likelihood ranking under
the replayed distribution: good rates put the best individuals where the
density is highest. The auxiliary optimizer's mean, decoded and projected
back into the feasible region, gives the primary optimizer's rates; the
segment loop in `restart` injects them after every auxiliary step.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import core, linalg
from .core import CmaState, EvaluatedPopulation
from .errors import DimensionMismatch
from .rng import RngStream

# Every rate lives in [0, BOX_HIGH]; c_1 + c_mu is jointly capped at BOX_HIGH
# so the decayed old covariance keeps a weight of at least 1 - BOX_HIGH.
BOX_HIGH = 0.9
PENALTY_SCALE = 1e9

AUX_DIM = 3
AUX_SIGMA0 = 0.2
DEFAULT_LAMBDA_H = 20


@dataclass(frozen=True)
class HyperVector:
    """One learning-rate triple for the covariance update."""

    c_1: float
    c_mu: float
    c_c: float

    def is_feasible(self) -> bool:
        return (
            0.0 <= self.c_1 <= BOX_HIGH
            and 0.0 <= self.c_mu <= BOX_HIGH
            and 0.0 <= self.c_c <= BOX_HIGH
            and self.c_1 + self.c_mu <= BOX_HIGH
        )


def decode(u) -> HyperVector:
    """Scale a unit-box point by BOX_HIGH; the result may be infeasible."""
    u = np.asarray(u, dtype=float)
    if u.shape != (AUX_DIM,):
        raise DimensionMismatch(f"expected shape ({AUX_DIM},), got {u.shape}")
    return HyperVector(
        c_1=float(BOX_HIGH * u[0]),
        c_mu=float(BOX_HIGH * u[1]),
        c_c=float(BOX_HIGH * u[2]),
    )


def violation(h: HyperVector) -> float:
    """Total constraint violation; zero exactly when `h.is_feasible()`."""
    v = 0.0
    for c in (h.c_1, h.c_mu, h.c_c):
        v += max(0.0, -c) + max(0.0, c - BOX_HIGH)
    v += max(0.0, h.c_1 + h.c_mu - BOX_HIGH)
    return v


def penalty(h: HyperVector) -> float:
    """0 for feasible triples, else PENALTY_SCALE times the violation."""
    return PENALTY_SCALE * violation(h)


def project_feasible(h: HyperVector) -> HyperVector:
    """Clamp each rate to [0, BOX_HIGH], then shrink (c_1, c_mu) radially
    onto the joint cap if their sum still exceeds it."""
    c_1 = min(max(h.c_1, 0.0), BOX_HIGH)
    c_mu = min(max(h.c_mu, 0.0), BOX_HIGH)
    c_c = min(max(h.c_c, 0.0), BOX_HIGH)
    # The shrink can round one ulp back above the cap, so repeat until it
    # lands inside; two passes suffice in practice.
    while c_1 + c_mu > BOX_HIGH:
        shrink = BOX_HIGH / (c_1 + c_mu)
        c_1 *= shrink
        c_mu *= shrink
    return HyperVector(c_1=c_1, c_mu=c_mu, c_c=c_c)


@dataclass(frozen=True, eq=False)
class SelectionWeights:
    """Weights over fitness ranks used by the rank-agreement score."""

    mu_sel: int
    weights: np.ndarray

    def __post_init__(self):
        if self.mu_sel < 1:
            raise ValueError(f"mu_sel must be >= 1, got {self.mu_sel}")
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.shape != (self.mu_sel,):
            raise DimensionMismatch(f"weights shape {w.shape} != ({self.mu_sel},)")
        if np.any(w < 0.0):
            raise ValueError("selection weights must be >= 0")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"selection weights must sum to 1, got {float(w.sum())!r}")

    @classmethod
    def uniform(cls, mu_sel: int) -> "SelectionWeights":
        return cls(mu_sel=mu_sel, weights=np.full(mu_sel, 1.0 / mu_sel))


def descending_ranks(values) -> np.ndarray:
    """rank[i] = 1-based position of values[i] in a stable descending sort.

    The largest value gets rank 1; ties are broken by lower index first.
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(-values, kind="stable")
    ranks = np.empty(values.shape[0], dtype=np.int64)
    ranks[order] = np.arange(1, values.shape[0] + 1)
    return ranks


def h_objective(
    candidate: HyperVector,
    prev_state: CmaState,
    pop_used: EvaluatedPopulation,
    pop_new: EvaluatedPopulation,
    sel: SelectionWeights,
) -> float:
    """Rank-agreement score of a candidate learning-rate triple.

    Replays the update that led to the current distribution, starting from
    `prev_state` and consuming `pop_used`, but with the candidate rates
    substituted. Then ranks `pop_new` by Mahalanobis distance from the
    replayed mean under the replayed covariance (largest distance = rank 1,
    so likelier points get larger rank numbers) and returns the
    selection-weighted sum of the ranks received by the mu_sel best-by-fitness
    candidates. Larger is better; the maximum is attained when the fitness
    winners are exactly the likeliest points. Infeasible triples score minus
    their constraint penalty without any replay.
    """
    if sel.mu_sel > pop_new.lam:
        raise DimensionMismatch(
            f"mu_sel={sel.mu_sel} exceeds population size {pop_new.lam}"
        )
    if not candidate.is_feasible():
        return -penalty(candidate)
    replay_params = prev_state.params.with_cov_rates(
        candidate.c_1, candidate.c_mu, candidate.c_c
    )
    replay_from = dataclasses.replace(prev_state, params=replay_params)
    replayed = core.update_distribution(replay_from, pop_used)
    inv_sqrt_c = linalg.inv_sqrt(replayed.eigen)
    distances = linalg.mahalanobis(pop_new.candidates, replayed.mean, inv_sqrt_c)
    ranks = descending_ranks(distances)
    top = pop_new.order[: sel.mu_sel]
    return float(np.sum(sel.weights * ranks[top]))


@dataclass(frozen=True, eq=False)
class RateSearch:
    """The auxiliary optimizer over rate triples and its private random stream."""

    aux: CmaState
    sel: SelectionWeights
    rng: RngStream

    @property
    def rates(self) -> HyperVector:
        """The auxiliary mean, decoded and projected: the rates to inject."""
        return project_feasible(decode(self.aux.mean))


def init_search(
    lam: int, rng: RngStream, lambda_h: int = DEFAULT_LAMBDA_H
) -> RateSearch:
    """Rate search for a primary optimizer with population size `lam`.

    The auxiliary optimizer starts from a mean drawn uniformly in the unit
    box from `rng` with step-size AUX_SIGMA0; its rates are the primary's
    initial ones. The score weighs the best half of the primary population
    uniformly.
    """
    aux_params = core.default_params(AUX_DIM, lambda_h)
    aux_mean = rng.uniform_vector(0.0, 1.0, AUX_DIM)
    aux = core.initial_state(aux_params, aux_mean, AUX_SIGMA0)
    sel = SelectionWeights.uniform(max(1, lam // 2))
    return RateSearch(aux=aux, sel=sel, rng=rng)


def self_step(
    search: RateSearch, prev_state: CmaState, state: CmaState, advanced: CmaState
) -> RateSearch:
    """One auxiliary generation after the primary went `state` -> `advanced`.

    Scores lambda_h candidate rate triples by replaying the update
    `prev_state` -> `state` and ranking `advanced.last_pop` under the
    result, and advances the auxiliary one generation on minus that score.
    The primary is not touched; its next rates are the returned `rates`.
    """
    pop_used = state.last_pop
    pop_new = advanced.last_pop

    def aux_objective(u):
        return -h_objective(decode(u), prev_state, pop_used, pop_new, search.sel)

    aux = core.generation(aux_objective, search.aux, search.rng)
    return dataclasses.replace(search, aux=aux)
