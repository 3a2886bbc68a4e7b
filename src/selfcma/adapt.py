"""Online adaptation of the covariance learning rates.

A second, 3-dimensional CMA-ES searches over the triple (c_1, c_mu, c_c) in
a normalized unit box. Each candidate triple is scored by recomputing the
covariance half of the last update under the candidate rates and measuring
how well the newest population's fitness ranking agrees with its likelihood
ranking under the resulting distribution: good rates put the best
individuals where the density is highest. The auxiliary optimizer's mean,
decoded and projected back into the feasible region, gives the primary
optimizer's rates; the segment loop in `restart` injects them after every
auxiliary step.
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


def penalty(h: HyperVector) -> float:
    """PENALTY_SCALE times the total constraint violation; 0 iff feasible."""
    v = 0.0
    for c in (h.c_1, h.c_mu, h.c_c):
        v += max(0.0, -c) + max(0.0, c - BOX_HIGH)
    v += max(0.0, h.c_1 + h.c_mu - BOX_HIGH)
    return PENALTY_SCALE * v


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
    state: CmaState,
    pop_new: EvaluatedPopulation,
    mu_sel: int,
) -> float:
    """Rank-agreement score of a candidate learning-rate triple.

    Recomputes the covariance half of the update `prev_state` -> `state`
    under the candidate rates, from the rate-free terms recorded on `state`.
    Then ranks `pop_new` by Mahalanobis distance from `state.mean` under
    that covariance (largest distance = rank 1, so likelier points get
    larger rank numbers) and returns the mean rank of the mu_sel
    best-by-fitness candidates. Larger is better; the maximum is attained
    when the fitness winners are exactly the likeliest points. Infeasible
    triples score minus their constraint penalty.
    """
    if not 1 <= mu_sel <= pop_new.lam:
        raise DimensionMismatch(f"mu_sel={mu_sel} must lie in [1, {pop_new.lam}]")
    if not candidate.is_feasible():
        return -penalty(candidate)
    _, cov = core.covariance_update(
        prev_state, state.terms, candidate.c_1, candidate.c_mu, candidate.c_c
    )
    inv_sqrt_c = linalg.inv_sqrt(linalg.sym_eigen(cov))
    distances = linalg.mahalanobis(pop_new.candidates, state.mean, inv_sqrt_c)
    ranks = descending_ranks(distances)
    top = pop_new.order[:mu_sel]
    return float(np.sum(ranks[top] * (1.0 / mu_sel)))


@dataclass(frozen=True, eq=False)
class RateSearch:
    """The auxiliary optimizer over rate triples and its private random stream."""

    aux: CmaState
    mu_sel: int
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
    initial ones. The score averages the ranks of the best half of the
    primary population.
    """
    aux_params = core.default_params(AUX_DIM, lambda_h)
    aux_mean = rng.uniform_vector(0.0, 1.0, AUX_DIM)
    aux = core.initial_state(aux_params, aux_mean, AUX_SIGMA0)
    return RateSearch(aux=aux, mu_sel=max(1, lam // 2), rng=rng)


def self_step(
    search: RateSearch, prev_state: CmaState, state: CmaState, advanced: CmaState
) -> RateSearch:
    """One auxiliary generation after the primary went `state` -> `advanced`.

    Scores lambda_h candidate rate triples on the covariance half of the
    update `prev_state` -> `state` under each triple, ranking
    `advanced.last_pop`, and advances the auxiliary one generation on minus
    that score. The primary is not touched; its next rates are the returned
    `rates`.
    """
    pop_new = advanced.last_pop

    def aux_objective(u):
        return -h_objective(decode(u), prev_state, state, pop_new, search.mu_sel)

    aux = core.generation(aux_objective, search.aux, search.rng)
    return dataclasses.replace(search, aux=aux)
