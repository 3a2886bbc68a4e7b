"""Online adaptation of the covariance learning rates.

A second, 3-dimensional CMA-ES searches over the triple (c_1, c_mu, c_c) in
a normalized unit box; a population of triples is a (k, 3) array. Each
candidate triple is scored by how well the newest population's fitness
ranking agrees with its likelihood ranking under the covariance the last
update would have produced with the candidate rates: good rates put the
best individuals where the density is highest. Every candidate covariance
is a weighted sum of the old covariance, one rank-mu matrix and a rank-one
term, so one eigenbasis shared by all candidates, with Sherman-Morrison for
the rank-one term, gives every candidate's distances without forming its
covariance. Only the ranks of the distances count, so the score never
takes a square root. The auxiliary optimizer's mean, decoded and projected
back into the feasible region, gives the primary optimizer's rates; the
segment loop in `restart` injects them after every auxiliary step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
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


def decode(u) -> np.ndarray:
    """Scale unit-box points by BOX_HIGH: (..., 3) -> (..., 3) rate triples
    (c_1, c_mu, c_c), one per row; the results may be infeasible."""
    u = np.asarray(u, dtype=float)
    if u.ndim == 0 or u.shape[-1] != AUX_DIM:
        raise DimensionMismatch(f"expected shape (..., {AUX_DIM}), got {u.shape}")
    return BOX_HIGH * u


def penalty(triples) -> np.ndarray:
    """PENALTY_SCALE times each row's total constraint violation; 0 iff feasible.

    The violations are added column by column, c_1 then c_mu then c_c, then
    the joint cap, so each entry has the bits of a scalar left-to-right sum.
    """
    h = np.asarray(triples, dtype=float)
    v = np.zeros(h.shape[:-1])
    for c in np.moveaxis(h, -1, 0):
        v = v + (np.maximum(0.0, -c) + np.maximum(0.0, c - BOX_HIGH))
    v = v + np.maximum(0.0, h[..., 0] + h[..., 1] - BOX_HIGH)
    return PENALTY_SCALE * v


def project_feasible(c_1: float, c_mu: float, c_c: float) -> tuple[float, float, float]:
    """Clamp each rate to [0, BOX_HIGH], then shrink (c_1, c_mu) radially
    onto the joint cap if their sum still exceeds it."""
    c_1, c_mu, c_c = (min(max(float(c), 0.0), BOX_HIGH) for c in (c_1, c_mu, c_c))
    # The shrink can round one ulp back above the cap, so repeat until it
    # lands inside; two passes suffice in practice.
    while c_1 + c_mu > BOX_HIGH:
        shrink = BOX_HIGH / (c_1 + c_mu)
        c_1 *= shrink
        c_mu *= shrink
    return c_1, c_mu, c_c


def descending_ranks(values) -> np.ndarray:
    """rank[..., i] = 1-based position of values[..., i] in a stable
    descending sort along the last axis.

    The largest value gets rank 1; ties are broken by lower index first.
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(-values, axis=-1, kind="stable")
    ranks = np.empty(values.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, values.shape[-1] + 1), axis=-1)
    return ranks


def h_objective(
    triples, state: CmaState, pop_new: EvaluatedPopulation, mu_sel: int
) -> np.ndarray:
    """Rank-agreement scores of a (k, 3) array of learning-rate triples.

    Each feasible triple's covariance is that of the update which produced
    `state`, recomputed under its rates from the record `state.terms`:
    C_k = a_k C0 + c_mu R + c_1 p p^T, with a_k = 1 - c_1 - c_mu, the old
    covariance C0, the rank-mu matrix R and the triple's path p. One basis
    V with V^T C0 V = I and V^T R V = diag(d), built from C0's stored
    eigenbasis, diagonalizes a_k C0 + c_mu R for every triple at once, and
    Sherman-Morrison adds the rank-one term; no C_k is ever formed. The
    squared Mahalanobis distances of `pop_new` from `state.mean` rank it
    (largest distance = rank 1, so likelier points get larger rank
    numbers), and the score is the mean rank of the mu_sel best-by-fitness
    candidates. Larger is better; the maximum is attained when the fitness
    winners are exactly the likeliest points. Infeasible triples score
    minus their constraint penalty. Returns the (k,) scores.
    """
    triples = np.asarray(triples, dtype=float)
    if triples.ndim != 2 or triples.shape[1] != AUX_DIM:
        raise DimensionMismatch(f"expected shape (k, {AUX_DIM}), got {triples.shape}")
    if not 1 <= mu_sel <= pop_new.lam:
        raise DimensionMismatch(f"mu_sel={mu_sel} must lie in [1, {pop_new.lam}]")
    scores = -penalty(triples)
    # a sum of max(0, .) terms is 0 exactly when every bound holds; a NaN
    # row compares unequal and stays infeasible
    feasible = scores == 0
    if not feasible.any():
        return scores
    c_1, c_mu, c_c = triples[feasible].T
    t = state.terms
    s = t.eigen.basis / np.sqrt(t.eigen.eigenvalues)
    # eigh, not sym_eigen: R is only semidefinite when mu < n
    d, q = np.linalg.eigh(s.T @ t.rank_mu @ s)
    v = s @ q
    z = (pop_new.candidates - state.mean) @ v
    beta = t.h_sigma * np.sqrt(c_c * (2.0 - c_c)) * math.sqrt(t.mu_w)
    u = np.outer(1.0 - c_c, t.path_c @ v) + np.outer(beta, t.step @ v)
    inv_d = 1.0 / ((1.0 - c_1 - c_mu)[:, None] + c_mu[:, None] * d)
    u_d = u * inv_d
    # (lambda, k) squared distances; they rank like distances, and no root
    # merges near-ties
    dist = (z * z) @ inv_d.T - c_1 * (z @ u_d.T) ** 2 / (
        1.0 + c_1 * np.add.reduce(u * u_d, axis=1)
    )
    ranks = descending_ranks(dist.T)
    # fancy indexing returns a non-contiguous array, whose axis-1 sum adds in
    # another order; on C-contiguous rows each row sums pairwise, bit for bit
    # like a 1-D sum of that row
    top = np.ascontiguousarray(ranks[:, pop_new.order[:mu_sel]])
    scores[feasible] = np.add.reduce(top * (1.0 / mu_sel), axis=1)
    return scores


@dataclass(frozen=True, eq=False)
class RateSearch:
    """The auxiliary optimizer over rate triples and its private random stream."""

    aux: CmaState
    rng: RngStream

    @property
    def rates(self) -> tuple[float, float, float]:
        """The auxiliary mean, decoded and projected: (c_1, c_mu, c_c) to inject."""
        return project_feasible(*decode(self.aux.mean))


def init_search(rng: RngStream) -> RateSearch:
    """A fresh rate search drawing from `rng`.

    The auxiliary optimizer starts from a mean drawn uniformly in the unit
    box from `rng` with step-size AUX_SIGMA0 and population size
    DEFAULT_LAMBDA_H; its rates are the primary's initial ones.
    """
    aux_params = core.default_params(AUX_DIM, DEFAULT_LAMBDA_H)
    aux_mean = rng.uniform_vector(0.0, 1.0, AUX_DIM)
    aux = core.initial_state(aux_params, aux_mean, AUX_SIGMA0)
    return RateSearch(aux=aux, rng=rng)


def self_step(search: RateSearch, state: CmaState, advanced: CmaState) -> RateSearch:
    """One auxiliary generation after the primary went `state` -> `advanced`.

    Ask, evaluate, tell: samples DEFAULT_LAMBDA_H unit-box points, scores
    their decoded rate triples in one `h_objective` call on the update that
    produced `state`, ranking `advanced.last_pop` by its primary's selection
    size, and updates the auxiliary on minus those scores. The primary is
    not touched; its next rates are the returned `rates`.
    """
    u = core.sample_population(search.aux, search.rng)
    scores = h_objective(decode(u), state, advanced.last_pop, state.params.mu)
    return RateSearch(core.update_distribution(search.aux, u, -scores), search.rng)
