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

# The stacked arithmetic's constants as 0-d arrays: numpy 2 takes an array
# operand faster than a Python float, and the float operations are the same.
_ZERO, _ONE, _TWO = np.zeros(()), np.ones(()), np.full((), 2.0)
_BOX_HIGH, _PENALTY_SCALE = np.full((), BOX_HIGH), np.full((), PENALTY_SCALE)


def decode(u) -> np.ndarray:
    """Scale unit-box points by BOX_HIGH: (..., 3) -> (..., 3) rate triples
    (c_1, c_mu, c_c), one per row; the results may be infeasible."""
    u = np.asarray(u, dtype=float)
    if u.ndim == 0 or u.shape[-1] != AUX_DIM:
        raise DimensionMismatch(f"expected shape (..., {AUX_DIM}), got {u.shape}")
    return u * _BOX_HIGH


def penalty(triples) -> np.ndarray:
    """PENALTY_SCALE times each row's total constraint violation; 0 iff feasible.

    The violations are added column by column, c_1 then c_mu then c_c, then
    the joint cap, so each entry has the bits of a scalar left-to-right sum.
    That sum starts from the c_1 violation, not from 0.0: the two agree, since
    a violation is +0.0, positive, inf or NaN, never -0.0.
    """
    h = np.asarray(triples, dtype=float)
    w = np.maximum(_ZERO, -h)
    w += np.maximum(_ZERO, h - _BOX_HIGH)
    cap = np.maximum(_ZERO, h[..., 0] + h[..., 1] - _BOX_HIGH)
    total = w[..., 0] + w[..., 1]
    total += w[..., 2]
    total += cap
    total *= _PENALTY_SCALE
    return total


def project_feasible(c_1: float, c_mu: float, c_c: float) -> tuple[float, float, float]:
    """Clamp each rate to [0, BOX_HIGH], then shrink (c_1, c_mu) radially
    onto the joint cap if their sum still exceeds it."""
    c_1 = min(max(float(c_1), 0.0), BOX_HIGH)
    c_mu = min(max(float(c_mu), 0.0), BOX_HIGH)
    c_c = min(max(float(c_c), 0.0), BOX_HIGH)
    # The shrink can round one ulp back above the cap, so repeat until it
    # lands inside; some inputs take three passes, e.g. (0.7503137812981281,
    # 0.8323474016434982), whose first two shrinks sum to 0.9000000000000001.
    while c_1 + c_mu > BOX_HIGH:
        shrink = BOX_HIGH / (c_1 + c_mu)
        c_1 *= shrink
        c_mu *= shrink
    return c_1, c_mu, c_c


def descending_ranks(values) -> np.ndarray:
    """rank[..., i] = 1-based position of values[..., i] in a stable
    descending sort along the last axis, as float64 for averaging.

    The largest value gets rank 1; ties are broken by lower index first.
    """
    values = np.asarray(values, dtype=float)
    rows, lam = math.prod(values.shape[:-1]), values.shape[-1]
    order = (-values).argsort(axis=-1, kind="stable").reshape(rows, lam)
    ranks = np.empty(values.shape)
    # a fresh array is C-contiguous, so its reshape is a view written through
    ranks.reshape(rows, lam)[np.arange(rows)[:, None], order] = np.arange(1.0, lam + 1)
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
    minus their constraint penalty. Returns the (k,) scores. An initial
    state, which no update produced, raises ValueError.
    """
    triples = np.asarray(triples, dtype=float)
    if triples.ndim != 2 or triples.shape[1] != AUX_DIM:
        raise DimensionMismatch(f"expected shape (k, {AUX_DIM}), got {triples.shape}")
    if not 1 <= mu_sel <= pop_new.lam:
        raise DimensionMismatch(f"mu_sel={mu_sel} must lie in [1, {pop_new.lam}]")
    scores = -penalty(triples)
    # a sum of max(0, .) terms is 0 exactly when every bound holds; a NaN
    # row compares unequal and stays infeasible
    (feasible,) = (scores == 0).nonzero()
    if not feasible.size:
        return scores
    t = state.terms
    if t is None:
        raise ValueError("state has no update to score: it is an initial state")
    rates = triples.take(feasible, axis=0)
    # c_1 as a row of rates, c_mu and c_c as (k, 1) columns for broadcasting;
    # keep holds 1 - c_1, 1 - c_mu and 1 - c_c
    c_1, c_mu, c_c = rates[:, 0], rates[:, 1:2], rates[:, 2:]
    keep = _ONE - rates
    s = t.eigen.whitener
    # eigh, not sym_eigen: R is only semidefinite when mu < n
    d, q = np.linalg.eigh(s.T.dot(t.rank_mu).dot(s))
    v = s.dot(q)
    z = (pop_new.candidates - state.mean).dot(v)
    # beta = h sqrt(c_c (2 - c_c)) sqrt(mu_w), u = (1 - c_c) (p V) + beta
    # (step V) and inv_d = 1 / (a + c_mu d), a = 1 - c_1 - c_mu; each product
    # of two factors is commutative, so building them in place keeps the bits
    beta = _TWO - c_c
    beta *= c_c
    np.sqrt(beta, out=beta)
    beta *= t.h_sigma
    beta *= math.sqrt(t.mu_w)
    u = keep[:, 2:] * t.path_c.dot(v)
    u += beta * t.step.dot(v)
    inv_d = c_mu * d
    inv_d += keep[:, :1] - c_mu
    np.divide(_ONE, inv_d, out=inv_d)
    u_d = u * inv_d
    # (lambda, k) squared distances (z z) inv_d^T - c_1 (z u_d^T)^2 / (1 +
    # c_1 sum(u u_d)), built in place in that order; they rank like
    # distances, and no root merges near-ties
    u *= u_d
    denom = np.add.reduce(u, axis=1)
    denom *= c_1
    denom += _ONE
    rank_one = z.dot(u_d.T)
    rank_one *= rank_one
    rank_one *= c_1
    rank_one /= denom
    z *= z
    dist = z.dot(inv_d.T)
    dist -= rank_one
    ranks = descending_ranks(dist.T)
    # `take` returns a new C-contiguous array, whose rows each sum pairwise,
    # bit for bit like a 1-D sum of that row; fancy indexing would return a
    # non-contiguous one, whose axis-1 sum adds in another order
    top = ranks.take(pop_new.order[:mu_sel], axis=1)
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
        return project_feasible(*decode(self.aux.mean).tolist())


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
