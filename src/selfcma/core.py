"""The (mu/mu_w, lambda) CMA-ES state machine.

States are immutable values, stepped ask/tell style: `update_distribution`
ranks the candidates `sample_population` drew by their fitness and returns
a fresh state. It records the rate-free terms of its covariance update on
that state, from which the hyper-parameter adaptation layer scores other
learning rates in closed form; `covariance_update` is the explicit form of
that update under any rates, the one the tests check the scores against.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    InvalidDimension,
    InvalidLambda,
    NonFiniteFitness,
    NonFiniteState,
)
from .linalg import EigenDecomp
from .rng import RngStream

# Benchmark-convention initial distribution: mean uniform in INIT_BOX^n,
# step-size INIT_SIGMA, identity covariance.
INIT_SIGMA = 2.0
INIT_BOX = (-4.0, 4.0)


def default_lambda(n: int) -> int:
    """4 + floor(3 ln n), the standard population size for dimension n."""
    if n < 1:
        raise InvalidDimension(f"n must be >= 1, got {n}")
    return 4 + int(math.floor(3.0 * math.log(n)))


@dataclass(frozen=True, eq=False)
class StrategyParams:
    """Scalar hyper-parameters of one CMA-ES instance.

    Only `n` and `lam` are given; the rest follow from them with the usual
    cumulation and rank-based update constants, and only `with_cov_rates`
    changes the three covariance rates afterwards.

    Attributes:
        n: search-space dimension.
        lam: population size (number of candidates per generation).
        mu: number of selected parents, floor(lam / 2).
        weights: (mu,) log-linear recombination weights
            w_i ~ ln(mu + 1/2) - ln(i), positive, non-increasing, sum 1.
        mu_w: variance-effective selection mass, 1 / sum(weights^2).
        c_sigma: step-size path learning rate, in (0, 1].
        d_sigma: step-size damping, > 0.
        c_c: covariance path learning rate, in [0, 1]; at 0 the path holds
            its value.
        c_1: rank-one covariance learning rate, >= 0.
        c_mu: rank-mu covariance learning rate, >= 0; c_1 + c_mu <= 1.
        chi_n, h_sigma_factor: E||N(0, I_n)|| and the stall threshold's 1.4 + 2/(n+1).
    """

    n: int
    lam: int
    mu: int = field(init=False)
    weights: np.ndarray = field(init=False)
    mu_w: float = field(init=False)
    c_sigma: float = field(init=False)
    d_sigma: float = field(init=False)
    c_c: float = field(init=False)
    c_1: float = field(init=False)
    c_mu: float = field(init=False)
    chi_n: float = field(init=False)
    h_sigma_factor: float = field(init=False)

    def __post_init__(self):
        n, lam = self.n, self.lam
        if n < 1:
            raise InvalidDimension(f"n must be >= 1, got {n}")
        if lam < 2:
            raise InvalidLambda(f"lam must be >= 2, got {lam}")
        mu = lam // 2
        raw = math.log(mu + 0.5) - np.log(np.arange(1, mu + 1, dtype=float))
        weights = raw / raw.sum()
        mu_w = 1.0 / float(np.sum(weights**2))
        c_sigma = (mu_w + 2.0) / (n + mu_w + 3.0)
        d_sigma = 1.0 + c_sigma + 2.0 * max(
            0.0, math.sqrt((mu_w - 1.0) / (n + 1.0)) - 1.0
        )
        c_c = 4.0 / (n + 4.0)
        c_1 = 2.0 / ((n + 1.3) ** 2 + mu_w)
        # Cap keeps the covariance decay factor non-negative for any (n, lam);
        # it only binds for very large populations in very low dimension.
        c_mu = min(
            1.0 - c_1,
            2.0 * (mu_w - 2.0 + 1.0 / mu_w) / ((n + 2.0) ** 2 + mu_w),
        )
        self.__dict__.update(
            mu=mu,
            weights=weights,
            mu_w=mu_w,
            c_sigma=c_sigma,
            d_sigma=d_sigma,
            c_c=c_c,
            c_1=c_1,
            c_mu=c_mu,
            chi_n=math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n)),
            h_sigma_factor=1.4 + 2.0 / (n + 1.0),
        )

    def with_cov_rates(self, c_1: float, c_mu: float, c_c: float) -> "StrategyParams":
        """Copy of these parameters with the three covariance rates replaced.

        Raises:
            ValueError: unless c_c lies in [0, 1], c_1 and c_mu are >= 0 and
                c_1 + c_mu <= 1.
        """
        c_1, c_mu, c_c = float(c_1), float(c_mu), float(c_c)
        if not 0.0 <= c_c <= 1.0:
            raise ValueError(f"c_c must lie in [0, 1], got {c_c}")
        if c_1 < 0.0 or c_mu < 0.0:
            raise ValueError("c_1 and c_mu must be >= 0")
        if c_1 + c_mu > 1.0:
            raise ValueError(f"c_1 + c_mu must be <= 1, got {c_1 + c_mu}")
        copied = copy.copy(self)
        copied.__dict__.update(c_1=c_1, c_mu=c_mu, c_c=c_c)
        return copied


def default_params(n: int, lam: int | None = None) -> StrategyParams:
    """Standard parameter set for dimension n; lam defaults to 4 + floor(3 ln n)."""
    return StrategyParams(n, default_lambda(n) if lam is None else lam)


@dataclass(frozen=True, eq=False)
class EvaluatedPopulation:
    """A generation's candidates, their fitness, and a stable ascending ranking.

    `order` is the permutation that sorts fitness ascending; ties keep the
    lower candidate index first, so the ranking is reproducible bit for bit.
    """

    candidates: np.ndarray  # (lam, n)
    fitness: np.ndarray  # (lam,)
    order: np.ndarray  # (lam,) permutation of 0..lam-1

    @property
    def lam(self) -> int:
        return self.candidates.shape[0]

    @property
    def best_fitness(self) -> float:
        return float(self.fitness[self.order[0]])

    @property
    def median_fitness(self) -> float:
        """Lower median of the fitness values."""
        ranked = self.fitness[self.order]
        return float(ranked[(self.lam - 1) // 2])


@dataclass(frozen=True, eq=False)
class UpdateTerms:
    """What a covariance update reads besides its rates. It holds the pre-update
    `path_c`, `cov` and `eigen` by reference, not that state, so states do not
    chain in memory; `eigen` is the decomposition `sym_eigen` accepted when the
    pre-update state was built, which rate scoring whitens through."""

    path_c: np.ndarray  # (n,) pre-update covariance path
    cov: np.ndarray  # (n, n) pre-update covariance
    eigen: EigenDecomp  # eigenbasis of the pre-update covariance
    mu_w: float  # variance-effective selection mass
    step: np.ndarray  # (n,) mean shift over the pre-update step-size
    h_sigma: float  # stall indicator, 1.0 or 0.0
    rank_mu: np.ndarray  # (n, n) weighted outer products of the selected steps


@dataclass(frozen=True, eq=False)
class CmaState:
    """Full strategy state after `gen` completed generations.

    `eigen` always decomposes `cov`; it is carried along so samplers never
    recompute it. `last_pop` is the population whose update produced this
    state and `terms` the record of that update's covariance half (both
    None for an initial state): the rate search scores candidate rates
    on it from this state alone.
    """

    params: StrategyParams
    mean: np.ndarray
    sigma: float
    cov: np.ndarray
    path_sigma: np.ndarray
    path_c: np.ndarray
    gen: int
    eigen: EigenDecomp
    last_pop: EvaluatedPopulation | None
    terms: UpdateTerms | None


def initial_state(params: StrategyParams, mean, sigma: float) -> CmaState:
    """Fresh state: identity covariance, zero evolution paths, generation 0."""
    mean = np.asarray(mean, dtype=float)
    if mean.shape != (params.n,):
        raise DimensionMismatch(f"mean shape {mean.shape} != ({params.n},)")
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be a positive finite number, got {sigma}")
    cov = np.eye(params.n)
    return CmaState(
        params=params,
        mean=mean,
        sigma=float(sigma),
        cov=cov,
        path_sigma=np.zeros(params.n),
        path_c=np.zeros(params.n),
        gen=0,
        eigen=linalg.sym_eigen(cov),
        last_pop=None,
        terms=None,
    )


def sample_population(state: CmaState, rng: RngStream) -> np.ndarray:
    """Draw lam candidates x_k = m + sigma * B diag(sqrt(w)) z_k, z_k ~ N(0, I).

    Returns a (lam, n) array; candidate k consumes the k-th n-vector of
    standard normals from `rng`.
    """
    p = state.params
    z = rng.standard_normal_matrix(p.lam, p.n)
    scaled = z * np.sqrt(state.eigen.eigenvalues)
    return state.mean + state.sigma * (scaled @ state.eigen.basis.T)


def covariance_update(
    terms: UpdateTerms, c_1: float, c_mu: float, c_c: float
) -> tuple[np.ndarray, np.ndarray]:
    """(path_c, C) of the rank-one plus rank-mu update recorded in `terms`,
    with the rates (c_1, c_mu, c_c).

    C is symmetrized before it is returned, so that floating-point drift
    accumulated across many updates cannot leak into the eigenbasis.
    """
    path_c = (1.0 - c_c) * terms.path_c + terms.h_sigma * math.sqrt(
        c_c * (2.0 - c_c)
    ) * math.sqrt(terms.mu_w) * terms.step
    cov = (
        (1.0 - c_1 - c_mu) * terms.cov
        + c_1 * np.outer(path_c, path_c)
        + c_mu * terms.rank_mu
    )
    return path_c, linalg.symmetrize(cov)


def update_distribution(state: CmaState, candidates, fitness) -> CmaState:
    """One full distribution update from the (lam, n) candidates drawn from
    `state` and their (lam,) fitness values, ranked into the new `last_pop`.

    In order: a stable ascending sort of the fitness, weighted recombination
    of the mean, conjugate evolution path and step-size update, the stall
    indicator h_sigma, and the covariance update of `covariance_update`. The
    step-size path is whitened with the inverse square root of the current
    (pre-update) covariance.

    Raises:
        DimensionMismatch: if the shapes are not (lam, n) and (lam,).
        NonFiniteFitness: if any fitness value is NaN.
        NonFiniteState: if any updated field is NaN or infinite.
        NonPositiveDefinite: if the updated covariance is degenerate.
    """
    p = state.params
    candidates = np.asarray(candidates, dtype=float)
    fitness = np.asarray(fitness, dtype=float)
    if candidates.shape != (p.lam, p.n) or fitness.shape != (p.lam,):
        raise DimensionMismatch(
            f"candidates {candidates.shape} and fitness {fitness.shape} do not "
            f"match params (lam={p.lam}, n={p.n})"
        )
    if np.any(np.isnan(fitness)):
        bad = int(np.flatnonzero(np.isnan(fitness))[0])
        raise NonFiniteFitness(f"objective returned NaN for candidate {bad}")
    pop = EvaluatedPopulation(candidates, fitness, np.argsort(fitness, kind="stable"))

    selected = pop.candidates[pop.order[: p.mu]]
    new_mean = p.weights @ selected
    step = (new_mean - state.mean) / state.sigma

    inv_sqrt_c = linalg.inv_sqrt(state.eigen)
    path_sigma = (1.0 - p.c_sigma) * state.path_sigma + math.sqrt(
        p.c_sigma * (2.0 - p.c_sigma)
    ) * math.sqrt(p.mu_w) * (inv_sqrt_c @ step)
    ps_norm = math.sqrt(path_sigma.dot(path_sigma))

    t_next = state.gen + 1
    threshold = (
        math.sqrt(1.0 - (1.0 - p.c_sigma) ** (2 * t_next))
        * p.h_sigma_factor
        * p.chi_n
    )
    h_sigma = 1.0 if ps_norm < threshold else 0.0

    steps = (selected - state.mean) / state.sigma
    rank_mu = (steps.T * p.weights) @ steps
    terms = UpdateTerms(
        state.path_c, state.cov, state.eigen, p.mu_w, step, h_sigma, rank_mu
    )
    path_c, new_cov = covariance_update(terms, p.c_1, p.c_mu, p.c_c)

    new_sigma = state.sigma * math.exp(
        (p.c_sigma / p.d_sigma) * (ps_norm / p.chi_n - 1.0)
    )

    if not (
        np.isfinite(new_mean).all()
        and np.isfinite(path_sigma).all()
        and np.isfinite(path_c).all()
        and np.isfinite(new_cov).all()
        and math.isfinite(new_sigma)
        and new_sigma > 0.0
    ):
        raise NonFiniteState(f"strategy state diverged at generation {t_next}")

    eigen = linalg.sym_eigen(new_cov)
    return CmaState(
        params=p,
        mean=new_mean,
        sigma=new_sigma,
        cov=new_cov,
        path_sigma=path_sigma,
        path_c=path_c,
        gen=t_next,
        eigen=eigen,
        last_pop=pop,
        terms=terms,
    )


def generation(objective, state: CmaState, rng: RngStream) -> CmaState:
    """Ask, evaluate (lam calls of `objective`, one per candidate), tell."""
    candidates = sample_population(state, rng)
    fitness = [float(objective(x)) for x in candidates]
    return update_distribution(state, candidates, fitness)
