"""Shared builders for randomized strategy states and populations."""
import dataclasses

import numpy as np
import pytest

import selfcma as sc
from selfcma import adapt, core, linalg


def in_rate_box(c_1, c_mu, c_c):
    """Whether a rate triple lies in the feasible set, bound by bound."""
    return (
        0.0 <= c_1 <= adapt.BOX_HIGH
        and 0.0 <= c_mu <= adapt.BOX_HIGH
        and 0.0 <= c_c <= adapt.BOX_HIGH
        and c_1 + c_mu <= adapt.BOX_HIGH
    )


def draw_int(stream, low, high):
    """One integer from {low, ..., high - 1}, drawn from `stream`'s generator."""
    return int(stream._gen.integers(low, high))


def make_random_state(seed, n, lam, cond_exp=1.5, gen_max=30):
    """A plausible mid-run CmaState, fully determined by `seed`.

    The covariance is a random rotation of eigenvalues spanning about
    10**(2*cond_exp); paths and mean are modest random vectors, sigma is
    log-uniform around 1.
    """
    rng = sc.RngStream(seed)
    params = sc.default_params(n, lam)
    mean = rng.uniform_vector(-3.0, 3.0, n)
    sigma = 10.0 ** rng.uniform_vector(-1.0, 1.0, 1)[0]
    basis = rng.random_rotation(n)
    eigs = 10.0 ** rng.uniform_vector(-cond_exp, cond_exp, n)
    cov = linalg.symmetrize((basis * eigs) @ basis.T)
    state = sc.initial_state(params, mean, sigma)
    return dataclasses.replace(
        state,
        cov=cov,
        eigen=linalg.sym_eigen(cov),
        path_sigma=0.5 * rng.standard_normal_matrix(1, n)[0],
        path_c=0.5 * rng.standard_normal_matrix(1, n)[0],
        gen=draw_int(rng, 1, gen_max),
    )


def make_random_pop(state, seed):
    """A population sampled from `state` with random smooth fitness."""
    rng = sc.RngStream(seed).child(9)
    candidates = sc.sample_population(state, rng)
    anchor = state.mean + rng.standard_normal_matrix(1, state.params.n)[0]
    fitness = np.array([float(np.sum((x - anchor) ** 2)) for x in candidates])
    return ranked_pop(candidates, fitness)


def ranked_pop(candidates, fitness):
    """An EvaluatedPopulation ranked as `update_distribution` ranks one."""
    fitness = np.asarray(fitness, dtype=float)
    return core.EvaluatedPopulation(
        candidates, fitness, np.argsort(fitness, kind="stable")
    )


def state_as_dict(state):
    """The fields `reference_impl` functions expect, from a CmaState."""
    p = state.params
    return {
        "n": p.n,
        "mu": p.mu,
        "weights": p.weights,
        "mu_w": p.mu_w,
        "c_sigma": p.c_sigma,
        "d_sigma": p.d_sigma,
        "c_c": p.c_c,
        "c_1": p.c_1,
        "c_mu": p.c_mu,
        "mean": state.mean,
        "sigma": state.sigma,
        "cov": state.cov,
        "p_sigma": state.path_sigma,
        "p_c": state.path_c,
        "t": state.gen,
    }


@pytest.fixture
def small_state():
    return make_random_state(seed=101, n=3, lam=6)
