"""Strategy constants against frozen oracle values, and the update rule
against the straight-line reference transcription."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selfcma as sc
from conftest import make_random_pop, make_random_state, state_as_dict
from reference_impl import reference_default_params, reference_update
from selfcma import core, linalg
from selfcma.errors import (
    DimensionMismatch,
    InvalidDimension,
    InvalidLambda,
    NonFiniteFitness,
    NonFiniteState,
    NonPositiveDefinite,
    SelfCmaError,
)

# Frozen from reference_default_params / the closed-form expressions.
N10_LAM10 = {
    "mu_w": 3.1672992814107017,
    "c_sigma": 0.3196142529106334,
    "d_sigma": 1.3196142529106334,
    "c_c": 0.2857142857142857,
    "c_1": 0.015283824524751714,
    "c_mu": 0.02015428276120837,
}
N10_LAM100 = {
    "mu_w": 26.96665506465105,
    "c_sigma": 0.7247705623048482,
    "d_sigma": 2.797622661496977,
    "c_c": 0.2857142857142857,
    "c_1": 0.012931871565203196,
    "c_mu": 0.29249841601503435,
}


def test_default_lambda_values():
    assert core.default_lambda(2) == 6
    assert core.default_lambda(10) == 10
    assert core.default_lambda(20) == 12
    assert core.default_lambda(40) == 15


def test_default_weights_mu2_frozen():
    w = sc.default_params(10, 4).weights  # mu = 2
    np.testing.assert_allclose(
        w, [0.8041628599327295, 0.19583714006727054], rtol=1e-15
    )


@pytest.mark.parametrize(
    "lam,frozen", [(10, N10_LAM10), (100, N10_LAM100)]
)
def test_default_params_n10_frozen(lam, frozen):
    p = sc.default_params(10, lam)
    assert p.mu == lam // 2
    for name, expected in frozen.items():
        got = getattr(p, "mu_w" if name == "mu_w" else name)
        assert got == pytest.approx(expected, rel=1e-14), name


@given(n=st.integers(2, 30), lam=st.integers(4, 64))
@settings(max_examples=60, deadline=None)
def test_default_params_match_reference(n, lam):
    p = sc.default_params(n, lam)
    ref = reference_default_params(n, lam)
    np.testing.assert_allclose(p.weights, ref["weights"], rtol=1e-14)
    for key in ("mu_w", "c_sigma", "d_sigma", "c_c", "c_1", "c_mu"):
        assert getattr(p, key) == pytest.approx(ref[key], rel=1e-13), key
    assert p.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(p.weights) <= 0)
    assert 1.0 <= p.mu_w <= p.mu
    assert p.c_1 + p.c_mu <= 1.0


def test_expected_norm_frozen_values():
    # chi_n = E||N(0, I_n)||, a derived field of the strategy parameters
    chi_1 = core.StrategyParams(1, 2).chi_n
    assert chi_1 == pytest.approx(0.7976190476190477, rel=1e-15)
    chi_10 = core.StrategyParams(10, 10).chi_n
    assert chi_10 == pytest.approx(3.0847265651690123, rel=1e-15)
    with pytest.raises(InvalidDimension):
        core.StrategyParams(0, 2)


def test_params_validation():
    with pytest.raises(InvalidLambda):
        core.StrategyParams(4, 1)
    with pytest.raises(InvalidDimension):
        core.StrategyParams(0, 8)
    with pytest.raises(InvalidLambda):
        sc.default_params(4, 1)
    # n and lam are the only settable fields; the rest follow from them
    settable = [f.name for f in dataclasses.fields(core.StrategyParams) if f.init]
    assert settable == ["n", "lam"]
    good = sc.default_params(4, 8)
    derived = {
        "mu": 2,
        "weights": good.weights[::-1].copy(),
        "mu_w": 1.0,
        "c_sigma": 0.0,
        "d_sigma": 1.0,
        "c_c": 0.0,
        "c_1": 0.8,
        "c_mu": 0.4,
        "chi_n": 2.0,
        "h_sigma_factor": 1.8,
        "path_sigma_factor": 1.0,
    }
    for name, value in derived.items():
        with pytest.raises(ValueError):
            dataclasses.replace(good, **{name: value})
    # a zero path rate holds the path; the rate search can project c_c to 0
    assert good.with_cov_rates(good.c_1, good.c_mu, 0.0).c_c == 0.0
    with pytest.raises(ValueError):
        good.with_cov_rates(good.c_1, good.c_mu, -1e-12)


def test_with_cov_rates_replaces_only_rates():
    p = sc.default_params(6, 12)
    q = p.with_cov_rates(0.1, 0.2, 0.3)
    assert (q.c_1, q.c_mu, q.c_c) == (0.1, 0.2, 0.3)
    assert q.c_sigma == p.c_sigma and q.lam == p.lam
    assert (q.chi_n, q.h_sigma_factor) == (p.chi_n, p.h_sigma_factor)
    assert q.path_sigma_factor == p.path_sigma_factor
    np.testing.assert_array_equal(q.weights, p.weights)
    assert (p.c_1, p.c_mu, p.c_c) != (0.1, 0.2, 0.3)  # p is not changed
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.c_1 = 0.5
    # the replaced rates are still checked
    bad_rates = (
        (0.1, 0.2, 1.5),
        (-0.1, 0.2, 0.3),
        (0.6, 0.5, 0.3),
        (math.nan, 0.1, 0.5),
        (0.1, math.nan, 0.5),
    )
    for bad in bad_rates:
        with pytest.raises(ValueError):
            p.with_cov_rates(*bad)


def test_covariance_update_matches_the_written_out_update():
    state = make_random_state(seed=90, n=4, lam=8)
    pop = make_random_pop(state, seed=91)
    updated = sc.update_distribution(state, pop.candidates, pop.fitness)
    # the record holds the pre-update arrays themselves, not copies
    assert updated.terms.path_c is state.path_c and updated.terms.cov is state.cov
    assert updated.terms.eigen is state.eigen
    # under the update's own rates it reproduces the update bit for bit
    p = state.params
    path, cov = core.covariance_update(updated.terms, p.c_1, p.c_mu, p.c_c)
    np.testing.assert_array_equal(path, updated.path_c)
    np.testing.assert_array_equal(cov, updated.cov)
    rates = sc.RngStream(92).uniform_vector(0.0, 0.45, 3 * 7).reshape(7, 3)
    for h_sigma in (updated.terms.h_sigma, 0.0):
        terms = dataclasses.replace(updated.terms, h_sigma=h_sigma)
        for c_1, c_mu, c_c in rates.tolist():
            # the update written out for one triple of floats
            want_path = (1.0 - c_c) * state.path_c + terms.h_sigma * math.sqrt(
                c_c * (2.0 - c_c)
            ) * math.sqrt(state.params.mu_w) * terms.step
            want_cov = sc.linalg.symmetrize(
                (1.0 - c_1 - c_mu) * state.cov
                + c_1 * np.outer(want_path, want_path)
                + c_mu * terms.rank_mu
            )
            path, cov = core.covariance_update(terms, c_1, c_mu, c_c)
            np.testing.assert_array_equal(path, want_path)
            np.testing.assert_array_equal(cov, want_cov)


def _same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, lam", [(3, 20), (10, 100), (40, 15)])
def test_in_place_forms_match_the_written_out_forms_bit_for_bit(n, lam):
    # the stored roots and the arrays built in place carry the bits of the
    # expressions they replace, for the same draw
    state = make_random_state(seed=70 + n, n=n, lam=lam, cond_exp=3.0)
    b, w = state.eigen.basis, state.eigen.eigenvalues
    _same_bits(state.eigen.sqrt_eigenvalues, np.sqrt(w))
    _same_bits(state.eigen.whitener, b / np.sqrt(w))
    _same_bits(linalg.inv_sqrt(state.eigen), linalg.symmetrize((b / np.sqrt(w)) @ b.T))
    lopsided = sc.RngStream(n).standard_normal_matrix(n, n)
    _same_bits(linalg.symmetrize(lopsided), (lopsided + lopsided.T) / 2.0)
    z = sc.RngStream(71).standard_normal_matrix(lam, n)
    _same_bits(
        core.sample_population(state, sc.RngStream(71)),
        state.mean + state.sigma * ((z * np.sqrt(w)) @ b.T),
    )
    # the update's step, step-size path and rank-mu matrix
    pop = make_random_pop(state, seed=72)
    updated = core.update_distribution(state, pop.candidates, pop.fitness)
    p = state.params
    selected = pop.candidates[pop.order[: p.mu]]
    step = (p.weights @ selected - state.mean) / state.sigma
    _same_bits(updated.terms.step, step)
    _same_bits(
        updated.path_sigma,
        (1.0 - p.c_sigma) * state.path_sigma
        + math.sqrt(p.c_sigma * (2.0 - p.c_sigma))
        * math.sqrt(p.mu_w)
        * (linalg.inv_sqrt(state.eigen) @ step),
    )
    steps = (selected - state.mean) / state.sigma
    _same_bits(updated.terms.rank_mu, (steps.T * p.weights) @ steps)


def test_initial_state_shape_and_validation():
    p = sc.default_params(5)
    s = sc.initial_state(p, np.zeros(5), 2.0)
    assert s.gen == 0 and s.last_pop is None and s.terms is None
    np.testing.assert_array_equal(s.cov, np.eye(5))
    np.testing.assert_array_equal(s.path_sigma, np.zeros(5))
    with pytest.raises(DimensionMismatch):
        sc.initial_state(p, np.zeros(4), 2.0)
    with pytest.raises(ValueError):
        sc.initial_state(p, np.zeros(5), 0.0)


def test_sample_population_distribution_shape():
    # with C = diag(4, 1) the first coordinate should spread twice as wide
    p = sc.default_params(2, 400)
    state = make_random_state(seed=50, n=2, lam=400)
    cov = np.diag([4.0, 1.0])
    state = dataclasses.replace(
        state,
        params=p,
        mean=np.array([1.0, -2.0]),
        sigma=0.5,
        cov=cov,
        eigen=sc.linalg.sym_eigen(cov),
    )
    xs = sc.sample_population(state, sc.RngStream(8))
    assert xs.shape == (400, 2)
    centered = xs - state.mean
    assert np.std(centered[:, 0]) == pytest.approx(2 * 0.5, rel=0.15)
    assert np.std(centered[:, 1]) == pytest.approx(1 * 0.5, rel=0.15)


def test_population_ordering_is_stable():
    state = make_random_state(seed=81, n=2, lam=4)
    cands = sc.sample_population(state, sc.RngStream(82))
    pop = sc.update_distribution(state, cands, [3.0, 1.0, 3.0, 0.5]).last_pop
    np.testing.assert_array_equal(pop.order, [3, 1, 0, 2])
    assert pop.best_fitness == 0.5
    assert pop.median_fitness == 1.0  # lower median of (0.5, 1, 3, 3)


def test_population_rejects_nan_fitness():
    state = make_random_state(seed=83, n=1, lam=2)
    with pytest.raises(NonFiniteFitness, match="candidate 1"):
        sc.update_distribution(state, np.zeros((2, 1)), [0.0, np.nan])


def test_population_accepts_inf_fitness():
    state = make_random_state(seed=84, n=1, lam=2)
    new = sc.update_distribution(state, np.zeros((2, 1)), [np.inf, 1.0])
    assert new.last_pop.best_fitness == 1.0


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("n,lam", [(2, 4), (3, 6), (5, 12)])
def test_update_matches_reference(seed, n, lam):
    state = make_random_state(seed=1000 + seed, n=n, lam=lam)
    pop = make_random_pop(state, seed=2000 + seed)
    new = sc.update_distribution(state, pop.candidates, pop.fitness)
    ref = reference_update(
        candidates=pop.candidates, fitness=pop.fitness, **state_as_dict(state)
    )
    for field, got in (
        ("mean", new.mean),
        ("p_sigma", new.path_sigma),
        ("p_c", new.path_c),
        ("cov", new.cov),
    ):
        expected = np.asarray(ref[field])
        err = np.max(np.abs(got - expected)) / max(np.max(np.abs(expected)), 1e-30)
        assert err <= 1e-12, field
    assert new.sigma == pytest.approx(ref["sigma"], rel=1e-12)
    assert new.gen == ref["gen"]


def test_update_advances_gen_and_stores_pop():
    state = make_random_state(seed=77, n=3, lam=6)
    pop = make_random_pop(state, seed=78)
    new = sc.update_distribution(state, pop.candidates, pop.fitness)
    assert new.gen == state.gen + 1
    for field in ("candidates", "fitness", "order"):
        np.testing.assert_array_equal(
            getattr(new.last_pop, field), getattr(pop, field)
        )


def test_update_shape_mismatch():
    state = make_random_state(seed=79, n=3, lam=6)
    other = make_random_state(seed=79, n=4, lam=6)
    pop = make_random_pop(other, seed=80)
    with pytest.raises(DimensionMismatch):
        sc.update_distribution(state, pop.candidates, pop.fitness)
    pop = make_random_pop(state, seed=80)
    with pytest.raises(DimensionMismatch):
        sc.update_distribution(state, pop.candidates, pop.fitness[:5])


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_update_invariants(seed):
    state = make_random_state(seed=seed, n=4, lam=8)
    pop = make_random_pop(state, seed=seed + 1)
    new = sc.update_distribution(state, pop.candidates, pop.fitness)
    assert new.sigma > 0
    np.testing.assert_array_equal(new.cov, new.cov.T)
    assert np.all(new.eigen.eigenvalues > 0)
    # decay keeps at least (1 - c_1 - c_mu) of a positive definite matrix
    floor = (1 - new.params.c_1 - new.params.c_mu) * state.eigen.eigenvalues[0]
    assert new.eigen.eigenvalues[0] >= floor * (1 - 1e-9)


def test_generation_advances_bookkeeping():
    state = make_random_state(seed=90, n=3, lam=6)
    calls = []

    def objective(x):
        calls.append(np.array(x))
        return float(np.sum(x**2))

    new = core.generation(objective, state, sc.RngStream(91))
    assert len(calls) == 6
    assert new.gen == state.gen + 1
    assert new.last_pop is not None
    np.testing.assert_array_equal(np.stack(calls), new.last_pop.candidates)


def test_generation_deterministic_per_stream():
    state = make_random_state(seed=92, n=3, lam=6)

    def objective(x):
        return float(np.sum(x**2))

    a = core.generation(objective, state, sc.RngStream(93))
    b = core.generation(objective, state, sc.RngStream(93))
    # the same generation as an ask/tell loop on the exported names
    rng = sc.RngStream(93)
    X = sc.sample_population(state, rng)
    c = sc.update_distribution(state, X, [objective(x) for x in X])
    for other in (b, c):
        np.testing.assert_array_equal(a.mean, other.mean)
        assert a.sigma == other.sigma
        np.testing.assert_array_equal(a.cov, other.cov)
    np.testing.assert_array_equal(a.last_pop.order, c.last_pop.order)


def _non_finite_cases():
    """(label, call, error class, exact message): every refusal of an update
    or a decomposition, a non-finite value or a degenerate covariance."""
    state = make_random_state(seed=95, n=3, lam=8)
    pop = make_random_pop(state, seed=96)
    cands, fit = pop.candidates, pop.fitness
    nan_fit = fit.copy()
    nan_fit[[2, 5]] = np.nan
    inf_cand = cands.copy()
    inf_cand[pop.order[1], 0] = np.inf
    nan_n = np.array([np.nan, 0.0, 0.0])
    inf_cov = state.cov.copy()
    inf_cov[0, 1] = inf_cov[1, 0] = np.inf
    diverged = "strategy state diverged at generation %d" % (state.gen + 1)
    # c_1 = 0 and c_mu = 1 keep only the rank-mu matrix, of one step along
    # the first axis: finite but singular, so the update re-raises it as is
    two = core.StrategyParams(2, 2)
    flat = core.initial_state(two, np.zeros(2), 1.0).with_params(
        two.with_cov_rates(0.0, 1.0, 0.5)
    )
    singular = "eigenvalue range [0.000000e+00, 1.000000e+00] is degenerate"

    def update(st, x=cands, f=fit):
        return lambda: core.update_distribution(st, x, f)

    return [
        ("nan fitness", update(state, f=nan_fit), NonFiniteFitness,
         "objective returned NaN for candidate 2"),
        ("inf selected candidate", update(state, x=inf_cand), NonFiniteState, diverged),
        ("nan path_sigma", update(dataclasses.replace(state, path_sigma=nan_n)),
         NonFiniteState, diverged),
        ("nan path_c", update(dataclasses.replace(state, path_c=nan_n)),
         NonFiniteState, diverged),
        ("inf cov", update(dataclasses.replace(state, cov=inf_cov)), NonFiniteState,
         diverged),
        ("sym_eigen on nan", lambda: linalg.sym_eigen(np.full((3, 3), np.nan)),
         NonPositiveDefinite, "non-finite entries"),
        ("degenerate cov", update(flat, x=[[1.0, 0.0], [2.0, 0.0]], f=[0.0, 1.0]),
         NonPositiveDefinite, singular),
    ]


@pytest.mark.parametrize("label", [case[0] for case in _non_finite_cases()])
def test_non_finite_errors_are_pinned(label):
    # class (not a subclass) and exact message of every refusal
    (call, cls, message), = [c[1:] for c in _non_finite_cases() if c[0] == label]
    with pytest.raises(SelfCmaError) as info:
        call()
    assert type(info.value) is cls
    assert str(info.value) == message


@pytest.mark.parametrize("scale", [1e4, 1e100])
def test_step_size_overflow_is_a_non_finite_state(scale):
    # a step so long that exp() of the step-size exponent passes the
    # largest double: the new sigma is infinite, which the update refuses
    p = core.default_params(3, 8)
    s = core.initial_state(p, np.zeros(3), 1.0)
    with pytest.raises(NonFiniteState, match="^strategy state diverged at generation 1$"):
        core.update_distribution(s, np.full((8, 3), scale), np.arange(8.0))
    # a shorter one still updates, with a finite step size
    shorter = core.update_distribution(s, np.full((8, 3), 1e3), np.arange(8.0))
    assert math.isfinite(shorter.sigma)
