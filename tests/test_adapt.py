"""Rate encoding, penalties, the rank-agreement score, and the rate search."""
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import selfcma as sc
from conftest import (
    in_rate_box,
    make_random_pop,
    make_random_state,
    ranked_pop,
    state_as_dict,
)
from reference_impl import reference_h
from selfcma import adapt, core, linalg, restart
from selfcma.errors import DimensionMismatch, NonPositiveDefinite

triples = st.tuples(
    st.floats(-0.5, 1.4),
    st.floats(-0.5, 1.4),
    st.floats(-0.5, 1.4),
)


@given(u=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)))
@settings(max_examples=80, deadline=None)
def test_decode_maps_unit_box_to_rate_box(u):
    c_1, c_mu, c_c = adapt.decode(np.array(u))
    assert 0.0 <= c_1 <= adapt.BOX_HIGH
    assert 0.0 <= c_mu <= adapt.BOX_HIGH
    assert 0.0 <= c_c <= adapt.BOX_HIGH
    np.testing.assert_array_equal([c_1, c_mu, c_c], np.array(u) * adapt.BOX_HIGH)
    # a stack decodes row by row
    np.testing.assert_array_equal(
        adapt.decode(np.array([u, u])), [[c_1, c_mu, c_c]] * 2
    )


@given(t=st.lists(triples, min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_penalty_positive_iff_infeasible(t):
    penalty = adapt.penalty(np.array(t))
    assert penalty.shape == (len(t),)
    for triple, v in zip(t, penalty):
        if in_rate_box(*triple):
            assert v == 0.0
        else:
            assert v > 0.0


def _one_rate_replaced(t, i, value):
    return tuple(value if j == i else c for j, c in enumerate(t))


# Signed zeros, and rows with one infinite rate: the penalty's sum starts
# from the c_1 violation instead of 0.0, which is exact only because every
# violation is +0.0, positive or inf. A row never holds +inf and -inf in
# c_1 and c_mu together: their joint sum is NaN, which Python's `max` drops
# and numpy's `maximum` propagates.
edge_triples = st.tuples(*[st.floats(-0.5, 1.4) | st.sampled_from([-0.0, 0.0])] * 3)
penalty_rows = edge_triples | st.builds(
    _one_rate_replaced,
    edge_triples,
    st.integers(0, 2),
    st.sampled_from([math.inf, -math.inf]),
)


@given(t=st.lists(penalty_rows, min_size=1, max_size=6))
@example(t=[(-0.0, -0.0, -0.0), (0.0, -0.0, 0.9), (-0.0, 0.9, -0.0)])
@example(t=[(math.inf, 0.1, 0.2), (0.1, -math.inf, -0.0), (0.3, 0.2, math.inf)])
@settings(max_examples=100, deadline=None)
def test_penalty_rows_are_the_scalar_left_to_right_sum(t):
    for (c_1, c_mu, c_c), got in zip(t, adapt.penalty(np.array(t))):
        v = 0.0
        for c in (c_1, c_mu, c_c):
            v += max(0.0, -c) + max(0.0, c - adapt.BOX_HIGH)
        v += max(0.0, c_1 + c_mu - adapt.BOX_HIGH)
        # the bits, so that a -0.0 would show
        assert got.tobytes() == np.float64(adapt.PENALTY_SCALE * v).tobytes()


@given(t=triples)
# its first two shrinks round the sum to 0.9000000000000001: three passes
@example(t=(0.7503137812981281, 0.8323474016434982, 0.5))
@settings(max_examples=100, deadline=None)
def test_projection_lands_in_feasible_set(t):
    proj = adapt.project_feasible(*t)
    assert in_rate_box(*proj)
    assert adapt.penalty([proj])[0] == 0.0


def test_projection_is_identity_on_feasible():
    assert adapt.project_feasible(0.1, 0.3, 0.8) == (0.1, 0.3, 0.8)


def test_projection_shrinks_joint_sum():
    c_1, c_mu, _ = adapt.project_feasible(0.8, 0.7, 0.2)
    assert c_1 + c_mu == pytest.approx(0.9, abs=1e-15)
    # proportions preserved: 0.8 / 0.7 ratio survives the shrink
    assert c_1 / c_mu == pytest.approx(0.8 / 0.7, rel=1e-12)


def test_penalty_known_value():
    # c_mu alone violates by 0.1; the joint cap is violated by 0.4
    (v,) = adapt.penalty([[0.3, 1.0, 0.5]])
    assert v == pytest.approx(1e9 * (0.1 + 0.4), rel=1e-12)


def test_descending_ranks_worked_example():
    # largest distance gets rank 1; ties break toward the lower index
    np.testing.assert_array_equal(
        adapt.descending_ranks([2.0, 0.5, 1.0, 3.0]), [2, 4, 3, 1]
    )
    np.testing.assert_array_equal(
        adapt.descending_ranks([1.0, 2.0, 2.0, 0.0]), [3, 1, 2, 4]
    )


def test_descending_ranks_match_a_put_along_axis_scatter():
    # a few repeated levels make ties common; every leading shape is ranked
    # along its last axis, as one row would be
    rng = np.random.default_rng(11)
    levels = np.array([-np.inf, -1.0, -0.0, 0.0, 0.5, 2.0, np.inf])
    for shape in [(0,), (1,), (9,), (100,), (20, 100), (3, 7), (4, 0), (2, 4, 6)]:
        for _ in range(20):
            values = rng.choice(levels, size=shape)
            order = np.argsort(-values, axis=-1, kind="stable")
            want = np.empty(values.shape, dtype=np.float64)
            np.put_along_axis(want, order, np.arange(1, shape[-1] + 1), axis=-1)
            got = adapt.descending_ranks(values)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_contiguous_rank_rows_sum_like_one_row_at_a_time():
    # h_objective sums every rank row in one axis-1 reduce; on C-contiguous
    # rows it matches the per-row 1-D sum bit for bit, mu_sel > 128 included
    # (where numpy's pairwise sum recurses). The non-contiguous result of
    # fancy indexing sums in another order, which is why the copy is made.
    rng = np.random.default_rng(3)
    noncontiguous_mismatches = recursing = 0
    for _ in range(300):
        k, lam = int(rng.integers(2, 25)), int(rng.integers(2, 800))
        mu_sel = int(rng.integers(2, lam + 1))
        recursing += mu_sel > 128
        ranks = adapt.descending_ranks(rng.standard_normal((k, lam)))
        top = rng.permutation(lam)[:mu_sel]
        want = [np.add.reduce(row[top] * (1.0 / mu_sel)) for row in ranks]
        got = np.add.reduce(np.ascontiguousarray(ranks[:, top]) * (1.0 / mu_sel), axis=1)
        np.testing.assert_array_equal(got, want)
        strided = ranks[:, top]
        assert not strided.flags.c_contiguous
        noncontiguous_mismatches += np.sum(
            np.add.reduce(strided * (1.0 / mu_sel), axis=1) != want
        )
    assert noncontiguous_mismatches > 0 and recursing > 0


def test_h_objective_worked_example():
    # distances (2.0, 0.5, 1.0, 3.0) indexed by fitness rank, mu_sel=2,
    # uniform weights: ranks are (2, 4, 3, 1) so h = (2 + 4) / 2 = 3.0
    state = make_random_state(seed=300, n=2, lam=4)
    pop_used = make_random_pop(state, seed=301)
    updated = sc.update_distribution(state, pop_used.candidates, pop_used.fitness)

    inv_sqrt_c = sc.linalg.inv_sqrt(updated.eigen)
    basis_dirs = np.linalg.inv(inv_sqrt_c)  # unit Mahalanobis directions
    want_d = np.array([2.0, 0.5, 1.0, 3.0])
    direction = np.array([1.0, 0.0])
    cands = np.stack(
        [updated.mean + d * (basis_dirs @ direction) for d in want_d]
    )
    pop_new = ranked_pop(cands, [1.0, 2.0, 3.0, 4.0])

    rates = [[state.params.c_1, state.params.c_mu, state.params.c_c]]
    (h,) = adapt.h_objective(rates, updated, pop_new, 2)
    assert h == pytest.approx(3.0, abs=1e-12)


def test_h_objective_bounds_and_extremes():
    # perfect agreement: the two best-by-fitness points are the two likeliest
    state = make_random_state(seed=310, n=2, lam=4)
    pop_used = make_random_pop(state, seed=311)
    updated = sc.update_distribution(state, pop_used.candidates, pop_used.fitness)
    inv_sqrt_c = sc.linalg.inv_sqrt(updated.eigen)
    spread = np.linalg.inv(inv_sqrt_c)
    cands = np.stack(
        [updated.mean + d * (spread @ np.array([1.0, 0.0])) for d in (0.5, 1, 2, 3)]
    )
    rates = [[state.params.c_1, state.params.c_mu, state.params.c_c]]

    best_case = ranked_pop(cands, [1.0, 2.0, 3.0, 4.0])
    assert adapt.h_objective(rates, updated, best_case, 2) == [3.5]

    worst_case = ranked_pop(cands, [4.0, 3.0, 2.0, 1.0])
    assert adapt.h_objective(rates, updated, worst_case, 2) == [1.5]


def test_h_objective_penalizes_infeasible_without_replay():
    state = make_random_state(seed=320, n=2, lam=4)
    pop = make_random_pop(state, seed=321)
    bad = [[0.6, 0.6, 0.2], [np.nan, 0.1, 0.1]]  # joint sum 1.2 > 0.9; a NaN
    got = adapt.h_objective(bad, state, pop, 2)
    np.testing.assert_array_equal(got, -adapt.penalty(bad))
    assert got[0] <= -1e9 * 0.29
    assert np.isnan(got[1])


def test_h_objective_matches_brute_force():
    for seed in range(25):
        state = make_random_state(seed=400 + seed, n=3, lam=8)
        pop_used = make_random_pop(state, seed=500 + seed)
        updated = sc.update_distribution(state, pop_used.candidates, pop_used.fitness)
        pop_new = make_random_pop(updated, seed=600 + seed)
        rng = sc.RngStream(700 + seed)
        triple = adapt.project_feasible(*rng.uniform_vector(0.0, 0.6, 3))
        (got,) = adapt.h_objective([triple], updated, pop_new, 4)
        want = reference_h(
            triple,
            state_as_dict(state),
            pop_used.candidates,
            pop_used.fitness,
            pop_new.candidates,
            pop_new.fitness,
            [1.0 / 4] * 4,
        )
        assert got == want, seed


def test_h_objective_mu_sel_too_large():
    state = make_random_state(seed=410, n=2, lam=4)
    pop = make_random_pop(state, seed=411)
    for mu_sel in (5, 0):  # the score averages 1 to lam ranks
        with pytest.raises(DimensionMismatch):
            adapt.h_objective([[0.1, 0.1, 0.1]], state, pop, mu_sel)


def test_scoring_a_state_no_update_produced_is_refused():
    # an initial state carries no update record to replay a feasible triple on
    start = sc.initial_state(sc.default_params(4, 8), np.full(4, 2.0), 1.0)
    advanced = core.generation(_sphere, start, sc.RngStream(33).child(0))
    with pytest.raises(ValueError, match="^state has no update to score"):
        adapt.h_objective([[0.1, 0.1, 0.1]], start, advanced.last_pop, 4)
    search = adapt.init_search(sc.RngStream(33).child(1))
    with pytest.raises(ValueError, match="^state has no update to score"):
        adapt.self_step(search, start, advanced)


def _ranked_distances(monkeypatch, triples, state, pop_new):
    """The (k_feasible, lam) squared distances `h_objective` ranks."""
    seen = []
    ranks = adapt.descending_ranks
    monkeypatch.setattr(
        adapt, "descending_ranks", lambda v: seen.append(np.array(v)) or ranks(v)
    )
    scores = adapt.h_objective(triples, state, pop_new, pop_new.lam // 2)
    monkeypatch.undo()
    (dist,) = seen
    return scores, dist


def _solved_distances(triple, state, pop_new):
    """Squared distances under the triple's explicit covariance, by a solve."""
    _, cov = core.covariance_update(state.terms, *triple)
    x = pop_new.candidates - state.mean
    return np.sum(x * np.linalg.solve(cov, x.T).T, axis=1)


# the box edges: c_1 = 0, c_mu = 0, c_c = 0, c_1 + c_mu = BOX_HIGH (also with
# c_mu = 0), and no update at all
EDGE_TRIPLES = [
    [0.0, 0.3, 0.5],
    [0.3, 0.0, 0.5],
    [0.2, 0.3, 0.0],
    [0.4, 0.5, 0.7],
    [0.9, 0.0, 0.9],
    [0.0, 0.0, 0.0],
]


def test_h_objective_matches_a_direct_solve(monkeypatch):
    # mu < n makes the rank-mu matrix singular at (10, 8) and (40, 15)
    for seed, (n, lam) in enumerate(((2, 6), (10, 8), (10, 30), (40, 15))):
        state = make_random_state(seed=470 + seed, n=n, lam=lam)
        pop_used = make_random_pop(state, seed=480 + seed)
        updated = sc.update_distribution(state, pop_used.candidates, pop_used.fitness)
        assert np.linalg.matrix_rank(updated.terms.rank_mu) == min(n, lam // 2)
        pop_new = make_random_pop(updated, seed=490 + seed)
        rng = sc.RngStream(500 + seed)
        drawn = [rng.uniform_vector(0.0, 0.6, 3) for _ in range(4)]
        interior = [adapt.project_feasible(*t) for t in drawn]
        triples = np.array(EDGE_TRIPLES + interior)
        for h_sigma in (0.0, 1.0):
            terms = dataclasses.replace(updated.terms, h_sigma=h_sigma)
            replayed = dataclasses.replace(updated, terms=terms)
            _, dist = _ranked_distances(monkeypatch, triples, replayed, pop_new)
            want = [_solved_distances(t, replayed, pop_new) for t in triples]
            np.testing.assert_allclose(dist, want, rtol=1e-10, err_msg=f"n={n}")


def test_h_objective_needs_only_an_accepted_old_covariance(monkeypatch):
    # a collapsed old covariance never reaches the scorer: it is refused
    # where it is decomposed, as it ends the run
    with pytest.raises(NonPositiveDefinite, match="is degenerate"):
        linalg.sym_eigen(np.diag([1.0, 1e-30]))
    # an accepted but ill-conditioned one scores finitely, even under the
    # triple (0, 0, 0.5) that keeps it unchanged, and ranks as a solve does
    state = make_random_state(seed=460, n=2, lam=4)
    pop_used = make_random_pop(state, seed=461)
    updated = sc.update_distribution(state, pop_used.candidates, pop_used.fitness)
    cov = np.diag([1.0, 1e-12])
    terms = dataclasses.replace(
        updated.terms, cov=cov, eigen=linalg.sym_eigen(cov), path_c=np.zeros(2)
    )
    ill = dataclasses.replace(updated, terms=terms)
    pop_new = make_random_pop(updated, seed=462)
    triples = [[0.1, 0.3, 0.5], [0.0, 0.0, 0.5], [0.2, 0.2, 0.2]]
    scores, dist = _ranked_distances(monkeypatch, triples, ill, pop_new)
    assert np.all(np.isfinite(scores)) and np.all(scores >= 1.5)
    for row, triple in zip(dist, triples):
        np.testing.assert_array_equal(
            adapt.descending_ranks(row),
            adapt.descending_ranks(_solved_distances(triple, ill, pop_new)),
        )


def _sphere(x):
    return float(np.sum(x**2))


def _states(objective, params, mean0, seed, search, gens):
    """The first `gens` (state, search) pairs of one segment loop."""
    loop = restart.segment_states(objective, params, mean0, sc.RngStream(seed), search)
    return list(itertools.islice(loop, gens))


def _replayed_score(h, prev_state, pop_used, pop_new, mu_sel):
    """The score from a full update of `prev_state` under the rates `h`."""
    params = prev_state.params.with_cov_rates(*h)
    replayed = sc.update_distribution(
        dataclasses.replace(prev_state, params=params),
        pop_used.candidates,
        pop_used.fitness,
    )
    inv_sqrt_c = linalg.inv_sqrt(replayed.eigen)
    # the eigen path h_objective replaced: distances, not squares
    distances = np.linalg.norm((pop_new.candidates - replayed.mean) @ inv_sqrt_c, axis=-1)
    ranks = adapt.descending_ranks(distances)
    return float(np.sum(ranks[pop_new.order[:mu_sel]] * (1.0 / mu_sel)))


def test_h_objective_matches_the_full_update_on_a_real_segment():
    n, lam = 10, 20
    problem = sc.make_problem("rosenbrock", n, sc.RngStream(45))
    mean0 = sc.RngStream(46).uniform_vector(-4.0, 4.0, n)
    search = adapt.init_search(sc.RngStream(47).child(1))
    pairs = _states(problem, sc.default_params(n, lam), mean0, 47, search, 40)
    states = [state for state, _ in pairs]
    mu_sel = states[0].params.mu
    rng = sc.RngStream(48)
    feasible = stalled = 0
    for prev_state, state, advanced in zip(states, states[1:], states[2:]):
        stalled += state.terms.h_sigma == 0.0
        used = prev_state.params  # the rates of the primary's own update
        triples = [[used.c_1, used.c_mu, used.c_c]]
        triples += [rng.uniform_vector(-0.1, 0.95, 3) for _ in range(6)]
        triples = np.array(triples)
        scores = adapt.h_objective(triples, state, advanced.last_pop, mu_sel)
        for h, got in zip(triples, scores):
            if in_rate_box(*h):
                feasible += 1
                want = _replayed_score(
                    h, prev_state, state.last_pop, advanced.last_pop, mu_sel
                )
            else:
                want = -adapt.penalty([h])[0]
            assert got == want, (state.gen, h)
    assert 0 < feasible < 38 * 7
    assert stalled > 0


def test_init_search_starts_from_its_own_stream():
    search = adapt.init_search(sc.RngStream(30).child(1))
    assert search.rng.spawn_key == (1,)
    assert search.aux.gen == 0
    assert search.aux.params.lam == adapt.DEFAULT_LAMBDA_H
    assert search.aux.sigma == adapt.AUX_SIGMA0
    np.testing.assert_array_equal(
        search.aux.mean, sc.RngStream(30).child(1).uniform_vector(0.0, 1.0, 3)
    )
    # the rates it exposes are the decoded, projected auxiliary mean
    assert search.rates == adapt.project_feasible(*adapt.decode(search.aux.mean))


def test_self_step_scores_the_replay_and_steps_only_the_auxiliary():
    params = sc.default_params(4, 8)
    start = sc.initial_state(params, np.full(4, 2.0), 1.0)
    primary_rng = sc.RngStream(31).child(0)
    state = core.generation(_sphere, start, primary_rng)
    advanced = core.generation(_sphere, state, primary_rng)
    search = adapt.init_search(sc.RngStream(31).child(1))

    stepped = adapt.self_step(search, state, advanced)
    assert stepped.aux.gen == search.aux.gen + 1
    assert stepped.rng is search.rng and stepped.rng.spawn_key == (1,)
    assert advanced.gen == 2

    # the auxiliary minimizes minus the score of the update start -> state,
    # ranked on the newest population by its best half
    assert state.params.mu == 4

    # all 20 triples in one call, as the search scores them: a triple's
    # score is not promised bit for bit when it is scored alone
    fresh = adapt.init_search(sc.RngStream(31).child(1))
    u = core.sample_population(fresh.aux, fresh.rng)
    assert u.shape == (adapt.DEFAULT_LAMBDA_H, 3)
    pop_new, mu_sel = advanced.last_pop, state.params.mu
    scores = adapt.h_objective(adapt.decode(u), state, pop_new, mu_sel)
    want = core.update_distribution(fresh.aux, u, -scores)
    np.testing.assert_array_equal(stepped.aux.mean, want.mean)
    assert stepped.aux.sigma == want.sigma


def _array_bytes(root, name):
    """{dotted path: bytes} of every array reachable from `root` through
    record fields (derived ones included) and tuples."""
    found = {}

    def walk(obj, path):
        if isinstance(obj, np.ndarray):
            found[path] = obj.tobytes()
        elif dataclasses.is_dataclass(obj):
            for key, value in vars(obj).items():
                walk(value, f"{path}.{key}")
        elif isinstance(obj, tuple):
            for i, value in enumerate(obj):
                walk(value, f"{path}[{i}]")

    walk(root, name)
    return found


def test_no_function_writes_into_its_inputs():
    # the in-place forms write only into arrays they allocate during the
    # call; every array an argument holds or reaches keeps its bytes
    state = make_random_state(seed=61, n=5, lam=10)
    pop = make_random_pop(state, seed=62)
    updated = core.update_distribution(state, pop.candidates, pop.fitness)
    pop_new = make_random_pop(updated, seed=63)
    advanced = core.update_distribution(updated, pop_new.candidates, pop_new.fitness)
    search = adapt.self_step(adapt.init_search(sc.RngStream(64)), updated, advanced)
    assert search.aux.terms is not None and updated.terms is not None
    u = core.sample_population(search.aux, sc.RngStream(65))
    triples = np.vstack([adapt.decode(u), [[-0.1, 0.2, 0.3], [0.5, 0.5, 0.2]]])
    last = advanced.last_pop
    calls = {
        "sample_population": (core.sample_population, (updated, sc.RngStream(66))),
        "update_distribution": (
            core.update_distribution, (updated, last.candidates, last.fitness)
        ),
        "covariance_update": (core.covariance_update, (updated.terms, 0.1, 0.2, 0.3)),
        "h_objective": (
            adapt.h_objective, (triples, updated, last, updated.params.mu)
        ),
        "self_step": (adapt.self_step, (search, updated, advanced)),
        "inv_sqrt": (linalg.inv_sqrt, (updated.eigen,)),
        "symmetrize": (linalg.symmetrize, (updated.cov,)),
    }
    for name, (fn, args) in calls.items():
        before = _array_bytes(args, "args")
        fn(*args)
        after = _array_bytes(args, "args")
        assert before.keys() == after.keys(), name
        written = [path for path in before if before[path] != after[path]]
        assert not written, f"{name} wrote into {written}"


def test_segment_loop_injects_the_search_rates():
    params = sc.default_params(4, 8)
    search = adapt.init_search(sc.RngStream(33).child(1))
    pairs = _states(_sphere, params, np.full(4, 2.0), 33, search, 5)
    for gen, (state, stepped) in enumerate(pairs, start=1):
        assert state.gen == gen
        # the first generation runs on the initial rates; each later one
        # steps the search once and injects its new rates
        assert stepped.aux.gen == gen - 1
        p = state.params
        assert (p.c_1, p.c_mu, p.c_c) == stepped.rates
    assert pairs[0][1] is search


def test_frozen_auxiliary_reduces_to_plain_cmaes():
    # collapse the auxiliary search: sigma ~ 0 makes every auxiliary sample
    # bitwise equal to its mean, and mu = 1 (lambda_h = 2) recombines with
    # weight exactly one, so the auxiliary mean never moves and the loop
    # must reproduce its fixed-rate run pinned at the decoded initial rates
    params = sc.default_params(3, 6)
    mean0 = np.array([1.5, -2.0, 0.5])
    rng = sc.RngStream(32).child(1)
    aux_params = sc.default_params(adapt.AUX_DIM, 2)
    aux_mean = rng.uniform_vector(0.0, 1.0, adapt.AUX_DIM)
    aux = sc.initial_state(aux_params, aux_mean, 1e-300)
    search = adapt.RateSearch(aux=aux, rng=rng)
    frozen_mean = search.aux.mean.copy()
    pinned = search.rates
    pinned_params = params.with_cov_rates(*pinned)

    adaptive = _states(_sphere, params, mean0, 32, search, 12)
    fixed = _states(_sphere, pinned_params, mean0, 32, None, 12)
    for (a, stepped), (b, none) in zip(adaptive, fixed):
        assert none is None
        np.testing.assert_array_equal(stepped.aux.mean, frozen_mean)
        for p in (a.params, b.params):
            assert (p.c_1, p.c_mu, p.c_c) == pinned
        np.testing.assert_array_equal(a.mean, b.mean)
        assert a.sigma == b.sigma
        np.testing.assert_array_equal(a.cov, b.cov)
        np.testing.assert_array_equal(a.path_sigma, b.path_sigma)
        np.testing.assert_array_equal(a.path_c, b.path_c)
        assert a.gen == b.gen
    assert adaptive[-1][1].aux.gen == 11
