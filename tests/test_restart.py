"""Stopping criteria and the doubling restart loop."""
import dataclasses
import math
import re

import numpy as np
import pytest

import selfcma as sc
from conftest import make_random_state
from selfcma import restart
from selfcma.errors import ConfigError
from selfcma.restart import StopReason, hist_window


def _check(state, history, budget=10_000, target=-1.0):
    return restart.check_stop(state, history, budget, target)


def _history(values, n=3, lam=6, spent=0):
    history = restart.SegmentHistory(hist_window(n, lam), spent)
    for f in values:
        history.push(f)
    return history


def _last_improvement(hist):
    """Index of the last strict improvement of the running minimum, or 0."""
    with np.errstate(invalid="ignore"):  # inf - inf
        running = np.minimum.accumulate(hist)
        improved = np.flatnonzero(np.diff(running) < 0)
    return int(improved[-1]) + 1 if improved.size else 0


def _noise(gens):
    """`gens` per-generation bests above 3.0 that never flatten out."""
    return [3.1 + 0.1 * (k % 7) for k in range(gens)]


def _above(x):
    return float(np.nextafter(x, np.inf))


def test_restart_thresholds_are_fixed():
    # the IPOP-CMA-ES values; tol_x is 1e-12 of the initial step size 2
    assert restart.TOL_HIST_FUN == 1e-12
    assert restart.TOL_X == 2e-12
    assert restart.MAX_COND == 1e14
    assert hist_window(10, 10) == 40
    assert hist_window(10, 100) == 13
    assert hist_window(3, 6) == 25


def test_target_hit_takes_priority():
    state = make_random_state(seed=2, n=3, lam=6)
    assert _check(state, _history([5.0, 0.5]), target=0.5) is StopReason.TARGET_HIT
    assert _check(state, _history([5.0, _above(0.5)]), target=0.5) is None
    # the target outranks a spent budget
    spent = dataclasses.replace(state, gen=10_000)
    hit = _check(spent, _history([5.0, 0.5]), target=0.5)
    assert hit is StopReason.TARGET_HIT


def test_tol_hist_fun_needs_full_flat_window():
    # fires once the last 25 bests span at most 1e-12, not a generation before
    state = make_random_state(seed=3, n=3, lam=6)
    window = hist_window(3, 6)
    flat = [1e-12, 0.0] * window
    assert _check(state, _history(flat[:window])) is StopReason.TOL_HIST_FUN
    assert _check(state, _history(flat[: window - 1])) is None
    wider = [_above(1e-12), 0.0] * window
    assert _check(state, _history(wider[:window])) is None
    # only the last window counts: an old outlier has left it
    assert _check(state, _history([9.0] + flat[:window])) is StopReason.TOL_HIST_FUN
    assert _check(state, _history([9.0] + flat[: window - 1])) is None


def test_tol_x_fires_when_sigma_collapses():
    # with C = I the rule reads sigma <= 2e-12
    state = make_random_state(seed=4, n=3, lam=6)
    eye = np.eye(3)
    state = dataclasses.replace(state, cov=eye, eigen=sc.linalg.sym_eigen(eye))
    at = dataclasses.replace(state, sigma=2e-12)
    assert _check(at, _history([1.0])) is StopReason.TOL_X
    above = dataclasses.replace(state, sigma=_above(2e-12))
    assert _check(above, _history([1.0])) is None
    # the largest eigenvalue scales the step size: sqrt(0.25) * 4e-12
    cov = np.diag([1e-4, 0.25, 0.01])
    small = dataclasses.replace(state, cov=cov, eigen=sc.linalg.sym_eigen(cov))
    at = dataclasses.replace(small, sigma=4e-12)
    assert _check(at, _history([1.0])) is StopReason.TOL_X
    above = dataclasses.replace(small, sigma=_above(4e-12))
    assert _check(above, _history([1.0])) is None


def test_condition_cov_fires_on_bad_conditioning():
    # fires once C's condition number passes 1e14, not at 1e14 itself
    state = make_random_state(seed=5, n=3, lam=6)

    def with_cov(top):
        cov = np.diag([top, 1.0, 1.0])
        return dataclasses.replace(state, cov=cov, eigen=sc.linalg.sym_eigen(cov))

    at = with_cov(1e14)
    assert at.eigen.condition() == 1e14
    assert _check(at, _history([1.0])) is None
    past = with_cov(_above(1e14))
    assert _check(past, _history([1.0])) is StopReason.CONDITION_COV


@pytest.mark.parametrize(
    "n,lam,gens", [(3, 6, 150), (4, 8, 150), (10, 10, 200), (40, 4, 1100)]
)
def test_stagnation_fires_at_the_fixed_count(n, lam, gens):
    # 100 + ceil(100 n / lam) generations without a strict improvement,
    # read from the state's own n and lam
    state = make_random_state(seed=6, n=n, lam=lam)
    rising = [1.0 + k for k in range(gens + 1)]
    stuck = _history(rising, n, lam)
    assert stuck.since_best == gens
    assert _check(state, stuck) is StopReason.STAGNATION
    assert _check(state, _history(rising[:-1], n, lam)) is None


def test_stagnation_counts_from_last_improvement():
    state = make_random_state(seed=6, n=3, lam=6)
    improving = [10.0 - 0.01 * k for k in range(400)]
    assert _check(state, _history(improving)) is None
    # improvement at index 1, then 150 generations above the running best
    assert _check(state, _history([10.0, 3.0] + _noise(149))) is None
    stuck = _history([10.0, 3.0] + _noise(150))
    assert _check(state, stuck) is StopReason.STAGNATION
    # a late strict improvement restarts the count
    late = [10.0, 3.0] + _noise(120) + [2.0]
    assert _check(state, _history(late + _noise(149))) is None
    assert _check(state, _history(late + _noise(150))) is StopReason.STAGNATION


def test_stagnation_matches_the_running_minimum_form():
    # the history counts the generations since the running best last
    # strictly improved as it goes; pin that count against the running
    # minimum formula on histories with ties, plateaus and infinities, and
    # the stop against a flat window (checked first) and 103 generations
    n, lam = 3, 100
    window, stagnation = hist_window(n, lam), 103
    state = make_random_state(seed=8, n=n, lam=lam)
    rng = np.random.default_rng(9)
    stops = {StopReason.TOL_HIST_FUN: 0, StopReason.STAGNATION: 0}
    for _ in range(2000):
        size = int(rng.integers(1, 250))
        values = rng.integers(0, 6, size).astype(float)
        hist = np.repeat(values, rng.integers(1, 8, size))[:size]
        hist[rng.random(size) < 0.1] = np.inf
        signed = hist.copy()
        signed[rng.random(size) < 0.02] = -np.inf
        since_best = _history(signed, n, lam).since_best
        assert since_best == size - 1 - _last_improvement(signed), signed

        tail = hist[-window:]
        with np.errstate(invalid="ignore"):  # inf - inf
            flat = size >= window and tail.max() - tail.min() <= 1e-12
        stuck = size - 1 - _last_improvement(hist) >= stagnation
        if flat:
            want = StopReason.TOL_HIST_FUN
        elif stuck:
            want = StopReason.STAGNATION
        else:
            want = None
        assert _check(state, _history(hist, n, lam)) is want, hist
        if want is not None:
            stops[want] += 1
    assert 100 < stops[StopReason.STAGNATION] < 1900
    assert stops[StopReason.TOL_HIST_FUN] > 0


def test_budget_exhausted_after_eval_count():
    # the budget of 10_000 evaluations is spent at generation 1667 of 6
    state = make_random_state(seed=7, n=3, lam=6)
    short = dataclasses.replace(state, gen=1666)
    spent = dataclasses.replace(state, gen=1667)
    assert _check(short, _history([1.0])) is None
    assert _check(spent, _history([1.0])) is StopReason.BUDGET_EXHAUSTED
    # evaluations spent by earlier segments count towards the budget
    later = _history([1.0], spent=6)
    assert _check(short, later) is StopReason.BUDGET_EXHAUSTED
    # a spent budget outranks the criteria that restart
    flat = _history([2.0] * hist_window(3, 6))
    assert _check(state, flat) is StopReason.TOL_HIST_FUN
    assert _check(spent, flat) is StopReason.BUDGET_EXHAUSTED


def test_no_restart_once_the_budget_is_spent():
    # flat fitness fires tol_hist_fun after 25 generations of 8, which is
    # exactly the budget of 200: the run ends instead of restarting
    report = sc.ipop_run(lambda x: 5.0, 4, "plain", 8, 200, -1.0, sc.RngStream(1))
    assert report.total_evals == 200
    assert report.lambdas == [8]
    assert report.stop_reasons == [StopReason.BUDGET_EXHAUSTED]
    # the budget is the run's, not each segment's: three flat segments
    # spend 200 + 288 + 448 evaluations, and the fourth stops after one
    # generation of 64, at 1000
    for mode in restart.MODES:
        report = sc.ipop_run(lambda x: 5.0, 4, mode, 8, 1000, -1.0, sc.RngStream(1))
        assert report.lambdas == [8, 16, 32, 64], mode
        assert report.total_evals == 1000, mode
        want = [StopReason.TOL_HIST_FUN] * 3 + [StopReason.BUDGET_EXHAUSTED]
        assert report.stop_reasons == want, mode


def test_ipop_restarts_on_stagnation():
    # the first generation of 8 sees 1.0 and every later one 2.0 or 3.0 in
    # turn, so the running best never improves strictly while the
    # per-generation best never goes flat; the first segment ends on the
    # row where the running minimum formula, applied to the logged best_f,
    # counts 100 + ceil(100 * 4 / 8) = 150 generations without an improvement
    calls = {"n": 0}

    def objective(x):
        calls["n"] += 1
        if calls["n"] <= 8:
            return 1.0
        return 2.0 + (calls["n"] - 1) // 8 % 2

    report = sc.ipop_run(objective, 4, "plain", 8, 3000, -1.0, sc.RngStream(5))
    assert report.stop_reasons[0] is StopReason.STAGNATION
    assert report.lambdas[:2] == [8, 16]
    rows = [r.stop_reason for r in report.log].index("stagnation") + 1
    best = report.log.column("best_f")
    first_stuck = next(
        k for k in range(2, len(best) + 1) if k - 1 - _last_improvement(best[:k]) >= 150
    )
    assert rows == first_stuck == 151
    assert report.log.records[rows - 1].evals == 151 * 8


def test_ipop_doubles_lambda_until_target():
    # flat fitness for the whole first segment forces a tol_hist_fun stop
    # (window is 25 generations at lambda 8), after which the doubled
    # population sees the real sphere and runs to the target
    calls = {"n": 0}

    def objective(x):
        calls["n"] += 1
        if calls["n"] <= 280:
            return 5.0
        return float(np.sum(x**2))

    report = sc.ipop_run(objective, 4, "plain", 8, 100_000, 1e-9, sc.RngStream(70))
    assert report.final_reason is StopReason.TARGET_HIT
    assert report.best_f <= 1e-9
    assert report.stop_reasons[0] is StopReason.TOL_HIST_FUN
    assert report.stop_reasons == [StopReason.TOL_HIST_FUN, StopReason.TARGET_HIT]
    assert report.lambdas == [8, 16]
    assert report.restarts == 1
    assert report.total_evals == report.log.records[-1].evals
    assert report.best_f == min(r.best_f for r in report.log)


def test_ipop_budget_exhaustion_and_log_shape():
    prob = sc.make_problem("sphere", 4, sc.RngStream(71))
    # an unreachable target
    report = sc.ipop_run(prob, 4, "plain", 8, 200, 0.0, sc.RngStream(71))
    assert report.final_reason is StopReason.BUDGET_EXHAUSTED
    assert report.total_evals >= 200
    assert report.restarts == len(report.lambdas) - 1
    evals = report.log.column("evals")
    assert np.all(np.diff(evals) > 0)
    gens = report.log.column("gen")
    np.testing.assert_array_equal(gens, np.arange(1, len(gens) + 1))
    best = report.log.column("best_f")
    assert np.all(np.diff(best) <= 0)  # best-so-far is monotone
    assert report.log.records[-1].stop_reason == "budget_exhausted"
    assert all(r.stop_reason == "" for r in report.log.records[:-1])


def test_ipop_self_mode_runs_and_logs_rates():
    prob = sc.make_problem("sphere", 4, sc.RngStream(72))
    report = sc.ipop_run(prob, 4, "self_adaptive", 12, 40_000, 1e-8, sc.RngStream(72))
    assert report.final_reason in (StopReason.TARGET_HIT, StopReason.BUDGET_EXHAUSTED)
    c1 = report.log.column("c1")
    cmu = report.log.column("cmu")
    assert len(set(c1.tolist())) > 1  # rates actually moved
    assert np.all(c1 >= 0) and np.all(c1 <= 0.9)
    assert np.all(c1 + cmu <= 0.9 + 1e-12)


def test_ipop_self_mode_accepts_zero_path_rate():
    # run 6 of seed 13: the first auxiliary step leaves the box in c_c,
    # which projects to exactly 0; that rate holds the path and must not raise
    run_rng = sc.RngStream(13).child(6)
    prob = sc.make_problem("sphere", 10, run_rng)
    report = sc.ipop_run(prob, 10, "self_adaptive", 100, 1000, 1e-8, run_rng)
    assert report.final_reason is StopReason.BUDGET_EXHAUSTED
    assert report.total_evals == 1000
    assert report.log.records[1].cc == 0.0


def test_ipop_plain_keeps_default_rates():
    prob = sc.make_problem("sphere", 4, sc.RngStream(73))
    report = sc.ipop_run(prob, 4, "plain", 8, 5_000, 1e-8, sc.RngStream(73))
    defaults = sc.default_params(4, 8)
    assert set(report.log.column("c1").tolist()) == {defaults.c_1}
    assert set(report.log.column("cmu").tolist()) == {defaults.c_mu}


@pytest.mark.parametrize(
    "change,message",
    [
        ({"budget": 0}, "budget: must be >= 1, got 0"),
        ({"target": math.nan}, "target: must be finite, got nan"),
        ({"target": math.inf}, "target: must be finite, got inf"),
        ({"lambda0": 1}, "lambda0: must be >= 2, got 1"),
        ({"mode": "turbo"}, "mode: expected one of"),
    ],
    ids=["budget-0", "target-nan", "target-inf", "lambda0-1", "mode-turbo"],
)
def test_ipop_run_rejects_bad_arguments(change, message):
    calls = []
    args = dict(n=4, mode="plain", lambda0=8, budget=100, target=0.0)
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        sc.ipop_run(calls.append, **(args | change), rng=sc.RngStream(74))
    assert calls == []  # refused before the first evaluation
