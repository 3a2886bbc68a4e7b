"""Stopping criteria and the doubling restart loop."""
import dataclasses
import math

import numpy as np
import pytest

import selfcma as sc
from conftest import make_random_state
from selfcma import restart
from selfcma.errors import ConfigError
from selfcma.restart import StopReason, hist_window


def _cfg(**kw):
    defaults = dict(max_evals=10_000, target_f=1e-10)
    defaults.update(kw)
    return sc.StopConfig(**defaults)


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


def test_resolution_defaults():
    assert sc.StopConfig(max_evals=100, target_f=0.0).tol_x == 2e-12
    # stagnation defaults to 100 + ceil(100 n / lam) = 200 generations
    # without a strict improvement, read from the state's own n and lam
    state = make_random_state(seed=3, n=10, lam=10)
    cfg = _cfg(tol_hist_fun=0.0)
    rising = [1.0 + k for k in range(200)]
    assert restart.check_stop(state, _history(rising, 10, 10), cfg) is None
    stuck = _history(rising + [300.0], 10, 10)
    assert stuck.since_best == 100 + math.ceil(100 * 10 / 10)
    assert restart.check_stop(state, stuck, cfg) is StopReason.STAGNATION
    assert hist_window(10, 10) == 40
    assert hist_window(10, 100) == 13


def test_config_validation_names_field():
    with pytest.raises(ConfigError, match="max_evals"):
        sc.StopConfig(max_evals=0, target_f=0.0)
    with pytest.raises(ConfigError, match="tol_x"):
        sc.StopConfig(max_evals=1, target_f=0.0, tol_x=-1.0)
    with pytest.raises(ConfigError, match="max_cond"):
        sc.StopConfig(max_evals=1, target_f=0.0, max_cond=0.5)
    with pytest.raises(ConfigError, match="stagnation_gens"):
        sc.StopConfig(max_evals=1, target_f=0.0, stagnation_gens=0)


def test_target_hit_takes_priority():
    state = make_random_state(seed=2, n=3, lam=6)
    cfg = _cfg(target_f=1.0)
    assert restart.check_stop(state, _history([5.0, 0.5]), cfg) is StopReason.TARGET_HIT


def test_tol_hist_fun_needs_full_flat_window():
    state = make_random_state(seed=3, n=3, lam=6)
    window = hist_window(3, 6)
    cfg = _cfg()
    flat = [2.0] * window
    assert restart.check_stop(state, _history(flat), cfg) is StopReason.TOL_HIST_FUN
    assert restart.check_stop(state, _history(flat[:-1]), cfg) is None
    varied = flat[:-1] + [2.0 + 1e-6]
    assert restart.check_stop(state, _history(varied), cfg) is None
    # only the last window counts: an old outlier has left it
    assert (
        restart.check_stop(state, _history([9.0] + flat), cfg)
        is StopReason.TOL_HIST_FUN
    )


def test_tol_x_fires_when_sigma_collapses():
    state = make_random_state(seed=4, n=3, lam=6)
    tiny = dataclasses.replace(state, sigma=1e-15)
    cfg = _cfg()
    assert restart.check_stop(tiny, _history([1.0]), cfg) is StopReason.TOL_X


def test_condition_cov_fires_on_bad_conditioning():
    state = make_random_state(seed=5, n=3, lam=6)
    cov = np.diag([1e16, 1.0, 1.0])
    bad = dataclasses.replace(state, cov=cov, eigen=sc.linalg.sym_eigen(cov))
    reason = restart.check_stop(bad, _history([1.0]), _cfg())
    assert reason is StopReason.CONDITION_COV


def test_stagnation_counts_from_last_improvement():
    state = make_random_state(seed=6, n=3, lam=6)
    cfg = _cfg(stagnation_gens=5, tol_hist_fun=0.0)
    improving = [10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0]
    assert restart.check_stop(state, _history(improving), cfg) is None
    # improvement at index 1, then noise above the running best
    stuck = [10.0, 3.0] + [3.0 + 0.1 * k for k in (3, 1, 4, 1, 5)]
    assert restart.check_stop(state, _history(stuck), cfg) is StopReason.STAGNATION


def test_stagnation_matches_the_running_minimum_form():
    # the history counts the generations since the running best last
    # strictly improved as it goes; pin that count against the running
    # minimum formula on histories with ties, plateaus and infinities
    n, lam = 40, 4  # a window longer than every history: no tol_hist_fun
    state = make_random_state(seed=8, n=n, lam=lam)
    rng = np.random.default_rng(9)
    stops = 0
    for _ in range(2000):
        size = int(rng.integers(1, hist_window(n, lam)))
        values = rng.integers(0, 6, size).astype(float)
        hist = np.repeat(values, rng.integers(1, 8, size))[:size]
        hist[rng.random(size) < 0.1] = np.inf
        signed = hist.copy()
        signed[rng.random(size) < 0.02] = -np.inf
        since_best = _history(signed, n, lam).since_best
        assert since_best == size - 1 - _last_improvement(signed), signed

        stagnation = int(rng.integers(1, size + 1))
        cfg = _cfg(target_f=-1.0, stagnation_gens=stagnation)
        stuck = size > stagnation and size - 1 - _last_improvement(hist) >= stagnation
        want = StopReason.STAGNATION if stuck else None
        assert restart.check_stop(state, _history(hist, n, lam), cfg) is want, hist
        stops += stuck
    assert 100 < stops < 1900


def test_budget_exhausted_after_eval_count():
    # the budget of 10_000 evaluations is spent at generation 1667 of 6
    state = make_random_state(seed=7, n=3, lam=6)
    short = dataclasses.replace(state, gen=1666)
    spent = dataclasses.replace(state, gen=1667)
    assert restart.check_stop(short, _history([1.0]), _cfg()) is None
    reason = restart.check_stop(spent, _history([1.0]), _cfg())
    assert reason is StopReason.BUDGET_EXHAUSTED
    # evaluations spent by earlier segments count towards the budget
    later = _history([1.0], spent=6)
    assert restart.check_stop(short, later, _cfg()) is StopReason.BUDGET_EXHAUSTED
    # a spent budget outranks the criteria that restart
    flat = _history([2.0] * hist_window(3, 6))
    assert restart.check_stop(state, flat, _cfg()) is StopReason.TOL_HIST_FUN
    assert restart.check_stop(spent, flat, _cfg()) is StopReason.BUDGET_EXHAUSTED


def test_no_restart_once_the_budget_is_spent():
    # flat fitness fires tol_hist_fun after 25 generations of 8, which is
    # exactly the budget of 200: the run ends instead of restarting
    cfg = sc.StopConfig(max_evals=200, target_f=-1.0)
    report = sc.ipop_run(lambda x: 5.0, 4, "plain", 8, cfg, sc.RngStream(1))
    assert report.total_evals == 200
    assert report.lambdas == [8]
    assert report.stop_reasons == [StopReason.BUDGET_EXHAUSTED]
    # the budget is the run's, not each segment's: three flat segments
    # spend 200 + 288 + 448 evaluations, and the fourth stops after one
    # generation of 64, at 1000
    cfg = sc.StopConfig(max_evals=1000, target_f=-1.0)
    for mode in restart.MODES:
        report = sc.ipop_run(lambda x: 5.0, 4, mode, 8, cfg, sc.RngStream(1))
        assert report.lambdas == [8, 16, 32, 64], mode
        assert report.total_evals == 1000, mode
        want = [StopReason.TOL_HIST_FUN] * 3 + [StopReason.BUDGET_EXHAUSTED]
        assert report.stop_reasons == want, mode


def test_ipop_restarts_on_stagnation():
    # a floored sphere plateaus, so the running best stops improving
    # strictly; the first segment ends on the row where the running minimum
    # formula, applied to the logged best_f, counts 5 generations without it
    cfg = sc.StopConfig(max_evals=3000, target_f=-1.0, stagnation_gens=5)
    report = sc.ipop_run(
        lambda x: float(np.floor(np.sum(x**2))), 4, "plain", 8, cfg, sc.RngStream(5)
    )
    assert report.stop_reasons[0] is StopReason.STAGNATION
    assert report.lambdas[:2] == [8, 16]
    rows = [r.stop_reason for r in report.log].index("stagnation") + 1
    best = report.log.column("best_f")
    first_stuck = next(
        k for k in range(6, len(best) + 1) if k - 1 - _last_improvement(best[:k]) >= 5
    )
    assert rows == first_stuck == 13


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

    cfg = sc.StopConfig(max_evals=100_000, target_f=1e-9)
    report = sc.ipop_run(objective, 4, "plain", 8, cfg, sc.RngStream(70))
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
    cfg = sc.StopConfig(max_evals=200, target_f=0.0)  # unreachable target
    report = sc.ipop_run(prob, 4, "plain", 8, cfg, sc.RngStream(71))
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
    cfg = sc.StopConfig(max_evals=40_000, target_f=1e-8)
    report = sc.ipop_run(prob, 4, "self_adaptive", 12, cfg, sc.RngStream(72))
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
    cfg = sc.StopConfig(max_evals=1000, target_f=1e-8)
    report = sc.ipop_run(prob, 10, "self_adaptive", 100, cfg, run_rng)
    assert report.final_reason is StopReason.BUDGET_EXHAUSTED
    assert report.total_evals == 1000
    assert report.log.records[1].cc == 0.0


def test_ipop_plain_keeps_default_rates():
    prob = sc.make_problem("sphere", 4, sc.RngStream(73))
    cfg = sc.StopConfig(max_evals=5_000, target_f=1e-8)
    report = sc.ipop_run(prob, 4, "plain", 8, cfg, sc.RngStream(73))
    defaults = sc.default_params(4, 8)
    assert set(report.log.column("c1").tolist()) == {defaults.c_1}
    assert set(report.log.column("cmu").tolist()) == {defaults.c_mu}


def test_ipop_rejects_bad_mode():
    prob = sc.make_problem("sphere", 4, sc.RngStream(74))
    cfg = sc.StopConfig(max_evals=100, target_f=0.0)
    with pytest.raises(ConfigError, match="mode"):
        sc.ipop_run(prob, 4, "turbo", 8, cfg, sc.RngStream(74))
