"""Stopping criteria and the restart driver with doubling population size.

A run is a sequence of segments. Each segment optimizes until one of the
stopping criteria fires; hitting the target or exhausting the budget ends
the run, anything else doubles lambda and restarts from a freshly drawn
mean with the initial step-size.
"""
from __future__ import annotations

import collections
import dataclasses
import enum
import math
from dataclasses import dataclass

from . import adapt, core
from .core import CmaState, StrategyParams
from .errors import ConfigError
from .rng import RngStream
from .runlog import GenRecord, RunLog

# the two ways to set the covariance rates: fixed defaults, or adapted online
MODES = ("plain", "self_adaptive")


class StopReason(str, enum.Enum):
    """Why a segment (or the whole run) stopped."""

    TARGET_HIT = "target_hit"
    TOL_HIST_FUN = "tol_hist_fun"
    TOL_X = "tol_x"
    CONDITION_COV = "condition_cov"
    STAGNATION = "stagnation"
    BUDGET_EXHAUSTED = "budget_exhausted"

    def __str__(self) -> str:  # so CSV cells carry the bare value
        return self.value

    @property
    def ends_run(self) -> bool:
        return self in (StopReason.TARGET_HIT, StopReason.BUDGET_EXHAUSTED)


# The restart rules, fixed at the IPOP-CMA-ES values (Auger & Hansen, CEC
# 2005): a segment restarts when its best fitness over the last `hist_window`
# generations spans at most TOL_HIST_FUN, when sigma times the square root of
# C's largest eigenvalue falls to TOL_X (1e-12 of the initial step size), when
# C's condition number passes MAX_COND, or after `stagnation_gens` generations
# without a strict improvement.
TOL_HIST_FUN = 1e-12
TOL_X = 1e-12 * core.INIT_SIGMA
MAX_COND = 1e14


def hist_window(n: int, lam: int) -> int:
    """Length of the best-fitness history window for the flatness check."""
    return 10 + math.ceil(30.0 * n / lam)


def stagnation_gens(n: int, lam: int) -> int:
    """Generations without a strict improvement that end a segment."""
    return 100 + math.ceil(100.0 * n / lam)


class SegmentHistory:
    """What the stop checks read of a segment's per-generation best fitness.

    `recent` holds the last `window` bests, oldest first; `best` is the
    segment's best so far and `since_best` the number of generations since
    it last strictly improved. Each push costs the same however long the
    segment has run. `spent` is the number of evaluations the run used
    before this segment.
    """

    def __init__(self, window: int, spent: int = 0):
        self.spent = spent
        self.recent = collections.deque(maxlen=window)
        self.best = math.inf
        self.since_best = 0

    def push(self, f: float) -> None:
        if f < self.best or not self.recent:
            self.best = f
            self.since_best = 0
        else:
            self.since_best += 1
        self.recent.append(f)


def check_stop(
    state: CmaState, history: SegmentHistory, budget: int, target: float
) -> StopReason | None:
    """First stopping criterion triggered by the segment so far, or None.

    `history` holds the current segment's per-generation best fitness, with
    a window of `hist_window(n, lam)`. The budget rule counts the run's
    evaluations, `history.spent` plus this segment's. Criteria are checked
    in a fixed priority order: target, budget, then the criteria that
    restart (TOL_HIST_FUN, TOL_X, MAX_COND, `stagnation_gens` with this
    segment's n and lam), so a generation that spends the budget never
    starts another segment.
    """
    if not history.recent:
        raise ValueError("history must contain at least one generation")
    p = state.params

    if history.best <= target:
        return StopReason.TARGET_HIT

    if history.spent + state.gen * p.lam >= budget:
        return StopReason.BUDGET_EXHAUSTED

    tail = history.recent
    if len(tail) == tail.maxlen and max(tail) - min(tail) <= TOL_HIST_FUN:
        return StopReason.TOL_HIST_FUN

    if state.sigma * math.sqrt(float(state.eigen.eigenvalues[-1])) <= TOL_X:
        return StopReason.TOL_X

    if state.eigen.condition() > MAX_COND:
        return StopReason.CONDITION_COV

    if history.since_best >= stagnation_gens(p.n, p.lam):
        return StopReason.STAGNATION

    return None


@dataclass
class RestartReport:
    """A full run: each segment's lambda, and the log the rest is read from."""

    lambdas: list[int]
    log: RunLog

    @property
    def stop_reasons(self) -> list[StopReason]:
        """Why each segment stopped, oldest first."""
        return [StopReason(r.stop_reason) for r in self.log if r.stop_reason]

    @property
    def final_reason(self) -> StopReason:
        return self.stop_reasons[-1]

    @property
    def restarts(self) -> int:
        return len(self.stop_reasons) - 1

    @property
    def total_evals(self) -> int:
        return self.log.records[-1].evals

    @property
    def best_f(self) -> float:
        return self.log.records[-1].best_f


def _record(
    gen: int, evals: int, best_f: float, state: CmaState, reason
) -> GenRecord:
    p = state.params
    pop = state.last_pop
    return GenRecord(
        gen=gen,
        evals=evals,
        best_f=best_f,
        median_f=pop.median_fitness,
        sigma=state.sigma,
        c1=p.c_1,
        cmu=p.c_mu,
        cc=p.c_c,
        stop_reason="" if reason is None else str(reason),
    )


def segment_states(objective, params, mean0, seg_rng, search=None):
    """Yield (state, search) after every generation of one segment, the first too.

    The primary starts at `mean0` with step-size `core.INIT_SIGMA` and draws
    from child 0 of `seg_rng`. `search` is None for the fixed rates of
    `params`, or an `adapt.RateSearch` whose rates start the segment; from
    the second generation on, it is stepped on the update before the newest
    one and its new rates are injected into the state.
    """
    if search is not None:
        params = _with_rates(params, search)
    state = core.initial_state(params, mean0, core.INIT_SIGMA)
    step_rng = seg_rng.child(0)
    prev = None
    while True:
        advanced = core.generation(objective, state, step_rng)
        if search is not None and prev is not None:
            search = adapt.self_step(search, prev, state, advanced)
            advanced = dataclasses.replace(
                advanced, params=_with_rates(advanced.params, search)
            )
        yield advanced, search
        prev, state = state, advanced


def _with_rates(params: StrategyParams, search: adapt.RateSearch) -> StrategyParams:
    return params.with_cov_rates(*search.rates)


def ipop_run(
    objective,
    n: int,
    mode: str,
    lambda0: int,
    budget: int,
    target: float,
    rng: RngStream,
) -> RestartReport:
    """Optimize until the target or the budget is hit, doubling lambda per restart.

    `mode` is "plain" for fixed default learning rates or "self_adaptive"
    for online rate adaptation. Segment s draws its starting mean uniformly
    in the initial box from stream child s of `rng`; within a segment the
    primary optimizer consumes grandchild 0 (and the adaptive mode's
    auxiliary optimizer grandchild 1), so a plain run and a self-adaptive
    run with the same stream see identical primary sampling noise.

    `budget` is soft: the run stops at the first generation whose
    evaluation count reaches it, so it can pass it by up to lam - 1
    evaluations of its last segment, and it never restarts after that.
    """
    if mode not in MODES:
        raise ConfigError(f"mode: expected one of {MODES}, got {mode!r}")
    if lambda0 < 2:
        raise ConfigError(f"lambda0: must be >= 2, got {lambda0}")
    if budget < 1:
        raise ConfigError(f"budget: must be >= 1, got {budget}")
    if not math.isfinite(target):
        raise ConfigError(f"target: must be finite, got {target}")

    records: list[GenRecord] = []
    lambdas: list[int] = []
    best_ever = math.inf
    lam = lambda0

    while True:
        seg_rng = rng.child(len(lambdas))
        mean0 = seg_rng.uniform_vector(core.INIT_BOX[0], core.INIT_BOX[1], n)
        params = core.default_params(n, lam)
        spent = records[-1].evals if records else 0
        lambdas.append(lam)
        search = None if mode == "plain" else adapt.init_search(lam, seg_rng.child(1))

        history = SegmentHistory(hist_window(n, lam), spent)
        for state, _ in segment_states(objective, params, mean0, seg_rng, search):
            best_ever = min(best_ever, state.last_pop.best_fitness)
            history.push(state.last_pop.best_fitness)
            reason = check_stop(state, history, budget, target)
            evals = spent + state.gen * lam
            records.append(_record(len(records) + 1, evals, best_ever, state, reason))
            if reason is not None:
                break

        if reason.ends_run:
            return RestartReport(lambdas, RunLog(records))
        lam *= 2
