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


@dataclass(frozen=True)
class StopConfig:
    """Stopping thresholds for a whole run.

    tol_x defaults to 1e-12 times the initial step-size, 2e-12. A None
    stagnation_gens means 100 + ceil(100 n / lam) generations, taken from
    each segment's own population size. The function-history window is
    always 10 + ceil(30 n / lam) generations.

    max_evals is a soft budget: a run stops at the first generation whose
    evaluation count reaches it, so it can pass it by up to lam - 1
    evaluations of its last segment, and it never restarts after that.
    """

    max_evals: int
    target_f: float
    tol_hist_fun: float = 1e-12
    tol_x: float = 1e-12 * core.INIT_SIGMA
    max_cond: float = 1e14
    stagnation_gens: int | None = None

    def __post_init__(self):
        if self.max_evals < 1:
            raise ConfigError(f"max_evals: must be >= 1, got {self.max_evals}")
        if not math.isfinite(self.target_f):
            raise ConfigError(f"target_f: must be finite, got {self.target_f}")
        if self.tol_hist_fun < 0:
            raise ConfigError(f"tol_hist_fun: must be >= 0, got {self.tol_hist_fun}")
        if self.tol_x <= 0:
            raise ConfigError(f"tol_x: must be > 0, got {self.tol_x}")
        if self.max_cond <= 1:
            raise ConfigError(f"max_cond: must be > 1, got {self.max_cond}")
        if self.stagnation_gens is not None and self.stagnation_gens < 1:
            raise ConfigError(
                f"stagnation_gens: must be >= 1, got {self.stagnation_gens}"
            )


def hist_window(n: int, lam: int) -> int:
    """Length of the best-fitness history window for the flatness check."""
    return 10 + math.ceil(30.0 * n / lam)


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
    state: CmaState, history: SegmentHistory, cfg: StopConfig
) -> StopReason | None:
    """First stopping criterion triggered by the segment so far, or None.

    `history` holds the current segment's per-generation best fitness, with
    a window of `hist_window(n, lam)`. The budget rule counts the run's
    evaluations, `history.spent` plus this segment's. A None
    `cfg.stagnation_gens` means 100 + ceil(100 n / lam) with this
    segment's n and lam. Criteria are checked in a fixed priority order:
    target, budget, then the criteria that restart (tol_hist_fun, tol_x,
    condition_cov, stagnation), so a generation that spends the budget
    never starts another segment.
    """
    if not history.recent:
        raise ValueError("history must contain at least one generation")
    p = state.params

    if history.best <= cfg.target_f:
        return StopReason.TARGET_HIT

    if history.spent + state.gen * p.lam >= cfg.max_evals:
        return StopReason.BUDGET_EXHAUSTED

    tail = history.recent
    if len(tail) == tail.maxlen and max(tail) - min(tail) <= cfg.tol_hist_fun:
        return StopReason.TOL_HIST_FUN

    if state.sigma * math.sqrt(float(state.eigen.eigenvalues[-1])) <= cfg.tol_x:
        return StopReason.TOL_X

    if state.eigen.condition() > cfg.max_cond:
        return StopReason.CONDITION_COV

    stagnation = cfg.stagnation_gens or 100 + math.ceil(100.0 * p.n / p.lam)
    if history.since_best >= stagnation:
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


def segment_states(objective, params, mean0, sigma0, seg_rng, search=None):
    """Yield (state, search) after every generation of one segment, the first too.

    The primary draws from child 0 of `seg_rng`. `search` is None for the
    fixed rates of `params`, or an `adapt.RateSearch` whose rates start the
    segment; from the second generation on, it is stepped on the update
    before the newest one and its new rates are injected into the state.
    """
    if search is not None:
        params = _with_rates(params, search)
    state = core.initial_state(params, mean0, sigma0)
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
    cfg: StopConfig,
    rng: RngStream,
) -> RestartReport:
    """Optimize until the target or the budget is hit, doubling lambda per restart.

    `mode` is "plain" for fixed default learning rates or "self_adaptive"
    for online rate adaptation. Segment s draws its starting mean uniformly
    in the initial box from stream child s of `rng`; within a segment the
    primary optimizer consumes grandchild 0 (and the adaptive mode's
    auxiliary optimizer grandchild 1), so a plain run and a self-adaptive
    run with the same stream see identical primary sampling noise.
    """
    if mode not in MODES:
        raise ConfigError(f"mode: expected one of {MODES}, got {mode!r}")
    if lambda0 < 2:
        raise ConfigError(f"lambda0: must be >= 2, got {lambda0}")

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
        for state, _ in segment_states(
            objective, params, mean0, core.INIT_SIGMA, seg_rng, search
        ):
            best_ever = min(best_ever, state.last_pop.best_fitness)
            history.push(state.last_pop.best_fitness)
            reason = check_stop(state, history, cfg)
            evals = spent + state.gen * lam
            records.append(_record(len(records) + 1, evals, best_ever, state, reason))
            if reason is not None:
                break

        if reason.ends_run:
            return RestartReport(lambdas, RunLog(records))
        lam *= 2
