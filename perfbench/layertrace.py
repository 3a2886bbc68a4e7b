"""Per-layer tracing from outside the program.

While installed, a `Tracer` replaces public functions of each selfcma layer
with wrappers that time the call and charge it to a layer bucket; the
originals are put back afterwards. Spans nest on a stack, so a layer's self
time is its duration minus the time of the spans it caused, and a span's
bucket can depend on its parent: an update under `adapt.h_objective` is a
replay, a generation whose objective is not the problem is the auxiliary
generation. Spans are folded into per-bucket sums as they close rather than
kept one by one, because a self-adaptive pass makes millions of them.
"""
from __future__ import annotations

import contextlib
import os
import time
from collections import defaultdict

from selfcma import adapt, benchmarks, core, harness, linalg, restart, runlog, svgplot

_clock = time.perf_counter


class _TimedProblem:
    """Forwarding proxy around a Problem; each call is one benchmarks.eval span."""

    def __init__(self, problem, tracer: "Tracer"):
        self._problem = problem
        self._tracer = tracer

    def __call__(self, x):
        start = _clock()
        try:
            return self._problem(x)
        finally:
            self._tracer._close("benchmarks.eval", _clock() - start, 0.0)

    def __getattr__(self, name):
        return getattr(self._problem, name)


def _generation_bucket(parent, args, kwargs):
    objective = args[0] if args else kwargs.get("objective")
    return "core.generation" if isinstance(objective, _TimedProblem) else "adapt.aux"


def _sample_bucket(parent, args, kwargs):
    return "adapt.aux" if parent == "adapt.aux" else "core.sample"


def _update_bucket(parent, args, kwargs):
    if parent == "adapt.score":
        return "adapt.replay"
    return "adapt.aux" if parent == "adapt.aux" else "core.update"


# (owner, attribute, bucket or bucket(parent, args, kwargs)); the owner's
# attribute is replaced while the tracer is installed.
HOOKS = (
    (core, "generation", _generation_bucket),
    (core, "sample_population", _sample_bucket),
    (core, "update_distribution", _update_bucket),
    (adapt, "self_step", "adapt.aux"),
    (adapt, "h_objective", "adapt.score"),
    (linalg, "sym_eigen", "linalg.sym_eigen"),
    (linalg, "inv_sqrt", "linalg.inv_sqrt"),
    (linalg, "mahalanobis", "linalg.mahalanobis"),
    (restart, "check_stop", "restart.check_stop"),
    (restart, "ipop_run", "restart.driver"),
    (runlog.RunLog, "to_csv", "runlog.write"),
    (runlog.RunLog, "from_csv", "runlog.read"),
    (runlog, "aggregate_medians", "runlog.aggregate"),
    (svgplot, "emit_plot", "svgplot.emit"),
    (harness, "run_experiment", "harness"),
    (harness, "single_run", "harness"),
    (harness, "load_run_logs", "harness"),
    (benchmarks, "make_problem", None),  # returns a _TimedProblem, no span
)


_EVAL = ("benchmarks.make_problem",)
_REPLAY = ("adapt.h_objective", "core.update_distribution")
_HARNESS = ("harness.run_experiment", "harness.single_run", "harness.load_run_logs")

# metric -> (unit, hooks it needs)
LAYER_METRICS = {
    "benchmarks.eval_us_per_gen": ("us/gen", _EVAL),
    "benchmarks.calls_per_gen": ("calls/gen", _EVAL),
    "benchmarks.evals": ("count", _EVAL),
    "core.generation_self_us_per_gen": ("us/gen", ("core.generation",)),
    "core.sample_us_per_gen": ("us/gen", ("core.sample_population",)),
    "core.update_us_per_gen": ("us/gen", ("core.update_distribution",)),
    "core.gens": ("count", ("core.generation",)),
    "adapt.score_us_per_gen": ("us/gen", ("adapt.h_objective",)),
    "adapt.replay_us_per_gen": ("us/gen", _REPLAY),
    "adapt.aux_us_per_gen": ("us/gen", ("core.generation", "adapt.self_step")),
    "adapt.scores_per_gen": ("calls/gen", ("adapt.h_objective",)),
    "adapt.replays_per_gen": ("calls/gen", _REPLAY),
    "adapt.feasible_share": ("share", _REPLAY),
    "linalg.sym_eigen_us_per_gen": ("us/gen", ("linalg.sym_eigen",)),
    "linalg.sym_eigen_calls_per_gen": ("calls/gen", ("linalg.sym_eigen",)),
    "linalg.inv_sqrt_us_per_gen": ("us/gen", ("linalg.inv_sqrt",)),
    "linalg.inv_sqrt_calls_per_gen": ("calls/gen", ("linalg.inv_sqrt",)),
    "linalg.mahalanobis_us_per_gen": ("us/gen", ("linalg.mahalanobis",)),
    "restart.check_stop_us_per_gen": ("us/gen", ("restart.check_stop",)),
    "restart.driver_us_per_gen": ("us/gen", ("restart.ipop_run",)),
    "restart.segments": ("count", ("restart.ipop_run",)),
    "restart.nontarget_stops": ("count", ("restart.ipop_run",)),
    "runlog.write_us_per_row": ("us/row", ("RunLog.to_csv",)),
    "runlog.bytes_written": ("bytes", ("RunLog.to_csv",)),
    "runlog.read_us_per_row": ("us/row", ("RunLog.from_csv",)),
    "runlog.aggregate_ms": ("ms/cell", ("runlog.aggregate_medians",)),
    "svgplot.emit_ms": ("ms/cell", ("svgplot.emit_plot",)),
    "harness.self_ms": ("ms/cell", _HARNESS),
}


class Tracer:
    """Self time and call count per layer bucket, plus a few work counts."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        # open spans as [bucket, seconds spent in child spans]
        self._stack: list[list] = [["root", 0.0]]

    def _close(self, bucket: str, duration: float, child_s: float) -> None:
        self.self_s[bucket] += duration - child_s
        self.calls[bucket] += 1
        self._stack[-1][1] += duration

    def _span(self, fn, bucket):
        stack = self._stack

        def traced(*args, **kwargs):
            if isinstance(bucket, str):
                name = bucket
            else:
                name = bucket(stack[-1][0], args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = _clock() - start
                stack.pop()
                self._close(name, duration, frame[1])
            self._count(name, args, result)
            return result

        return traced

    def _make_problem(self, fn):
        def traced(*args, **kwargs):
            return _TimedProblem(fn(*args, **kwargs), self)

        return traced

    def _count(self, bucket, args, result) -> None:
        """Work counts read from a span's arguments and result, outside its time."""
        if bucket == "restart.driver":
            self.counts["segments"] += len(result.lambdas)
            self.counts["nontarget_stops"] += sum(
                r != restart.StopReason.TARGET_HIT for r in result.stop_reasons
            )
        elif bucket == "runlog.write":
            self.counts["rows_written"] += len(args[0])
            self.counts["bytes_written"] += os.path.getsize(args[1])
        elif bucket == "runlog.read":
            self.counts["rows_read"] += len(result)

    @contextlib.contextmanager
    def installed(self):
        """Replace every hook target that exists; record the ones that do not."""
        undo = []
        try:
            for owner, attr, bucket in HOOKS:
                raw = vars(owner).get(attr)
                if raw is None:
                    owner_name = owner.__name__.removeprefix("selfcma.")
                    self.missing.append(f"{owner_name}.{attr}")
                    continue
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                if bucket is None:
                    wrapped = self._make_problem(fn)
                else:
                    wrapped = self._span(fn, bucket)
                setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
                undo.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    def layer_metrics(self, gens: int, cells: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of one traced pass: name -> (value, unit).

        Times are self time per primary generation unless the unit says
        otherwise. A metric whose hooks are missing is left out.
        """
        t, calls, counts = self.self_s, self.calls, self.counts
        written, read = counts["rows_written"], counts["rows_read"]
        per_gen = max(gens, 1)

        def us(bucket):
            return 1e6 * t[bucket] / per_gen

        def ratio(num, den):
            return num / den if den else 0.0

        values = {
            "benchmarks.eval_us_per_gen": us("benchmarks.eval"),
            "benchmarks.calls_per_gen": calls["benchmarks.eval"] / per_gen,
            "benchmarks.evals": calls["benchmarks.eval"],
            "core.generation_self_us_per_gen": us("core.generation"),
            "core.sample_us_per_gen": us("core.sample"),
            "core.update_us_per_gen": us("core.update"),
            "core.gens": calls["core.generation"],
            "adapt.score_us_per_gen": us("adapt.score"),
            "adapt.replay_us_per_gen": us("adapt.replay"),
            "adapt.aux_us_per_gen": us("adapt.aux"),
            "adapt.scores_per_gen": calls["adapt.score"] / per_gen,
            "adapt.replays_per_gen": calls["adapt.replay"] / per_gen,
            "adapt.feasible_share": ratio(calls["adapt.replay"], calls["adapt.score"]),
            "linalg.sym_eigen_us_per_gen": us("linalg.sym_eigen"),
            "linalg.sym_eigen_calls_per_gen": calls["linalg.sym_eigen"] / per_gen,
            "linalg.inv_sqrt_us_per_gen": us("linalg.inv_sqrt"),
            "linalg.inv_sqrt_calls_per_gen": calls["linalg.inv_sqrt"] / per_gen,
            "linalg.mahalanobis_us_per_gen": us("linalg.mahalanobis"),
            "restart.check_stop_us_per_gen": us("restart.check_stop"),
            "restart.driver_us_per_gen": us("restart.driver"),
            "restart.segments": counts["segments"],
            "restart.nontarget_stops": counts["nontarget_stops"],
            "runlog.write_us_per_row": 1e6 * ratio(t["runlog.write"], written),
            "runlog.bytes_written": counts["bytes_written"],
            "runlog.read_us_per_row": 1e6 * ratio(t["runlog.read"], read),
            "runlog.aggregate_ms": 1e3 * t["runlog.aggregate"] / cells,
            "svgplot.emit_ms": 1e3 * t["svgplot.emit"] / cells,
            "harness.self_ms": 1e3 * t["harness"] / cells,
        }
        missing = set(self.missing)
        return {
            name: (value, LAYER_METRICS[name][0])
            for name, value in values.items()
            if not missing.intersection(LAYER_METRICS[name][1])
        }
