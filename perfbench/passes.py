"""One timed pass over a workload's cells, and the checks on what it wrote.

A pass drives the public pipeline for every cell: `harness.run_experiment`,
then `harness.load_run_logs` -> `runlog.aggregate_medians` ->
`svgplot.emit_plot`. Only that pipeline is timed, optionally with a
`calibrate.SpeedSampler` timing the reference computation as it runs. The
output checks, the digest and the quality numbers are computed afterwards,
from the files.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from selfcma import harness, runlog, svgplot


@dataclass
class PassResult:
    """What one pass did, measured and checked."""

    wall_s: float  # the pipeline's wall time, less the sampled reference's
    runs: int
    # wall time and runs of the reference computation sampled during the pass
    ref_seconds: float = 0.0
    ref_count: int = 0
    failed: int = 0
    evals: int = 0
    gens: int = 0
    segments: int = 0
    hits: int = 0
    # per cell: lower median over runs of evals-to-target, a miss = inf
    cell_medians: list[float] = field(default_factory=list)
    digest: str = ""
    errors: list[str] = field(default_factory=list)  # failed output checks
    failures: list[str] = field(default_factory=list)  # cells that raised

    @property
    def wall_ref(self) -> float:
        """`wall_s` over the mean duration of the sampled reference."""
        return self.wall_s * self.ref_count / self.ref_seconds

    def deterministic(self) -> dict:
        """The numbers that must repeat exactly when the pass is repeated."""
        return {
            "runs": self.runs,
            "failed": self.failed,
            "evals": self.evals,
            "gens": self.gens,
            "segments": self.segments,
            "hits": self.hits,
            "cell_medians": self.cell_medians,
            "digest": self.digest,
        }


def evals_to_target_p50(cell_medians) -> float | None:
    """Geometric mean over cells of the cells' finite median evals-to-target.

    None when no cell's median is finite.
    """
    finite = [m for m in cell_medians if math.isfinite(m)]
    if not finite:
        return None
    return math.exp(sum(math.log(m) for m in finite) / len(finite))


def _pipeline(cfg: harness.ExperimentConfig):
    reports = harness.run_experiment(cfg)
    median = runlog.aggregate_medians(harness.load_run_logs(cfg.out_dir))
    svgplot.emit_plot(
        median,
        Path(cfg.out_dir) / "median.svg",
        title=f"{cfg.problem} n={cfg.dim} {cfg.mode} (median of {cfg.runs} runs)",
    )
    return reports


def run_pass(configs, out_root, tracer=None, sampler=None) -> PassResult:
    """Run every cell once, timing the pipeline, then check the outputs.

    With a tracer, its hooks are installed for the timed part only, and
    likewise a fresh `calibrate.SpeedSampler`, whose time is then taken out
    of `wall_s`. A cell whose pipeline raises counts all its runs as failed;
    the others go on. A failure is the program's outcome, not a failed check.
    """
    shutil.rmtree(out_root, ignore_errors=True)
    gc.collect()
    outcomes = []
    hooks = tracer.installed() if tracer is not None else contextlib.nullcontext()
    sampling = sampler.active() if sampler is not None else contextlib.nullcontext()
    with hooks:
        start = time.perf_counter()
        with sampling:
            for cfg in configs:
                try:
                    outcomes.append((cfg, _pipeline(cfg), None))
                except Exception as exc:  # a broken cell must not hide the others
                    outcomes.append((cfg, None, f"{type(exc).__name__}: {exc}"))
        wall = time.perf_counter() - start

    result = PassResult(wall_s=wall, runs=sum(cfg.runs for cfg in configs))
    if sampler is not None:
        result.wall_s -= sampler.seconds
        result.ref_seconds, result.ref_count = sampler.seconds, sampler.count
    digest = hashlib.sha256()
    for cfg, reports, error in outcomes:
        cell = Path(cfg.out_dir).name
        if reports is None:
            result.failed += cfg.runs
            result.failures.append(f"{cell}: {error}")
            result.cell_medians.append(math.inf)
            continue
        result.errors += check_cell(cfg, reports, digest)
        result.evals += sum(r.total_evals for r in reports)
        result.gens += sum(len(r.log) for r in reports)
        result.segments += sum(len(r.lambdas) for r in reports)
        hits = [harness.evals_to_target(r.log, cfg.target) for r in reports]
        result.hits += sum(h is not None for h in hits)
        result.cell_medians.append(
            float(runlog.lower_median([math.inf if h is None else h for h in hits]))
        )
    result.digest = digest.hexdigest()
    return result


def check_cell(cfg, reports, digest) -> list[str]:
    """Output checks for one cell; feeds each run CSV into `digest`."""
    out = Path(cfg.out_dir)
    cell = out.name
    errors = []
    if len(reports) != cfg.runs:
        errors.append(f"{cell}: {len(reports)} reports for {cfg.runs} runs")
    for i, report in enumerate(reports):
        path = out / harness.run_name(i)
        if not path.is_file():
            errors.append(f"{cell}: {path.name} missing")
            continue
        data = path.read_bytes()
        digest.update(f"{cell}/{path.name}\n".encode() + data)
        try:
            log = runlog.RunLog.from_csv(path)
        except ValueError as exc:
            errors.append(f"{cell}: {path.name} does not parse: {exc}")
            continue
        if log.to_csv_text().encode() != data or log.records != report.log.records:
            errors.append(f"{cell}: {path.name} does not round-trip")
        if report.log.to_csv_text().encode() != data:
            errors.append(f"{cell}: {path.name} differs from the returned log")
        errors += _check_log(f"{cell}/{path.name}", log, report)
    summary = out / harness.SUMMARY_NAME
    lines = summary.read_text().splitlines() if summary.is_file() else []
    if lines[:1] != [harness.SUMMARY_HEADER] or len(lines) != cfg.runs + 1:
        errors.append(f"{cell}: summary.csv has {len(lines) - 1} rows, {cfg.runs} runs")
    svg = out / "median.svg"
    if not (svg.is_file() and svg.stat().st_size > 0):
        errors.append(f"{cell}: median.svg missing or empty")
    return errors


def _check_log(name, log, report) -> list[str]:
    errors = []
    if len(log) == 0:
        return [f"{name}: no generations"]
    evals = [r.evals for r in log]
    best = [r.best_f for r in log]
    if any(b <= a for a, b in zip(evals, evals[1:])):
        errors.append(f"{name}: evals not increasing")
    if any(b > a for a, b in zip(best, best[1:])):
        errors.append(f"{name}: best_f increases")
    if evals[-1] != report.total_evals:
        errors.append(f"{name}: last evals {evals[-1]} != total {report.total_evals}")
    ends = [r.stop_reason for r in log if r.stop_reason]
    if ends != [str(s) for s in report.stop_reasons]:
        errors.append(f"{name}: stop reasons in the log differ from the report")
    if not report.final_reason.ends_run:
        errors.append(f"{name}: run ended on {report.final_reason}")
    return errors
