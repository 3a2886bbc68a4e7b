"""Seeded batch experiments: many runs, CSV logs, one summary table.

Run i of an experiment consumes stream child i of the master seed and is
completely independent of every other run, so its output bytes do not
depend on which other runs the batch holds or in what order they execute.
This is the one module that knows an experiment directory's layout: it
builds every `ExperimentConfig` (`load_config`) and reads a directory back
from its run logs and config.txt (`load_experiment`). summary.csv is
written for people to read; nothing in the package reads it back.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from . import benchmarks, restart
from .errors import ConfigError, EmptyInput
from .restart import MODES, RestartReport
from .rng import RngStream
from .runlog import (
    TYPE_CODECS, RunLog, format_float, lower_median, write_text_atomic
)

SUMMARY_NAME = "summary.csv"
CONFIG_NAME = "config.txt"
SUMMARY_HEADER = "run,evals_to_target,total_evals,best_f,gens,restarts,stop_reason"
# accepted spellings of the adaptive mode
MODE_ALIASES = {"self": "self_adaptive", "self_adaptive": "self_adaptive",
                "plain": "plain"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that defines one experiment cell.

    The flat key=value config-file format mirrors these field names
    one-to-one; see `parse_config_text`.
    """

    problem: str
    dim: int
    mode: str
    out_dir: str
    lam: int = 100
    runs: int = 15
    seed: int = 42
    budget: int = 500_000
    target: float = 1e-10

    def __post_init__(self):
        if self.problem not in benchmarks.PROBLEM_NAMES:
            raise ConfigError(
                f"problem: expected one of {benchmarks.PROBLEM_NAMES}, "
                f"got {self.problem!r}"
            )
        if self.dim < 2:
            raise ConfigError(f"dim: must be >= 2, got {self.dim}")
        if self.mode not in MODES:
            raise ConfigError(f"mode: expected one of {MODES}, got {self.mode!r}")
        if not self.out_dir:
            raise ConfigError("out_dir: must not be empty")
        if self.lam < 2:
            raise ConfigError(f"lam: must be >= 2, got {self.lam}")
        if self.runs < 1:
            raise ConfigError(f"runs: must be >= 1, got {self.runs}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if self.budget < 1:
            raise ConfigError(f"budget: must be >= 1, got {self.budget}")
        if not math.isfinite(self.target):
            raise ConfigError(f"target: must be finite, got {self.target}")

    def to_text(self) -> str:
        """The config as flat key=value lines (one field per line)."""
        lines = []
        for field in dataclasses.fields(self):
            conversion = TYPE_CODECS[field.type][1]
            lines.append(f"{field.name}={conversion % getattr(self, field.name)}")
        return "\n".join(lines) + "\n"


def field_parser(field: dataclasses.Field):
    """The parser of a config field's values."""
    return TYPE_CODECS[field.type][0]


def parse_config_text(text: str) -> dict:
    """Parse flat key=value lines into typed config keyword arguments.

    Blank lines and lines starting with '#' are ignored. Unknown, repeated
    and unparsable keys raise ConfigError naming the key.
    """
    known = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    out: dict = {}
    seen: dict = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ConfigError(f"{key}: unknown config key")
        if key in seen:
            raise ConfigError(f"{key}: set on lines {seen[key]} and {lineno}")
        seen[key] = lineno
        try:
            out[key] = field_parser(known[key])(value)
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse {value!r}") from exc
    return out


def load_config(path=None, **flags) -> ExperimentConfig:
    """The experiment of a key=value file (if `path` is given) with the flags
    that are not None laid over it, checked."""
    merged: dict = {}
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config: {path} not found")
        merged.update(parse_config_text(path.read_text()))
    merged.update({k: v for k, v in flags.items() if v is not None})
    if "mode" in merged:
        merged["mode"] = MODE_ALIASES.get(merged["mode"], merged["mode"])
    missing = [
        f.name
        for f in dataclasses.fields(ExperimentConfig)
        if f.name not in merged and f.default is dataclasses.MISSING
    ]
    if missing:
        raise ConfigError(f"{missing[0]}: required (give a flag or config entry)")
    return ExperimentConfig(**merged)


def run_name(index: int) -> str:
    return f"run_{index:03d}.csv"


def single_run(cfg: ExperimentConfig, index: int) -> RestartReport:
    """Execute run `index` of the experiment; pure apart from the report."""
    if not 0 <= index < cfg.runs:
        raise ConfigError(f"runs: run index {index} outside 0..{cfg.runs - 1}")
    run_rng = RngStream(cfg.seed).child(index)
    problem = benchmarks.make_problem(cfg.problem, cfg.dim, run_rng)
    return restart.ipop_run(
        problem, cfg.dim, cfg.mode, cfg.lam, cfg.budget, cfg.target, run_rng
    )


def evals_to_target(log: RunLog, target: float) -> int | None:
    """Evaluations consumed up to the first generation whose best hit target."""
    for record in log:
        if record.best_f <= target:
            return record.evals
    return None


def _summary_row(index: int, cfg: ExperimentConfig, report: RestartReport) -> str:
    hit = evals_to_target(report.log, cfg.target)
    return ",".join(
        [
            str(index),
            "" if hit is None else str(hit),
            str(report.total_evals),
            format_float(report.best_f),
            str(len(report.log)),
            str(report.restarts),
            str(report.final_reason),
        ]
    )


def run_experiment(cfg: ExperimentConfig) -> list[RestartReport]:
    """Run the whole experiment and write its output directory.

    Produces run_000.csv .. run_NNN.csv (one per run), summary.csv, and
    config.txt inside cfg.out_dir, each written whole by `write_text_atomic`.
    Runs execute one after another in the calling process. Each run's CSV
    is written as soon as that run returns, so a run that raises keeps the
    logs of the runs before it; summary.csv and config.txt are written only
    once every run returned. Reports come back in run order. A run_*.csv in
    cfg.out_dir that this experiment will not write, say from an earlier
    one with more runs, raises ConfigError before anything is written,
    since `load_run_logs` would read it too.
    """
    out_dir = Path(cfg.out_dir)
    names = [run_name(i) for i in range(cfg.runs)]
    stale = sorted(p.name for p in out_dir.glob("run_*.csv") if p.name not in names)
    if stale:
        raise ConfigError(
            f"out_dir: {out_dir / stale[0]} is left from another experiment"
        )
    out_dir.mkdir(parents=True, exist_ok=True)

    reports = []
    for i, name in enumerate(names):
        report = single_run(cfg, i)
        report.log.to_csv(out_dir / name)
        reports.append(report)

    rows = [SUMMARY_HEADER] + [_summary_row(i, cfg, r) for i, r in enumerate(reports)]
    write_text_atomic(out_dir / SUMMARY_NAME, "\n".join(rows) + "\n")
    write_text_atomic(out_dir / CONFIG_NAME, cfg.to_text())
    return reports


def load_run_logs(directory) -> list[RunLog]:
    """All run_*.csv logs in a directory, sorted by run index."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigError(f"{directory} is not a directory")
    # run_NNN.csv pads to three digits only, so a longer name is a later run
    paths = sorted(directory.glob("run_*.csv"), key=lambda p: (len(p.name), p.name))
    if not paths:
        raise EmptyInput(f"no run_*.csv files in {directory}")
    return [RunLog.from_csv(p) for p in paths]


def load_experiment(directory) -> tuple[ExperimentConfig, list[RunLog]]:
    """An experiment directory's config.txt and run logs, the logs read first."""
    logs = load_run_logs(directory)
    return load_config(Path(directory) / CONFIG_NAME), logs


def compare_dirs(dir_a, dir_b) -> dict:
    """Lower median evals-to-target of two experiment directories (a miss
    counts as infinity) and their ratio."""
    medians = []
    for directory in (dir_a, dir_b):
        cfg, logs = load_experiment(directory)
        hits = [evals_to_target(log, cfg.target) for log in logs]
        medians.append(float(lower_median([math.inf if h is None else h for h in hits])))
    med_a, med_b = medians
    if med_b == 0:
        raise EmptyInput("second directory has zero median evals-to-target")
    ratio = med_a / med_b if math.isfinite(med_a) or math.isfinite(med_b) else math.nan
    return {"median_a": med_a, "median_b": med_b, "ratio": ratio}
