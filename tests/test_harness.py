"""Experiment config parsing, output layout, determinism, and comparison."""
import dataclasses
import itertools
import math

import pytest

import selfcma as sc
from selfcma import harness, runlog
from selfcma.errors import ConfigError, EmptyInput
from selfcma.restart import MODES, StopReason


def _cfg(tmp_path, **kw):
    base = dict(
        problem="sphere",
        dim=4,
        mode="plain",
        out_dir=str(tmp_path / "out"),
        lam=8,
        runs=3,
        seed=11,
        budget=20_000,
        target=1e-8,
    )
    base.update(kw)
    return sc.ExperimentConfig(**base)


def test_config_validation_names_offending_field(tmp_path):
    with pytest.raises(ConfigError, match="problem"):
        _cfg(tmp_path, problem="cigar")
    with pytest.raises(ConfigError, match="runs"):
        _cfg(tmp_path, runs=0)
    with pytest.raises(ConfigError, match="seed: must be >= 0"):
        _cfg(tmp_path, seed=-1)
    with pytest.raises(ConfigError, match="mode"):
        _cfg(tmp_path, mode="selfish")
    with pytest.raises(ConfigError, match="lam"):
        _cfg(tmp_path, lam=1)
    with pytest.raises(ConfigError, match="target"):
        _cfg(tmp_path, target=math.nan)
    with pytest.raises(ConfigError, match="out_dir: must not be empty"):
        _cfg(tmp_path, out_dir="")


def test_config_text_roundtrip(tmp_path):
    cfg = _cfg(tmp_path, target=1e-9, mode="self_adaptive")
    parsed = harness.parse_config_text(cfg.to_text())
    assert parsed["problem"] == "sphere"
    assert parsed["dim"] == 4
    assert parsed["target"] == 1e-9
    assert parsed["mode"] == "self_adaptive"
    rebuilt = sc.ExperimentConfig(**parsed)
    assert rebuilt == cfg
    # config.txt's bytes: one line per field, a float as format(.17g) and
    # the rest as str, each parsing back to the same value
    for target in [1e-10, 1e-8, 0.1, 1.0, -0.0, 5e-324, 1.7976931348623157e308]:
        cfg = _cfg(tmp_path, target=target, mode="self_adaptive")
        fields = [(f, getattr(cfg, f.name)) for f in dataclasses.fields(cfg)]
        want = [
            f"{f.name}={format(float(v), '.17g') if f.type == 'float' else str(v)}"
            for f, v in fields
        ]
        assert cfg.to_text() == "\n".join(want) + "\n"
        assert sc.ExperimentConfig(**harness.parse_config_text(cfg.to_text())) == cfg


def test_parse_config_rejects_unknown_and_garbage():
    with pytest.raises(ConfigError, match="budgt"):
        harness.parse_config_text("budgt=5\n")
    with pytest.raises(ConfigError, match="dim"):
        harness.parse_config_text("dim=ten\n")
    with pytest.raises(ConfigError, match="key=value"):
        harness.parse_config_text("just some words\n")
    with pytest.raises(ConfigError, match="lam: set on lines 1 and 3"):
        harness.parse_config_text("lam=100\nseed=1\nlam=50\n")
    assert harness.parse_config_text("# comment\n\nseed=9\n") == {"seed": 9}


def test_run_experiment_writes_expected_files(tmp_path):
    cfg = _cfg(tmp_path)
    reports = sc.run_experiment(cfg)
    assert len(reports) == 3
    out = tmp_path / "out"
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "config.txt",
        "run_000.csv",
        "run_001.csv",
        "run_002.csv",
        "summary.csv",
    ]
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == harness.SUMMARY_HEADER
    assert len(summary) == 4
    logs = harness.load_run_logs(out)
    assert [len(l) for l in logs] == [len(r.log) for r in reports]


def test_run_logs_are_written_as_runs_return(tmp_path, monkeypatch):
    real_single_run = harness.single_run

    def failing_third(cfg, index):
        if index == 2:
            raise RuntimeError("run 2 failed")
        return real_single_run(cfg, index)

    monkeypatch.setattr(harness, "single_run", failing_third)
    with pytest.raises(RuntimeError, match="run 2 failed"):
        sc.run_experiment(_cfg(tmp_path))
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == ["run_000.csv", "run_001.csv"]


def test_runs_differ_across_indices_but_reproduce_across_calls(tmp_path):
    cfg_a = _cfg(tmp_path, out_dir=str(tmp_path / "a"))
    cfg_b = _cfg(tmp_path, out_dir=str(tmp_path / "b"))
    sc.run_experiment(cfg_a)
    sc.run_experiment(cfg_b)
    for name in ("run_000.csv", "run_001.csv", "run_002.csv", "summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes(), name
    # different run indices draw different problem instances
    assert (tmp_path / "a" / "run_000.csv").read_bytes() != (
        tmp_path / "a" / "run_001.csv"
    ).read_bytes()


def test_single_run_matches_batch(tmp_path):
    cfg = _cfg(tmp_path)
    batch = sc.run_experiment(cfg)
    alone = harness.single_run(cfg, 1)
    assert alone.log.records == batch[1].log.records
    assert alone.total_evals == batch[1].total_evals


def test_summary_evals_to_target_column(tmp_path):
    # at budget 600 the third run misses the target and its cell is empty
    for budget in (20_000, 600):
        out = tmp_path / str(budget)
        cfg = _cfg(tmp_path, budget=budget, out_dir=str(out))
        reports = sc.run_experiment(cfg)
        header, *rows = (out / harness.SUMMARY_NAME).read_text().splitlines()
        pos = header.split(",").index("evals_to_target")
        cells = [row.split(",")[pos] for row in rows]
        assert len(cells) == len(reports)
        for cell, report in zip(cells, reports):
            expected = harness.evals_to_target(report.log, cfg.target)
            assert cell == ("" if expected is None else str(expected))
        # `compare` reads the run logs, not this table, and agrees with it
        median = runlog.lower_median([int(c) if c else math.inf for c in cells])
        assert harness.compare_dirs(out, out)["median_a"] == median
    assert cells[-1] == ""


def test_evals_to_target_finds_first_crossing():
    recs = [
        runlog.GenRecord(1, 10, 5.0, 5.0, 1, 0.1, 0.1, 0.1),
        runlog.GenRecord(2, 20, 1e-9, 1.0, 1, 0.1, 0.1, 0.1),
        runlog.GenRecord(3, 30, 1e-12, 1.0, 1, 0.1, 0.1, 0.1),
    ]
    assert harness.evals_to_target(runlog.RunLog(recs), 1e-8) == 20
    assert harness.evals_to_target(runlog.RunLog(recs), 1e-15) is None


def test_evals_to_target_is_total_evals_exactly_on_a_target_hit(tmp_path):
    # summary.csv's evals_to_target and `compare` read a hit as the run's
    # whole cost: a run stops at its first generation at or below the target
    # and a restart never hides a hit, so this holds for every stop reason
    outcomes = set()
    for problem, mode, target, budget in itertools.product(
        ("sphere", "sharpridge"), MODES, (1e-8, 1e-3, -1.0), (1200, 3000)
    ):
        cfg = _cfg(tmp_path, problem=problem, mode=mode, target=target,
                   budget=budget, runs=1, seed=2)
        report = harness.single_run(cfg, 0)
        hit = report.final_reason is StopReason.TARGET_HIT
        expected = report.total_evals if hit else None
        assert harness.evals_to_target(report.log, target) == expected, cfg
        outcomes.add((report.final_reason, report.restarts > 0))
    # the grid hits the target and runs out of budget, each with and without
    # a restart
    assert outcomes == set(itertools.product(
        (StopReason.TARGET_HIT, StopReason.BUDGET_EXHAUSTED), (False, True)
    ))


def _experiment_dir(tmp_path, name, hits):
    """A directory of one-generation run logs that hit 1e-8 at the given
    evals (None: a miss at 500 evals), with its config.txt."""
    directory = tmp_path / name
    directory.mkdir()
    cfg = _cfg(tmp_path, out_dir=str(directory), runs=len(hits))
    (directory / harness.CONFIG_NAME).write_text(cfg.to_text())
    for i, hit in enumerate(hits):
        evals, best_f = (500, 1e-2) if hit is None else (hit, 1e-9)
        record = runlog.GenRecord(1, evals, best_f, best_f, 1.0, 0.1, 0.1, 0.1)
        runlog.RunLog([record]).to_csv(directory / harness.run_name(i))
    return directory


def test_compare_dirs(tmp_path):
    fast = _experiment_dir(tmp_path, "fast", [100, 200, 300])
    slow = _experiment_dir(tmp_path, "slow", [400, None, 800])
    result = harness.compare_dirs(fast, slow)
    assert result["median_a"] == 200
    assert result["median_b"] == 800  # lower median of (400, 800, inf)
    assert result["ratio"] == pytest.approx(0.25)
    with pytest.raises(ConfigError):
        harness.compare_dirs(fast, tmp_path / "missing")


def test_load_run_logs_errors(tmp_path):
    with pytest.raises(ConfigError):
        harness.load_run_logs(tmp_path / "nowhere")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(EmptyInput):
        harness.load_run_logs(empty)


def test_load_run_logs_orders_by_run_index_past_999(tmp_path):
    # a plain name sort puts run_1000.csv before run_101.csv
    for index in (999, 1000, 101):
        record = runlog.GenRecord(index, 1, 0.0, 0.0, 1.0, 0.1, 0.2, 0.3)
        runlog.RunLog([record]).to_csv(tmp_path / harness.run_name(index))
    logs = harness.load_run_logs(tmp_path)
    assert [log.records[0].gen for log in logs] == [101, 999, 1000]
