"""CLI flag parsing, config-file merging, and exit codes."""
import dataclasses
import math
import xml.etree.ElementTree as ET

import pytest

from selfcma import cli
from selfcma.runlog import GenRecord, RunLog


def _run_args(out, extra=()):
    return [
        "run",
        "--problem",
        "sphere",
        "--dim",
        "4",
        "--mode",
        "plain",
        "--lambda",
        "8",
        "--runs",
        "2",
        "--seed",
        "17",
        "--budget",
        "8000",
        "--target",
        "1e-6",
        "--out",
        str(out),
        *extra,
    ]


def test_run_writes_logs_and_returns_zero(tmp_path, capsys):
    code = cli.main(_run_args(tmp_path / "out"))
    assert code == 0
    assert (tmp_path / "out" / "run_001.csv").exists()
    assert "2/2 runs" in capsys.readouterr().out


def test_mode_alias_self_means_self_adaptive(tmp_path):
    args = _run_args(tmp_path / "out")
    args[args.index("plain")] = "self"
    assert cli.main(args) == 0
    config = (tmp_path / "out" / "config.txt").read_text()
    assert "mode=self_adaptive" in config


def test_plot_and_compare_round_trip(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cli.main(_run_args(a)) == 0
    assert cli.main(_run_args(b)) == 0
    capsys.readouterr()

    fig = tmp_path / "fig.svg"
    assert cli.main(["plot", "--in", str(a), "--out", str(fig)]) == 0
    ET.parse(fig)

    assert cli.main(["compare", "--a", str(a), "--b", str(b)]) == 0
    out = capsys.readouterr().out
    ratio_line = [l for l in out.splitlines() if l.startswith("ratio")][0]
    assert float(ratio_line.split("=")[1]) == pytest.approx(1.0)


def test_config_file_supplies_defaults_cli_wins(tmp_path, capsys):
    conf = tmp_path / "exp.conf"
    conf.write_text(
        "problem=sphere\ndim=4\nmode=plain\nlam=8\nruns=2\nseed=17\n"
        "budget=8000\ntarget=1e-6\nout_dir=" + str(tmp_path / "from_conf") + "\n"
    )
    assert cli.main(["run", "--config", str(conf)]) == 0
    assert (tmp_path / "from_conf" / "summary.csv").exists()

    # a flag overrides the same key from the file
    assert (
        cli.main(["run", "--config", str(conf), "--out", str(tmp_path / "cli_out")])
        == 0
    )
    assert (tmp_path / "cli_out" / "summary.csv").exists()
    assert "seed=17" in (tmp_path / "cli_out" / "config.txt").read_text()


def test_config_file_mode_is_checked_and_aliased(tmp_path, capsys):
    out = tmp_path / "out"
    conf = tmp_path / "exp.conf"
    base = f"problem=sphere\ndim=4\nlam=8\nruns=1\nbudget=400\nout_dir={out}\n"
    conf.write_text(base + "mode=turbo\n")
    assert cli.main(["run", "--config", str(conf)]) == 1
    err = capsys.readouterr().err
    assert "mode" in err and "'turbo'" in err
    assert not out.exists()

    conf.write_text(base + "mode=self\n")
    assert cli.main(["run", "--config", str(conf)]) == 0
    assert "mode=self_adaptive" in capsys.readouterr().out
    assert "mode=self_adaptive\n" in (out / "config.txt").read_text()


def test_missing_required_field_is_config_error(tmp_path, capsys, monkeypatch):
    code = cli.main(["run", "--problem", "sphere", "--dim", "4", "--mode", "plain"])
    assert code == 1
    assert "out_dir" in capsys.readouterr().err
    # an empty out_dir would write the logs into the working directory
    monkeypatch.chdir(tmp_path)
    assert cli.main(_run_args("")) == 1
    assert "out_dir: must not be empty" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unknown_flag_and_bad_value_exit_one(tmp_path, capsys):
    assert cli.main(_run_args(tmp_path / "x", extra=["--bogus"])) == 1
    args = _run_args(tmp_path / "x")
    args[args.index("4")] = "four"
    assert cli.main(args) == 1
    assert cli.main(["frobnicate"]) == 1
    assert cli.main([]) == 1


def test_bad_config_file_path_exit_one(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "nope.conf")]) == 1
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["plot", "--in", "VOID", "--out", "x.svg"],
        ["compare", "--a", "VOID", "--b", "VOID"],
        ["rates", "--in", "VOID"],
    ],
    ids=lambda args: args[0],
)
def test_missing_directory_exits_one_naming_the_path(tmp_path, capsys, args):
    void = str(tmp_path / "void")
    assert cli.main([void if a == "VOID" else a for a in args]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and void in err and "out_dir" not in err


def test_plot_unwritable_output_exit_two(tmp_path, capsys):
    a = tmp_path / "a"
    assert cli.main(_run_args(a)) == 0
    fig = tmp_path / "no_dir" / "fig.svg"
    code = cli.main(["plot", "--in", str(a), "--out", str(fig)])
    assert code == 2
    # the message names the chart asked for, not the temp file beside it
    err = capsys.readouterr().err
    assert err.endswith(f": '{fig}'\n") and ".tmp'" not in err


def test_csv_logs_loadable_after_cli_run(tmp_path):
    assert cli.main(_run_args(tmp_path / "out")) == 0
    log = RunLog.from_csv(tmp_path / "out" / "run_000.csv")
    assert len(log) > 0
    assert log.records[-1].stop_reason != ""


def test_removed_flags_and_negative_seed_exit_one_before_writing(tmp_path, capsys):
    # lambda is the one user knob: the initial step size, lambda_h and the
    # restart thresholds are fixed, so their flags and keys are refused
    out = tmp_path / "out"
    for flag, value in (
        ("--sigma0", "3"),
        ("--lambda-h", "10"),
        ("--tol-hist-fun", "1e-11"),
        ("--tol-x", "1e-9"),
        ("--max-cond", "1e10"),
        ("--stagnation-gens", "50"),
    ):
        assert cli.main(_run_args(out, extra=[flag, value])) == 1, flag
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag} {value}" in err, flag
        assert not out.exists(), flag

    assert cli.main(_run_args(out, extra=["--seed", "-1"])) == 1
    assert "seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()

    conf = tmp_path / "old.conf"
    conf.write_text("sigma0=2\n")
    assert cli.main(_run_args(out, extra=["--config", str(conf)])) == 1
    assert "sigma0: unknown config key" in capsys.readouterr().err
    assert not out.exists()


def test_rerun_with_fewer_runs_refuses_stale_logs(tmp_path, capsys):
    # run_002.csv of a 3-run experiment would be read by `plot` and `rates`
    # as a third run of a 2-run rerun, so the rerun writes nothing
    out = tmp_path / "out"
    args = _run_args(out)
    args[args.index("--runs") + 1] = "3"
    assert cli.main(args) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert cli.main(_run_args(out)) == 1
    assert "run_002.csv" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_plot_malformed_log_exits_two_naming_the_file(tmp_path, capsys):
    a = tmp_path / "a"
    assert cli.main(_run_args(a)) == 0
    log = a / "run_000.csv"
    header, first = log.read_text().splitlines()[:2]
    for text in ("gen,evals\n1,8\n", f"{header}\n{first.rsplit(',', 1)[0]}\n"):
        log.write_text(text)
        capsys.readouterr()
        assert cli.main(["plot", "--in", str(a), "--out", str(tmp_path / "f.svg")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("selfcma: error: ") and err.count("\n") == 1
        assert str(log) in err


def test_plot_without_a_finite_best_f_exits_two(tmp_path, capsys):
    # an objective that returns inf for every candidate leaves best_f inf
    rows = [GenRecord(g, 8 * g, math.inf, math.inf, 2.0, 0.1, 0.2, 0.3) for g in (1, 2)]
    RunLog(rows).to_csv(tmp_path / "run_000.csv")
    fig = tmp_path / "f.svg"
    assert cli.main(["plot", "--in", str(tmp_path), "--out", str(fig)]) == 2
    err = capsys.readouterr().err
    assert err == "selfcma: error: cannot plot a run log with no finite best_f\n"
    assert not fig.exists()


def test_plot_with_a_nan_rate_exits_two(tmp_path, capsys):
    rows = [GenRecord(g, 8 * g, 1.0 / g, 1.0, 2.0, 0.1, 0.2, 0.3) for g in (1, 2, 3)]
    rows[1] = dataclasses.replace(rows[1], cc=math.nan)
    log = tmp_path / "run_000.csv"
    RunLog(rows).to_csv(log)
    assert "nan" in log.read_text()
    fig = tmp_path / "f.svg"
    assert cli.main(["plot", "--in", str(tmp_path), "--out", str(fig)]) == 2
    err = capsys.readouterr().err
    # the log is refused as it is read, before any median is taken
    assert err == f"selfcma: error: {log}: cc is nan at generation 2\n"
    assert not fig.exists()


def test_compare_empty_summary_exits_two(tmp_path, capsys):
    a = tmp_path / "a"
    assert cli.main(_run_args(a)) == 0
    summary = a / "summary.csv"
    header = summary.read_text().splitlines()[0]
    for text, message in (
        ("", "missing header"),
        (f"{header}\n0,abc,8,1,1,0,target_hit\n", "'abc'"),
        ("run,total_evals\n0,8\n", "no evals_to_target column"),
    ):
        summary.write_text(text)
        capsys.readouterr()
        assert cli.main(["compare", "--a", str(a), "--b", str(a)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("selfcma: error: ") and err.count("\n") == 1
        assert str(summary) in err and message in err


@pytest.fixture(scope="module")
def rates_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "out"
    args = "run --problem sphere --dim 2 --mode self --lambda 6 --runs 1 --budget 120"
    assert cli.main([*args.split(), "--out", str(out)]) == 0
    return out


def test_rates_summarizes_a_run(rates_dir, capsys):
    assert cli.main(["rates", "--in", str(rates_dir)]) == 0
    out = capsys.readouterr().out
    assert "sphere dim=2 mode=self_adaptive, 1 runs" in out
    assert [line.split()[0] for line in out.splitlines()[1:]] == ["c1", "cmu", "cc"]


@pytest.mark.parametrize(
    "case, code, words",
    [
        ("unknown config key", 1, "sigma0: unknown config key"),
        ("no run logs", 2, "no run_*.csv files"),
        ("no config file", 1, "config.txt not found"),
        ("no dim line", 1, "dim: required (give a flag or config entry)"),
        ("lam=1", 1, "lam: must be >= 2, got 1"),
    ],
)
def test_rates_bad_input_is_one_line(rates_dir, tmp_path, capsys, case, code, words):
    if case != "no run logs":
        log = rates_dir / "run_000.csv"
        (tmp_path / log.name).write_bytes(log.read_bytes())
    config = (rates_dir / "config.txt").read_text()
    if case == "unknown config key":
        (tmp_path / "config.txt").write_text("sigma0=2\n")
    elif case == "no dim line":
        (tmp_path / "config.txt").write_text(config.replace("dim=2\n", ""))
    elif case == "lam=1":
        (tmp_path / "config.txt").write_text(config.replace("lam=6\n", "lam=1\n"))
    assert cli.main(["rates", "--in", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith("selfcma: ") and err.count("\n") == 1
    assert words in err
