"""The scripts under scripts/, run as a user runs them."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import selfcma
from selfcma import harness

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(selfcma.__file__).resolve().parents[1]


def _rate_trajectories(*dirs):
    env = dict(os.environ)
    paths = [str(SRC), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    script = ROOT / "scripts" / "rate_trajectories.py"
    return subprocess.run(
        [sys.executable, str(script), *map(str, dirs)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "out"
    harness.run_experiment(
        harness.ExperimentConfig(
            problem="sphere", dim=2, mode="self_adaptive", out_dir=str(out),
            lam=6, runs=1, budget=120,
        )
    )
    return out


def test_rate_trajectories_summarizes_a_run(run_dir):
    result = _rate_trajectories(run_dir)
    assert result.returncode == 0, result.stderr
    assert "sphere dim=2 mode=self_adaptive, 1 runs" in result.stdout
    assert [line.split()[0] for line in result.stdout.splitlines()[1:]] == [
        "c1", "cmu", "cc"
    ]


@pytest.mark.parametrize(
    "case, code, words",
    [
        ("unknown config key", 1, "sigma0: unknown config key"),
        ("no run logs", 2, "no run_*.csv files"),
        ("no config file", 2, "config.txt"),
    ],
)
def test_rate_trajectories_bad_input_is_one_line(run_dir, tmp_path, case, code, words):
    bad = tmp_path / "bad"
    bad.mkdir()
    if case != "no run logs":
        log = run_dir / "run_000.csv"
        (bad / log.name).write_bytes(log.read_bytes())
    if case == "unknown config key":
        (bad / "config.txt").write_text("sigma0=2\n")
    result = _rate_trajectories(bad)
    assert result.returncode == code
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("rate_trajectories: error: ")
    assert words in result.stderr
