"""Smoke tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench
"""
import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from calibrate import SpeedSampler  # noqa: E402
from layertrace import Tracer  # noqa: E402
from passes import run_pass  # noqa: E402
from selfcma import core, linalg  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workload_names_agree():
    names = tuple(w["name"] for w in SPEC["workloads"])
    assert names == tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES


def tiny_configs(name, out):
    return [
        dataclasses.replace(cfg, dim=4, lam=8, runs=2, budget=1200)
        for cfg in workloads.build(name, 7, out)
    ]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_matches_untraced_pass(tmp_path, name):
    configs = tiny_configs(name, tmp_path / "out")
    original = core.generation
    plain = run_pass(configs, tmp_path / "out")
    tracer = Tracer()
    traced = run_pass(configs, tmp_path / "out", tracer)

    assert plain.errors == [] and plain.failed == 0
    assert traced.deterministic() == plain.deterministic()
    assert tracer.missing == []
    layer = tracer.layer_metrics(plain.gens, len(configs))
    assert layer["core.gens"][0] == plain.gens
    assert layer["benchmarks.evals"][0] == plain.evals
    assert layer["restart.segments"][0] == plain.segments
    assert set(layer) | {"trace.overhead_s"} == {m["name"] for m in SPEC["per_layer"]}
    if all(cfg.mode == "plain" for cfg in configs):
        assert all(v == 0 for k, (v, _) in layer.items() if k.startswith("adapt."))
    assert core.generation is original  # hooks removed


def test_sampling_the_reference_leaves_outputs_alone(tmp_path):
    configs = tiny_configs("ipop-n40", tmp_path / "out")
    plain = run_pass(configs, tmp_path / "out")
    sampled = run_pass(configs, tmp_path / "out", sampler=SpeedSampler())

    assert sampled.deterministic() == plain.deterministic()
    assert sampled.ref_count >= 1 and sampled.ref_seconds > 0
    assert 0 < sampled.wall_s < sampled.wall_ref
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_sampler_samples_every_period():
    sampler = SpeedSampler(period=0.005)
    with sampler.active():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert 10 <= sampler.count <= 42


def test_failing_cell_counts_its_runs_as_failed(tmp_path):
    configs = tiny_configs("protocol-plain", tmp_path / "out")
    (tmp_path / "blocker").write_text("")
    blocked = str(tmp_path / "blocker" / "cell")
    configs[0] = dataclasses.replace(configs[0], out_dir=blocked)
    result = run_pass(configs, tmp_path / "out")
    assert result.failed == configs[0].runs
    assert result.errors == []
    assert len(result.failures) == 1 and result.failures[0].startswith("cell: ")


def test_missing_hook_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(linalg, "sym_eigen")
    tracer = Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == ["linalg.sym_eigen"]
    layer = tracer.layer_metrics(gens=1, cells=1)
    assert "linalg.sym_eigen_us_per_gen" not in layer
    assert "linalg.inv_sqrt_us_per_gen" in layer


def _run_cli(cwd, seed, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "protocol-plain",
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_cli_refuses_to_run_without_sources(tmp_path):
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run_cli(tmp_path, seed=1, trace=0)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_cli_prints_every_metric(trace, key):
    done = _run_cli(ROOT, seed=3, trace=trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
    units = {m["name"]: m["unit"] for m in SPEC[key]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
