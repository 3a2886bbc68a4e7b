"""The package's top-level namespace."""
import re
import subprocess
import sys
from pathlib import Path

import selfcma as sc
from selfcma.runlog import RunLog

README = Path(__file__).resolve().parent.parent / "README.md"

DOCUMENTED = [
    "ExperimentConfig",
    "RngStream",
    "default_params",
    "errors",
    "initial_state",
    "ipop_run",
    "make_problem",
    "run_experiment",
    "sample_population",
    "update_distribution",
]


def _api_section():
    return README.read_text().split("## Python API", 1)[1].split("\n## ", 1)[0]


def test_every_exported_name_resolves():
    missing = [name for name in sc.__all__ if not hasattr(sc, name)]
    assert missing == []
    assert len(set(sc.__all__)) == len(sc.__all__)


def test_exports_are_the_documented_api():
    assert sorted(sc.__all__) == DOCUMENTED
    section = _api_section()
    undocumented = [
        name for name in sc.__all__ if not re.search(rf"\b{name}\b", section)
    ]
    assert undocumented == []


def test_import_loads_only_the_algorithm_modules():
    # a cold `import selfcma` is what a start-up timing measures, so the CLI
    # and the SVG writer stay off that path
    src = str(Path(sc.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import selfcma; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('selfcma'))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == ["selfcma"] + [
        f"selfcma.{name}"
        for name in ("adapt", "benchmarks", "core", "errors", "harness",
                     "linalg", "restart", "rng", "runlog")
    ]


def test_readme_example_runs(tmp_path, monkeypatch, capsys):
    # every "Python API" code block, each run as written in an empty directory
    blocks = re.findall(r"```python\n(.*?)```", _api_section(), re.S)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    outputs = []
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
        outputs.append(capsys.readouterr().out.split())
    ipop_out, ask_tell_out = outputs
    assert ipop_out[1:] == ["target_hit", "0"]
    last = RunLog.from_csv(tmp_path / "run.csv").records[-1]
    assert last.best_f <= 1e-8
    assert last.stop_reason == "target_hit"
    # the ask/tell loop ran its 300 generations down to the sphere's optimum
    gens, best = ask_tell_out
    assert int(gens) == 300 and float(best) <= 1e-8
