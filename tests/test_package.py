"""The package's top-level namespace."""
import re
from pathlib import Path

import selfcma as sc

README = Path(__file__).resolve().parent.parent / "README.md"

DOCUMENTED = [
    "ExperimentConfig",
    "RngStream",
    "StopConfig",
    "default_params",
    "errors",
    "initial_state",
    "ipop_run",
    "make_problem",
    "run_experiment",
    "sample_population",
    "update_distribution",
]


def test_every_exported_name_resolves():
    missing = [name for name in sc.__all__ if not hasattr(sc, name)]
    assert missing == []
    assert len(set(sc.__all__)) == len(sc.__all__)


def test_exports_are_the_documented_api():
    assert sorted(sc.__all__) == DOCUMENTED
    section = README.read_text().split("## Python API", 1)[1].split("\n## ", 1)[0]
    undocumented = [
        name for name in sc.__all__ if not re.search(rf"\b{name}\b", section)
    ]
    assert undocumented == []
