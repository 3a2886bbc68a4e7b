"""The benchmark's workloads: which experiment cells each one runs.

A workload is a list of `harness.ExperimentConfig` cells built from the
workload seed; the program under test receives nothing else. Seed 42 is the
acceptance protocol's seed. One pass of a workload runs every cell through
the public pipeline (see `passes.run_pass`).
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from selfcma import core, harness

PROTOCOL_PROBLEMS = ("sphere", "rosenbrock", "ellipsoid", "sharpridge")


@dataclass(frozen=True)
class Cells:
    """Problems x modes, sharing one set of ExperimentConfig fields."""

    problems: tuple[str, ...]
    modes: tuple[str, ...]
    fields: dict


# The protocol grid (n=10, lambda=100, budget 300k, target 1e-8) cut from 15
# to 8 runs per cell. A self-adaptive rosenbrock run restarts about one time
# in ten and doubles its work, so fewer runs make a pass's work swing with
# the seed.
_PROTOCOL = dict(dim=10, lam=100, budget=300_000, target=1e-8, runs=8)
_N40 = dict(dim=40, lam=core.default_lambda(40), target=1e-8)
_N40_PROBLEMS = ("ellipsoid", "sharpridge")

WORKLOADS = {
    # The paper's baseline: objective calls and the per-row loop dominate,
    # rate scoring does no work.
    "protocol-plain": (Cells(PROTOCOL_PROBLEMS, ("plain",), _PROTOCOL),),
    # The paper's method: 20 update replays per generation dominate.
    "protocol-self": (Cells(PROTOCOL_PROBLEMS, ("self_adaptive",), _PROTOCOL),),
    # 40x40 eigendecompositions dominate and IPOP restarts happen. Plain
    # ellipsoid gets 80k evaluations: it needs about 68k to reach the target
    # in one long segment, and without one hit the quality metrics would be
    # undefined. Plain sharpridge restarts twice on tol_x in 40k. Each
    # self-adaptive run restarts twice on condition_cov in 6k; a
    # self-adaptive generation costs about seven plain ones. One run per cell
    # keeps a pass near 8 s; across seeds its work varies by about 5%.
    "ipop-n40": (
        Cells(("ellipsoid",), ("plain",), dict(_N40, runs=1, budget=80_000)),
        Cells(("sharpridge",), ("plain",), dict(_N40, runs=1, budget=40_000)),
        Cells(_N40_PROBLEMS, ("self_adaptive",), dict(_N40, runs=1, budget=6_000)),
    ),
}


def build(name: str, seed: int, out_root) -> list[harness.ExperimentConfig]:
    """The cells of workload `name`, each writing to its own directory."""
    return [
        harness.ExperimentConfig(
            problem=problem,
            mode=mode,
            seed=seed,
            out_dir=str(Path(out_root) / f"{problem}_{mode}"),
            **cells.fields,
        )
        for cells in WORKLOADS[name]
        for problem in cells.problems
        for mode in cells.modes
    ]


def tiny(cfg: harness.ExperimentConfig) -> harness.ExperimentConfig:
    """One short run of a cell, to warm caches and lazy set-up before timing."""
    return dataclasses.replace(cfg, runs=1, budget=3 * cfg.lam)
