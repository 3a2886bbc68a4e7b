"""End-to-end acceptance checks, one test per criterion.

Criteria 1-2 pin the two numeric kernels (distribution update, rank
agreement score) to independent straight-line oracles. Criterion 3 covers
the invariance properties the design leans on. Criterion 4 is a baseline
convergence check, 5-7 are behavioral claims about the adapted learning
rates measured on a shared benchmark protocol, and 8 is byte-level
determinism of the command line. The protocol grid's bytes, those of one
short restarting run and those of one short n=40 self-adaptive run are
pinned to recorded digests.

The shared protocol (criteria 5-7) runs every problem in both modes once
per session: dimension 10, population 100, 15 runs, seed 42, budget
300000, target 1e-8.
"""
import ctypes
import dataclasses
import hashlib
import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import selfcma as sc
from conftest import (
    draw_int, in_rate_box, make_random_pop, make_random_state, state_as_dict
)
from reference_impl import reference_h, reference_update
from selfcma import adapt, benchmarks, core, harness, linalg, restart
from selfcma.runlog import pooled_median

PROTOCOL_DIM = 10
PROTOCOL_LAM = 100
PROTOCOL_RUNS = 15
PROTOCOL_SEED = 42
PROTOCOL_BUDGET = 300_000
PROTOCOL_TARGET = 1e-8

# self/plain caps on median evals-to-target; sharp ridge must not be slower
RATIO_CAPS = (
    ("sphere", 1.25),
    ("rosenbrock", 1.25),
    ("ellipsoid", 1.25),
    ("sharpridge", 1.0),
)


# sha256 of each protocol cell's CSVs (see _csv_digest), of the short
# restarting run's two modes and of the short n=40 run, as recorded on
# PINNED_ON, one table per OpenBLAS kernel: the last bits of its BLAS
# products differ between its AVX-512 (SkylakeX) and AVX2 (Haswell)
# kernels, and with them the run bytes. The tests read the table of the
# kernel OpenBLAS picked (_pinned); a kernel with no table fails. A change
# that moves output on purpose updates every table and says why.
PINNED_ON = "numpy 2.4.6, scipy-openblas 0.3.31.188.0"
PROTOCOL_DIGESTS = {
    "SkylakeX": {
        ("sphere", "plain"):
            "1264adb6ea4b0704ed6ebb1fc7ee5cdda3593bcdf945dc2b72da45d6869f066f",
        ("sphere", "self_adaptive"):
            "78d2d59dd53d854e88a61215c8a0f73ad2aa4b7b2b0fa38578dddacdd4034fbe",
        ("rosenbrock", "plain"):
            "d65509b7a65b237d1dd184544109bad4a931ed55658e9d3c1452f907a92077d6",
        ("rosenbrock", "self_adaptive"):
            "ac2672168e9734c3ea49c161145dfaab9f3844a7172ee01ab0ce91674a9e2ad3",
        ("ellipsoid", "plain"):
            "34a9aa066439976dfce37e0c31ffa25e1e4f7e23088042a22151718b07e72d06",
        ("ellipsoid", "self_adaptive"):
            "8c601dbb270ac3b4a87d9efc6baf698b2002cc32cb76862599cb9c50581aba00",
        ("sharpridge", "plain"):
            "aae66fa5ebc8b9bb5b1481eeca944f88ddefc543b8e9ffecd07f0404519574a9",
        ("sharpridge", "self_adaptive"):
            "e0dbcea2b1f00ddcf418257ab0837f75965f906c86b52f3ef73048cce1d37674",
    },
    "Haswell": {
        ("sphere", "plain"):
            "596d2e410e212ec39e8620fb2d6e18bfaa4a27fa906ddf7583f8e451f3039d5b",
        ("sphere", "self_adaptive"):
            "efbf412ea4f82ac9038e829324f9b51c1daad9c79af195c6ccae8964333e73a4",
        ("rosenbrock", "plain"):
            "f7a6bebd550d08aaded6e2d411a66bae779782c57abd65be0f8229c48f82ad6e",
        ("rosenbrock", "self_adaptive"):
            "e38a7c8927682278e9dfd185271ffa73a845b3c5fa27db451006df6f94429f38",
        ("ellipsoid", "plain"):
            "e3d55adf85995c07179499e8711f4734e0d9f332e1006be94084bb752d8dba1c",
        ("ellipsoid", "self_adaptive"):
            "7f8b30c74286a1857d308eaf33813613722ff4445858b4f35aad9f336426322f",
        ("sharpridge", "plain"):
            "55c135bbae73b468599ba1ddaaa9b220b79ea2e6dab6ed0617d6813065f94e29",
        ("sharpridge", "self_adaptive"):
            "5aacec61a3e92355b427c8d24fb2a14d7880ebe5c3507f405024bbda5996badc",
    },
}
RESTART_DIGEST = {
    "SkylakeX": "1313b400951150edbf79f4c622d820fc93fb9c35c1d7bbe44fd9730275e09e1a",
    "Haswell": "aebc769d0f565e47879471969d1ee686ada9e74ba60b442e7d475d3abe6efd83",
}
N40_DIGEST = {
    "SkylakeX": "3516871685d15ae8afea6854b7019a68cb887cd8b3d1c6ba2def6a728a2c3349",
    "Haswell": "c5dbb7930af8b7388d38674e952b1b04ffd58a30539b9c3fad9013db7c64fb0a",
}


@pytest.fixture(scope="session")
def protocol_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("protocol")
    cfgs = {
        (problem, mode): harness.ExperimentConfig(
            problem=problem,
            dim=PROTOCOL_DIM,
            mode=mode,
            out_dir=str(base / f"{problem}_{mode}"),
            lam=PROTOCOL_LAM,
            runs=PROTOCOL_RUNS,
            seed=PROTOCOL_SEED,
            budget=PROTOCOL_BUDGET,
            target=PROTOCOL_TARGET,
        )
        for problem in benchmarks.PROBLEM_NAMES
        for mode in harness.MODES
    }
    # the cells are independent experiments, so they run side by side in
    # worker processes; the output bytes cannot tell. Spawned, not forked:
    # the test process may hold BLAS threads.
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(os.cpu_count() or 1, mp_context=spawn) as pool:
        list(pool.map(harness.run_experiment, cfgs.values()))
    return {cell: Path(cfg.out_dir) for cell, cfg in cfgs.items()}


def _csv_digest(*directories) -> str:
    """sha256 over each directory's sorted CSVs, name bytes then file bytes."""
    digest = hashlib.sha256()
    for directory in directories:
        for path in sorted(Path(directory).glob("*.csv")):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _moved(names) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas['name']} {blas.get('version', '')}".rstrip()
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        build = "an unknown BLAS"
    core = _openblas_core()
    return (
        f"output bytes moved in {', '.join(names)}; the {core} digests were"
        f" recorded on {PINNED_ON}, this is numpy {np.__version__}, {build}"
        f" ({core} kernel)"
    )


def _pinned(table):
    """The entry of a digest table for the kernel OpenBLAS picked; a kernel
    with no recorded digests fails the pin, naming that kernel."""
    core = _openblas_core()
    if core not in table:
        pytest.fail(
            f"no digests are recorded for OpenBLAS's {core} kernel, only for"
            f" {', '.join(table)} (on {PINNED_ON})"
        )
    return table[core]


def _openblas_core() -> str:
    """The core OpenBLAS picked at load time, as numpy's bundled
    scipy-openblas reports it, or "unknown" when that library is absent."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _assert_states_identical(a, b):
    assert np.array_equal(a.mean, b.mean)
    assert a.sigma == b.sigma
    assert np.array_equal(a.cov, b.cov)
    assert np.array_equal(a.path_sigma, b.path_sigma)
    assert np.array_equal(a.path_c, b.path_c)
    assert a.gen == b.gen


def test_criterion_1_update_rule_matches_reference():
    start = time.perf_counter()
    for i in range(100):
        n, lam = ((2, 4), (2, 6), (3, 4), (3, 6))[i % 4]
        state = make_random_state(seed=10_000 + i, n=n, lam=lam)
        pop = make_random_pop(state, seed=20_000 + i)
        new = sc.update_distribution(state, pop.candidates, pop.fitness)
        ref = reference_update(
            candidates=pop.candidates, fitness=pop.fitness, **state_as_dict(state)
        )
        for field, got in (
            ("mean", new.mean),
            ("p_sigma", new.path_sigma),
            ("p_c", new.path_c),
            ("cov", new.cov),
            ("sigma", new.sigma),
        ):
            expected = np.asarray(ref[field])
            err = np.max(np.abs(got - expected)) / max(
                np.max(np.abs(expected)), 1e-30
            )
            assert err <= 1e-12, f"instance {i}, field {field}: rel err {err}"
        assert new.gen == ref["gen"], i
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"oracle sweep took {elapsed:.2f}s"


def test_criterion_2_rank_agreement_matches_brute_force():
    start = time.perf_counter()
    for i in range(200):
        n = 2 + i % 3
        lam = 4 + i % 5
        state = make_random_state(seed=30_000 + i, n=n, lam=lam)
        pop_used = make_random_pop(state, seed=40_000 + i)
        updated = sc.update_distribution(state, pop_used.candidates, pop_used.fitness)
        pop_new = make_random_pop(updated, seed=50_000 + i)
        rng = sc.RngStream(60_000 + i)
        mu_sel = draw_int(rng, 1, lam + 1)
        # raw draws cross the constraint boundary, so both branches run;
        # the three triples are scored as one stack
        triples = np.stack([rng.uniform_vector(-0.2, 0.7, 3) for _ in range(3)])
        scores = adapt.h_objective(triples, updated, pop_new, mu_sel)
        assert scores.shape == (3,), i
        for triple, got in zip(triples, scores):
            want = reference_h(
                triple,
                state_as_dict(state),
                pop_used.candidates,
                pop_used.fitness,
                pop_new.candidates,
                pop_new.fitness,
                [1.0 / mu_sel] * mu_sel,
            )
            assert got == want, f"instance {i}: {got!r} != {want!r}"
            if in_rate_box(*triple):
                h_min = (mu_sel + 1) / 2
                h_max = sum(lam - j + 1 for j in range(1, mu_sel + 1)) / mu_sel
                # the weighted rank sum can round an ulp past an exactly
                # attained bound, so cushion by a few eps
                slack = 8 * np.finfo(float).eps * lam
                assert h_min - slack <= got <= h_max + slack, (
                    f"instance {i}: {got!r} outside [{h_min}, {h_max}]"
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"oracle sweep took {elapsed:.2f}s"


def test_criterion_3_invariance_suite():
    start = time.perf_counter()

    # (a) cubing a nonnegative objective preserves ranks, so whole
    # trajectories must match bitwise, in both modes.
    problem = sc.make_problem("sphere", 5, sc.RngStream(31))

    def cubed(x):
        return problem(x) ** 3

    params = sc.default_params(5, 8)
    mean0 = sc.RngStream(32).uniform_vector(-4.0, 4.0, 5)
    plain_a = plain_b = sc.initial_state(params, mean0, 2.0)
    rng_a, rng_b = sc.RngStream(33), sc.RngStream(33)
    for _ in range(30):
        plain_a = core.generation(problem, plain_a, rng_a)
        plain_b = core.generation(cubed, plain_b, rng_b)
        assert np.array_equal(plain_a.last_pop.order, plain_b.last_pop.order)
    _assert_states_identical(plain_a, plain_b)

    params_self = sc.default_params(5, 20)

    def self_adaptive(objective):
        # the first generation and 12 steps of the rate search after it
        search = adapt.init_search(sc.RngStream(34).child(1))
        loop = restart.segment_states(
            objective, params_self, mean0, sc.RngStream(34), search
        )
        return list(itertools.islice(loop, 13))[-1]

    primary_a, search_a = self_adaptive(problem)
    primary_b, search_b = self_adaptive(cubed)
    _assert_states_identical(primary_a, primary_b)
    assert np.array_equal(search_a.aux.mean, search_b.aux.mean)
    pa, pb = primary_a.params, primary_b.params
    assert (pa.c_1, pa.c_mu, pa.c_c) == (pb.c_1, pb.c_mu, pb.c_c)

    # (b) scaling the replayed covariance by s leaves the score unchanged:
    # compensate sigma and the covariance path so the replay sees exactly
    # an s-scaled covariance, and the integer ranks absorb the roundoff.
    for i in range(10):
        state = make_random_state(seed=70_000 + i, n=3, lam=8)
        pop_used = make_random_pop(state, seed=71_000 + i)
        updated = sc.update_distribution(state, pop_used.candidates, pop_used.fitness)
        pop_new = make_random_pop(updated, seed=72_000 + i)
        triple = [
            adapt.project_feasible(
                *sc.RngStream(73_000 + i).uniform_vector(0.0, 0.6, 3)
            )
        ]
        (base,) = adapt.h_objective(triple, updated, pop_new, 4)
        for s in (0.01, 100.0):
            root = math.sqrt(s)
            cov = linalg.symmetrize(state.cov * s)
            scaled = dataclasses.replace(
                state,
                cov=cov,
                eigen=linalg.sym_eigen(cov),
                sigma=state.sigma / root,
                path_c=state.path_c * root,
            )
            replayed = sc.update_distribution(
                scaled, pop_used.candidates, pop_used.fitness
            )
            (got,) = adapt.h_objective(triple, replayed, pop_new, 4)
            assert got == base, f"instance {i}, scale {s}: {got!r} != {base!r}"

    # (c) inverting through the decomposition must reproduce the identity
    # as closely as float64 allows, for condition numbers up to 1e10. Even
    # the correctly rounded C^{-1/2} leaves about eps * cond(C) in
    # a @ a @ C - I, and a matrix product adds a factor of up to n, so each
    # matrix is held to n * eps * cond(C).
    eps = np.finfo(float).eps
    worst_by_cond = {}
    for decade in range(2, 11, 2):
        worst = worst_ratio = 0.0
        for j in range(6):
            n = (2, 5, 10, 20, 5, 10)[j]
            rng = sc.RngStream(80_000 + 100 * decade + j)
            basis = rng.random_rotation(n)
            spread = rng.uniform_vector(-decade / 2, decade / 2, n)
            spread[0], spread[-1] = -decade / 2, decade / 2
            cov = linalg.symmetrize((basis * 10.0**spread) @ basis.T)
            decomp = linalg.sym_eigen(cov)
            a = linalg.inv_sqrt(decomp)
            residual = float(np.max(np.abs(a @ a @ cov - np.eye(n))))
            worst = max(worst, residual)
            worst_ratio = max(worst_ratio, residual / (n * eps * decomp.condition()))
        worst_by_cond[f"1e{decade}"] = worst, worst_ratio
    table = ", ".join(
        f"cond {k}: {v:.3g} ({r:.3g} of bound)" for k, (v, r) in worst_by_cond.items()
    )
    assert max(r for _, r in worst_by_cond.values()) <= 1.0, (
        f"max |inv_sqrt(C)^2 C - I| exceeds n * eps * cond(C): {table}"
    )

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"invariance suite took {elapsed:.2f}s"


def test_criterion_4_baseline_sphere_convergence(tmp_path):
    start = time.perf_counter()
    cfg = harness.ExperimentConfig(
        problem="sphere",
        dim=10,
        mode="plain",
        out_dir=str(tmp_path / "baseline"),
        lam=10,
        runs=15,
        seed=42,
        budget=5000,
        target=1e-10,
    )
    harness.run_experiment(cfg)
    logs = harness.load_run_logs(cfg.out_dir)
    cells = [harness.evals_to_target(log, cfg.target) for log in logs]
    hits = sum(1 for c in cells if c is not None and c <= 5000)
    elapsed = time.perf_counter() - start
    assert hits >= 14, f"only {hits}/15 runs reached 1e-10 within 5000 evaluations"
    assert elapsed < 10.0, f"baseline sweep took {elapsed:.2f}s"


def test_criterion_5_adapted_rates_end_above_defaults(protocol_dirs):
    defaults = sc.default_params(PROTOCOL_DIM, PROTOCOL_LAM)
    shortfalls = []
    for problem in ("sphere", "rosenbrock"):
        logs = harness.load_run_logs(protocol_dirs[problem, "self_adaptive"])
        for column, floor in (("cmu", defaults.c_mu), ("cc", defaults.c_c)):
            got = pooled_median(logs, column, "final quarter")
            if not got > floor:
                shortfalls.append(
                    f"{problem} {column}: final-quarter median {got:.6g}"
                    f" <= default {floor:.6g}"
                )
    assert not shortfalls, "; ".join(shortfalls)


def test_criterion_6_adapted_cmu_declines_near_optimum(protocol_dirs):
    logs = harness.load_run_logs(protocol_dirs["rosenbrock", "self_adaptive"])
    mid = pooled_median(logs, "cmu", "middle half")
    late = pooled_median(logs, "cmu", "final tenth")
    assert late < mid, f"final-tenth median {late:.6g} !< middle-half {mid:.6g}"


def test_criterion_7_noninferior_with_sharpridge_speedup(protocol_dirs):
    failures = []
    ratios = {}
    for problem, cap in RATIO_CAPS:
        comparison = harness.compare_dirs(
            protocol_dirs[problem, "self_adaptive"], protocol_dirs[problem, "plain"]
        )
        ratios[problem] = comparison["ratio"]
        if not comparison["ratio"] <= cap:
            failures.append(
                f"{problem}: self/plain median-evals ratio"
                f" {comparison['ratio']:.4g} > {cap}"
            )
    print(
        "median evals-to-target ratios (self/plain): "
        + ", ".join(f"{k}={v:.4g}" for k, v in ratios.items())
        + f"; sharp ridge speed-up (plain/self) = {1.0 / ratios['sharpridge']:.3f}"
    )
    assert not failures, "; ".join(failures)


def test_protocol_grid_bytes_are_pinned(protocol_dirs):
    pinned = _pinned(PROTOCOL_DIGESTS)
    moved = [
        f"{problem}/{mode}"
        for problem in benchmarks.PROBLEM_NAMES
        for mode in harness.MODES
        if _csv_digest(protocol_dirs[problem, mode]) != pinned[problem, mode]
    ]
    assert not moved, _moved(moved)


def _restarting_run_digest(base) -> str:
    """Digest of one short sphere run per mode under `base`; a target below
    the minimum is never hit, so each segment ends on a restart criterion
    until the budget ends the run."""
    dirs = []
    for mode in harness.MODES:
        cfg = harness.ExperimentConfig(
            problem="sphere",
            dim=4,
            mode=mode,
            out_dir=str(Path(base) / mode),
            lam=8,
            runs=1,
            seed=1,
            budget=4000,
            target=-1.0,
        )
        (report,) = harness.run_experiment(cfg)
        assert report.restarts >= 2, (mode, report.stop_reasons)
        assert report.final_reason is not restart.StopReason.TARGET_HIT, mode
        dirs.append(cfg.out_dir)
    return _csv_digest(*dirs)


def test_restarting_run_bytes_are_pinned(tmp_path):
    start = time.perf_counter()
    digest = _restarting_run_digest(tmp_path)
    assert digest == _pinned(RESTART_DIGEST), _moved(["sphere restart run"])
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"two restarting runs took {elapsed:.2f}s"


def test_restarting_run_bytes_are_pinned_under_the_avx2_kernel(tmp_path):
    # OpenBLAS reads OPENBLAS_CORETYPE when it loads, so the Haswell run needs
    # a fresh interpreter; with it an AVX-512 host checks both tables
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import test_acceptance as t;"
        " print(t._openblas_core(), t._restarting_run_digest(sys.argv[2]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(Path(__file__).parent), str(tmp_path)],
        env=dict(os.environ, OPENBLAS_CORETYPE="Haswell"),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    core, digest = done.stdout.split()
    assert core == "Haswell", f"OPENBLAS_CORETYPE=Haswell ran the {core} kernel"
    assert digest == RESTART_DIGEST["Haswell"], (
        f"output bytes moved in the sphere restart run under the Haswell"
        f" kernel; its digests were recorded on {PINNED_ON}"
    )


def test_n40_self_adaptive_run_bytes_are_pinned(tmp_path):
    # the protocol grid is n=10; this pins rate scoring where the rank-mu
    # matrix is rank-deficient (mu = 7 < n = 40)
    cfg = harness.ExperimentConfig(
        problem="ellipsoid",
        dim=40,
        mode="self_adaptive",
        out_dir=str(tmp_path),
        lam=15,
        runs=1,
        seed=42,
        budget=1500,
        target=PROTOCOL_TARGET,
    )
    harness.run_experiment(cfg)
    assert _csv_digest(tmp_path) == _pinned(N40_DIGEST), _moved(["n=40 ellipsoid run"])


def test_criterion_8_cli_reruns_byte_identical(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "rerun"
    command = [
        sys.executable, "-m", "selfcma", "run",
        "--problem", "sphere", "--dim", "4", "--mode", "self",
        "--lambda", "8", "--runs", "2", "--seed", "7",
        "--budget", "3000", "--target", "1e-9", "--out", str(out),
    ]

    def run_once():
        result = subprocess.run(command, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}

    first = run_once()
    second = run_once()
    assert sorted(first) == ["run_000.csv", "run_001.csv", "summary.csv"]
    for name, payload in first.items():
        assert payload == second[name], f"{name} differs between executions"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"two executions took {elapsed:.2f}s"
