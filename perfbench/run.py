#!/usr/bin/env python3
"""The selfcma benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload protocol-plain --seed 42 --seconds 36 --trace 0

Runs from the root of a source checkout, importing selfcma from `src/`, in
this one process with BLAS pinned to one thread and no worker pool. Passes
over the workload's cells repeat for about `--seconds` (at least two). With
`--trace 0` it reports the end-to-end metrics, sampling a fixed reference
computation while the program runs (see calibrate.py); with `--trace 1` the
per-layer ones from traced passes that follow one untraced pass.
Every pass's outputs are checked, and the numbers that must repeat exactly
are compared across passes. The last line of stdout is the result as JSON;
runs whose cell raised count as failed. The exit code is 0 when every
check passed.
See README.md in this directory for the workloads and metrics.
"""
import os

# Before numpy is first imported: one BLAS thread, no selfcma process pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SELFCMA_THREADS", None)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 9
# The keys of workloads.WORKLOADS, which imports selfcma and so cannot be
# loaded before the sources are found.
WORKLOAD_NAMES = ("protocol-plain", "protocol-self", "ipop-n40")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int) -> float:
    """Median cold-start time over fresh interpreters (see setup_probe.py)."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


_BLAS_THREAD_GETTERS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
)


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if found."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    paths = {ln.split()[-1] for ln in maps if "openblas" in ln.lower()}
    for path in sorted(p for p in paths if p.startswith("/")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


def run_passes(configs, out, seconds, traced):
    """Passes for about `seconds`; with `traced`, after one untraced pass.

    Untraced runs make at least two passes, so that the median has two
    samples and every run compares a pass with its repeat, and sample the
    reference computation. Beyond that, another pass starts only while it
    would end nearer the deadline than stopping now does, judged by the
    last pass.
    """
    from calibrate import SpeedSampler
    from passes import run_pass
    from layertrace import Tracer

    start = time.perf_counter()
    untraced = run_pass(configs, out) if traced else None
    least = 1 if traced else 2
    results, tracers = [], []
    last = 0.0
    while len(results) < least or time.perf_counter() - start + last / 2 < seconds:
        began = time.perf_counter()
        tracer = Tracer() if traced else None
        sampler = None if traced else SpeedSampler()
        results.append(run_pass(configs, out, tracer, sampler))
        tracers.append(tracer)
        last = time.perf_counter() - began
    return untraced, results, tracers


# Per-layer counts that must repeat exactly across traced passes, and the
# pass totals they must equal when no run failed.
_TRACE_COUNTS = {
    "core.gens": "gens",
    "benchmarks.evals": "evals",
    "restart.segments": "segments",
    "adapt.scores_per_gen": None,
    "adapt.replays_per_gen": None,
    "linalg.sym_eigen_calls_per_gen": None,
    "linalg.inv_sqrt_calls_per_gen": None,
    "restart.nontarget_stops": None,
    "runlog.bytes_written": None,
}


def determinism_errors(results, layers=()) -> list[str]:
    """Differences between passes in what must repeat exactly."""
    errors = []
    first = results[0].deterministic()
    for k, result in enumerate(results[1:], start=1):
        for key, value in result.deterministic().items():
            if value != first[key]:
                errors.append(f"pass {k}: {key} {value!r} != {first[key]!r} in pass 0")
    for k, layer in enumerate(layers):
        for name, total in _TRACE_COUNTS.items():
            if name not in layer:
                continue
            value, expected = layer[name][0], layers[0][name][0]
            if value != expected:
                errors.append(f"traced pass {k}: {name} {value!r} != {expected!r}")
            # a cell that raised leaves traced work but no report to total
            if total is not None and not first["failed"] and value != first[total]:
                errors.append(f"traced pass {k}: {name} {value!r} != pass {total} "
                              f"{first[total]!r}")
    return errors


def end_to_end_metrics(setup_s, results) -> dict:
    from passes import evals_to_target_p50

    first = results[0]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_ref": (statistics.median(r.wall_ref for r in results), "ref"),
        "evals_per_ref": (statistics.median(r.evals / r.wall_ref for r in results), "1/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "target_hit_share": (first.hits / first.runs, "share"),
    }
    p50 = evals_to_target_p50(first.cell_medians)
    if p50 is not None:  # None when no cell reached the target
        metrics["evals_to_target_p50"] = (p50, "evals")
    return metrics


def layer_metrics(untraced, results, tracers, cells) -> tuple[dict, list[str]]:
    layers = [t.layer_metrics(untraced.gens, cells) for t in tracers]
    metrics = {
        name: (statistics.median(layer[name][0] for layer in layers), unit)
        for name, (_, unit) in layers[0].items()
    }
    traced_wall = statistics.median(r.wall_s for r in results)
    metrics["trace.overhead_s"] = (traced_wall - untraced.wall_s, "s")
    return metrics, determinism_errors([untraced] + results, layers)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "selfcma" / "__init__.py").is_file():
        print(f"perfbench: no selfcma sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from calibrate import SpeedSampler
    from passes import run_pass

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = WORK / tag
    configs = workloads.build(args.workload, args.seed, out / "cells")
    warm = workloads.build(args.workload, args.seed, out / "warmup")
    run_pass([workloads.tiny(cfg) for cfg in warm], out / "warmup", sampler=SpeedSampler())
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)

    traced = bool(args.trace)
    untraced, results, tracers = run_passes(configs, out / "cells", args.seconds, traced)
    everything = ([untraced] if traced else []) + results
    errors = [e for r in everything for e in r.errors]
    if traced:
        metrics, trace_errors = layer_metrics(untraced, results, tracers, len(configs))
        errors += trace_errors
        missing = tracers[0].missing
    else:
        metrics = end_to_end_metrics(setup_s, results)
        errors += determinism_errors(results)
        missing = []
    failures = list(dict.fromkeys(f for r in everything for f in r.failures))
    attempted = sum(r.runs for r in everything)
    failed = sum(r.failed for r in everything)
    digest = everything[0].digest
    env = environment(args.seed)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(results)} passes of {len(configs)} cells, {results[0].runs} runs each")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:.6g} {unit}")
    print(f"  {'failed_share':<34} {failed / attempted:.6g} share "
          f"({failed} of {attempted} runs)")
    print(f"  {'wall_s':<34} {statistics.median(r.wall_s for r in results):.6g} s "
          f"(median pass, not normalized)")
    print(f"  {'evals_per_s':<34} {statistics.median(r.evals / r.wall_s for r in results):.6g} "
          f"1/s (median pass, not normalized)")
    print(f"  pass walls (s): {' '.join(f'{r.wall_s:.3f}' for r in everything)}")
    if not traced:
        refs = [1e3 * r.ref_seconds / r.ref_count for r in results]
        print(f"  reference (ms, mean per pass): {' '.join(f'{x:.4f}' for x in refs)}")
    print(f"  csv sha256: {digest}")
    print(f"  env: {json.dumps(env)}")
    for name in missing:
        print(f"  missing layer hook: {name}")
    for failure in failures:
        print(f"  RUN FAILED: {failure}")
    for error in errors:
        print(f"  CHECK FAILED: {error}")

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, csv_sha256=digest, env=env,
                  pass_walls_s=[r.wall_s for r in everything],
                  ref_seconds=[r.ref_seconds for r in everything],
                  ref_counts=[r.ref_count for r in everything],
                  missing_hooks=missing, failures=failures, errors=errors)
    shutil.rmtree(out, ignore_errors=True)
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
