"""Time one cold start of a workload and print it in seconds.

Run in a fresh interpreter by `run.py`: import selfcma, build the workload's
configs and every run's problem instance, as `harness.single_run` would.

    python3 perfbench/setup_probe.py <src dir> <workload> <seed>
"""
import sys
import time


def main() -> None:
    start = time.perf_counter()
    src, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    from selfcma import benchmarks
    from selfcma.rng import RngStream

    import workloads

    for cfg in workloads.build(workload, seed, "unused"):
        for index in range(cfg.runs):
            rng = RngStream(cfg.seed).child(index)
            benchmarks.make_problem(cfg.problem, cfg.dim, rng)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
