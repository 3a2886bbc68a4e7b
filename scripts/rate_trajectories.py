#!/usr/bin/env python3
"""Summarize how the adapted learning rates move over a run's lifetime.

Reads experiment directories written by `selfcma run` and prints the
pooled lower median of each adapted rate over early, middle, and late
generation windows, next to the fixed value a plain run would use. The
late windows are the interesting ones: they show whether the adaptation
settles above or below the defaults.

Exit codes follow `selfcma`: 0 success, 1 configuration error, 2 any
other failure to read a directory.
"""
import argparse
import sys
from pathlib import Path

from selfcma import harness
from selfcma.core import default_params
from selfcma.errors import ConfigError, SelfCmaError
from selfcma.runlog import lower_median

WINDOWS = (
    ("first quarter", lambda k: (0, k // 4)),
    ("middle half", lambda k: (k // 4, (3 * k) // 4)),
    ("final quarter", lambda k: ((3 * k) // 4, k)),
    ("final tenth", lambda k: ((9 * k) // 10, k)),
)


def pooled_median(logs, column, window):
    pooled = []
    for log in logs:
        values = log.column(column)
        lo, hi = window(len(values))
        pooled.extend(float(v) for v in values[lo:hi])
    return float(lower_median(pooled))


def summarize(directory):
    directory = Path(directory)
    logs = harness.load_run_logs(directory)
    cfg = harness.parse_config_text((directory / "config.txt").read_text())
    defaults = default_params(int(cfg["dim"]), int(cfg["lam"]))
    print(f"{directory}  ({cfg['problem']} dim={cfg['dim']} mode={cfg['mode']},"
          f" {len(logs)} runs)")
    for column, fixed in (
        ("c1", defaults.c_1),
        ("cmu", defaults.c_mu),
        ("cc", defaults.c_c),
    ):
        cells = "  ".join(
            f"{name} {pooled_median(logs, column, window):.4f}"
            for name, window in WINDOWS
        )
        print(f"  {column:<4} default {fixed:.4f}  |  {cells}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dirs", nargs="+", help="experiment directories")
    args = parser.parse_args()
    try:
        for directory in args.dirs:
            summarize(directory)
    except (SelfCmaError, OSError) as exc:
        print(f"rate_trajectories: error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
