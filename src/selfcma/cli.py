"""Command-line interface.

Four subcommands: `run` executes a seeded experiment and writes CSV logs,
`plot` turns a results directory into an SVG trajectory chart, `compare`
prints the median evals-to-target ratio of two result directories, and
`rates` prints the pooled median of each adapted rate over generation
windows of result directories. `harness` builds every experiment and reads
every results directory back; this module parses arguments and prints.
Exit codes: 0 success, 1 configuration error, 2 runtime failure, 141 broken pipe.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import core, harness, runlog, svgplot
from .errors import ConfigError, SelfCmaError

# `run` flags other than --<field name with dashes>, and the fields with choices
_FLAGS = {"lam": "--lambda", "out_dir": "--out"}
_CHOICES = {"problem": harness.benchmarks.PROBLEM_NAMES,
            "mode": sorted(harness.MODE_ALIASES)}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError instead of exiting."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="selfcma", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(
        dest="command", metavar="{run,plot,compare,rates}", parser_class=_Parser
    )

    run = sub.add_parser("run", help="execute a seeded batch of optimization runs")
    for field in dataclasses.fields(harness.ExperimentConfig):
        run.add_argument(
            _FLAGS.get(field.name, "--" + field.name.replace("_", "-")),
            dest=field.name,
            type=harness.field_parser(field),
            choices=_CHOICES.get(field.name),
        )
    run.add_argument("--config", help="key=value file; command line wins")

    plot = sub.add_parser("plot", help="render a results directory as an SVG chart")
    plot.add_argument("--in", dest="in_dir", required=True)
    plot.add_argument("--out", required=True, help="SVG file to write")
    plot.add_argument("--title", default="")

    compare = sub.add_parser(
        "compare", help="median evals-to-target ratio of two runs"
    )
    compare.add_argument("--a", required=True)
    compare.add_argument("--b", required=True)

    rates = sub.add_parser("rates", help="median adapted rates over run windows")
    rates.add_argument("--in", dest="in_dirs", nargs="+", required=True, metavar="DIR")

    return parser


def _cmd_run(args) -> None:
    cfg = harness.load_config(args.config, **{
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(harness.ExperimentConfig)
    })
    reports = harness.run_experiment(cfg)
    hits = sum(
        1 for r in reports
        if harness.evals_to_target(r.log, cfg.target) is not None
    )
    print(f"{cfg.problem} dim={cfg.dim} mode={cfg.mode}: "
          f"{hits}/{cfg.runs} runs hit {cfg.target:g}; logs in {cfg.out_dir}")


def _cmd_plot(args) -> None:
    logs = harness.load_run_logs(args.in_dir)
    median = runlog.aggregate_medians(logs)
    title = args.title or f"median of {len(logs)} runs"
    svgplot.emit_plot(median, args.out, title=title)
    print(f"wrote {args.out}")


def _cmd_compare(args) -> None:
    result = harness.compare_dirs(args.a, args.b)
    print(f"a: median evals to target = {result['median_a']:g} ({args.a})")
    print(f"b: median evals to target = {result['median_b']:g} ({args.b})")
    print(f"ratio (a/b) = {result['ratio']:.6g}")


def _cmd_rates(args) -> None:
    for directory in args.in_dirs:
        cfg, logs = harness.load_experiment(directory)
        defaults = core.default_params(cfg.dim, cfg.lam)
        print(f"{directory}  ({cfg.problem} dim={cfg.dim} mode={cfg.mode},"
              f" {len(logs)} runs)")
        for column, fixed in (
            ("c1", defaults.c_1),
            ("cmu", defaults.c_mu),
            ("cc", defaults.c_c),
        ):
            cells = "  ".join(
                f"{window} {runlog.pooled_median(logs, column, window):.4f}"
                for window in runlog.WINDOWS
            )
            print(f"  {column:<4} default {fixed:.4f}  |  {cells}")


_COMMANDS = {"run": _cmd_run, "plot": _cmd_plot, "compare": _cmd_compare,
             "rates": _cmd_rates}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ConfigError("missing subcommand (run, plot, compare, or rates)")
        _COMMANDS[args.command](args)
        sys.stdout.flush()  # inside the try, so a closed pipe is caught here
        return 0
    except BrokenPipeError:  # quiet, as if killed by SIGPIPE; mute the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ConfigError as exc:
        print(f"selfcma: config error: {exc}", file=sys.stderr)
        return 1
    except SelfCmaError as exc:
        print(f"selfcma: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"selfcma: i/o error: {exc}", file=sys.stderr)
        return 2
