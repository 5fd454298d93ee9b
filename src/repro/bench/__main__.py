"""Command-line front end: regenerate paper figures from a terminal.

Usage::

    python -m repro.bench fig5 [--nrows N]
    python -m repro.bench fig6 [--nrows N]
    python -m repro.bench fig7 [--scale 1/16]
    python -m repro.bench ablations [--nrows N]
    python -m repro.bench all

Each target prints its sweeps' tables and the verdict of every claim
on them (``repro.bench.figures.CLAIMS``). Without ``--nrows`` or
``--scale`` the sweeps run at the scale the claims are declared at.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from repro.bench.chart import line_chart
from repro.bench.figures import SWEEPS, crossover, sweep, tables, verdicts

TARGETS = {
    "fig5": ("fig5",),
    "fig6": ("fig6",),
    "fig7": ("fig7a", "fig7b", "fig7q3", "fig7q14"),
    "ablations": ("prefetcher", "rm_clock", "rm_buffer"),
}


def _result(name: str, args) -> object:
    """Sweep ``name`` at the claims' scale, or rerun with the options given."""
    runner = SWEEPS[name]
    params = inspect.signature(runner).parameters
    given = {
        key: getattr(args, key)
        for key in ("nrows", "scale", "processes")
        if getattr(args, key) is not None and key in params
    }
    return runner(**given) if given else sweep(name)


def _show(name: str, args, results: dict) -> None:
    result = results[name] = _result(name, args)
    if name == "prefetcher":
        for limit, exp in result.items():
            print(f"prefetcher max_streams={limit}: COL/RM crossover at k={crossover(exp)}")
    else:
        print("\n\n".join(tables(result)))
    if name == "fig5" or name.startswith("fig7"):
        print()
        print(line_chart(result, labels=["row", "column", "rm"], logscale=name != "fig5"))
    for verdict in verdicts(name, results):
        print(f"  {verdict}")
    print()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the Relational Fabric paper's figures.",
    )
    parser.add_argument(
        "target",
        choices=[*TARGETS, "all", "report"],
        help="which experiment to run (or 'report' to consolidate results)",
    )
    parser.add_argument("--nrows", type=int, default=None)
    parser.add_argument(
        "--processes",
        type=int,
        default=None,
        help="worker processes for grid sweeps (0 = all cores)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="fraction of the paper's Figure 7 data sizes",
    )
    args = parser.parse_args(argv)

    if args.target == "report":
        import os

        from repro.bench.report import write_report

        results = os.path.join("benchmarks", "results")
        out = write_report(results, os.path.join(results, "REPORT.md"))
        print(f"wrote {out}")
        return 0
    targets = TARGETS if args.target == "all" else [args.target]
    results: dict = {}
    for target in targets:
        for name in TARGETS[target]:
            _show(name, args, results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
