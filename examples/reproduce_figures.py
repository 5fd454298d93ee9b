"""Regenerate every figure of the paper's evaluation section in one run.

Prints the Figure 5 curve, both Figure 6 heatmaps, the Figure 7 size
sweeps and the ablations, each followed by its shape claims from
``repro.bench.figures.CLAIMS`` marked ``[ok]`` or ``[MISS]``. This is
the human-readable front end to the same sweeps and claims the
``benchmarks/`` targets and the tier-1 tests use.

Run:  python examples/reproduce_figures.py
"""

from repro.bench.figures import SWEEPS, sweep, tables, verdicts


def main():
    for name in SWEEPS:
        print("\n\n".join(tables(sweep(name))))
        for verdict in verdicts(name):
            print(f"  {verdict}")
        print()


if __name__ == "__main__":
    main()
