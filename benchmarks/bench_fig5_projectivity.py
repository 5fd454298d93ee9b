"""Figure 5: normalized execution time vs projectivity (ROW/COL/RM).

Regenerates the paper's projectivity sweep — 1 to 11 four-byte columns
out of a 64-byte row — and judges it by the ``fig5.*`` rows of
``repro.bench.figures.CLAIMS``: RM beats ROW everywhere, COL wins below
four columns, RM wins above.

Run: pytest benchmarks/bench_fig5_projectivity.py --benchmark-only
"""

from repro.bench.figures import assert_claims, sweep


def test_fig5_projectivity_sweep(benchmark, save_result):
    exp = benchmark.pedantic(sweep, args=("fig5",), rounds=1, iterations=1)
    save_result("fig5_projectivity", _render(exp))
    assert_claims("fig5")


def _render(exp) -> str:
    lines = [exp.to_table(), ""]
    lines.append(
        "speedup rm-vs-row per projectivity: "
        + " ".join(f"{r:.2f}" for r in exp.ratio("row", "rm"))
    )
    lines.append(
        "col/rm ratio per projectivity   : "
        + " ".join(f"{r:.2f}" for r in exp.ratio("column", "rm"))
    )
    return "\n".join(lines)
