"""Figures 6a/6b: RM speedup heatmaps over projection x selection grids.

Regenerates both 10x10 heatmaps (RM vs ROW, RM vs COL) and judges them
by the ``fig6a.*``/``fig6b.*`` rows of ``repro.bench.figures.CLAIMS``:
6a all above 1 in a moderate band; 6b below 1 in the lower-left corner
and well above 1 at high column counts.

Run: pytest benchmarks/bench_fig6_heatmaps.py --benchmark-only
"""

from repro.bench.figures import assert_claims, sweep


def test_fig6_heatmaps(benchmark, save_result):
    vs_row, vs_col = benchmark.pedantic(
        sweep, args=("fig6",), rounds=1, iterations=1
    )
    save_result("fig6a_rm_vs_row", vs_row.to_table())
    save_result("fig6b_rm_vs_col", vs_col.to_table())
    assert_claims("fig6")
