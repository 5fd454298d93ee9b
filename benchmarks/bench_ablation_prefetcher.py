"""Ablation: does the COL/RM crossover track the prefetcher stream limit?

Paper Figure 5 attributes COL's degradation beyond four columns to the
prefetcher "efficiently support[ing] up to four parallel sequential
accesses". Sweeping the stream limit tests that mechanism directly: a
smaller table should pull the crossover earlier, a bigger one later
(the ``ablation.prefetcher_*`` rows of ``repro.bench.figures.CLAIMS``).

Run: pytest benchmarks/bench_ablation_prefetcher.py --benchmark-only
"""

from repro.bench.figures import assert_claims, crossover, sweep


def test_prefetcher_stream_limit(benchmark, save_result):
    results = benchmark.pedantic(
        sweep, args=("prefetcher",), rounds=1, iterations=1
    )
    text = ["COL/RM crossover projectivity by prefetcher stream limit:"]
    for limit, exp in results.items():
        text.append(f"  max_streams={limit:2d} -> crossover at k={crossover(exp)}")
    for limit, exp in results.items():
        text.append("")
        text.append(exp.to_table())
    save_result("ablation_prefetcher", "\n".join(text))
    assert_claims("prefetcher")
