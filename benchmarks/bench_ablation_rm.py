"""Ablations on the RM hardware parameters: fabric clock and buffer size.

The prototype runs at 100 MHz with a 2 MB on-fabric data memory
(Section V). These sweeps probe how sensitive the headline results are
to both choices — the design-space questions a hardware team would ask
(the ``ablation.clock_*``/``ablation.buffer_*`` rows of
``repro.bench.figures.CLAIMS``).

Run: pytest benchmarks/bench_ablation_rm.py --benchmark-only
"""

import pytest

from repro.bench.figures import assert_claims, sweep

RESULTS = {"rm_clock": "ablation_rm_clock", "rm_buffer": "ablation_rm_buffer"}


@pytest.mark.parametrize("name", RESULTS)
def test_rm_sweep(benchmark, save_result, name):
    exp = benchmark.pedantic(sweep, args=(name,), rounds=1, iterations=1)
    save_result(RESULTS[name], exp.to_table())
    assert_claims(name)
