"""Microbenchmark: batched vs scalar trace-mode simulation on TPC-H Q6.

The batch kernel (:mod:`repro.hw.batch`) must make the event-accurate
memory model *benchmark-viable*. Three measurements:

1. **Scan** (the headline number): the Q6 lineitem table scan — the
   rowstore fetch path, a sequential trace over ``nrows * row_stride``
   bytes — with the batched kernel vs the scalar per-line reference.
   Acceptance (what CI gates): >=20x at 300k rows, with bit-identical
   AccessStats, per-level CacheStats, DRAM stats, and prefetcher
   counters.
2. **Host ratios**: the batch kernel's host time on a walk divided by
   the scalar reference's on the same walk in the same process, timed by
   :func:`repro.bench.timing.paired_timing` (so runner speed cancels, and
   kernel work on another route moves neither side; the baseline gate
   allows +50%): ``scan_host_ratio`` for the cold scan above (a
   full-cache sweep at both levels), ``probe_host_ratio`` for a
   re-referencing LCG probe walk (a hash-join probe), ``warm_host_ratio``
   for a second scan of a region right after its cold scan (both take the
   LRU stack-distance route of the kernel), and, each run after a cold
   scan, ``probe_kernel_host_ratio`` for TPC-H Q3's first probe walk
   (stack distance at both levels) and ``fit_probe_kernel_host_ratio``
   for its second, whose lines fit L2's sets (the kernel's fit route at
   L2). Every walk is also checked bit-identical.
3. **End-to-end**: full Q6 through all three engines in trace mode,
   cross-checking that cycles, answers, and every hierarchy counter
   agree between the two kernels (at a reduced row count, since the
   query-side pandas work is identical in both and only dilutes the
   ratio).

Run as a script (writes the artifact CI gates against
``benchmarks/baselines/BENCH_trace.json``)::

    PYTHONPATH=src python benchmarks/bench_trace_batch.py \
        --rows 300000 --engine-rows 20000 --json BENCH_trace.json --min-speedup 20

or under pytest-benchmark (reduced rows)::

    pytest benchmarks/bench_trace_batch.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import asdict
from typing import Callable, Dict, Tuple

from repro.bench.timing import PAIRS, PairedTiming, paired_timing
from repro.db.engines import all_engines
from repro.hw.analytic import TraceMemoryModel
from repro.hw.config import default_platform
from repro.workloads.tpch import Q6, generate_lineitem

ENGINES = ("row", "column", "rm")
#: Accesses per distinct line of the probe walk (TPC-H Q3's probe revisits
#: each line about five times).
PROBE_REUSE = 5
#: TPC-H Q3's first hash-join probe walk at 200k lineitem rows: 107,703
#: probes over a working set of 39,299 lines.
Q3_PROBES, Q3_PROBE_LINES = 107_703, 39_299
#: Q3's second probe walk: as many probes over 7,458 lines, at most 8 of
#: them in any L2 set.
Q3_FIT_LINES = 7_458
#: The region every scan walks.
REGION = ("rows", "lineitem")


def _hierarchy_snapshot(hierarchy) -> Dict[str, object]:
    return {
        "access": asdict(hierarchy.stats),
        "l1": asdict(hierarchy.l1.stats),
        "l2": asdict(hierarchy.l2.stats),
        "dram": asdict(hierarchy.dram.stats),
        "prefetch_covered": hierarchy.prefetcher.covered,
        "prefetch_uncovered": hierarchy.prefetcher.uncovered,
    }


def run_walk(walk: Callable, cold_nbytes: int = 0, pairs: int = PAIRS) -> PairedTiming:
    """Host time of ``walk(model)`` on a fresh trace model under the batch
    kernel over the scalar reference, each after a cold scan of the first
    ``cold_nbytes`` of the scan region by the batch kernel (whose end
    state is the scalar one). Each thunk returns the walk's cycles and the
    hierarchy state it left, for the bit-identity check."""

    def side(use_batch: bool):
        def setup(_pair: int):
            model = TraceMemoryModel(default_platform())
            if cold_nbytes:
                model.sequential(cold_nbytes, base_addr=model.region(REGION, cold_nbytes))
            model.use_batch = use_batch

            def run():
                mem = walk(model)
                return (mem.covered, mem.exposed), _hierarchy_snapshot(model.hierarchy)

            return run

        return setup

    return paired_timing(side(True), side(False), pairs)


def run_q6_engines(nrows: int, use_batch: bool) -> Dict[str, object]:
    """Execute Q6 on fresh trace-mode engines; returns timings + stats."""
    catalog, _ = generate_lineitem(nrows=nrows)
    engines = all_engines(catalog, memory_model="trace")
    out: Dict[str, object] = {"engines": {}}
    total = 0.0
    for name in ENGINES:
        engine = engines[name]
        engine.memory.use_batch = use_batch
        t0 = time.perf_counter()
        result = engine.execute(Q6)
        elapsed = time.perf_counter() - t0
        total += elapsed
        out["engines"][name] = {
            "seconds": elapsed,
            "cycles": result.cycles,
            "answer": float(result.result.scalar()),
            "hierarchy": _hierarchy_snapshot(engine.memory.hierarchy),
        }
    out["seconds"] = total
    return out


def compare(scan_rows: int, engine_rows: int) -> Tuple[Dict[str, object], Dict[str, PairedTiming]]:
    """The report, and the timing behind each of its host ratios."""
    catalog, _ = generate_lineitem(nrows=16)  # only the schema is needed
    nbytes = scan_rows * catalog.table("lineitem").schema.row_stride
    nlines = nbytes // default_platform().l1.line_bytes

    def scan(model):
        return model.sequential(nbytes, base_addr=model.region(REGION, nbytes))

    def q3_walk(lines):
        return lambda model: model.random(Q3_PROBES, lines * model.line_bytes)

    # At 300k rows the scalar reference takes 4-7 s per cold scan, rescan
    # or LCG probe walk (2-vCPU x86 runner), so those three walks take two
    # pairs each.
    walks = {
        "scan": run_walk(scan, pairs=2),
        "warm": run_walk(scan, nbytes, pairs=2),
        "probe": run_walk(
            lambda model: model.random(nlines, nbytes // PROBE_REUSE), pairs=2
        ),
        "probe_kernel": run_walk(q3_walk(Q3_PROBE_LINES), nbytes),
        "fit_probe_kernel": run_walk(q3_walk(Q3_FIT_LINES), nbytes),
    }
    batch = run_q6_engines(engine_rows, use_batch=True)
    scalar = run_q6_engines(engine_rows, use_batch=False)
    mismatches = [
        f"{name}: batch/scalar cycles or hierarchy state diverged"
        for name, timing in walks.items()
        if timing.outputs[0] != timing.outputs[1]
    ]
    for name in ENGINES:
        b, s = batch["engines"][name], scalar["engines"][name]
        for field in ("cycles", "answer", "hierarchy"):
            if b[field] != s[field]:
                mismatches.append(f"{name}.{field}: batch={b[field]} scalar={s[field]}")
    timings = {f"{name}_host_ratio": timing for name, timing in walks.items()}
    host_seconds = {
        name: dict(zip(("batch", "scalar"), map(statistics.median, timing.seconds)))
        for name, timing in walks.items()
    }
    speedup = 1 / walks["scan"].ratio
    scan_cycles, _ = walks["scan"].outputs[0][0]  # batch side, first pair
    return {
        "scan": {
            "rows": scan_rows,
            "bytes": nbytes,
            "batch_seconds": host_seconds["scan"]["batch"],
            "scalar_seconds": host_seconds["scan"]["scalar"],
            "speedup": speedup,
            "cycles": scan_cycles,
        },
        "speedup": speedup,
        "host_seconds": host_seconds,
        **{key: timing.ratio for key, timing in timings.items()},
        "bit_identical": not mismatches,
        "mismatches": mismatches,
        "q6_end_to_end": {
            "rows": engine_rows,
            "batch_seconds": batch["seconds"],
            "scalar_seconds": scalar["seconds"],
            "speedup": scalar["seconds"] / batch["seconds"],
            "engines": {
                name: {
                    "batch_seconds": batch["engines"][name]["seconds"],
                    "scalar_seconds": scalar["engines"][name]["seconds"],
                    "cycles": batch["engines"][name]["cycles"],
                }
                for name in ENGINES
            },
        },
    }, timings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="batched vs scalar trace-mode Q6 benchmark"
    )
    parser.add_argument("--rows", type=int, default=1_000_000, help="scan rows")
    parser.add_argument(
        "--engine-rows",
        type=int,
        default=60_000,
        help="rows for the end-to-end three-engine cross-check",
    )
    parser.add_argument("--json", type=str, default="", help="write report here")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="exit nonzero below this batch-vs-scalar scan speedup",
    )
    args = parser.parse_args(argv)

    report, timings = compare(args.rows, args.engine_rows)
    scan = report["scan"]
    print(
        f"Q6 scan, {scan['rows']} rows ({scan['bytes'] / 1e6:.0f} MB): "
        f"scalar {scan['scalar_seconds']:.3f}s   batch {scan['batch_seconds']:.4f}s   "
        f"speedup {scan['speedup']:.1f}x"
    )
    print("host ratios, batch over scalar, median [q1–q3] of the pairs:")
    for (key, timing), (name, walk) in zip(timings.items(), report["host_seconds"].items()):
        print(
            f"  {key:<28} {timing}   "
            f"(scalar {walk['scalar']:.3f}s, batch {walk['batch']:.4f}s)"
        )
    e2e = report["q6_end_to_end"]
    print(f"Q6 end-to-end, {e2e['rows']} rows:")
    for name, e in e2e["engines"].items():
        print(
            f"  {name:>6}: scalar {e['scalar_seconds']:8.3f}s   "
            f"batch {e['batch_seconds']:8.3f}s   "
            f"({e['scalar_seconds'] / e['batch_seconds']:6.1f}x)"
        )
    print(f"bit-identical stats/cycles: {report['bit_identical']}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2)
        print(f"wrote {args.json}")
    if not report["bit_identical"]:
        print("FAIL: batch and scalar trace results diverged", file=sys.stderr)
        for m in report["mismatches"]:
            print(f"  {m}", file=sys.stderr)
        return 1
    if args.min_speedup and report["speedup"] < args.min_speedup:
        print(
            f"FAIL: scan speedup {report['speedup']:.1f}x < required "
            f"{args.min_speedup:g}x",
            file=sys.stderr,
        )
        return 1
    return 0


# ----------------------------------------------------------------------
# pytest-benchmark entry point (reduced rows for CI bench runs).
# ----------------------------------------------------------------------
def test_trace_batch_speedup(benchmark, save_result):
    report, _ = benchmark.pedantic(
        compare, args=(200_000, 20_000), rounds=1, iterations=1
    )
    scan = report["scan"]
    lines = [
        "trace-batch-speedup",
        "===================",
        f"scan rows: {scan['rows']}",
        f"scan scalar: {scan['scalar_seconds']:.3f}s",
        f"scan batch: {scan['batch_seconds']:.3f}s",
        f"scan speedup: {scan['speedup']:.1f}x",
        f"scan_host_ratio: {report['scan_host_ratio']:.4f}",
        f"probe_host_ratio: {report['probe_host_ratio']:.4f}",
        f"warm_host_ratio: {report['warm_host_ratio']:.4f}",
        f"probe_kernel_host_ratio: {report['probe_kernel_host_ratio']:.4f}",
        f"fit_probe_kernel_host_ratio: {report['fit_probe_kernel_host_ratio']:.4f}",
        f"bit_identical: {report['bit_identical']}",
    ]
    save_result("trace_batch", "\n".join(lines))
    assert report["bit_identical"], report["mismatches"]
    assert report["speedup"] > 10.0


if __name__ == "__main__":
    sys.exit(main())
