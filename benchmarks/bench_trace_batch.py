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
   the scalar reference's on the same walk in the same process (so
   runner speed cancels, and kernel work on another route moves neither
   side; the baseline gate allows +50%): ``scan_host_ratio`` for the
   cold scan above (a full-cache sweep at both levels),
   ``probe_host_ratio`` for a re-referencing LCG probe walk (a hash-join
   probe), ``warm_host_ratio`` for a second scan of a region right after
   its cold scan (both take the LRU stack-distance route of the kernel),
   and, each run after a cold scan, ``probe_kernel_host_ratio`` for
   TPC-H Q3's first probe walk (stack distance at both levels) and
   ``fit_probe_kernel_host_ratio`` for its second, whose lines fit
   L2's sets (the kernel's fit route at L2); these two are medians of
   back-to-back batch/scalar pairs. Both Q3 walks are also checked
   bit-identical.
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
from typing import Dict

from repro.db.engines import all_engines
from repro.hw.analytic import TraceMemoryModel
from repro.hw.config import default_platform
from repro.workloads.tpch import Q6, generate_lineitem

ENGINES = ("row", "column", "rm")
#: Timings per host ratio; the minimum of each is used (least runner noise).
HOST_REPEATS = 3
#: Back-to-back batch/scalar pairs per Q3 probe walk; the median of the
#: pairs' ratios is reported.
PROBE_PAIRS = 5
#: Batch timings of the cold scan, which takes milliseconds against the
#: scalar loop's seconds, so a single slow repeat would move its ratio.
SCAN_REPEATS = 10
#: Accesses per distinct line of the probe walk (TPC-H Q3's probe revisits
#: each line about five times).
PROBE_REUSE = 5
#: TPC-H Q3's first hash-join probe walk at 200k lineitem rows: 107,703
#: probes over a working set of 39,299 lines.
Q3_PROBES, Q3_PROBE_LINES = 107_703, 39_299
#: Q3's second probe walk: as many probes over 7,458 lines, at most 8 of
#: them in any L2 set.
Q3_FIT_LINES = 7_458


def _hierarchy_snapshot(hierarchy) -> Dict[str, object]:
    return {
        "access": asdict(hierarchy.stats),
        "l1": asdict(hierarchy.l1.stats),
        "l2": asdict(hierarchy.l2.stats),
        "dram": asdict(hierarchy.dram.stats),
        "prefetch_covered": hierarchy.prefetcher.covered,
        "prefetch_uncovered": hierarchy.prefetcher.uncovered,
    }


def run_scan(nrows: int) -> Dict[str, object]:
    """Time the Q6 table scan (rowstore fetch path) batch vs scalar: the
    least of ``SCAN_REPEATS`` batch scans, one scalar scan (it runs for
    seconds)."""
    catalog, _ = generate_lineitem(nrows=16)  # only the schema is needed
    row_stride = catalog.table("lineitem").schema.row_stride
    nbytes = nrows * row_stride
    out: Dict[str, object] = {"rows": nrows, "bytes": nbytes}
    for label, use_batch, repeats in (
        ("batch", True, SCAN_REPEATS), ("scalar", False, 1)
    ):
        times = []
        for _ in range(repeats):
            model = TraceMemoryModel(default_platform(), use_batch=use_batch)
            base = model.region(("rows", "lineitem"), nbytes)
            t0 = time.perf_counter()
            mem = model.sequential(nbytes, base_addr=base)
            times.append(time.perf_counter() - t0)
        out[f"{label}_seconds"] = min(times)
        out[f"{label}_cycles"] = (mem.covered, mem.exposed)
        out[f"{label}_hierarchy"] = _hierarchy_snapshot(model.hierarchy)
    out["speedup"] = out["scalar_seconds"] / out["batch_seconds"]
    out["bit_identical"] = (
        out["batch_cycles"] == out["scalar_cycles"]
        and out["batch_hierarchy"] == out["scalar_hierarchy"]
    )
    return out


def run_host_seconds(nbytes: int) -> Dict[str, Dict[str, float]]:
    """Host time, under the batch kernel and under the scalar reference,
    of a second scan of an ``nbytes`` region right after its cold scan
    (run by the batch kernel, whose end state is the scalar one), and of
    a probe walk with as many accesses as the scan has lines. The batch
    times are the least of ``HOST_REPEATS``; the scalar reference runs
    for seconds, so it is timed once."""
    nlines = nbytes // default_platform().l1.line_bytes
    out: Dict[str, Dict[str, float]] = {}
    for label, use_batch, repeats in (
        ("batch", True, HOST_REPEATS), ("scalar", False, 1)
    ):
        warm, probe = [], []
        for _ in range(repeats):
            model = TraceMemoryModel(default_platform())
            base = model.region(("rows", "lineitem"), nbytes)
            model.sequential(nbytes, base_addr=base)
            model.use_batch = use_batch
            t0 = time.perf_counter()
            model.sequential(nbytes, base_addr=base)
            warm.append(time.perf_counter() - t0)
            model = TraceMemoryModel(default_platform(), use_batch=use_batch)
            t0 = time.perf_counter()
            model.random(nlines, nbytes // PROBE_REUSE)
            probe.append(time.perf_counter() - t0)
        out[label] = {"warm_scan": min(warm), "probe": min(probe)}
    return out


def run_probe_kernel(nbytes: int, probes: int, lines: int) -> Dict[str, object]:
    """Host time of a Q3-shaped probe walk of ``probes`` accesses over
    ``lines`` lines under the batch kernel and under the scalar reference,
    each after a cold scan of ``nbytes`` (run by the batch kernel, whose
    end state is the scalar one), and whether both left the same cycles
    and hierarchy state.

    The two kernels are timed in ``PROBE_PAIRS`` back-to-back pairs, and
    the ratio is the median of the pairs' ratios: both sides of a pair
    run on the same host and allocator state, which a least time per side
    taken at different moments does not share."""
    out: Dict[str, object] = {}
    times: Dict[str, list] = {"batch": [], "scalar": []}
    state = {}
    for _ in range(PROBE_PAIRS):
        for label, use_batch in (("batch", True), ("scalar", False)):
            model = TraceMemoryModel(default_platform())
            base = model.region(("rows", "lineitem"), nbytes)
            model.sequential(nbytes, base_addr=base)
            model.use_batch = use_batch
            t0 = time.perf_counter()
            mem = model.random(probes, lines * model.line_bytes)
            times[label].append(time.perf_counter() - t0)
            state[label] = ((mem.covered, mem.exposed), _hierarchy_snapshot(model.hierarchy))
    for label, ts in times.items():
        out[label] = statistics.median(ts)
    out["host_ratio"] = statistics.median(
        b / s for b, s in zip(times["batch"], times["scalar"])
    )
    out["bit_identical"] = state["batch"] == state["scalar"]
    return out


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


def compare(scan_rows: int, engine_rows: int) -> Dict[str, object]:
    scan = run_scan(scan_rows)
    host = run_host_seconds(scan["bytes"])
    probe = run_probe_kernel(scan["bytes"], Q3_PROBES, Q3_PROBE_LINES)
    fit = run_probe_kernel(scan["bytes"], Q3_PROBES, Q3_FIT_LINES)
    probe_ratio, fit_ratio = probe.pop("host_ratio"), fit.pop("host_ratio")
    batch = run_q6_engines(engine_rows, use_batch=True)
    scalar = run_q6_engines(engine_rows, use_batch=False)
    mismatches = []
    if not scan["bit_identical"]:
        mismatches.append("scan: batch/scalar hierarchy state diverged")
    for name, walk in (("probe kernel", probe), ("fit probe kernel", fit)):
        if not walk.pop("bit_identical"):
            mismatches.append(f"{name}: batch/scalar cycles or hierarchy state diverged")
    for name in ENGINES:
        b, s = batch["engines"][name], scalar["engines"][name]
        for field in ("cycles", "answer", "hierarchy"):
            if b[field] != s[field]:
                mismatches.append(f"{name}.{field}: batch={b[field]} scalar={s[field]}")
    return {
        "scan": {
            "rows": scan["rows"],
            "bytes": scan["bytes"],
            "batch_seconds": scan["batch_seconds"],
            "scalar_seconds": scan["scalar_seconds"],
            "speedup": scan["speedup"],
            "cycles": scan["batch_cycles"],
        },
        "speedup": scan["speedup"],
        "scan_host_ratio": scan["batch_seconds"] / scan["scalar_seconds"],
        "host_seconds": host,
        "probe_kernel_seconds": probe,
        "fit_probe_kernel_seconds": fit,
        "probe_host_ratio": host["batch"]["probe"] / host["scalar"]["probe"],
        "warm_host_ratio": (
            host["batch"]["warm_scan"] / host["scalar"]["warm_scan"]
        ),
        "probe_kernel_host_ratio": probe_ratio,
        "fit_probe_kernel_host_ratio": fit_ratio,
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
    }


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

    report = compare(args.rows, args.engine_rows)
    scan = report["scan"]
    print(
        f"Q6 scan, {scan['rows']} rows ({scan['bytes'] / 1e6:.0f} MB): "
        f"scalar {scan['scalar_seconds']:.3f}s   batch {scan['batch_seconds']:.3f}s   "
        f"speedup {scan['speedup']:.1f}x"
    )
    print(
        f"host ratios, batch over scalar: "
        f"cold scan {report['scan_host_ratio']:.4f}   "
        f"probe walk {report['probe_host_ratio']:.4f}   "
        f"warm rescan {report['warm_host_ratio']:.4f}"
    )
    for title, key in (("first", "probe_kernel"), ("second", "fit_probe_kernel")):
        walk = report[f"{key}_seconds"]
        print(
            f"Q3 {title} probe walk: scalar {walk['scalar']:.3f}s   "
            f"batch {walk['batch']:.4f}s   "
            f"{key}_host_ratio {report[f'{key}_host_ratio']:.4f}"
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
    report = benchmark.pedantic(
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
