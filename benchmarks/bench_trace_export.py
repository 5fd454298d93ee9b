"""Bench target: trace one TPC-H Q6 run and export it.

Produces the two observability artifacts of the tracing spine:

1. the EXPLAIN ANALYZE table (per-operator cycles, rows, DRAM bytes and
   cache hit rates) printed to stdout for every engine;
2. ``TRACE_q6.json`` — the Chrome trace-event export of one engine's
   run, loadable in Perfetto / ``chrome://tracing`` and schema-checked
   in CI by ``scripts/check_trace_schema.py``.

Before exporting, the script re-verifies the spine's core invariant on
each run: replaying the trace's charge events rebuilds the flat cost
ledger bit for bit.

``--dist N`` switches to the cross-process mode: Q6 scattered over an
N-shard :class:`~repro.dist.ShardCluster` of real worker processes, each
shipping its span batch back over the RPC pipe — the export then renders
one Perfetto track per shard (``--json TRACE_dist.json``).

Run as a script::

    PYTHONPATH=src python benchmarks/bench_trace_export.py \
        --rows 20000 --engine rm --json TRACE_q6.json
    PYTHONPATH=src python benchmarks/bench_trace_export.py \
        --rows 20000 --dist 4 --json TRACE_dist.json
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.harness import write_trace
from repro.db.engines import all_engines
from repro.obs import Trace, Tracer
from repro.workloads.tpch import Q6, generate_lineitem

ENGINES = ("row", "column", "rm")


def run_dist(nrows: int, nshards: int) -> Trace:
    """Q6 over a process-per-shard cluster, span batches grafted."""
    from repro.db.sharding import ShardedTable
    from repro.dist import DistConfig, ShardCluster, q6_plan

    _, table = generate_lineitem(nrows=nrows, seed=42)
    sharded = ShardedTable.split(table, "l_orderkey", nshards)
    tracer = Tracer()
    with ShardCluster(sharded, DistConfig()) as cluster:
        distributed = cluster.query(q6_plan(), tracer=tracer)
        serial = cluster.run_serial(q6_plan())
    if distributed.groups != serial.groups:
        raise AssertionError("distributed Q6 diverged from serial replay")
    trace = Trace(tracer.last)
    replayed = trace.to_ledger()
    if replayed.buckets != cluster.ledger.buckets:
        raise AssertionError("dist trace replay diverged from the ledger")
    return trace


def run(nrows: int, memory_model: str):
    """Execute Q6 on every engine with tracing; returns name → result."""
    catalog, _ = generate_lineitem(nrows=nrows, seed=42)
    engines = all_engines(catalog, memory_model=memory_model, tracer=Tracer())
    results = {}
    for name in ENGINES:
        out = engines[name].execute(Q6)
        replayed = out.trace.to_ledger()
        if replayed.buckets != out.ledger.buckets:
            raise AssertionError(
                f"{name}: trace replay diverged from the ledger"
            )
        results[name] = out
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=20_000)
    parser.add_argument(
        "--model", choices=("analytic", "trace"), default="trace"
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="rm",
        help="which engine's trace to export as Chrome JSON",
    )
    parser.add_argument("--json", default=None, help="trace-event output path")
    parser.add_argument(
        "--dist",
        type=int,
        default=0,
        metavar="N",
        help="export a cross-process trace from an N-shard cluster instead",
    )
    args = parser.parse_args(argv)

    if args.dist:
        trace = run_dist(args.rows, args.dist)
        print(f"=== dist — Q6, {args.rows} rows, {args.dist} shards ===")
        print(trace.render())
        if args.json:
            path = write_trace(trace, args.json)
            print(f"wrote {path} ({args.dist}-shard cross-process trace)")
        return 0

    results = run(args.rows, args.model)
    for name, out in results.items():
        print(f"=== {name} — Q6, {args.rows} rows, {args.model} model ===")
        print(out.trace.render())
        print()

    if args.json:
        path = write_trace(results[args.engine].trace, args.json)
        print(f"wrote {path} ({args.engine} engine trace)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
