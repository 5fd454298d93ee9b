"""Macrobenchmark: scatter-gather scaling and shard-kill recovery.

Two measurements over :mod:`repro.dist`:

1. **Scaling** — TPC-H Q1 and Q6 over a bench-mode lineitem cluster at
   1, 2, 4, and 8 shards (fork-inherited tables, one worker process per
   shard). Wall time is reported but *not* gated (CI runners share
   cores); what gates is the determinism contract: every shard count
   must produce a payload byte-identical to unsharded serial execution
   and charge exactly the same ledger cycles — sharding buys
   parallelism, never a different answer or a different bill. Three
   host-time ratios gate too, timed by
   :func:`repro.bench.timing.paired_timing`: ``q1_group_host_ratio``,
   serial Q1 over the same plan without its GROUP BY, which rises
   sharply if grouping falls back to a slow sort;
   ``q6_scan_host_ratio``, serial Q6 over one ``gather`` of its three
   WHERE fields, which rises if row selection goes back to a pass over
   the image per term; and ``bulk_load_host_ratio``, bulk-loading the
   shards' row images over one contiguous copy of as many image bytes.
2. **Recovery** — a durable 4-shard orders cluster absorbs a seeded
   write mix, then every shard in turn is SIGKILLed and the next query
   timed: the coordinator restarts the fault domain, replays its WAL,
   and must return the exact serial answer. Recovered WAL bytes and
   restart counts are deterministic per seed and gate tightly.

Run as a script (writes the artifact consumed by CI)::

    PYTHONPATH=src python benchmarks/bench_shard.py \
        --rows 10000000 --txns 400 --json BENCH_shard.json

CI runs a reduced ``--rows 2000000`` and also writes the sampled
``dist_*`` metrics time series (``--metrics-json``) for
``scripts/check_trace_schema.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import replace
from functools import partial
from typing import Dict, List, Tuple

import numpy as np

from repro.bench.timing import PairedTiming, paired_timing
from repro.core.packer import gather, record_view
from repro.core.selection import CompareOp, FabricPredicate
from repro.dist import (
    AggSpec,
    AggTerm,
    DistConfig,
    DistPlan,
    ShardCluster,
    execute_plan,
    q1_plan,
    q6_plan,
)
from repro.db.sharding import ShardedTable
from repro.obs import MetricsRegistry
from repro.workloads.tpch import generate_lineitem

#: Ledger buckets the distributed path charges; reported per query.
DIST_BUCKETS = ("dist_scan", "dist_filter", "dist_agg", "dist_gather")


def run_scaling(
    rows: int,
    shard_counts,
    seed: int,
    metrics: MetricsRegistry = None,
) -> Tuple[Dict[str, object], Dict[str, PairedTiming]]:
    """The scaling report, and the timing behind each of its host ratios."""
    _, lineitem = generate_lineitem(rows, seed=seed)
    plans = {"q1": q1_plan(), "q6": q6_plan()}

    def serial(plan):
        return lambda _: partial(execute_plan, lineitem, plan)

    # Q1 against the same filter and sums without the grouping; Q6
    # against one read of the image (its WHERE fields, every row).
    image = record_view(lineitem.frame, lineitem.schema.full_geometry())
    q6_fields = tuple(dict.fromkeys(plans["q6"].fabric_filter.fields()))
    timings = {
        "q1_group_host_ratio": paired_timing(
            serial(plans["q1"]), serial(replace(plans["q1"], group_by=()))
        ),
        "q6_scan_host_ratio": paired_timing(
            serial(plans["q6"]), lambda _: partial(gather, image, q6_fields)
        ),
    }
    report: Dict[str, object] = {"rows": rows, "per_shards": {}}
    answers = {}
    for name, (key, timing) in zip(plans, timings.items()):
        answers[name] = timing.outputs[0][-1]
        report[f"{name}_serial_seconds"] = statistics.median(timing.seconds[0])
        report[key] = timing.ratio

    bulk_load, timings["bulk_load_host_ratio"] = run_bulk_load(lineitem, max(shard_counts))
    report.update(bulk_load)

    clusters: List[ShardCluster] = []
    for n in shard_counts:
        sharded = ShardedTable.split(lineitem, "l_orderkey", n)
        cluster = ShardCluster(
            sharded, DistConfig(deadline_s=600.0, boot_deadline_s=600.0)
        )
        cluster.start()
        clusters.append(cluster)
        if metrics is not None:
            cluster.attach_metrics(metrics, shards=str(n))
        entry: Dict[str, object] = {"shards": len(sharded.shards)}
        for name, plan in plans.items():
            t0 = time.perf_counter()
            res = cluster.query(plan, metrics=metrics)
            entry[f"{name}_seconds"] = time.perf_counter() - t0
            ref = answers[name]
            entry[f"{name}_bit_identical"] = res.to_bytes() == ref.to_bytes()
            entry[f"{name}_ledger_bit_identical"] = (
                res.ledger.buckets == ref.ledger.buckets
            )
            for bucket in DIST_BUCKETS:
                entry[f"{name}_{bucket}_cycles"] = res.ledger.buckets.get(
                    bucket, 0
                )
        cluster.close()
        report["per_shards"][str(n)] = entry
    report["all_bit_identical"] = all(
        e[k]
        for e in report["per_shards"].values()
        for k in e
        if "identical" in k
    )
    return report, timings


def run_bulk_load(lineitem, nshards: int) -> Tuple[Dict[str, float], PairedTiming]:
    """Host time of bulk-loading lineitem's stored columns into
    ``nshards`` range shards over a contiguous copy of its row image (the
    same bytes), by :func:`paired_timing`.

    ``bulk_load_host_ratio`` is load over copy: both write every byte of
    the image once, so the ratio rises if the load goes back to a pass per
    column or a masked copy per shard.
    """
    columns = {
        c.name: lineitem.column(c.name) for c in lineitem.schema.user_columns
    }
    qs = np.linspace(0, 1, nshards + 1)[1:-1]
    bounds = sorted({int(np.quantile(columns["l_orderkey"], q)) for q in qs})

    def load(_):
        sharded = ShardedTable(lineitem.schema, "l_orderkey", bounds)
        return lambda: sharded.bulk_load(columns)

    def copy(_):
        # Pages are mapped on the first write, as for ``frame.copy()``;
        # the set-up owns the buffer, so no image outlives its pair.
        image = np.empty_like(lineitem.frame)
        return lambda: np.copyto(image, lineitem.frame)

    timing = paired_timing(load, copy)
    return {
        "bulk_load_seconds": statistics.median(timing.seconds[0]),
        "image_copy_seconds": statistics.median(timing.seconds[1]),
        "bulk_load_host_ratio": timing.ratio,
    }, timing


def _orders_plan() -> DistPlan:
    return DistPlan(
        table="orders",
        key_column="o_id",
        predicates=(FabricPredicate("o_customer", CompareOp.LE, 40),),
        group_by=("o_status",),
        aggregates=(
            AggSpec("sum_amount", "sum", (AggTerm("o_amount"),)),
            AggSpec("n", "count"),
        ),
    )


def run_recovery(
    txns: int, seed: int, metrics: MetricsRegistry = None
) -> Dict[str, object]:
    from repro.workloads.htap import orders_schema

    rng = np.random.default_rng(seed)
    cluster = ShardCluster(
        ShardedTable(orders_schema(), "o_id", [100, 200, 300]),
        DistConfig(deadline_s=30.0),
        durable=True,
    )
    cluster.start()
    if metrics is not None:
        cluster.attach_metrics(metrics, phase="recovery")
    for _ in range(txns):
        cluster.insert(
            {
                "o_id": int(rng.integers(0, 400)),
                "o_customer": int(rng.integers(1, 50)),
                "o_amount": float(rng.integers(1, 20_000)) / 100.0,
                "o_status": int(rng.integers(0, 3)),
            }
        )
    plan = _orders_plan()
    serial = cluster.run_serial(plan)

    t0 = time.perf_counter()
    baseline = cluster.query(plan, metrics=metrics)
    baseline_s = time.perf_counter() - t0
    identical = [baseline.to_bytes() == serial.to_bytes()]

    kill_seconds = []
    nshards = len(cluster.sharded.shards)
    for i in range(nshards):
        cluster.kill_shard(i)
        t0 = time.perf_counter()
        res = cluster.query(plan, metrics=metrics)
        kill_seconds.append(time.perf_counter() - t0)
        identical.append(res.to_bytes() == serial.to_bytes())
    stats = cluster.stats
    report = {
        "txns": txns,
        "shards": nshards,
        "rows": cluster.sharded.nrows,
        "baseline_query_seconds": baseline_s,
        "recovery_seconds_mean": sum(kill_seconds) / len(kill_seconds),
        "recovery_seconds_max": max(kill_seconds),
        "kills": stats.kills_total,
        "restarts": stats.restarts_total,
        "recoveries": stats.recoveries_total,
        "recovered_wal_bytes": stats.recovered_bytes_total,
        "replicated_wal_bytes": stats.replicated_bytes_total,
        "all_bit_identical": all(identical),
    }
    cluster.close()
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="scatter-gather scaling + shard-kill recovery bench"
    )
    parser.add_argument("--rows", type=int, default=10_000_000)
    parser.add_argument(
        "--shards", type=int, nargs="+", default=[1, 2, 4, 8]
    )
    parser.add_argument("--txns", type=int, default=400)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", type=str, default="")
    parser.add_argument(
        "--metrics-json",
        type=str,
        default="",
        help="also write the sampled dist_* metrics time series here",
    )
    parser.add_argument(
        "--metrics-interval", type=float, default=5_000_000.0
    )
    args = parser.parse_args(argv)

    metrics = sampler = None
    if args.metrics_json:
        metrics = MetricsRegistry()
        sampler = metrics.attach_sampler(
            interval_cycles=args.metrics_interval
        )

    scaling, timings = run_scaling(args.rows, args.shards, args.seed, metrics=metrics)
    recovery = run_recovery(args.txns, args.seed, metrics=metrics)
    if sampler is not None:
        sampler.sample_now()

    report = {"scaling": scaling, "recovery": recovery}
    for n, entry in scaling["per_shards"].items():
        print(
            f"{entry['shards']} shard(s): "
            f"q1 {entry['q1_seconds']:.3f}s q6 {entry['q6_seconds']:.3f}s "
            f"(serial q1 {scaling['q1_serial_seconds']:.3f}s, "
            f"q6 {scaling['q6_serial_seconds']:.3f}s) "
            f"identical={entry['q1_bit_identical'] and entry['q6_bit_identical']}"
        )
    print("host ratios, median [q1–q3] of the pairs:")
    for key, timing in timings.items():
        print(f"  {key:<20} {timing}")
    print(
        f"recovery: {recovery['kills']} kills, mean "
        f"{recovery['recovery_seconds_mean']:.3f}s, max "
        f"{recovery['recovery_seconds_max']:.3f}s, "
        f"{recovery['recovered_wal_bytes']} WAL bytes replayed, "
        f"identical={recovery['all_bit_identical']}"
    )

    ok = scaling["all_bit_identical"] and recovery["all_bit_identical"]
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2)
        print(f"wrote {args.json}")
    if args.metrics_json:
        with open(args.metrics_json, "w") as f:
            f.write(sampler.series.to_json(indent=2))
        print(f"metrics time series -> {args.metrics_json}")
    if not ok:
        print("FAIL: distributed answers not bit-identical", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
