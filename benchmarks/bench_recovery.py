"""Durability cost/recovery benchmark for the WAL subsystem.

Three questions, all with numbers the ledger can defend:

1. **What does durability cost?** The same seeded order-ledger write mix
   with ``wal=None`` vs a WAL on simulated flash: wall-clock txn/s plus
   the simulated cycles the ledger booked to ``wal_append`` (NAND program
   time dominates — commits are flush barriers).
2. **What does recovery cost as the log grows?** Crash after N txns and
   time :func:`repro.db.wal.recover` across a sweep of log lengths.
3. **What does checkpointing buy?** Sweep checkpoint cadence: checkpoint
   cycles paid up front vs log bytes/records left to replay at the crash.
4. **Does a point transaction cost O(1)?** ``point_txn_host_ratio`` is
   the host time of transactions (insert + 2 point updates + commit) on a
   64k-row table over a 2k-row table, timed by
   :func:`repro.bench.timing.paired_timing`, so runner speed cancels out.
   Every step reads or writes one record, so the ratio should sit near 1.

Run as a script (writes the artifact consumed by CI)::

    PYTHONPATH=src python benchmarks/bench_recovery.py --json BENCH_recovery.json

or under pytest-benchmark (reduced sizes)::

    pytest benchmarks/bench_recovery.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bench.timing import PAIRS, PairedTiming, paired_timing
from repro.core.ledger import CostLedger
from repro.db.mvcc import TransactionManager
from repro.db.table import Table
from repro.db.wal import Checkpointer, WriteAheadLog, recover
from repro.errors import WriteConflictError
from repro.storage.ssd import SsdLog
from repro.workloads.htap import orders_schema


def run_mix(
    n_txns: int,
    seed: int = 0,
    with_wal: bool = False,
    checkpoint_every: Optional[int] = None,
    initial_rows: int = 100,
):
    """Drive the order-ledger write mix.

    Returns ``(manager, table, wal, seconds, last_checkpoint)`` where
    ``last_checkpoint`` is the most recent periodic checkpoint (never
    taken on the final round, so a redo tail always remains) or None.
    """
    rng = np.random.default_rng(seed)
    schema = orders_schema()
    table = Table(schema)
    wal = WriteAheadLog(device=SsdLog()) if with_wal else None
    manager = TransactionManager(wal=wal)
    checkpointer = Checkpointer(wal) if (wal and checkpoint_every) else None

    next_order = 0

    def new_order() -> dict:
        nonlocal next_order
        next_order += 1
        return {
            "o_id": next_order,
            "o_customer": int(rng.integers(1, 100)),
            "o_amount": float(rng.uniform(1, 200)),
            "o_status": 0,
        }

    seed_txn = manager.begin()
    for _ in range(initial_rows):
        seed_txn.insert(table, new_order())
    manager.commit(seed_txn)

    last_cp = None
    t0 = time.perf_counter()
    for i in range(n_txns):
        txn = manager.begin()
        try:
            txn.insert(table, new_order())
            never = np.iinfo(np.int64).max
            live = np.flatnonzero(
                (table.end_ts == never) & (table.begin_ts != never)
            )
            for old in rng.choice(live, size=min(2, len(live)), replace=False):
                txn.update(table, int(old), {"o_status": 1})
            manager.commit(txn)
        except WriteConflictError:  # pragma: no cover - sequential mix
            pass
        if (
            checkpointer is not None
            and (i + 1) % checkpoint_every == 0
            and i + 1 < n_txns
        ):
            last_cp = checkpointer.checkpoint(manager, [table])
    seconds = time.perf_counter() - t0
    return manager, table, wal, seconds, last_cp


def bench_wal_overhead(n_txns: int, seed: int = 0) -> Dict[str, object]:
    """Txn throughput and simulated cycles, WAL off vs on."""
    _, _, _, base_s, _ = run_mix(n_txns, seed, with_wal=False)
    manager, _, wal, wal_s, _ = run_mix(n_txns, seed, with_wal=True)
    return {
        "txns": n_txns,
        "no_wal_seconds": base_s,
        "no_wal_txns_per_sec": n_txns / base_s,
        "wal_seconds": wal_s,
        "wal_txns_per_sec": n_txns / wal_s,
        "wall_overhead_x": wal_s / base_s,
        "committed": manager.stats.committed,
        "log_bytes": wal.durable_bytes,
        "log_records": wal.stats.records,
        "flushes": wal.stats.flushes,
        "wal_append_cycles": wal.ledger.get(CostLedger.WAL_APPEND),
        "cycles_per_commit": wal.ledger.get(CostLedger.WAL_APPEND)
        / max(manager.stats.committed, 1),
    }


def bench_recovery_vs_log_length(
    lengths: List[int], seed: int = 0
) -> List[Dict[str, object]]:
    """Crash after N txns, recover, report time/cycles per log length."""
    out = []
    for n in lengths:
        _, table, wal, _, _ = run_mix(n, seed, with_wal=True)
        schema = table.schema
        ledger_before = wal.ledger.get(CostLedger.WAL_RECOVERY)
        t0 = time.perf_counter()
        res = recover(wal, schemas={schema.name: schema})
        seconds = time.perf_counter() - t0
        out.append(
            {
                "txns": n,
                "log_bytes": wal.durable_bytes,
                "records": res.report.records_scanned,
                "committed_redone": res.report.committed_redone,
                "recover_seconds": seconds,
                "wal_recovery_cycles": wal.ledger.get(CostLedger.WAL_RECOVERY)
                - ledger_before,
            }
        )
    return out


def bench_checkpoint_cadence(
    n_txns: int, cadences: List[Optional[int]], seed: int = 0
) -> List[Dict[str, object]]:
    """Checkpoint cost paid during the run vs redo left at the crash."""
    out = []
    for every in cadences:
        manager, table, wal, _, cp = run_mix(
            n_txns, seed, with_wal=True, checkpoint_every=every
        )
        schema = table.schema
        # Crash at the end of the run: recovery loads the last periodic
        # checkpoint (if any) and replays only the log tail behind it.
        t0 = time.perf_counter()
        res = recover(wal, checkpoint=cp, schemas={schema.name: schema})
        seconds = time.perf_counter() - t0
        out.append(
            {
                "checkpoint_every": every or 0,
                "log_bytes_at_crash": wal.durable_bytes,
                "records_replayed": res.report.records_scanned,
                "recover_seconds": seconds,
                "wal_checkpoint_cycles": wal.ledger.get(CostLedger.WAL_CHECKPOINT),
                "wal_recovery_cycles": wal.ledger.get(CostLedger.WAL_RECOVERY),
            }
        )
    return out


def bench_point_txn(
    small_rows: int = 2_000, large_rows: int = 64_000, txns: int = 600, seed: int = 0
) -> Tuple[Dict[str, object], PairedTiming]:
    """Host time of point transactions on a large table over a small one.

    Both tables are seeded with committed orders and sized up front, so
    neither reallocates its frame while timed. Each pair runs the same
    share of the ``txns`` transactions on each table; picking the updated
    rows is set-up, not timed.
    """
    rng = np.random.default_rng(seed)

    def point_txns(rows):
        table = Table(orders_schema(), capacity=rows + 3 * txns)
        manager = TransactionManager()
        txn = manager.begin()
        for i in range(rows):
            txn.insert(
                table, {"o_id": i, "o_customer": i % 97, "o_amount": 10.0, "o_status": 0}
            )
        manager.commit(txn)
        live = list(range(rows))

        def setup(pair):
            ks = range(pair, txns, PAIRS)
            picks = [rng.choice(rows, size=2, replace=False).tolist() for _ in ks]

            def run():
                for k, (a, b) in zip(ks, picks):
                    txn = manager.begin()
                    txn.insert(
                        table, {"o_id": -k, "o_customer": 1, "o_amount": 5.0, "o_status": 0}
                    )
                    new_a = txn.update(table, live[a], {"o_status": 1})
                    new_b = txn.update(table, live[b], {"o_status": 2})
                    manager.commit(txn)
                    live[a], live[b] = new_a, new_b

            return run

        return setup

    timing = paired_timing(point_txns(large_rows), point_txns(small_rows))
    large, small = (sum(seconds) / txns for seconds in timing.seconds)
    return {
        "small_rows": small_rows,
        "large_rows": large_rows,
        "txns": txns,
        "small_txn_seconds": small,
        "large_txn_seconds": large,
    }, timing


def run_all(n_txns: int, lengths: List[int]) -> Tuple[Dict[str, object], PairedTiming]:
    """The report, and the timing behind its host ratio."""
    point, timing = bench_point_txn()
    return {
        "overhead": bench_wal_overhead(n_txns),
        "recovery_vs_log_length": bench_recovery_vs_log_length(lengths),
        "checkpoint_cadence": bench_checkpoint_cadence(
            n_txns, [None, n_txns // 2, n_txns // 8]
        ),
        "point_txn": point,
        "point_txn_host_ratio": timing.ratio,
    }, timing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="WAL overhead + recovery benchmark")
    parser.add_argument("--txns", type=int, default=400)
    parser.add_argument(
        "--lengths",
        type=int,
        nargs="+",
        default=[100, 400, 1600],
        help="log lengths (in txns) for the recovery sweep",
    )
    parser.add_argument("--json", type=str, default="", help="write report here")
    args = parser.parse_args(argv)

    report, timing = run_all(args.txns, args.lengths)
    o = report["overhead"]
    print(
        f"write mix, {o['txns']} txns: no-WAL {o['no_wal_txns_per_sec']:.0f} txn/s, "
        f"WAL {o['wal_txns_per_sec']:.0f} txn/s ({o['wall_overhead_x']:.2f}x wall), "
        f"{o['log_bytes']} log bytes, "
        f"{o['cycles_per_commit']:.0f} simulated cycles/commit in wal_append"
    )
    for r in report["recovery_vs_log_length"]:
        print(
            f"recovery after {r['txns']:>5} txns: {r['log_bytes']:>8} bytes, "
            f"{r['records']:>5} records -> {r['recover_seconds'] * 1e3:7.1f} ms, "
            f"{r['wal_recovery_cycles']:.0f} cycles"
        )
    for c in report["checkpoint_cadence"]:
        label = c["checkpoint_every"] or "never"
        print(
            f"checkpoint every {label!s:>5}: {c['records_replayed']:>5} records "
            f"to replay, checkpoint cost {c['wal_checkpoint_cycles']:.0f} cycles, "
            f"recovery {c['wal_recovery_cycles']:.0f} cycles"
        )
    p = report["point_txn"]
    print(
        f"point txn: {p['small_txn_seconds'] * 1e6:.1f} us at {p['small_rows']} rows, "
        f"{p['large_txn_seconds'] * 1e6:.1f} us at {p['large_rows']} rows "
        f"(point_txn_host_ratio, median [q1–q3] of the pairs, {timing})"
    )
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2)
        print(f"wrote {args.json}")
    return 0


# ----------------------------------------------------------------------
# pytest-benchmark entry point (reduced sizes for CI bench runs).
# ----------------------------------------------------------------------
def test_recovery_benchmark(benchmark, save_result):
    report, _ = benchmark.pedantic(
        run_all, args=(100, [50, 200]), rounds=1, iterations=1
    )
    o = report["overhead"]
    sweep = report["recovery_vs_log_length"]
    lines = [
        "wal-recovery",
        "============",
        f"txns: {o['txns']}",
        f"no-wal txn/s: {o['no_wal_txns_per_sec']:.0f}",
        f"wal txn/s: {o['wal_txns_per_sec']:.0f}",
        f"log bytes: {o['log_bytes']}",
        f"wal_append cycles/commit: {o['cycles_per_commit']:.0f}",
        f"recovery ms at {sweep[-1]['txns']} txns: "
        f"{sweep[-1]['recover_seconds'] * 1e3:.1f}",
    ]
    save_result("recovery", "\n".join(lines))
    # Durability must cost something and be visible in the right bucket...
    assert o["wal_append_cycles"] > 0
    assert o["log_bytes"] > 0
    # ...and recovery work must scale with the log, not be constant.
    assert sweep[-1]["records"] > sweep[0]["records"]
    assert sweep[-1]["wal_recovery_cycles"] > sweep[0]["wal_recovery_cycles"]


if __name__ == "__main__":
    sys.exit(main())
