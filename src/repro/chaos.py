"""Crash-point chaos testing for the MVCC durability subsystem.

The durability claim of :mod:`repro.db.wal` is only as strong as the
worst crash point, so this harness doesn't sample — it *enumerates*: run
a seeded HTAP-style write mix with the write-ahead log attached, then
simulate a crash at **every** record boundary of the durable log (plus
randomized intra-record torn offsets), recover each truncated image, and
assert the four invariants:

1. **committed-durable** — every transaction whose COMMIT record made it
   to the media is fully present after recovery;
2. **uncommitted-invisible** — nothing from transactions without a
   durable COMMIT is visible to any snapshot;
3. **oracle-equal** — the recovered visible rows match a brute-force
   :class:`ShadowOracle` that models snapshot isolation in plain Python
   dicts (no numpy, no fabric, no shared code with the engine);
4. **recover-twice-idempotent** — recovering the same image again yields
   byte-identical frames and the same clock.

A fifth check corrupts a record in the *middle* of the log and demands
the typed :class:`~repro.errors.WalCorruptionError` rather than a
silently wrong answer.

Everything is a pure function of the seed, so a failing point replays
exactly. Run as a script (the CI chaos job does)::

    PYTHONPATH=src python -m repro.chaos --seed 3 --txns 200 --torn 64 \
        --json chaos_report.json

A second mode (``--mode overload``) attacks the serving front door
instead of the log: seeded open-loop bursts from well-behaved OLTP
tenants plus one hostile analytics tenant that over-submits far past its
quota, with the ``serve.shed`` and ``serve.clock_skew`` fault sites
armed. The run's event log is replayed brute-force by
:class:`repro.serve.ServeOracle` and the harness asserts the overload
invariants: no quota ever exceeded, no admitted request lost, every
request resolves exactly once, the protected tenants' OLTP p99 stays
bounded, the hostile tenant is actually limited, and the whole run is
bit-deterministic per seed::

    PYTHONPATH=src python -m repro.chaos --mode overload --seed 3 \
        --json overload_report.json

A third mode (``--mode shard-kill``) attacks the scatter-gather layer:
a seeded write mix runs through a durable 4-shard
:class:`repro.dist.ShardCluster` (one :class:`ShadowOracle` per shard
fault domain), then every shard in turn is SIGKILLed at a scatter
boundary and the next query must come back oracle-equal after WAL
recovery; a persistently-dead shard must degrade to a *typed* partial
whose missing key ranges match the oracle exactly; a stalled shard must
lose to its hedge; and an unkilled 2- and 8-shard lineitem cluster must
answer TPC-H Q1/Q6 byte-identically to serial execution::

    PYTHONPATH=src python -m repro.chaos --mode shard-kill --seed 3 \
        --json shard_kill_report.json

A fourth mode (``--mode sql-fuzz``) drives the whole stack through the
SQL front door: a seeded statement stream (DML, transactions, joins,
grouping, subqueries) runs through the engine, a determinism twin, the
bound-level Volcano reference, the scatter-gather cluster where the
statement fits its dialect, and the brute-force dict-row oracle of
:mod:`repro.db.sql.oracle` — every answer byte-identical to the
reference and value-identical to the oracle — then replays the WAL
crash-point checker over the log the SQL-issued DML produced::

    PYTHONPATH=src python -m repro.chaos --mode sql-fuzz --seed 3 \
        --json sql_fuzz_report.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.mvcc_filter import LIVE_TS, NEVER_TS, visible_mask
from repro.db.mvcc import TransactionManager
from repro.db.schema import TableSchema
from repro.db.table import Table
from repro.db.wal import (
    Checkpoint,
    Checkpointer,
    WriteAheadLog,
    recover,
    scan_records,
)
from repro.errors import WalCorruptionError, WriteConflictError
from repro.storage.ssd import SsdLog
from repro.workloads.htap import orders_schema

__all__ = [
    "ShadowOracle",
    "WorkloadJournal",
    "ChaosReport",
    "OverloadChaosReport",
    "run_seeded_workload",
    "check_crash_point",
    "run_chaos",
    "overload_config",
    "overload_specs",
    "run_overload_chaos",
    "ShardKillChaosReport",
    "run_shard_kill_chaos",
    "table_visible_rows",
]

#: A logical row state: the row's decoded values, frozen and orderable.
RowKey = Tuple[Tuple[str, object], ...]


def _freeze(values: Dict[str, object]) -> RowKey:
    return tuple(sorted(values.items()))


def table_visible_rows(table: Table, snapshot_ts: int) -> List[RowKey]:
    """The committed rows a snapshot sees, as a sorted list of row keys."""
    mask = visible_mask(table.begin_ts, table.end_ts, snapshot_ts)
    return sorted(_freeze(table.row(int(i))) for i in np.flatnonzero(mask))


class ShadowOracle:
    """Brute-force snapshot-isolation model over Python dict rows.

    Mirrors the slot discipline of :class:`~repro.db.table.Table` — every
    insert/update appends a version row stamped ``(NEVER, LIVE)``, commit
    stamps begin/end timestamps, abort leaves invisible garbage — but in
    ~40 lines of dict-and-list Python with no numpy, no frames, and no
    shared code with the system under test. The MVCC property tests and
    the crash-point harness both compare against it.
    """

    def __init__(self):
        #: Every version ever staged: ``[values, begin_ts, end_ts]``.
        self.rows: List[List] = []
        self._staged: Dict[int, List[Tuple[Optional[int], Optional[int]]]] = {}

    def begin(self, txn_id: int) -> None:
        self._staged[txn_id] = []

    def insert(self, txn_id: int, values: Dict[str, object]) -> int:
        slot = len(self.rows)
        self.rows.append([dict(values), NEVER_TS, LIVE_TS])
        self._staged[txn_id].append((slot, None))
        return slot

    def update(self, txn_id: int, old_slot: int, values: Dict[str, object]) -> int:
        slot = len(self.rows)
        self.rows.append([dict(values), NEVER_TS, LIVE_TS])
        self._staged[txn_id].append((slot, old_slot))
        return slot

    def delete(self, txn_id: int, old_slot: int) -> None:
        self._staged[txn_id].append((None, old_slot))

    def commit(self, txn_id: int, commit_ts: int) -> None:
        for new_slot, old_slot in self._staged.pop(txn_id):
            if new_slot is not None:
                self.rows[new_slot][1] = commit_ts
            if old_slot is not None:
                self.rows[old_slot][2] = commit_ts

    def abort(self, txn_id: int) -> None:
        self._staged.pop(txn_id, None)

    def vacuum(self, horizon: int) -> int:
        """Mirror :meth:`TransactionManager.vacuum`'s compaction so oracle
        slot indices keep tracking the compacted table's. Quiescent only —
        staged intents hold slot indices."""
        assert not self._staged, "oracle vacuum with staged transactions"
        before = len(self.rows)
        self.rows = [
            r for r in self.rows if r[1] != NEVER_TS and r[2] > horizon
        ]
        return before - len(self.rows)

    def visible(self, snapshot_ts: int) -> List[RowKey]:
        return sorted(
            _freeze(values)
            for values, begin, end in self.rows
            if begin <= snapshot_ts < end
        )


@dataclass
class WorkloadJournal:
    """Everything a crash probe needs about one seeded workload run.

    ``commits`` maps each durable COMMIT-record end offset to the oracle
    state established by that commit; a crash at byte ``b`` must recover
    exactly the state of the last entry with offset ``<= b``.
    """

    media: bytes
    schemas: Dict[str, TableSchema]
    commits: List[Tuple[int, List[RowKey]]]
    checkpoint: Optional[Checkpoint] = None
    #: Oracle/table agreement on the *uncrashed* final state.
    final_rows: List[RowKey] = field(default_factory=list)
    txns_run: int = 0
    conflicts: int = 0
    deliberate_aborts: int = 0
    #: Compacting vacuums taken mid-workload (each one checkpoints).
    vacuums: int = 0

    def expected_at(self, offset: int) -> List[RowKey]:
        state: List[RowKey] = []
        for off, snap in self.commits:
            if off <= offset:
                state = snap
            else:
                break
        return state


def run_seeded_workload(
    seed: int,
    n_txns: int = 200,
    initial_rows: int = 50,
    checkpoint_every: Optional[int] = None,
    vacuum_every: Optional[int] = None,
    fault_injector=None,
) -> WorkloadJournal:
    """Drive a seeded order-ledger write mix through a WAL-attached manager.

    Each step is one of: a writer transaction (insert an order, advance a
    couple of statuses), a deliberate abort, a first-committer-wins
    conflict pair, or a delete. The :class:`ShadowOracle` shadows every
    operation; after each successful commit the journal captures
    ``(durable log offset, oracle visible rows)``. With
    ``checkpoint_every``, a quiescent checkpoint is taken every that many
    transactions and the journal restarts from it (crash points then
    exercise checkpoint + short-log recovery). With ``vacuum_every`` (the
    CLI default — CI exercises it on every seed), a quiescent compacting
    vacuum runs every that many transactions — slot indices move, the
    manager checkpoints behind it, and the oracle compacts in lockstep —
    so crash points also cover the vacuum/WAL interaction that once
    silently lost committed rows.
    """
    rng = np.random.default_rng(seed)
    schema = orders_schema()
    table = Table(schema)
    wal = WriteAheadLog(device=SsdLog(fault_injector=fault_injector))
    manager = TransactionManager(wal=wal)
    oracle = ShadowOracle()
    journal = WorkloadJournal(media=b"", schemas={schema.name: schema}, commits=[])
    checkpointer = Checkpointer(wal)
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

    def committed_slots() -> np.ndarray:
        return np.flatnonzero(visible_mask(table.begin_ts, table.end_ts, manager.now))

    def journal_commit() -> None:
        journal.commits.append((wal.durable_bytes, oracle.visible(manager.now)))

    def writer_txn(n_updates: int, abort_it: bool = False) -> None:
        txn = manager.begin()
        oracle.begin(txn.txn_id)
        slot = txn.insert(table, new_order())
        oracle.insert(txn.txn_id, table.row(slot))
        live = committed_slots()
        picks = (
            rng.choice(live, size=min(n_updates, len(live)), replace=False)
            if len(live)
            else []
        )
        try:
            for old in picks:
                old = int(old)
                row = table.row(old)
                row["o_status"] = min(int(row["o_status"]) + 1, 2)
                new_slot = txn.update(table, old, {"o_status": row["o_status"]})
                oracle.update(txn.txn_id, old, table.row(new_slot))
            if abort_it:
                manager.abort(txn)
                oracle.abort(txn.txn_id)
                journal.deliberate_aborts += 1
            else:
                manager.commit(txn)
                oracle.commit(txn.txn_id, txn.commit_ts)
                journal_commit()
        except WriteConflictError:
            oracle.abort(txn.txn_id)
            journal.conflicts += 1

    def conflict_pair() -> None:
        live = committed_slots()
        if not len(live):
            writer_txn(1)
            return
        target = int(rng.choice(live))
        a, b = manager.begin(), manager.begin()
        oracle.begin(a.txn_id)
        oracle.begin(b.txn_id)
        try:
            new_a = a.update(table, target, {"o_status": 2})
            oracle.update(a.txn_id, target, table.row(new_a))
            manager.commit(a)
            oracle.commit(a.txn_id, a.commit_ts)
            journal_commit()
        except WriteConflictError:
            oracle.abort(a.txn_id)
            journal.conflicts += 1
        try:
            new_b = b.update(table, target, {"o_status": 1})
            oracle.update(b.txn_id, target, table.row(new_b))
            manager.commit(b)
            oracle.commit(b.txn_id, b.commit_ts)
            journal_commit()
        except WriteConflictError:
            oracle.abort(b.txn_id)
            journal.conflicts += 1
        finally:
            if b.txn_id in manager._active:
                manager.abort(b)
                oracle.abort(b.txn_id)

    def delete_txn() -> None:
        live = committed_slots()
        if not len(live):
            return
        target = int(rng.choice(live))
        txn = manager.begin()
        oracle.begin(txn.txn_id)
        try:
            txn.delete(table, target)
            oracle.delete(txn.txn_id, target)
            manager.commit(txn)
            oracle.commit(txn.txn_id, txn.commit_ts)
            journal_commit()
        except WriteConflictError:
            oracle.abort(txn.txn_id)
            journal.conflicts += 1

    # Seed a committed base so updates have targets from the start.
    seed_txn = manager.begin()
    oracle.begin(seed_txn.txn_id)
    for _ in range(initial_rows):
        s = seed_txn.insert(table, new_order())
        oracle.insert(seed_txn.txn_id, table.row(s))
    manager.commit(seed_txn)
    oracle.commit(seed_txn.txn_id, seed_txn.commit_ts)
    journal_commit()

    for i in range(n_txns):
        roll = rng.random()
        if roll < 0.62:
            writer_txn(int(rng.integers(0, 3)))
        elif roll < 0.74:
            writer_txn(int(rng.integers(1, 3)), abort_it=True)
        elif roll < 0.88:
            conflict_pair()
        else:
            delete_txn()
        journal.txns_run += 1
        if (
            checkpoint_every
            and (i + 1) % checkpoint_every == 0
            and i + 1 < n_txns  # keep a real log segment after the last one
        ):
            journal.checkpoint = checkpointer.checkpoint(manager, [table])
            # The checkpoint state holds from byte 0 of the truncated log:
            # even a crash inside the CHECKPOINT marker recovers it.
            journal.commits = [(0, oracle.visible(manager.now))]
        if (
            vacuum_every
            and (i + 1) % vacuum_every == 0
            and i + 1 < n_txns  # keep a real log segment after the last one
        ):
            horizon = manager.oldest_active_snapshot()
            removed = manager.vacuum(table, checkpointer=checkpointer, tables=[table])
            if removed:
                # Slots moved: compact the oracle identically, and restart
                # the journal from the checkpoint vacuum just took (the
                # stale pre-vacuum log was truncated with it).
                oracle.vacuum(horizon)
                journal.vacuums += 1
                journal.checkpoint = checkpointer.last
                journal.commits = [(0, oracle.visible(manager.now))]

    # Leave one transaction in flight so every crash image contains
    # uncommitted intents — the uncommitted-invisible invariant must bite.
    dangling = manager.begin()
    oracle.begin(dangling.txn_id)
    s = dangling.insert(table, new_order())
    oracle.insert(dangling.txn_id, table.row(s))
    wal.flush()

    journal.media = wal.device.media()
    journal.final_rows = oracle.visible(manager.now)
    assert table_visible_rows(table, manager.now) == journal.final_rows, (
        "workload driver bug: oracle and live table disagree before any crash"
    )
    return journal


def _recover_image(
    journal: WorkloadJournal, image: bytes
):
    wal = WriteAheadLog(device=SsdLog(initial=image))
    return recover(wal, checkpoint=journal.checkpoint, schemas=journal.schemas)


def check_crash_point(journal: WorkloadJournal, offset: int) -> List[str]:
    """Crash at byte ``offset`` of the log, recover, check every invariant.

    Returns human-readable violation strings (empty means the point holds).
    """
    violations: List[str] = []
    image = journal.media[:offset]
    res = _recover_image(journal, image)
    expected = journal.expected_at(offset)
    name = next(iter(journal.schemas))
    table = res.tables.get(name)
    now = res.manager.now

    visible = table_visible_rows(table, now) if table is not None else []
    if visible != expected:
        missing = [r for r in expected if r not in visible]
        extra = [r for r in visible if r not in expected]
        violations.append(
            f"offset {offset}: oracle mismatch "
            f"({len(missing)} committed rows lost, {len(extra)} phantom rows)"
        )
    if table is not None:
        # Uncommitted-invisible, probed from the future: no snapshot —
        # even one newer than every recovered timestamp — may see rows the
        # oracle doesn't know to be committed at this crash point.
        future = table_visible_rows(table, now + 1_000_000)
        if future != expected:
            violations.append(
                f"offset {offset}: uncommitted writes leak into future snapshots"
            )

    res2 = _recover_image(journal, image)
    if res2.manager.now != now:
        violations.append(
            f"offset {offset}: second recovery clock {res2.manager.now} != {now}"
        )
    t1 = table.frame.tobytes() if table is not None else b""
    table2 = res2.tables.get(name)
    t2 = table2.frame.tobytes() if table2 is not None else b""
    if t1 != t2:
        violations.append(f"offset {offset}: second recovery is not a no-op")
    return violations


@dataclass
class ChaosReport:
    """Outcome of one full chaos run (the CI artifact)."""

    seed: int
    txns: int
    log_bytes: int = 0
    records: int = 0
    commits: int = 0
    conflicts: int = 0
    deliberate_aborts: int = 0
    boundary_points: int = 0
    torn_points: int = 0
    corruption_probes: int = 0
    corruption_detected: int = 0
    checkpointed: bool = False
    vacuums: int = 0
    violations: List[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations and self.corruption_detected == self.corruption_probes

    def to_dict(self) -> dict:
        return {**self.__dict__, "passed": self.passed}


def run_chaos(
    seed: int,
    n_txns: int = 200,
    torn_offsets: int = 64,
    corruption_probes: int = 8,
    checkpoint_every: Optional[int] = None,
    vacuum_every: Optional[int] = None,
) -> ChaosReport:
    """The full suite: every boundary, random torn tails, corruption probes."""
    t0 = time.perf_counter()
    journal = run_seeded_workload(
        seed,
        n_txns=n_txns,
        checkpoint_every=checkpoint_every,
        vacuum_every=vacuum_every,
    )
    records, _ = scan_records(journal.media)
    report = ChaosReport(
        seed=seed,
        txns=journal.txns_run,
        log_bytes=len(journal.media),
        records=len(records),
        commits=len(journal.commits),
        conflicts=journal.conflicts,
        deliberate_aborts=journal.deliberate_aborts,
        checkpointed=journal.checkpoint is not None,
        vacuums=journal.vacuums,
    )

    boundaries = [0] + [end for _, end in records]
    for offset in boundaries:
        report.violations.extend(check_crash_point(journal, offset))
    report.boundary_points = len(boundaries)

    rng = np.random.default_rng(seed ^ 0x5EED)
    boundary_set = set(boundaries)
    probed = 0
    for _ in range(torn_offsets * 20):
        if probed >= torn_offsets:
            break
        offset = int(rng.integers(1, len(journal.media)))
        if offset in boundary_set:
            continue
        report.violations.extend(check_crash_point(journal, offset))
        probed += 1
    report.torn_points = probed

    # Mid-log corruption must be *detected*, never silently recovered.
    # Damage a byte inside any record except the last, so an intact
    # record always follows the corruption (a damaged final record is,
    # by design, indistinguishable from a torn tail and discarded).
    report.corruption_probes = corruption_probes if len(records) >= 2 else 0
    for _ in range(report.corruption_probes):
        idx = int(rng.integers(0, len(records) - 1))
        start = 0 if idx == 0 else records[idx - 1][1]
        pos = int(rng.integers(start, records[idx][1]))
        damaged = bytearray(journal.media)
        damaged[pos] ^= 0xFF
        try:
            _recover_image(journal, bytes(damaged))
        except WalCorruptionError:
            report.corruption_detected += 1

    report.seconds = time.perf_counter() - t0
    return report


# ----------------------------------------------------------------------
# Overload chaos: the serving front door under hostile load.
# ----------------------------------------------------------------------

#: The bound the protected tenants' OLTP p99 must stay under across every
#: CI seed. With three protected tenants on three of four global slots,
#: the hostile analytics tenant capped at one slot, and degraded OLAP
#: service capped near 500k cycles, the worst OLTP wait is one OLTP
#: service (~40k) plus scheduling slack; 250k gives ~3x headroom without
#: ever excusing a real isolation failure (an uncapped hostile tenant
#: pushes p99 past 2M immediately).
OLTP_P99_BOUND_CYCLES = 250_000.0


def overload_config():
    """The canonical overload-chaos front door: three protected OLTP
    tenants with generous quotas, one hostile analytics tenant whose
    quota is far below what it offers."""
    from repro.serve import ServeConfig, TenantConfig

    return ServeConfig(
        tenants=(
            TenantConfig("app1", weight=4.0, max_concurrency=2,
                         rate_cycles_per_interval=20_000_000.0,
                         burst_cycles=40_000_000.0),
            TenantConfig("app2", weight=4.0, max_concurrency=2,
                         rate_cycles_per_interval=20_000_000.0,
                         burst_cycles=40_000_000.0),
            TenantConfig("app3", weight=4.0, max_concurrency=2,
                         rate_cycles_per_interval=20_000_000.0,
                         burst_cycles=40_000_000.0),
            TenantConfig("analytics", weight=1.0, max_concurrency=1,
                         rate_cycles_per_interval=3_000_000.0,
                         burst_cycles=6_000_000.0),
        ),
        global_concurrency=4,
        max_queue_depth=48,
        degrade_enter_queued_cycles=6_000_000.0,
        degrade_exit_queued_cycles=2_000_000.0,
    )


def overload_specs():
    """The open-loop offered load: steady OLTP (one tenant with tight
    deadlines, so expiry and clock-skew paths are exercised) plus a
    hostile analytics tenant that bursts to ~10x its cycle quota."""
    from repro.serve import LoadSpec

    return [
        LoadSpec("app1", "oltp", mean_interarrival_cycles=30_000.0,
                 cost_cycles=(5_000.0, 40_000.0),
                 deadline_budget_cycles=2_000_000.0),
        LoadSpec("app2", "oltp", mean_interarrival_cycles=30_000.0,
                 cost_cycles=(5_000.0, 40_000.0),
                 deadline_budget_cycles=150_000.0),
        LoadSpec("app3", "oltp", mean_interarrival_cycles=45_000.0,
                 cost_cycles=(5_000.0, 40_000.0)),
        LoadSpec("analytics", "olap", mean_interarrival_cycles=400_000.0,
                 cost_cycles=(500_000.0, 3_000_000.0),
                 burst_every_cycles=10_000_000.0,
                 burst_len_cycles=3_000_000.0,
                 burst_factor=8.0),
    ]


@dataclass
class OverloadChaosReport:
    """Outcome of one overload chaos run (the CI artifact)."""

    seed: int
    horizon_cycles: float
    requests: int = 0
    admitted: int = 0
    completed: int = 0
    degraded: int = 0
    throttled: int = 0
    shed: int = 0
    expired: int = 0
    oltp_p99_cycles: float = 0.0
    oltp_p99_bound_cycles: float = OLTP_P99_BOUND_CYCLES
    hostile_rejections: int = 0
    faults_fired: Dict[str, int] = field(default_factory=dict)
    degraded_mode_entries: int = 0
    sim_cycles: float = 0.0
    utilization: float = 0.0
    deterministic: bool = True
    violations: List[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {**self.__dict__, "passed": self.passed}


def _overload_run(seed: int, horizon_cycles: float):
    from repro.faults import (
        SERVE_CLOCK_SKEW,
        SERVE_SHED,
        FaultInjector,
        FaultPlan,
    )
    from repro.serve import ServeScheduler, submit_open_loop, synthetic_executor

    config = overload_config()
    injector = FaultInjector(
        FaultPlan(seed=seed, rates={SERVE_SHED: 0.02, SERVE_CLOCK_SKEW: 0.02})
    )
    scheduler = ServeScheduler(
        config, synthetic_executor(seed=seed), fault_injector=injector
    )
    submitted = submit_open_loop(
        scheduler, overload_specs(), horizon_cycles, seed=seed
    )
    report = scheduler.run_until_drained()
    return config, injector, submitted, report


def run_overload_chaos(
    seed: int,
    horizon_cycles: float = 40_000_000.0,
    check_determinism: bool = True,
) -> OverloadChaosReport:
    """One seeded overload storm plus every invariant check.

    Runs the canonical hostile workload through the front door, replays
    the event log with :class:`repro.serve.ServeOracle`, cross-checks the
    resolution ledger against the submission list, asserts the OLTP p99
    bound and that the hostile tenant was genuinely limited, and (by
    default) re-runs the whole storm to prove bit-determinism.
    """
    from repro.serve import REJECTED_OUTCOMES, Outcome, ServeOracle

    t0 = time.perf_counter()
    config, injector, submitted, serve_report = _overload_run(
        seed, horizon_cycles
    )
    d = serve_report.to_dict()
    out = OverloadChaosReport(
        seed=seed,
        horizon_cycles=horizon_cycles,
        requests=len(submitted),
        sim_cycles=d["sim_cycles"],
        utilization=d["utilization"],
        oltp_p99_cycles=d["oltp_p99_cycles"],
        degraded_mode_entries=d["degraded_mode_entries"],
        faults_fired=dict(injector.fired),
    )
    for lanes in d["tenants"].values():
        for s in lanes.values():
            out.admitted += s["admitted"]
            out.completed += s["completed"]
            out.degraded += s["degraded"]
            out.throttled += s["throttled"]
            out.shed += s["shed"]
            out.expired += s["expired"]

    # 1. Quotas, concurrency, conservation, breaker: the brute-force
    #    oracle replay over the full event log.
    out.violations.extend(ServeOracle(config).verify(serve_report.events))

    # 2. Every submitted request resolves exactly once, and rejected vs
    #    admitted accounting matches the resolution ledger.
    if len(serve_report.resolutions) != len(submitted):
        out.violations.append(
            f"{len(submitted)} submitted but "
            f"{len(serve_report.resolutions)} resolved"
        )
    for req in submitted:
        res = serve_report.resolutions.get(req.req_id)
        if res is None:
            out.violations.append(f"request {req.req_id} lost (never resolved)")
        elif res.outcome in REJECTED_OUTCOMES and res.error is None:
            out.violations.append(
                f"request {req.req_id} rejected ({res.outcome}) without a "
                f"typed error"
            )
        elif res.outcome is Outcome.EXPIRED and res.error is None:
            out.violations.append(
                f"request {req.req_id} expired without a typed error"
            )

    # 3. The protected tenants' OLTP tail stays bounded through the storm.
    if out.oltp_p99_cycles > OLTP_P99_BOUND_CYCLES:
        out.violations.append(
            f"OLTP p99 {out.oltp_p99_cycles:.0f} cycles exceeds the "
            f"{OLTP_P99_BOUND_CYCLES:.0f}-cycle bound"
        )

    # 4. The hostile tenant was genuinely limited, not just slowed down.
    hostile = d["tenants"].get("analytics", {}).get("olap", {})
    out.hostile_rejections = int(
        hostile.get("throttled", 0) + hostile.get("shed", 0)
    )
    if out.hostile_rejections == 0:
        out.violations.append("hostile tenant was never throttled or shed")
    if hostile.get("degraded", 0) == 0:
        out.violations.append(
            "overload never degraded the hostile tenant's OLAP answers"
        )

    # 5. Same seed, same storm: the whole report must be bit-identical.
    if check_determinism:
        _, _, _, second = _overload_run(seed, horizon_cycles)
        out.deterministic = json.dumps(
            second.to_dict(), sort_keys=True
        ) == json.dumps(d, sort_keys=True)
        if not out.deterministic:
            out.violations.append("re-run with the same seed diverged")

    out.seconds = time.perf_counter() - t0
    return out


# ----------------------------------------------------------------------
# Shard-kill chaos: the scatter-gather layer under fault-domain loss.
# ----------------------------------------------------------------------


def _raw_int(schema: TableSchema, column: str, value) -> object:
    """A decoded value back in the exact raw form the dist layer computes
    in: scaled int for DECIMAL, plain int for the other numerics, bytes
    for CHAR."""
    dtype = schema.column(column).dtype
    if isinstance(value, bytes):
        return value
    if dtype.scale:
        return int(round(float(value) * 10**dtype.scale))
    return int(value)


def _oracle_groups(schema: TableSchema, plan, rows):
    """The plan's answer, brute-forced over oracle row dicts in pure
    Python ints — no numpy, no shared code with the fragment executor."""
    acc: Dict[tuple, list] = {}
    for frozen in rows:
        d = dict(frozen)
        key = int(d[plan.key_column])
        if plan.key_low is not None and key < plan.key_low:
            continue
        if plan.key_high is not None and key > plan.key_high:
            continue
        if any(
            not p.op.apply(
                np.array([_raw_int(schema, p.column, d[p.column])]), p.value
            )[0]
            for p in plan.predicates
        ):
            continue
        gkey = tuple(_raw_int(schema, c, d[c]) for c in plan.group_by)
        into = acc.setdefault(gkey, [None] * len(plan.aggregates))
        for j, agg in enumerate(plan.aggregates):
            if agg.kind == "count":
                into[j] = (into[j] or 0) + 1
                continue
            val = 1
            for term in agg.terms:
                val *= term.const + term.coeff * _raw_int(
                    schema, term.column, d[term.column]
                )
            if into[j] is None:
                into[j] = val
            elif agg.kind == "sum":
                into[j] += val
            elif agg.kind == "min":
                into[j] = min(into[j], val)
            else:
                into[j] = max(into[j], val)
    return [(k, acc[k]) for k in sorted(acc)]


def _in_missing(key: int, missing) -> bool:
    return any(
        (lo is None or key >= lo) and (hi is None or key <= hi)
        for lo, hi in missing
    )


def _shard_kill_cluster(seed: int, n_txns: int, config, recorder=None):
    """One seeded write mix through a durable 4-shard cluster, with one
    independent :class:`ShadowOracle` per shard fault domain."""
    from repro.db.sharding import ShardedTable
    from repro.dist import ShardCluster

    schema = orders_schema()
    boundaries = [100, 200, 300]
    cluster = ShardCluster(
        ShardedTable(schema, "o_id", boundaries), config, durable=True,
        journal=recorder,
    )
    cluster.start()
    oracles = [ShadowOracle() for _ in cluster.sharded.shards]
    rng = np.random.default_rng(seed)

    def routed_insert():
        key = int(rng.integers(0, 400))
        i = cluster.sharded.shard_of(key)
        values = {
            "o_id": key,
            "o_customer": int(rng.integers(1, 50)),
            "o_amount": float(rng.integers(1, 20_000)) / 100.0,
            "o_status": int(rng.integers(0, 3)),
        }
        manager = cluster.manager_for(i)
        txn = manager.begin()
        oracles[i].begin(txn.txn_id)
        slot = txn.insert(cluster.table_for(i), values)
        oracles[i].insert(txn.txn_id, cluster.table_for(i).row(slot))
        if rng.random() < 0.1:
            manager.abort(txn)
            oracles[i].abort(txn.txn_id)
        else:
            manager.commit(txn)
            oracles[i].commit(txn.txn_id, txn.commit_ts)
        cluster.replicate(i)

    def committed_slots(i):
        table = cluster.table_for(i)
        if not table.nrows:
            return np.zeros(0, dtype=np.int64)
        now = cluster.manager_for(i).now
        return np.flatnonzero(visible_mask(table.begin_ts, table.end_ts, now))

    def mutate(delete: bool):
        i = int(rng.integers(0, len(oracles)))
        live = committed_slots(i)
        if not len(live):
            return
        target = int(rng.choice(live))
        manager = cluster.manager_for(i)
        table = cluster.table_for(i)
        txn = manager.begin()
        oracles[i].begin(txn.txn_id)
        try:
            if delete:
                txn.delete(table, target)
                oracles[i].delete(txn.txn_id, target)
            else:
                status = min(int(table.row(target)["o_status"]) + 1, 2)
                new_slot = txn.update(table, target, {"o_status": status})
                oracles[i].update(txn.txn_id, target, table.row(new_slot))
            manager.commit(txn)
            oracles[i].commit(txn.txn_id, txn.commit_ts)
        except WriteConflictError:
            oracles[i].abort(txn.txn_id)
        cluster.replicate(i)

    for _ in range(n_txns):
        roll = rng.random()
        if roll < 0.6:
            routed_insert()
        elif roll < 0.85:
            mutate(delete=False)
        else:
            mutate(delete=True)
    return cluster, oracles


@dataclass
class ShardKillChaosReport:
    """Outcome of one shard-kill chaos run (the CI artifact)."""

    seed: int
    txns: int
    shards: int = 0
    rows: int = 0
    kills: int = 0
    queries: int = 0
    restarts: int = 0
    recoveries: int = 0
    recovered_bytes: int = 0
    stale_fences: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    partial_probes: int = 0
    identity_checks: int = 0
    violations: List[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {**self.__dict__, "passed": self.passed}


def run_shard_kill_chaos(
    seed: int,
    n_txns: int = 120,
    lineitem_rows: int = 20_000,
    recorder=None,
) -> ShardKillChaosReport:
    """The scatter-gather suite: kill a shard at every scatter boundary.

    Four scenarios, all seeded and all judged against independent
    oracles:

    1. **kill-rotation** — run the seeded write mix, then for *every*
       shard in turn: SIGKILL its worker and immediately query. The
       coordinator must restart the fault domain, recover it from its
       WAL, and return an answer equal to the per-shard
       :class:`ShadowOracle` brute force AND byte-identical to the
       coordinator's serial reference.
    2. **persistent kill** — one shard crashes on every request of every
       incarnation. The query must degrade to a *typed* partial:
       ``missing_ranges`` exactly the dead shard's key range, and the
       partial answer equal to the oracle restricted to the surviving
       ranges. The non-degraded path must raise
       :class:`~repro.errors.PartialResultError` with the same payload.
    3. **stall + hedge** — one shard's first incarnation stalls past the
       hedge trigger; the hedged incarnation must win and the answer
       stay oracle-equal.
    4. **unkilled bit-identity** — TPC-H Q1 and Q6 over a bench-mode
       lineitem cluster at 2 and 8 shards must be byte-identical to
       unsharded serial execution, payload and ledger buckets both.
    """
    from repro.db.sharding import ShardedTable
    from repro.dist import (
        DistConfig,
        DistPlan,
        AggSpec,
        AggTerm,
        DistPredicate,
        ShardCluster,
        execute_plan,
        q1_plan,
        q6_plan,
    )
    from repro.errors import PartialResultError
    from repro.faults import SHARD_CRASH, SHARD_STALL
    from repro.workloads.tpch import generate_lineitem

    t0 = time.perf_counter()
    report = ShardKillChaosReport(seed=seed, txns=n_txns)
    schema = orders_schema()
    from repro.core.selection import CompareOp

    plan = DistPlan(
        table="orders",
        key_column="o_id",
        predicates=(DistPredicate("o_customer", CompareOp.LE, 40),),
        group_by=("o_status",),
        aggregates=(
            AggSpec("sum_amount", "sum", (AggTerm("o_amount"),)),
            AggSpec("max_amount", "max", (AggTerm("o_amount"),)),
            AggSpec("n", "count"),
        ),
    )

    def oracle_answer(cluster, oracles, the_plan, missing=()):
        ts = cluster.default_snapshot()
        rows = [r for o in oracles for r in o.visible(ts)]
        rows = [
            r
            for r in rows
            if not _in_missing(int(dict(r)[the_plan.key_column]), missing)
        ]
        return _oracle_groups(schema, the_plan, rows)

    # 1. Kill-rotation: every shard dies once, at a scatter boundary.
    cluster, oracles = _shard_kill_cluster(
        seed, n_txns, DistConfig(deadline_s=5.0), recorder=recorder
    )
    try:
        report.shards = len(cluster.sharded.shards)
        report.rows = cluster.sharded.nrows
        expected = oracle_answer(cluster, oracles, plan)
        serial = cluster.run_serial(plan)
        if serial.groups != expected:
            report.violations.append(
                "serial reference disagrees with the shadow oracle before "
                "any kill"
            )
        for k in range(report.shards):
            cluster.kill_shard(k)
            report.kills += 1
            res = cluster.query(plan)
            report.queries += 1
            if res.groups != expected:
                report.violations.append(
                    f"kill shard {k}: recovered answer != oracle"
                )
            if res.to_bytes() != serial.to_bytes():
                report.violations.append(
                    f"kill shard {k}: payload not byte-identical to serial"
                )
            if res.degraded:
                report.violations.append(
                    f"kill shard {k}: degraded despite a healthy retry path"
                )
        s = cluster.stats
        if s.restarts_total < report.shards:
            report.violations.append(
                f"only {s.restarts_total} restarts after {report.kills} kills"
            )
        report.restarts = s.restarts_total
        report.recoveries = s.recoveries_total
        report.recovered_bytes = s.recovered_bytes_total
        report.stale_fences = s.stale_fences_total
    finally:
        cluster.close()

    # 2. Persistent kill: typed degradation with oracle-exact ranges.
    dead_shard = seed % 4
    cluster, oracles = _shard_kill_cluster(
        seed,
        n_txns,
        DistConfig(
            deadline_s=1.0,
            retries=1,
            fault_rates={SHARD_CRASH: 1.0},
            fault_shards=frozenset({dead_shard}),
        ),
        recorder=recorder,
    )
    try:
        lo, hi = cluster.sharded.shard_bounds(dead_shard)
        res = cluster.query(plan, allow_partial=True)
        report.queries += 1
        report.partial_probes += 1
        if not res.degraded or res.missing_ranges != ((lo, hi),):
            report.violations.append(
                f"persistent kill of shard {dead_shard}: expected missing "
                f"range {((lo, hi),)}, got degraded={res.degraded} "
                f"missing={res.missing_ranges}"
            )
        expected_partial = oracle_answer(
            cluster, oracles, plan, missing=res.missing_ranges
        )
        if res.groups != expected_partial:
            report.violations.append(
                "persistent kill: partial answer != oracle over the "
                "surviving ranges"
            )
        try:
            cluster.query(plan)
            report.violations.append(
                "persistent kill: non-partial query did not raise "
                "PartialResultError"
            )
        except PartialResultError as exc:
            report.queries += 1
            if exc.missing_ranges != ((lo, hi),):
                report.violations.append(
                    f"PartialResultError ranges {exc.missing_ranges} != "
                    f"{((lo, hi),)}"
                )
            if exc.partial is None or exc.partial.groups != expected_partial:
                report.violations.append(
                    "PartialResultError.partial != oracle over the "
                    "surviving ranges"
                )
    finally:
        cluster.close()

    # 3. Stall + hedge: the first incarnation sleeps past the trigger.
    stalled_shard = (seed + 1) % 4
    cluster, oracles = _shard_kill_cluster(
        seed,
        n_txns,
        DistConfig(
            deadline_s=5.0,
            hedge_after_s=0.1,
            stall_s=1.5,
            fault_rates={SHARD_STALL: 1.0},
            fault_max=1,
            fault_shards=frozenset({stalled_shard}),
            fault_incarnations=frozenset({0}),
        ),
        recorder=recorder,
    )
    try:
        expected = oracle_answer(cluster, oracles, plan)
        res = cluster.query(plan)
        report.queries += 1
        if res.groups != expected:
            report.violations.append("stall+hedge: answer != oracle")
        report.hedges = cluster.stats.hedges_total
        report.hedge_wins = cluster.stats.hedge_wins_total
        if cluster.stats.hedge_wins_total < 1:
            report.violations.append(
                "stall+hedge: hedged incarnation never won"
            )
    finally:
        cluster.close()

    # 4. Unkilled bit-identity: Q1/Q6 at 2 and 8 shards vs serial.
    _, lineitem = generate_lineitem(lineitem_rows, seed=seed)
    keys = lineitem.column("l_orderkey")
    for nshards in (2, 8):
        qs = np.linspace(0, 1, nshards + 1)[1:-1]
        bounds = sorted({int(np.quantile(keys, q)) for q in qs})
        sharded = ShardedTable(lineitem.schema, "l_orderkey", bounds)
        sharded.bulk_load(
            {
                c.name: (
                    lineitem.column(c.name)
                    .view(f"S{c.dtype.width}")
                    .reshape(-1)
                    if c.dtype.np_dtype is None
                    else lineitem.column(c.name)
                )
                for c in lineitem.schema.user_columns
            }
        )
        with ShardCluster(sharded, DistConfig(deadline_s=10.0)) as bench:
            for name, qplan in (("q1", q1_plan()), ("q6", q6_plan())):
                serial_ref = execute_plan(lineitem, qplan)
                res = bench.query(qplan)
                report.queries += 1
                report.identity_checks += 1
                if res.to_bytes() != serial_ref.to_bytes():
                    report.violations.append(
                        f"{name}@{nshards} shards: payload differs from "
                        "serial"
                    )
                if res.ledger.buckets != serial_ref.ledger.buckets:
                    report.violations.append(
                        f"{name}@{nshards} shards: ledger buckets differ "
                        "from serial"
                    )

    report.seconds = time.perf_counter() - t0
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="chaos suites: WAL crash points, serving-layer "
        "overload, or shard-kill scatter-gather"
    )
    parser.add_argument(
        "--mode",
        choices=("wal", "overload", "shard-kill", "sql-fuzz"),
        default="wal",
        help="wal = crash-point recovery suite; overload = multi-tenant "
        "serving storm with the serve.* fault sites armed; shard-kill = "
        "scatter-gather with worker kills, hedges, and typed partials; "
        "sql-fuzz = differential SQL fuzzing (engines vs oracle vs dist) "
        "plus crash points over the SQL-issued WAL",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--horizon",
        type=float,
        default=40_000_000.0,
        help="overload mode: offered-load horizon in simulated cycles",
    )
    parser.add_argument("--txns", type=int, default=200)
    parser.add_argument("--torn", type=int, default=64, help="random torn offsets")
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        help="also checkpoint every N txns (0 = no checkpoints)",
    )
    parser.add_argument(
        "--vacuum-every",
        type=int,
        default=80,
        help="compacting vacuum (+checkpoint) every N txns (0 = never)",
    )
    parser.add_argument("--json", type=str, default="", help="write the report here")
    parser.add_argument(
        "--steps",
        type=int,
        default=80,
        help="sql-fuzz mode: statements per seeded stream",
    )
    parser.add_argument(
        "--journal",
        type=str,
        default="",
        help="flight-recorder dump path — the run records fault-handling "
        "decisions into a bounded ring and dumps it as journal/v1 JSON "
        "when any invariant fails (shard-kill and sql-fuzz modes)",
    )
    args = parser.parse_args(argv)

    recorder = None
    if args.journal:
        from repro.obs import FlightRecorder

        recorder = FlightRecorder(
            capacity=4096, auto_dump_path=args.journal
        )

    if args.mode == "sql-fuzz":
        # Imported lazily: the fuzz harness pulls in the SQL pipeline and
        # dist stack, which the other chaos modes never need.
        from repro.db.sql.fuzz import run_sql_fuzz

        freport = run_sql_fuzz(
            args.seed, steps=args.steps, crash_points=args.torn,
            recorder=recorder,
        )
        print(
            f"sql-fuzz chaos seed={freport.seed}: {freport.steps} steps — "
            f"{freport.selects} selects ({freport.subquery_selects} with "
            f"subqueries, {freport.dist_checked} dist-checked, "
            f"{freport.rows_checked} rows), {freport.dml_statements} DML, "
            f"{freport.txn_blocks} txn blocks ({freport.rollbacks} "
            f"rollbacks), {freport.commits} commits, "
            f"{freport.crash_boundary_points} boundary + "
            f"{freport.crash_torn_points} torn crash points, "
            f"{len(freport.violations)} violations, {freport.seconds:.1f}s"
        )
        for v in freport.violations[:20]:
            print(f"  VIOLATION: {v}", file=sys.stderr)
        if args.json:
            with open(args.json, "w") as f:
                json.dump(freport.to_dict(), f, indent=2)
            print(f"wrote {args.json}")
        if recorder is not None and not freport.passed:
            recorder.auto_dump(
                f"sql-fuzz chaos seed={freport.seed}: "
                f"{len(freport.violations)} violations"
            )
            print(f"wrote flight-recorder dump {recorder.last_dump_path}")
        return 0 if freport.passed else 1

    if args.mode == "shard-kill":
        kreport = run_shard_kill_chaos(
            args.seed, n_txns=args.txns, recorder=recorder
        )
        print(
            f"shard-kill chaos seed={kreport.seed}: {kreport.txns} txns over "
            f"{kreport.shards} shards ({kreport.rows} rows) — "
            f"{kreport.kills} kills, {kreport.queries} queries, "
            f"{kreport.restarts} restarts, {kreport.recoveries} recoveries "
            f"({kreport.recovered_bytes} WAL bytes), "
            f"{kreport.stale_fences} stale fences, "
            f"{kreport.hedge_wins}/{kreport.hedges} hedge wins, "
            f"{kreport.partial_probes} partial probes, "
            f"{kreport.identity_checks} identity checks, "
            f"{len(kreport.violations)} violations, {kreport.seconds:.1f}s"
        )
        for v in kreport.violations[:20]:
            print(f"  VIOLATION: {v}", file=sys.stderr)
        if args.json:
            with open(args.json, "w") as f:
                json.dump(kreport.to_dict(), f, indent=2)
            print(f"wrote {args.json}")
        if recorder is not None and not kreport.passed:
            recorder.auto_dump(
                f"shard-kill chaos seed={kreport.seed}: "
                f"{len(kreport.violations)} violations"
            )
            print(f"wrote flight-recorder dump {recorder.last_dump_path}")
        return 0 if kreport.passed else 1

    if args.mode == "overload":
        oreport = run_overload_chaos(args.seed, horizon_cycles=args.horizon)
        print(
            f"overload chaos seed={oreport.seed}: {oreport.requests} requests "
            f"over {oreport.horizon_cycles:.0f} cycles — "
            f"{oreport.completed} completed, {oreport.degraded} degraded, "
            f"{oreport.throttled} throttled, {oreport.shed} shed, "
            f"{oreport.expired} expired; OLTP p99 "
            f"{oreport.oltp_p99_cycles:.0f} (bound "
            f"{oreport.oltp_p99_bound_cycles:.0f}), hostile rejections "
            f"{oreport.hostile_rejections}, faults {oreport.faults_fired}, "
            f"{len(oreport.violations)} violations, {oreport.seconds:.1f}s"
        )
        for v in oreport.violations[:20]:
            print(f"  VIOLATION: {v}", file=sys.stderr)
        if args.json:
            with open(args.json, "w") as f:
                json.dump(oreport.to_dict(), f, indent=2)
            print(f"wrote {args.json}")
        return 0 if oreport.passed else 1

    report = run_chaos(
        args.seed,
        n_txns=args.txns,
        torn_offsets=args.torn,
        checkpoint_every=args.checkpoint_every or None,
        vacuum_every=args.vacuum_every or None,
    )
    print(
        f"chaos seed={report.seed}: {report.boundary_points} boundary + "
        f"{report.torn_points} torn crash points over {report.log_bytes} log bytes "
        f"({report.records} records, {report.commits} commits, "
        f"{report.conflicts} conflicts, {report.vacuums} vacuums), "
        f"{report.corruption_detected}/{report.corruption_probes} corruptions "
        f"detected, {len(report.violations)} violations, {report.seconds:.1f}s"
    )
    for v in report.violations[:20]:
        print(f"  VIOLATION: {v}", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report.to_dict(), f, indent=2)
        print(f"wrote {args.json}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
