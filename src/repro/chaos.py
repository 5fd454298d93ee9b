"""Chaos testing: WAL crash points, serving overload, shard loss, SQL fuzz.

Every mode is a pure function of the seed, so a failing point replays
exactly. Run as a script (the CI chaos matrix does)::

    PYTHONPATH=src python -m repro.chaos --mode wal --seed 3 --txns 200 \
        --torn 64 --json chaos_report.json --journal chaos_journal.json

``--mode wal`` (the default, :func:`run_chaos`) doesn't sample — it
*enumerates*: run a seeded HTAP-style write mix with the write-ahead log
attached, then simulate a crash at **every** record boundary of the
durable log (plus randomized intra-record torn offsets), recover each
truncated image, and assert the four invariants:

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
silently wrong answer (a silent recovery is an ordinary violation).

``--mode overload`` (:func:`run_overload_chaos`) storms the serving
front door with a hostile tenant and the ``serve.*`` fault sites armed,
replaying the event log through :class:`repro.serve.ServeOracle`.
``--mode shard-kill`` (:func:`run_shard_kill_chaos`) SIGKILLs, stalls
and persistently crashes the shards of a durable
:class:`repro.dist.ShardCluster`, judging every answer against one
:class:`ShadowOracle` per shard fault domain. ``--mode sql-fuzz``
(:func:`repro.db.sql.fuzz.run_sql_fuzz`) drives a seeded statement
stream through the SQL front door against the Volcano reference and the
dict-row oracle, then probes crash points over the SQL-issued WAL.

All four modes share one runner (:func:`main`): a mode is a function
``(args, recorder) -> report``, every report derives from
:class:`ChaosReportBase` (``passed`` means "no violations"), and the
runner alone prints the summary and violations, writes ``--json``, and —
when ``--journal`` is given and an invariant failed — records each
violation into the flight recorder and dumps it as ``journal/v1`` JSON.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
import time
from contextlib import contextmanager
from dataclasses import KW_ONLY, dataclass, field
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
from repro.obs.journal import FlightRecorder
from repro.storage.ssd import SsdLog
from repro.workloads.htap import orders_schema

__all__ = [
    "ShadowOracle",
    "Lockstep",
    "WorkloadJournal",
    "ChaosReportBase",
    "ChaosReport",
    "OverloadChaosReport",
    "OLTP_P99_BOUND_CYCLES",
    "run_seeded_workload",
    "check_crash_point",
    "probe_crash_points",
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


class Lockstep:
    """One table's :class:`TransactionManager` and :class:`ShadowOracle`,
    driven as a pair: each step runs on the manager first and is mirrored
    into the oracle only if the manager accepted it. A
    :class:`WriteConflictError` (already an abort in the manager) aborts
    the oracle's transaction too, then re-raises."""

    def __init__(self, manager: TransactionManager, table: Table):
        self.manager = manager
        self.table = table
        self.oracle = ShadowOracle()

    def begin(self):
        txn = self.manager.begin()
        self.oracle.begin(txn.txn_id)
        return txn

    def insert(self, txn, values: Dict[str, object]) -> int:
        slot = txn.insert(self.table, values)
        self.oracle.insert(txn.txn_id, self.table.row(slot))
        return slot

    def update(self, txn, slot: int, changes: Dict[str, object]) -> int:
        new_slot = self._step(txn, txn.update, self.table, slot, changes)
        self.oracle.update(txn.txn_id, slot, self.table.row(new_slot))
        return new_slot

    def delete(self, txn, slot: int) -> None:
        self._step(txn, txn.delete, self.table, slot)
        self.oracle.delete(txn.txn_id, slot)

    def commit(self, txn) -> int:
        commit_ts = self._step(txn, self.manager.commit, txn)
        self.oracle.commit(txn.txn_id, commit_ts)
        return commit_ts

    def abort(self, txn) -> None:
        self.manager.abort(txn)
        self.oracle.abort(txn.txn_id)

    def _step(self, txn, op, *args):
        try:
            return op(*args)
        except WriteConflictError:
            self.oracle.abort(txn.txn_id)
            raise


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
    txns_run: int = 0
    conflicts: int = 0
    deliberate_aborts: int = 0
    #: Compacting vacuums taken mid-workload (each one checkpoints).
    vacuums: int = 0

    def expected_at(self, offset: int) -> List[RowKey]:
        state: List[RowKey] = []
        for off, snap in self.commits:
            if off > offset:
                break
            state = snap
        return state


def run_seeded_workload(
    seed: int,
    n_txns: int = 200,
    initial_rows: int = 50,
    checkpoint_every: Optional[int] = None,
    vacuum_every: Optional[int] = None,
    fault_injector=None,
    recorder=None,
) -> WorkloadJournal:
    """Drive a seeded order-ledger write mix through a WAL-attached manager.

    Each step is one of: a writer transaction (insert an order, advance a
    couple of statuses), a deliberate abort, a first-committer-wins
    conflict pair, or a delete. Every operation runs through a
    :class:`Lockstep` pair, so the :class:`ShadowOracle` shadows exactly
    what the manager accepted; after each successful commit the journal
    captures ``(durable log offset, oracle visible rows)``. With
    ``checkpoint_every``, a quiescent checkpoint is taken every that many
    transactions and the journal restarts from it (crash points then
    exercise checkpoint + short-log recovery). With ``vacuum_every`` (the
    CLI default — CI exercises it on every seed), a quiescent compacting
    vacuum runs every that many transactions — slot indices move, the
    manager checkpoints behind it, and the oracle compacts in lockstep —
    so crash points also cover the vacuum/WAL interaction that once
    silently lost committed rows. ``recorder`` (a
    :class:`~repro.obs.FlightRecorder`) journals the log's checkpoints.
    """
    rng = np.random.default_rng(seed)
    schema = orders_schema()
    table = Table(schema)
    wal = WriteAheadLog(device=SsdLog(fault_injector=fault_injector))
    wal.attach_journal(recorder)
    manager = TransactionManager(wal=wal)
    pair = Lockstep(manager, table)
    oracle = pair.oracle
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
        txn = pair.begin()
        pair.insert(txn, new_order())
        live = committed_slots()
        picks = (
            rng.choice(live, size=min(n_updates, len(live)), replace=False)
            if len(live)
            else []
        )
        try:
            for old in picks:
                old = int(old)
                status = min(int(table.row(old)["o_status"]) + 1, 2)
                pair.update(txn, old, {"o_status": status})
            if abort_it:
                pair.abort(txn)
                journal.deliberate_aborts += 1
            else:
                pair.commit(txn)
                journal_commit()
        except WriteConflictError:
            journal.conflicts += 1

    def conflict_pair() -> None:
        live = committed_slots()
        if not len(live):
            writer_txn(1)
            return
        target = int(rng.choice(live))
        # Both snapshots predate either write: the first committer wins,
        # the second must conflict.
        a, b = pair.begin(), pair.begin()
        for txn, status in ((a, 2), (b, 1)):
            try:
                pair.update(txn, target, {"o_status": status})
                pair.commit(txn)
                journal_commit()
            except WriteConflictError:
                journal.conflicts += 1

    def delete_txn() -> None:
        live = committed_slots()
        if not len(live):
            return
        target = int(rng.choice(live))
        txn = pair.begin()
        try:
            pair.delete(txn, target)
            pair.commit(txn)
            journal_commit()
        except WriteConflictError:
            journal.conflicts += 1

    # Seed a committed base so updates have targets from the start.
    seed_txn = pair.begin()
    for _ in range(initial_rows):
        pair.insert(seed_txn, new_order())
    pair.commit(seed_txn)
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
        if i + 1 == n_txns:
            break  # keep a real log segment after the last checkpoint
        if checkpoint_every and (i + 1) % checkpoint_every == 0:
            journal.checkpoint = checkpointer.checkpoint(manager, [table])
            # The checkpoint state holds from byte 0 of the truncated log:
            # even a crash inside the CHECKPOINT marker recovers it.
            journal.commits = [(0, oracle.visible(manager.now))]
        if vacuum_every and (i + 1) % vacuum_every == 0:
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
    pair.insert(pair.begin(), new_order())
    wal.flush()

    journal.media = wal.device.media()
    assert table_visible_rows(table, manager.now) == oracle.visible(manager.now), (
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
class ChaosReportBase:
    """What every chaos mode reports (the CI artifact): the seed, the
    invariant violations — empty means the run passed — and wall time.
    Each mode adds its own counters and a one-line :meth:`summary`."""

    seed: int
    _: KW_ONLY
    violations: List[str] = field(default_factory=list)
    seconds: float = 0.0

    #: The mode's counters, ``str.format``-ed over :meth:`to_dict`.
    SUMMARY = ""

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {**self.__dict__, "passed": self.passed}

    def summary(self) -> str:
        return self.SUMMARY.format(**self.to_dict()) + (
            f", {len(self.violations)} violations, {self.seconds:.1f}s"
        )


@dataclass
class ChaosReport(ChaosReportBase):
    """Outcome of crash-probing one WAL (see :func:`probe_crash_points`)."""

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

    SUMMARY = (
        "chaos seed={seed}: {boundary_points} boundary + {torn_points} torn "
        "crash points over {log_bytes} log bytes ({records} records, "
        "{commits} commits, {conflicts} conflicts, {vacuums} vacuums), "
        "{corruption_detected}/{corruption_probes} corruptions detected"
    )


def probe_crash_points(
    journal: WorkloadJournal, torn: int, seed: int, corruption: int = 0
) -> ChaosReport:
    """Crash at every record boundary of the journal's log plus ``torn``
    seeded intra-record offsets, checking each with
    :func:`check_crash_point`; report what was tried and what broke.

    With ``corruption`` > 0, that many seeded mid-log bit flips follow,
    and each must be *detected* (:class:`WalCorruptionError`), never
    silently recovered. Only records before the last are damaged, so an
    intact record always follows the corruption (a damaged final record
    is, by design, indistinguishable from a torn tail and discarded).
    """
    records, _ = scan_records(journal.media)
    offsets = [0] + [end for _, end in records]
    report = ChaosReport(
        seed=seed,
        txns=journal.txns_run,
        log_bytes=len(journal.media),
        records=len(records),
        commits=len(journal.commits),
        conflicts=journal.conflicts,
        deliberate_aborts=journal.deliberate_aborts,
        boundary_points=len(offsets),
        checkpointed=journal.checkpoint is not None,
        vacuums=journal.vacuums,
    )
    rng = np.random.default_rng(seed ^ 0x5EED)
    boundary_set = set(offsets)
    for _ in range(torn * 20):
        if report.torn_points >= torn:
            break
        offset = int(rng.integers(1, len(journal.media)))
        if offset not in boundary_set:
            offsets.append(offset)
            report.torn_points += 1
    for offset in offsets:
        report.violations.extend(check_crash_point(journal, offset))

    report.corruption_probes = corruption if len(records) >= 2 else 0
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
            continue
        report.violations.append(
            f"byte {pos} flipped in record {idx}: recovery did not raise "
            f"WalCorruptionError"
        )
    return report


def run_chaos(
    seed: int,
    n_txns: int = 200,
    torn_offsets: int = 64,
    corruption_probes: int = 8,
    checkpoint_every: Optional[int] = None,
    vacuum_every: Optional[int] = None,
    recorder=None,
) -> ChaosReport:
    """The full suite: every boundary, random torn tails, corruption probes."""
    t0 = time.perf_counter()
    journal = run_seeded_workload(
        seed,
        n_txns=n_txns,
        checkpoint_every=checkpoint_every,
        vacuum_every=vacuum_every,
        recorder=recorder,
    )
    report = probe_crash_points(
        journal, torn_offsets, seed, corruption=corruption_probes
    )
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
            *(
                TenantConfig(app, weight=4.0, max_concurrency=2,
                             rate_cycles_per_interval=20_000_000.0,
                             burst_cycles=40_000_000.0)
                for app in ("app1", "app2", "app3")
            ),
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
class OverloadChaosReport(ChaosReportBase):
    """Outcome of one overload chaos run."""

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

    SUMMARY = (
        "overload chaos seed={seed}: {requests} requests over "
        "{horizon_cycles:.0f} cycles — {completed} completed, {degraded} "
        "degraded, {throttled} throttled, {shed} shed, {expired} expired; "
        "OLTP p99 {oltp_p99_cycles:.0f} (bound {oltp_p99_bound_cycles:.0f}), "
        "hostile rejections {hostile_rejections}, faults {faults_fired}"
    )


def _overload_run(seed: int, horizon_cycles: float, journal=None):
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
        config, synthetic_executor(seed=seed), fault_injector=injector,
        journal=journal,
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
    recorder=None,
) -> OverloadChaosReport:
    """One seeded overload storm plus every invariant check.

    Runs the canonical hostile workload through the front door, replays
    the event log with :class:`repro.serve.ServeOracle`, cross-checks the
    resolution ledger against the submission list, asserts the OLTP p99
    bound and that the hostile tenant was genuinely limited, and (by
    default) re-runs the whole storm to prove bit-determinism.
    ``recorder`` journals the first storm's admission verdicts.
    """
    from repro.serve import REJECTED_OUTCOMES, Outcome, ServeOracle

    t0 = time.perf_counter()
    config, injector, submitted, serve_report = _overload_run(
        seed, horizon_cycles, journal=recorder
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
    lanes = [s for t in d["tenants"].values() for s in t.values()]
    for key in ("admitted", "completed", "degraded", "throttled", "shed", "expired"):
        setattr(out, key, sum(s[key] for s in lanes))

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
    #    The re-run is not journaled; only the report dicts are compared.
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


#: Pure-Python comparators keyed by ``CompareOp.value``. The referee must
#: not call ``CompareOp.apply``: the fragment executor under test does.
_COMPARE = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


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
        if not all(
            _COMPARE[p.op.value](_raw_int(schema, p.column, d[p.column]), p.value)
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


@contextmanager
def _shard_kill_cluster(seed: int, n_txns: int, config, recorder=None):
    """One seeded write mix through a durable 4-shard cluster, with one
    :class:`Lockstep` pair (so one independent :class:`ShadowOracle`) per
    shard fault domain. Yields the running cluster and the per-shard
    oracles; closes the cluster on exit."""
    from repro.db.sharding import ShardedTable
    from repro.dist import ShardCluster

    schema = orders_schema()
    boundaries = [100, 200, 300]
    cluster = ShardCluster(
        ShardedTable(schema, "o_id", boundaries), config, durable=True,
        journal=recorder,
    )
    pairs = [
        Lockstep(cluster.manager_for(i), cluster.table_for(i))
        for i in range(len(cluster.sharded.shards))
    ]
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
        txn = pairs[i].begin()
        pairs[i].insert(txn, values)
        if rng.random() < 0.1:
            pairs[i].abort(txn)
        else:
            pairs[i].commit(txn)
        cluster.replicate(i)

    def mutate(delete: bool):
        i = int(rng.integers(0, len(pairs)))
        pair = pairs[i]
        table = pair.table
        live = (
            np.flatnonzero(
                visible_mask(table.begin_ts, table.end_ts, pair.manager.now)
            )
            if table.nrows
            else []
        )
        if not len(live):
            return
        target = int(rng.choice(live))
        # One transaction at a time per shard: no write can conflict.
        txn = pair.begin()
        if delete:
            pair.delete(txn, target)
        else:
            status = min(int(table.row(target)["o_status"]) + 1, 2)
            pair.update(txn, target, {"o_status": status})
        pair.commit(txn)
        cluster.replicate(i)

    with cluster:
        for _ in range(n_txns):
            roll = rng.random()
            if roll < 0.6:
                routed_insert()
            elif roll < 0.85:
                mutate(delete=False)
            else:
                mutate(delete=True)
        yield cluster, [pair.oracle for pair in pairs]


@dataclass
class ShardKillChaosReport(ChaosReportBase):
    """Outcome of one shard-kill chaos run."""

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

    SUMMARY = (
        "shard-kill chaos seed={seed}: {txns} txns over {shards} shards "
        "({rows} rows) — {kills} kills, {queries} queries, {restarts} "
        "restarts, {recoveries} recoveries ({recovered_bytes} WAL bytes), "
        "{stale_fences} stale fences, {hedge_wins}/{hedges} hedge wins, "
        "{partial_probes} partial probes, {identity_checks} identity checks"
    )


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
    from repro.core.selection import CompareOp
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

    def oracle_answer(cluster, oracles, missing=()):
        ts = cluster.default_snapshot()
        rows = [
            r
            for o in oracles
            for r in o.visible(ts)
            if not _in_missing(int(dict(r)[plan.key_column]), missing)
        ]
        return _oracle_groups(schema, plan, rows)

    # 1. Kill-rotation: every shard dies once, at a scatter boundary.
    with _shard_kill_cluster(
        seed, n_txns, DistConfig(deadline_s=5.0), recorder=recorder
    ) as (cluster, oracles):
        report.shards = len(cluster.sharded.shards)
        report.rows = cluster.sharded.nrows
        expected = oracle_answer(cluster, oracles)
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

    # 2. Persistent kill: typed degradation with oracle-exact ranges.
    dead_shard = seed % 4
    with _shard_kill_cluster(
        seed,
        n_txns,
        DistConfig(
            deadline_s=1.0,
            retries=1,
            fault_rates={SHARD_CRASH: 1.0},
            fault_shards=frozenset({dead_shard}),
        ),
        recorder=recorder,
    ) as (cluster, oracles):
        dead_range = (cluster.sharded.shard_bounds(dead_shard),)
        res = cluster.query(plan, allow_partial=True)
        report.queries += 1
        report.partial_probes += 1
        if not res.degraded or res.missing_ranges != dead_range:
            report.violations.append(
                f"persistent kill of shard {dead_shard}: expected missing "
                f"range {dead_range}, got degraded={res.degraded} "
                f"missing={res.missing_ranges}"
            )
        expected_partial = oracle_answer(cluster, oracles, res.missing_ranges)
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
            if exc.missing_ranges != dead_range:
                report.violations.append(
                    f"PartialResultError ranges {exc.missing_ranges} != "
                    f"{dead_range}"
                )
            if exc.partial is None or exc.partial.groups != expected_partial:
                report.violations.append(
                    "PartialResultError.partial != oracle over the "
                    "surviving ranges"
                )

    # 3. Stall + hedge: the first incarnation sleeps past the trigger.
    stalled_shard = (seed + 1) % 4
    with _shard_kill_cluster(
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
    ) as (cluster, oracles):
        expected = oracle_answer(cluster, oracles)
        res = cluster.query(plan)
        report.queries += 1
        if res.groups != expected:
            report.violations.append("stall+hedge: answer != oracle")
        report.hedges = cluster.stats.hedges_total
        report.hedge_wins = cluster.stats.hedge_wins_total
        if report.hedge_wins < 1:
            report.violations.append("stall+hedge: hedged incarnation never won")

    # 4. Unkilled bit-identity: Q1/Q6 at 2 and 8 shards vs serial.
    _, lineitem = generate_lineitem(lineitem_rows, seed=seed)
    for nshards in (2, 8):
        sharded = ShardedTable.split(lineitem, "l_orderkey", nshards)
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


def _sql_fuzz_mode(args, recorder):
    # Imported lazily: the fuzz harness pulls in the SQL pipeline and
    # dist stack, which the other chaos modes never need.
    from repro.db.sql.fuzz import run_sql_fuzz

    return run_sql_fuzz(
        args.seed, steps=args.steps, crash_points=args.torn, recorder=recorder
    )


#: Every chaos mode: ``(parsed args, flight recorder or None) -> report``.
MODES = {
    "wal": lambda args, recorder: run_chaos(
        args.seed,
        n_txns=args.txns,
        torn_offsets=args.torn,
        checkpoint_every=args.checkpoint_every or None,
        vacuum_every=args.vacuum_every or None,
        recorder=recorder,
    ),
    "overload": lambda args, recorder: run_overload_chaos(
        args.seed, horizon_cycles=args.horizon, recorder=recorder
    ),
    "shard-kill": lambda args, recorder: run_shard_kill_chaos(
        args.seed, n_txns=args.txns, recorder=recorder
    ),
    "sql-fuzz": _sql_fuzz_mode,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="chaos suites: WAL crash points, serving-layer "
        "overload, shard-kill scatter-gather, or differential SQL fuzzing"
    )
    parser.add_argument(
        "--mode",
        choices=tuple(MODES),
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
        "decisions into a bounded ring and, when any invariant fails, "
        "records each violation and dumps the ring as journal/v1 JSON "
        "(every mode)",
    )
    args = parser.parse_args(argv)

    recorder = (
        FlightRecorder(capacity=4096, auto_dump_path=args.journal)
        if args.journal
        else None
    )

    report = MODES[args.mode](args, recorder)
    print(report.summary())
    for v in report.violations[:20]:
        print(f"  VIOLATION: {v}", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report.to_dict(), f, indent=2)
        print(f"wrote {args.json}")
    if recorder is not None and not report.passed:
        for v in report.violations:
            recorder.record(
                "chaos.violation", mode=args.mode, seed=args.seed, violation=v
            )
        recorder.auto_dump(
            f"{args.mode} chaos seed={args.seed}: "
            f"{len(report.violations)} violations"
        )
        print(f"wrote flight-recorder dump {recorder.last_dump_path}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
