"""Snapshot-isolation MVCC over the row-oriented base data (§III-C).

The paper's transaction design: the base data is append-only row storage;
every row carries ``begin_ts``/``end_ts``; updates append a new version
and close the old one; analytic reads pick the versions valid at their
snapshot — and with the fabric, that timestamp comparison happens in
hardware, off the CPU's critical path.

This module is the software half: a :class:`TransactionManager` issuing
logical timestamps, tracking write sets, and enforcing
first-committer-wins on write-write conflicts. Readers never block
writers and vice versa (single-threaded simulation, but the protocol is
the real one and the tests exercise its anomalies).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.mvcc_filter import LIVE_TS, NEVER_TS
from repro.db.table import MVCC_BEGIN, MVCC_END, Table
from repro.db.wal import Checkpointer, WalRecord, WalRecordType, WriteAheadLog
from repro.errors import (
    TransactionError,
    TransactionStateError,
    WriteConflictError,
)
from repro.faults import RetryPolicy
from repro.obs import MetricsRegistry, Tracer, maybe_span


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class _WriteIntent:
    """One pending write: the fresh slot and the version it supersedes."""

    table: Table
    new_slot: Optional[int]  # None for pure deletes
    old_slot: Optional[int]  # None for pure inserts
    #: end_ts observed on the old version when the intent was created —
    #: used to detect that someone else committed in between.
    old_end_seen: int = LIVE_TS


class Transaction:
    """A snapshot-isolation transaction. Use via the manager:

    >>> txn = manager.begin()
    >>> txn.insert(table, {...})
    >>> manager.commit(txn)
    """

    def __init__(self, txn_id: int, start_ts: int, manager: "TransactionManager"):
        self.txn_id = txn_id
        self.start_ts = start_ts
        self.state = TxnState.ACTIVE
        self._manager = manager
        self._intents: List[_WriteIntent] = []
        self.commit_ts: Optional[int] = None
        #: True once this txn has emitted any WAL record (BEGIN is lazy:
        #: read-only transactions cost zero log traffic).
        self._wal_logged = False

    # ------------------------------------------------------------------
    # Reads.
    # ------------------------------------------------------------------
    @property
    def snapshot_ts(self) -> int:
        """Pass this to any engine's ``execute(..., snapshot_ts=...)``."""
        return self.start_ts

    def visibility(self, table: Table) -> np.ndarray:
        """Boolean visibility mask over ``table``'s row slots for this
        transaction's snapshot, with its own uncommitted writes patched
        in (pending inserts visible, superseded versions hidden)."""
        self._require_active()
        mask = table.visible_mask(self.start_ts)
        for intent in self._intents:
            if intent.table is table:
                if intent.new_slot is not None:
                    mask[intent.new_slot] = True
                if intent.old_slot is not None:
                    mask[intent.old_slot] = False
        return mask

    def visible_slots(self, table: Table) -> np.ndarray:
        """Row slots visible to this transaction's snapshot (plus its own
        uncommitted writes)."""
        return np.flatnonzero(self.visibility(table))

    def read_row(self, table: Table, slot: int) -> Dict[str, Any]:
        self._require_active()
        return table.row(slot)

    def read_columns(
        self, table: Table, names: Optional[Tuple[str, ...]] = None
    ) -> Dict[str, np.ndarray]:
        """Batch snapshot read: the named user columns restricted to this
        transaction's visible rows, in one gather of those rows.

        This is the array-native replacement for ``visible_slots`` +
        per-slot :meth:`read_row` loops: one visibility mask, then
        :meth:`Table.read` at it. Values come back query-facing (floats
        for DECIMAL, ``S<w>`` bytes for CHAR, day numbers for DATE),
        matching what the engines see.
        """
        self._require_active()
        if names is None:
            names = tuple(c.name for c in table.schema.user_columns)
        return table.read(names, self.visibility(table))

    # ------------------------------------------------------------------
    # Writes.
    # ------------------------------------------------------------------
    def insert(self, table: Table, values: Mapping[str, Any]) -> int:
        """Append a new row, invisible until commit; returns its slot."""
        self._require_active()
        self._require_mvcc(table)
        slot = table.append_row(values)  # begin_ts defaults to NEVER
        intent = _WriteIntent(table=table, new_slot=slot, old_slot=None)
        self._intents.append(intent)
        self._manager._log_write(self, intent)
        return slot

    def update(self, table: Table, slot: int, changes: Mapping[str, Any]) -> int:
        """Create a new version of ``slot`` with ``changes`` applied;
        returns the new slot. The version is one record copy of the old
        image with only the changed fields re-encoded
        (:meth:`Table.append_version`), so untouched columns keep their
        stored bytes. A :class:`WriteConflictError` (a concurrent
        transaction already superseded this version) aborts the
        transaction before propagating."""
        self._require_active()
        self._require_mvcc(table)
        self._check_updatable_or_abort(table, slot)
        new_slot = table.append_version(slot, changes)
        intent = _WriteIntent(table=table, new_slot=new_slot, old_slot=slot)
        self._intents.append(intent)
        self._manager._log_write(self, intent)
        return new_slot

    def delete(self, table: Table, slot: int) -> None:
        """Mark ``slot``'s version as ending at this txn's commit."""
        self._require_active()
        self._require_mvcc(table)
        self._check_updatable_or_abort(table, slot)
        intent = _WriteIntent(table=table, new_slot=None, old_slot=slot)
        self._intents.append(intent)
        self._manager._log_write(self, intent)

    def _check_updatable_or_abort(self, table: Table, slot: int) -> None:
        try:
            self._check_updatable(table, slot)
        except WriteConflictError:
            self._manager.stats.conflicts += 1
            self._manager.abort(self)
            raise

    def _check_updatable(self, table: Table, slot: int) -> None:
        begin = table.value(slot, MVCC_BEGIN)
        end = table.value(slot, MVCC_END)
        own_slots = {
            i.new_slot for i in self._intents if i.table is table and i.new_slot is not None
        }
        if slot in own_slots:
            raise TransactionError(
                "updating a row inserted by the same transaction: update the "
                "pending version instead"
            )
        if begin == NEVER_TS:
            raise TransactionError(f"slot {slot} holds no committed version")
        if begin > self.start_ts:
            raise WriteConflictError(
                f"slot {slot} was created after this snapshot (ts {begin} > "
                f"{self.start_ts})"
            )
        if end != LIVE_TS:
            raise WriteConflictError(
                f"slot {slot} was already superseded at ts {end} "
                "(first committer wins)"
            )
        for intent in self._intents:
            if intent.table is table and intent.old_slot == slot:
                raise TransactionError(f"slot {slot} already written in this txn")

    def _require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionStateError(f"transaction is {self.state.value}")

    @staticmethod
    def _require_mvcc(table: Table) -> None:
        if not table.schema.mvcc:
            raise TransactionError(
                f"table {table.schema.name!r} has no MVCC timestamp columns"
            )


@dataclass
class MvccStats:
    begun: int = 0
    committed: int = 0
    aborted: int = 0
    conflicts: int = 0
    versions_created: int = 0
    versions_vacuumed: int = 0
    #: Conflict-aborted attempts replayed by :func:`run_transaction`.
    retries: int = 0
    #: Simulated cycles spent backing off between those replays.
    backoff_cycles: float = 0.0


class TransactionManager:
    """Issues timestamps and enforces first-committer-wins at commit.

    Pass ``wal=WriteAheadLog(...)`` to make transactions durable: every
    write intent and commit is logged through the simulated storage
    device, and :func:`repro.db.wal.recover` rebuilds this manager's
    exact committed state after a crash. The default (``wal=None``) is
    the original purely in-memory behaviour — zero logging cost.
    """

    def __init__(
        self,
        wal: Optional[WriteAheadLog] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self._clock = 0
        self._active: Dict[int, Transaction] = {}
        self._next_txn_id = 1
        self.stats = MvccStats()
        #: Optional durability pipe; ``None`` means in-memory only.
        self.wal = wal
        #: Observability hook: commit/abort/vacuum open spans here, with
        #: the WAL's append/flush spans nesting inside them. A WAL that
        #: has no tracer of its own adopts this one, so one wiring point
        #: covers the whole durability path.
        self.tracer = tracer
        if tracer is not None and wal is not None and wal.tracer is None:
            wal.tracer = tracer
            if wal.ledger.tracer is None:
                wal.ledger.tracer = tracer
        #: Metrics hook: the manager exposes its MVCC statistics through
        #: a collector and feeds a per-commit write-set-size histogram.
        #: A WAL without metrics of its own adopts this registry too —
        #: one wiring point covers the whole durability path.
        self.metrics = metrics
        self._m_intents = None
        if self.metrics is not None:
            from repro.obs.collectors import register_mvcc

            register_mvcc(self.metrics, self)
            self._m_intents = self.metrics.histogram(
                "mvcc_txn_intents",
                help="Write intents per committed transaction",
            )
            if wal is not None:
                wal.attach_metrics(self.metrics)

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    @property
    def now(self) -> int:
        """The latest issued timestamp — a fresh read-only snapshot."""
        return self._clock

    @property
    def active_count(self) -> int:
        """Transactions currently in flight."""
        return len(self._active)

    @property
    def next_txn_id(self) -> int:
        """The id the next :meth:`begin` will issue (checkpoint state)."""
        return self._next_txn_id

    def restore_state(self, clock: int, next_txn_id: int) -> None:
        """Reset the timestamp/id generators after crash recovery.

        Only valid on a quiescent manager — recovery constructs a fresh
        one, so there is never anything in flight to invalidate.
        """
        if self._active:
            raise TransactionError("cannot restore state with active transactions")
        self._clock = clock
        self._next_txn_id = next_txn_id

    # ------------------------------------------------------------------
    # WAL emission (no-ops when ``wal`` is None).
    # ------------------------------------------------------------------
    def _log_begin(self, txn: Transaction) -> None:
        """Lazily emit BEGIN at the first write — read-only txns log nothing."""
        if txn._wal_logged:
            return
        txn._wal_logged = True
        self.wal.append(
            WalRecord(WalRecordType.BEGIN, txn.txn_id, start_ts=txn.start_ts)
        )

    def _log_write(self, txn: Transaction, intent: _WriteIntent) -> None:
        if self.wal is None:
            return
        self._log_begin(txn)
        row = (
            b""
            if intent.new_slot is None
            else intent.table.row_bytes(intent.new_slot)
        )
        self.wal.append(
            WalRecord(
                WalRecordType.WRITE,
                txn.txn_id,
                table=intent.table.schema.name,
                new_slot=intent.new_slot,
                old_slot=intent.old_slot,
                row_bytes=row,
            )
        )

    def begin(self) -> Transaction:
        txn = Transaction(self._next_txn_id, self._tick(), self)
        self._next_txn_id += 1
        self._active[txn.txn_id] = txn
        self.stats.begun += 1
        return txn

    def commit(self, txn: Transaction) -> int:
        """Validate and commit; returns the commit timestamp."""
        txn._require_active()
        with maybe_span(
            self.tracer,
            "txn.commit",
            layer="txn",
            txn_id=txn.txn_id,
            intents=len(txn._intents),
        ) as span:
            # First-committer-wins validation: every superseded version must
            # still be live (no one committed an ending in between).
            for intent in txn._intents:
                if intent.old_slot is not None:
                    end = intent.table.value(intent.old_slot, MVCC_END)
                    if end != LIVE_TS:
                        self.stats.conflicts += 1
                        span.set_attrs(conflict=True)
                        self.abort(txn)
                        raise WriteConflictError(
                            f"slot {intent.old_slot} superseded at ts {end} by a "
                            "concurrent commit"
                        )
            commit_ts = self._tick()
            if self.wal is not None and txn._wal_logged:
                # Write-ahead: the COMMIT record must be durable before any
                # effect of this transaction is acknowledged. The flush here
                # is the commit barrier (priced NAND program time).
                self.wal.append(
                    WalRecord(
                        WalRecordType.COMMIT, txn.txn_id, commit_ts=commit_ts
                    ),
                    durable=True,
                )
            for intent in txn._intents:
                if intent.new_slot is not None:
                    intent.table.stamp_begin(intent.new_slot, commit_ts)
                    self.stats.versions_created += 1
                if intent.old_slot is not None:
                    intent.table.stamp_end(intent.old_slot, commit_ts)
            txn.state = TxnState.COMMITTED
            txn.commit_ts = commit_ts
            self._active.pop(txn.txn_id, None)
            self.stats.committed += 1
            if self._m_intents is not None:
                self._m_intents.observe(len(txn._intents))
            span.set_attrs(commit_ts=commit_ts)
        return commit_ts

    def abort(self, txn: Transaction) -> None:
        """Roll back: pending rows stay stamped NEVER (invisible garbage
        reclaimed by :meth:`vacuum`)."""
        if txn.state is TxnState.ABORTED:
            return
        txn._require_active()
        with maybe_span(
            self.tracer, "txn.abort", layer="txn", txn_id=txn.txn_id
        ):
            if self.wal is not None and txn._wal_logged:
                # Advisory only — a missing ABORT recovers identically (no
                # COMMIT means no redo), so no flush is needed.
                self.wal.append(WalRecord(WalRecordType.ABORT, txn.txn_id))
            txn.state = TxnState.ABORTED
            self._active.pop(txn.txn_id, None)
            self.stats.aborted += 1

    # ------------------------------------------------------------------
    # Garbage collection.
    # ------------------------------------------------------------------
    def oldest_active_snapshot(self) -> int:
        if not self._active:
            return self._clock
        return min(t.start_ts for t in self._active.values())

    def vacuum(
        self,
        table: Table,
        checkpointer: Optional[Checkpointer] = None,
        tables: Optional[List[Table]] = None,
    ) -> int:
        """Drop versions no snapshot can see; returns rows removed.

        A version is reclaimable when it ended at or before the oldest
        active snapshot, or was never committed (aborted leftovers).
        Compaction moves row slots, so it requires a quiescent system —
        no active transactions (whose write intents hold slot indices).

        With a WAL attached, compaction also invalidates every slot index
        in the existing log: redoing pre-vacuum WRITE records against the
        compacted layout (or mixing them with post-vacuum appends) would
        silently lose committed rows. A ``checkpointer`` on this manager's
        WAL is therefore *required*; after ``retain`` moves the slots, the
        compacted image is snapshotted and the stale log truncated, so
        recovery never sees two slot spaces in one log. ``tables`` lists
        every WAL-logged table to include in that snapshot (defaults to
        just ``table``; the vacuumed table is always included). The fresh
        :class:`~repro.db.wal.Checkpoint` is available as
        ``checkpointer.last``.
        """
        if not table.schema.mvcc:
            return 0
        if self._active:
            raise TransactionError(
                "vacuum requires no active transactions (slot indices move)"
            )
        if self.wal is not None:
            if checkpointer is None:
                raise TransactionError(
                    "vacuum compacts slot indices that WAL records reference: "
                    "pass checkpointer= (and tables= for every logged table) "
                    "so the compacted image is snapshotted and the stale log "
                    "truncated, or detach the WAL first"
                )
            if checkpointer.wal is not self.wal:
                raise TransactionError(
                    "checkpointer is attached to a different WAL than this "
                    "manager logs to"
                )
        with maybe_span(
            self.tracer,
            "txn.vacuum",
            layer="txn",
            table=table.schema.name,
            rows_in=table.nrows,
        ) as span:
            horizon = self.oldest_active_snapshot()
            begin = table.begin_ts
            end = table.end_ts
            keep = (begin != NEVER_TS) & (end > horizon)
            removed = int(table.nrows - np.count_nonzero(keep))
            if removed:
                table.retain(keep)
                self.stats.versions_vacuumed += removed
                if self.wal is not None:
                    snap_tables = list(tables) if tables is not None else [table]
                    if all(t is not table for t in snap_tables):
                        snap_tables.append(table)
                    checkpointer.checkpoint(self, snap_tables)
            span.set_attrs(rows_out=table.nrows, removed=removed)
        return removed


def run_transaction(
    manager: TransactionManager,
    fn: Callable[[Transaction], Any],
    policy: Optional[RetryPolicy] = None,
) -> Any:
    """Run ``fn(txn)`` under a fresh transaction, retrying conflicts.

    First-committer-wins makes :class:`~repro.errors.WriteConflictError`
    a *transient* failure: the canonical response is abort, back off, and
    replay against a fresh snapshot. This helper does exactly that with
    the bounded exponential backoff of ``policy`` (cycles are accounted
    in ``manager.stats.backoff_cycles`` — the simulation has no wall
    clock to sleep on). ``fn`` must be safe to re-run from scratch; it
    may commit the transaction itself, or leave it active for this helper
    to commit. The last conflict propagates when the budget is exhausted.

    One object owns the whole retry shape — budget, backoff, jitter:
    ``policy``, by default a fresh five-replay :class:`RetryPolicy` per
    call (fresh, so its seeded jitter starts over every time).

    Every exception path aborts the transaction: a non-conflict error
    from ``fn`` propagates, but never leaks an active transaction that
    would pin ``oldest_active_snapshot()`` and block ``vacuum`` forever.
    """
    policy = policy or RetryPolicy(retries=5, base=1_000.0, cap=64_000.0)
    budget = policy.retries
    for attempt in range(budget + 1):
        txn = manager.begin()
        with maybe_span(
            manager.tracer,
            "txn.attempt",
            layer="txn",
            txn_id=txn.txn_id,
            attempt=attempt,
        ) as span:
            try:
                out = fn(txn)
                if txn.state is TxnState.ACTIVE:
                    manager.commit(txn)
                return out
            except WriteConflictError:
                if txn.state is TxnState.ACTIVE:
                    manager.abort(txn)
                span.set_attrs(conflict=True)
                if attempt == budget:
                    raise
                manager.stats.retries += 1
                manager.stats.backoff_cycles += policy.backoff(attempt)
            except BaseException:
                if txn.state is TxnState.ACTIVE:
                    manager.abort(txn)
                raise
    raise AssertionError("unreachable")  # pragma: no cover
