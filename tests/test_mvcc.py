"""Tests for snapshot-isolation MVCC: lifecycle, anomalies, vacuum."""

import numpy as np
import pytest

from repro.core.mvcc_filter import LIVE_TS, NEVER_TS
from repro.db import Catalog, Column, Table, TableSchema
from repro.db.mvcc import TransactionManager, TxnState
from repro.db.schema import MVCC_BEGIN, MVCC_END
from repro.db.types import CHAR, DECIMAL, INT64
from repro.errors import (
    TransactionError,
    TransactionStateError,
    WriteConflictError,
)


@pytest.fixture
def setup(mvcc_catalog):
    catalog, table = mvcc_catalog
    manager = TransactionManager()
    txn = manager.begin()
    slots = [txn.insert(table, {"id": i, "balance": 100 * i}) for i in range(5)]
    manager.commit(txn)
    return catalog, table, manager, slots


class TestLifecycle:
    def test_insert_invisible_until_commit(self, mvcc_catalog):
        _, table = mvcc_catalog
        manager = TransactionManager()
        txn = manager.begin()
        slot = txn.insert(table, {"id": 1, "balance": 5})
        assert table.begin_ts[slot] == NEVER_TS
        other = manager.begin()
        assert len(other.visible_slots(table)) == 0
        # But the writer sees its own pending row.
        assert slot in txn.visible_slots(table)
        manager.commit(txn)
        fresh = manager.begin()
        assert slot in fresh.visible_slots(table)

    def test_commit_stamps_timestamps(self, setup):
        _, table, manager, slots = setup
        assert (table.begin_ts[: len(slots)] > 0).all()
        assert (table.end_ts[: len(slots)] == LIVE_TS).all()

    def test_update_creates_version_chain(self, setup):
        _, table, manager, slots = setup
        txn = manager.begin()
        new_slot = txn.update(table, slots[0], {"balance": 1})
        ts = manager.commit(txn)
        assert table.end_ts[slots[0]] == ts
        assert table.begin_ts[new_slot] == ts
        assert table.row(new_slot)["balance"] == 1
        assert table.row(new_slot)["id"] == 0  # unchanged columns copied

    def test_delete_ends_validity(self, setup):
        _, table, manager, slots = setup
        txn = manager.begin()
        txn.delete(table, slots[2])
        ts = manager.commit(txn)
        assert table.end_ts[slots[2]] == ts
        assert slots[2] not in manager.begin().visible_slots(table)

    def test_operations_after_commit_rejected(self, setup):
        _, table, manager, _ = setup
        txn = manager.begin()
        manager.commit(txn)
        with pytest.raises(TransactionStateError):
            txn.insert(table, {"id": 9, "balance": 9})

    def test_abort_hides_writes_forever(self, setup):
        _, table, manager, _ = setup
        txn = manager.begin()
        txn.insert(table, {"id": 9, "balance": 9})
        manager.abort(txn)
        assert txn.state is TxnState.ABORTED
        assert len(manager.begin().visible_slots(table)) == 5

    def test_double_abort_is_idempotent(self, setup):
        _, _, manager, _ = setup
        txn = manager.begin()
        manager.abort(txn)
        manager.abort(txn)
        assert manager.stats.aborted == 1

    def test_non_mvcc_table_rejected(self, setup):
        catalog, _, manager, _ = setup
        plain = catalog.create_table(TableSchema("plain", [Column("x", INT64)]))
        txn = manager.begin()
        with pytest.raises(TransactionError):
            txn.insert(plain, {"x": 1})


class TestIsolation:
    def test_snapshot_does_not_see_later_commits(self, setup):
        _, table, manager, slots = setup
        reader = manager.begin()
        writer = manager.begin()
        writer.update(table, slots[0], {"balance": 777})
        manager.commit(writer)
        visible = reader.visible_slots(table)
        assert slots[0] in visible  # old version still visible
        assert table.row(slots[0])["balance"] == 0

    def test_first_committer_wins_at_commit(self, setup):
        _, table, manager, slots = setup
        t1 = manager.begin()
        t2 = manager.begin()
        t1.update(table, slots[1], {"balance": 1})
        t2.update(table, slots[1], {"balance": 2})  # both read same snapshot
        manager.commit(t1)
        with pytest.raises(WriteConflictError):
            manager.commit(t2)
        assert t2.state is TxnState.ABORTED
        assert manager.stats.conflicts == 1

    def test_conflict_detected_early_when_version_superseded(self, setup):
        _, table, manager, slots = setup
        t1 = manager.begin()
        t1.update(table, slots[1], {"balance": 1})
        manager.commit(t1)
        t2 = manager.begin()  # started after t1 committed: no conflict
        slots2 = t2.visible_slots(table)
        t2.update(table, int(slots2[-1]), {"balance": 2})
        manager.commit(t2)
        # But a txn with an OLD snapshot updating the superseded version
        # conflicts immediately.
        t3 = manager.begin()
        with pytest.raises(WriteConflictError):
            t3.update(table, slots[1], {"balance": 3})
        assert t3.state is TxnState.ABORTED

    def test_write_skew_is_allowed_under_si(self, setup):
        """Snapshot isolation famously permits write skew on disjoint
        rows — the reproduction must too (it is SI, not serializable)."""
        _, table, manager, slots = setup
        t1 = manager.begin()
        t2 = manager.begin()
        t1.update(table, slots[0], {"balance": 0})
        t2.update(table, slots[1], {"balance": 0})
        manager.commit(t1)
        manager.commit(t2)  # no conflict: disjoint write sets
        assert manager.stats.conflicts == 0

    def test_stamp_reads_see_a_grown_table(self):
        """A concurrent commit lands and the table reallocates its frame
        between a transaction's snapshot (or its update) and the point
        where it reads the one stamp it checks."""
        table = Table(
            TableSchema("acct", [Column("id", INT64), Column("balance", INT64)], mvcc=True),
            capacity=4,
        )
        manager = TransactionManager()
        seed = manager.begin()
        slots = [seed.insert(table, {"id": i, "balance": 0}) for i in range(4)]
        manager.commit(seed)

        def concurrent_commit(slot):
            other = manager.begin()
            other.update(table, slot, {"balance": 1})
            for i in range(40):  # grows the frame past its capacity
                other.insert(table, {"id": 100 + i, "balance": 0})
            manager.commit(other)

        # Commit validation: t1 updated slot 0 before the other commit.
        t1 = manager.begin()
        t1.update(table, slots[0], {"balance": 2})
        capacity = table._frame.shape[0]
        concurrent_commit(slots[0])
        assert table._frame.shape[0] > capacity
        with pytest.raises(WriteConflictError, match="concurrent commit"):
            manager.commit(t1)
        assert t1.state is TxnState.ABORTED

        # The update-time check: t2's snapshot predates the other commit.
        t2 = manager.begin()
        capacity = table._frame.shape[0]
        concurrent_commit(slots[1])
        assert table._frame.shape[0] > capacity
        with pytest.raises(WriteConflictError, match="first committer wins"):
            t2.update(table, slots[1], {"balance": 3})
        assert t2.state is TxnState.ABORTED
        assert manager.stats.conflicts == 2

    def test_same_txn_double_write_rejected(self, setup):
        _, table, manager, slots = setup
        txn = manager.begin()
        txn.update(table, slots[0], {"balance": 1})
        with pytest.raises(TransactionError):
            txn.update(table, slots[0], {"balance": 2})

    def test_updating_own_insert_rejected(self, setup):
        _, table, manager, _ = setup
        txn = manager.begin()
        slot = txn.insert(table, {"id": 10, "balance": 10})
        with pytest.raises(TransactionError):
            txn.update(table, slot, {"balance": 11})


class TestVacuum:
    def test_vacuum_reclaims_dead_and_aborted(self, setup):
        _, table, manager, slots = setup
        txn = manager.begin()
        txn.update(table, slots[0], {"balance": 1})
        manager.commit(txn)
        aborted = manager.begin()
        aborted.insert(table, {"id": 42, "balance": 0})
        manager.abort(aborted)
        assert table.nrows == 7
        removed = manager.vacuum(table)
        assert removed == 2  # the superseded version + the aborted insert
        assert table.nrows == 5

    def test_vacuum_respects_active_snapshots(self, setup):
        _, table, manager, slots = setup
        reader = manager.begin()  # holds the old snapshot
        txn = manager.begin()
        txn.update(table, slots[0], {"balance": 1})
        manager.commit(txn)
        with pytest.raises(TransactionError):
            manager.vacuum(table)
        manager.abort(reader)
        assert manager.vacuum(table) == 1

    def test_vacuum_non_mvcc_noop(self, setup):
        catalog, _, manager, _ = setup
        plain = catalog.create_table(TableSchema("p2", [Column("x", INT64)]))
        assert manager.vacuum(plain) == 0

    def test_queries_unchanged_after_vacuum(self, setup):
        catalog, table, manager, slots = setup
        from repro.db.engines import all_engines

        txn = manager.begin()
        txn.update(table, slots[3], {"balance": 12345})
        manager.commit(txn)
        sql = "SELECT sum(balance) AS s FROM accounts"
        engines = all_engines(catalog)
        before = engines["row"].execute(sql, snapshot_ts=manager.now).result.scalar()
        manager.vacuum(table)
        for engine in engines.values():
            after = engine.execute(sql, snapshot_ts=manager.now).result.scalar()
            assert after == before


class TestUpdateKeepsUntouchedColumns:
    """A new version is the old record with only the changed fields
    re-encoded: columns the update does not name keep their bytes, even
    when decoding them to Python values would not round-trip."""

    @pytest.mark.parametrize("c", [b"ab", b"\xff\xfe"])
    def test_untouched_fields_are_copied(self, c):
        schema = TableSchema(
            "u",
            [Column("k", INT64), Column("d", DECIMAL(2)), Column("c", CHAR(4))],
            mvcc=True,
        )
        table = Table(schema)
        table.append_arrays(
            {
                "k": np.array([1]),
                "d": np.array([123456789012345678]),
                "c": np.array([c], dtype="S4"),
            }
        )
        table.stamp_begin(0, 1)
        manager = TransactionManager()
        manager.restore_state(clock=1, next_txn_id=1)
        txn = manager.begin()
        new = txn.update(table, 0, {"k": 2})
        manager.commit(txn)
        for name in ("d", "c"):
            assert table.column(name)[new] == table.column(name)[0]
        assert table.column("d")[new] == 123456789012345678
        assert table.value(new, "k") == 2
        assert table.value(new, MVCC_BEGIN) == txn.commit_ts
        assert table.value(new, MVCC_END) == LIVE_TS
        assert table.value(0, MVCC_END) == txn.commit_ts


class TestStats:
    def test_counters(self, setup):
        _, table, manager, slots = setup
        txn = manager.begin()
        txn.update(table, slots[0], {"balance": 3})
        manager.commit(txn)
        assert manager.stats.begun == 2
        assert manager.stats.committed == 2
        assert manager.stats.versions_created == 6

    def test_oldest_active_snapshot(self, setup):
        _, _, manager, _ = setup
        a = manager.begin()
        b = manager.begin()
        assert manager.oldest_active_snapshot() == a.start_ts
        manager.abort(a)
        assert manager.oldest_active_snapshot() == b.start_ts


# ----------------------------------------------------------------------
# run_transaction hygiene: no exception path may leak an active txn.
# ----------------------------------------------------------------------
class TestRunTransactionHygiene:
    def test_non_conflict_exception_aborts_the_transaction(self, mvcc_catalog):
        """Regression: an arbitrary error from ``fn`` used to leave the
        transaction in ``_active`` forever, pinning the vacuum horizon."""
        from repro.db.mvcc import run_transaction

        _, table = mvcc_catalog
        manager = TransactionManager()

        def boom(txn):
            txn.insert(table, {"id": 1, "balance": 1})
            raise ValueError("application bug, not a conflict")

        with pytest.raises(ValueError):
            run_transaction(manager, boom)
        assert manager.active_count == 0
        assert manager.stats.aborted == 1
        assert manager.stats.retries == 0  # not a conflict: no replay
        # The horizon advanced past the failed txn, so vacuum reclaims
        # its garbage instead of being pinned forever.
        assert manager.oldest_active_snapshot() == manager.now
        assert manager.vacuum(table) == 1
        assert table.nrows == 0

    def test_keyboard_interrupt_also_aborts(self, mvcc_catalog):
        from repro.db.mvcc import run_transaction

        _, table = mvcc_catalog
        manager = TransactionManager()

        def interrupted(txn):
            txn.insert(table, {"id": 1, "balance": 1})
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_transaction(manager, interrupted)
        assert manager.active_count == 0

    def test_policy_budget_wins_over_retries_argument(self):
        """One object owns the retry shape: an explicit ``policy``'s
        budget applies, not the default policy's."""
        from repro.db.mvcc import run_transaction
        from repro.faults import RetryPolicy

        manager = TransactionManager()
        attempts = []

        def always_conflict(txn):
            attempts.append(txn.txn_id)
            raise WriteConflictError("synthetic")

        with pytest.raises(WriteConflictError):
            run_transaction(manager, always_conflict, policy=RetryPolicy(retries=1))
        assert len(attempts) == 2  # 1 try + policy's 1 retry, not the default 6
        assert manager.stats.retries == 1

    def test_retries_argument_shapes_the_default_policy(self):
        from repro.db.mvcc import run_transaction
        from repro.faults import RetryPolicy

        manager = TransactionManager()
        attempts = []

        def always_conflict(txn):
            attempts.append(txn.txn_id)
            raise WriteConflictError("synthetic")

        with pytest.raises(WriteConflictError):
            run_transaction(manager, always_conflict, policy=RetryPolicy(retries=0))
        assert len(attempts) == 1


# ----------------------------------------------------------------------
# Property test: randomized interleavings vs the brute-force oracle.
# ----------------------------------------------------------------------
class TestVisibilityVsOracle:
    """Drive random concurrent interleavings through the real manager and
    the dict-based :class:`~repro.chaos.ShadowOracle` as one
    :class:`~repro.chaos.Lockstep` pair, then demand identical visibility
    at *every* timestamp ever issued."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_interleavings_match_oracle(self, seed):
        import random

        from repro.chaos import Lockstep, table_visible_rows
        from repro.errors import TransactionError as TxnErr

        rng = random.Random(seed)
        schema = TableSchema(
            "accounts", [Column("id", INT64), Column("balance", INT64)], mvcc=True
        )
        table = Table(schema)
        manager = TransactionManager()
        pair = Lockstep(manager, table)
        oracle = pair.oracle
        active = []
        next_id = 0

        def committed_live():
            mask = (table.begin_ts != NEVER_TS) & (table.end_ts == LIVE_TS)
            return list(np.flatnonzero(mask))

        def finish(txn, how):
            active.remove(txn)
            if how == "abort":
                pair.abort(txn)
                return
            try:
                pair.commit(txn)
            except WriteConflictError:
                pass  # the pair aborted both sides

        for _ in range(150):
            action = rng.random()
            if action < 0.25 or not active:
                if len(active) < 4:
                    active.append(pair.begin())
                continue
            txn = rng.choice(active)
            try:
                if action < 0.45:
                    next_id += 1
                    pair.insert(txn, {"id": next_id, "balance": next_id * 10})
                elif action < 0.60:
                    live = committed_live()
                    if live:
                        old = int(rng.choice(live))
                        pair.update(txn, old, {"balance": int(rng.randrange(1000))})
                elif action < 0.70:
                    live = committed_live()
                    if live:
                        pair.delete(txn, int(rng.choice(live)))
                elif action < 0.90:
                    finish(txn, "commit")
                else:
                    finish(txn, "abort")
            except WriteConflictError:
                # The manager aborted the txn inside update/delete and
                # the pair mirrored that into the oracle.
                active.remove(txn)
            except TxnErr:
                pass  # double-write on one slot etc.: no state change

        for txn in list(active):
            finish(txn, rng.choice(["commit", "abort"]))

        assert len(oracle.rows) == table.nrows  # slot-aligned by design
        for ts in range(manager.now + 2):
            assert table_visible_rows(table, ts) == oracle.visible(ts), (
                f"seed {seed}: visibility diverged at ts={ts}"
            )
