"""WAL unit tests: record format, torn-tail policy, devices, checkpoints."""

import numpy as np
import pytest

from repro.core.ledger import CostLedger
from repro.core.mvcc_filter import LIVE_TS, NEVER_TS
from repro.db import Column, TableSchema
from repro.db.mvcc import TransactionManager
from repro.db.table import Table
from repro.db.types import INT64
from repro.db.wal import (
    Checkpointer,
    WalRecord,
    WalRecordType,
    WriteAheadLog,
    encode_record,
    recover,
    scan_records,
)
from repro.errors import (
    SchemaError,
    TransactionError,
    WalCorruptionError,
)
from repro.faults import (
    WAL_BITFLIP,
    WAL_FLUSH,
    WAL_TORN,
    FaultInjector,
    FaultPlan,
)
from repro.storage.flash import FlashDevice
from repro.storage.ssd import SsdLog


def accounts_schema(name="accounts"):
    return TableSchema(
        name, [Column("id", INT64), Column("balance", INT64)], mvcc=True
    )


def make_manager():
    schema = accounts_schema()
    table = Table(schema)
    wal = WriteAheadLog()
    return TransactionManager(wal=wal), table, wal, schema


SAMPLE_RECORDS = [
    WalRecord(WalRecordType.BEGIN, txn_id=7, start_ts=41),
    WalRecord(
        WalRecordType.WRITE,
        txn_id=7,
        table="accounts",
        new_slot=3,
        old_slot=1,
        row_bytes=bytes(range(48)),
    ),
    WalRecord(WalRecordType.WRITE, txn_id=7, table="accounts", old_slot=2),
    WalRecord(WalRecordType.COMMIT, txn_id=7, commit_ts=42),
    WalRecord(WalRecordType.ABORT, txn_id=8),
    WalRecord(
        WalRecordType.CHECKPOINT, checkpoint_id=5, clock=99, next_txn_id=12
    ),
]


class TestRecordFormat:
    def test_round_trip_every_type(self):
        blob = b"".join(encode_record(r) for r in SAMPLE_RECORDS)
        decoded, stop = scan_records(blob)
        assert stop == len(blob)
        assert [r for r, _ in decoded] == SAMPLE_RECORDS

    def test_end_offsets_are_cumulative(self):
        blob = b"".join(encode_record(r) for r in SAMPLE_RECORDS)
        decoded, _ = scan_records(blob)
        sizes = [len(encode_record(r)) for r in SAMPLE_RECORDS]
        assert [end for _, end in decoded] == list(np.cumsum(sizes))

    def test_empty_log(self):
        assert scan_records(b"") == ([], 0)

    def test_torn_tail_discarded_silently(self):
        blob = b"".join(encode_record(r) for r in SAMPLE_RECORDS)
        first_end = len(encode_record(SAMPLE_RECORDS[0]))
        torn = blob[: first_end + 9]  # mid-second-record
        decoded, stop = scan_records(torn)
        assert [r for r, _ in decoded] == SAMPLE_RECORDS[:1]
        assert stop == first_end

    def test_every_torn_prefix_decodes_cleanly(self):
        """No truncation offset may crash the scanner or fake corruption."""
        blob = b"".join(encode_record(r) for r in SAMPLE_RECORDS)
        boundaries = {0}
        for r in SAMPLE_RECORDS:
            boundaries.add(max(boundaries) + len(encode_record(r)))
        for cut in range(len(blob)):
            decoded, stop = scan_records(blob[:cut])
            assert stop <= cut
            # Only whole records survive a cut.
            assert all(end <= cut for _, end in decoded)

    def test_mid_log_corruption_raises_typed_error(self):
        blob = bytearray(b"".join(encode_record(r) for r in SAMPLE_RECORDS))
        blob[5] ^= 0xFF  # inside the first record; intact records follow
        with pytest.raises(WalCorruptionError):
            scan_records(bytes(blob))

    def test_corrupted_final_record_is_a_torn_tail(self):
        blob = bytearray(b"".join(encode_record(r) for r in SAMPLE_RECORDS))
        blob[-3] ^= 0xFF
        decoded, _ = scan_records(bytes(blob))
        assert [r for r, _ in decoded] == SAMPLE_RECORDS[:-1]


class TestSsdLog:
    def test_append_is_buffered_until_flush(self):
        log = SsdLog()
        log.append(b"hello")
        assert log.durable_bytes == 0 and log.pending_bytes == 5
        log.flush()
        assert log.durable_bytes == 5 and log.pending_bytes == 0
        assert log.media() == b"hello"

    def test_crash_drops_unflushed_bytes(self):
        log = SsdLog()
        log.append(b"durable")
        log.flush()
        log.append(b"lost")
        log.crash()
        log.flush()
        assert log.media() == b"durable"

    def test_flush_costs_program_time(self):
        flash = FlashDevice()
        log = SsdLog(flash=flash)
        log.append(b"x" * 10_000)
        us = log.flush()
        assert us > 0
        assert flash.pages_written >= 3

    def test_write_pages_us_validates(self):
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            FlashDevice().write_pages_us(-1)

    def test_torn_append_fault_truncates_last_record(self):
        inj = FaultInjector(FaultPlan(seed=3, rates={WAL_TORN: 1.0}))
        log = SsdLog(fault_injector=inj)
        log.append(b"A" * 40)
        log.append(b"B" * 40)
        log.flush()
        assert log.torn_appends == 1
        media = log.media()
        assert media.startswith(b"A" * 40)
        assert len(media) < 80

    def test_partial_flush_fault_drops_a_suffix(self):
        inj = FaultInjector(FaultPlan(seed=1, rates={WAL_FLUSH: 1.0}))
        log = SsdLog(fault_injector=inj)
        log.append(b"A" * 100)
        log.flush()
        assert log.partial_flushes == 1
        assert log.durable_bytes < 100

    def test_bitflip_fault_corrupts_read_back_only(self):
        inj = FaultInjector(FaultPlan(seed=2, rates={WAL_BITFLIP: 1.0}))
        log = SsdLog(fault_injector=inj)
        log.append(b"\x00" * 64)
        log.flush()
        data, _ = log.read_all()
        assert data != b"\x00" * 64  # one bit flipped on this read
        assert log.media() == b"\x00" * 64  # media itself untouched
        assert log.bitflips == 1

    def test_fault_shaping_is_deterministic(self):
        def run():
            inj = FaultInjector(FaultPlan(seed=9, rates={WAL_FLUSH: 0.5}))
            log = SsdLog(fault_injector=inj)
            for i in range(20):
                log.append(bytes([i]) * 10)
                log.flush()
            return log.media()

        assert run() == run()

    def test_pending_count_follows_the_chunks(self):
        """The running count equals the pending chunks' lengths through
        every call that adds or drops chunks."""
        log = SsdLog()

        def check():
            assert log.pending_bytes == sum(len(c) for c in log._pending)

        check()
        for call in (
            lambda: log.append(b"abc"),
            lambda: log.append(memoryview(b"defgh")),
            lambda: log.append(b""),
            log.flush,
            lambda: log.append(b"x" * 7),
            log.crash,
            lambda: log.append(b"y" * 9),
            lambda: log.append(b"z"),
            lambda: log.truncate(b"kept"),
            lambda: log.append(b"w" * 4),
            log.flush,
        ):
            call()
            check()
        assert log.media() == b"kept" + b"w" * 4

    def test_record_stream_lsns_are_unchanged(self):
        """A fixed record stream, with a crash and a truncation in it,
        gets fixed LSNs: durable plus pending bytes after each append."""
        wal = WriteAheadLog(device=SsdLog())
        lsns = []
        for i, rec in enumerate(SAMPLE_RECORDS * 3):
            lsns.append(wal.append(rec, durable=rec.type is WalRecordType.COMMIT))
            if i == 8:
                wal.device.crash()
            if i == 13:
                wal.device.truncate(b"k" * 10)
        assert lsns == [
            27, 124, 173, 200, 219, 262, 289, 386, 435,
            227, 246, 289, 316, 413, 59, 86, 105, 148,
        ]


class TestManagerWalWiring:
    def test_default_manager_has_no_wal(self):
        assert TransactionManager().wal is None

    def test_read_only_txns_log_nothing(self):
        mgr, table, wal, _ = make_manager()
        txn = mgr.begin()
        mgr.commit(txn)
        txn2 = mgr.begin()
        mgr.abort(txn2)
        assert wal.stats.records == 0
        assert wal.durable_bytes == 0

    def test_commit_is_a_durable_barrier(self):
        mgr, table, wal, _ = make_manager()
        txn = mgr.begin()
        txn.insert(table, {"id": 1, "balance": 10})
        assert wal.durable_bytes == 0  # intents buffer until commit
        mgr.commit(txn)
        assert wal.durable_bytes > 0
        types = [r.type for r in wal.records()]
        assert types == [
            WalRecordType.BEGIN,
            WalRecordType.WRITE,
            WalRecordType.COMMIT,
        ]

    def test_append_cycles_land_in_ledger_bucket(self):
        mgr, table, wal, _ = make_manager()
        txn = mgr.begin()
        txn.insert(table, {"id": 1, "balance": 10})
        mgr.commit(txn)
        assert wal.ledger.get(CostLedger.WAL_APPEND) > 0

    def test_abort_logs_but_does_not_flush(self):
        mgr, table, wal, _ = make_manager()
        txn = mgr.begin()
        txn.insert(table, {"id": 1, "balance": 10})
        mgr.abort(txn)
        assert wal.stats.aborts_logged == 1
        assert wal.durable_bytes == 0  # advisory record, no barrier


class TestRecovery:
    def _committed(self, table, ts):
        from repro.core.mvcc_filter import visible_mask

        mask = visible_mask(table.begin_ts, table.end_ts, ts)
        return sorted(
            tuple(sorted(table.row(int(i)).items())) for i in np.flatnonzero(mask)
        )

    def test_recover_restores_committed_state(self):
        mgr, table, wal, schema = make_manager()
        t1 = mgr.begin()
        slots = [t1.insert(table, {"id": i, "balance": i * 10}) for i in range(4)]
        mgr.commit(t1)
        t2 = mgr.begin()
        t2.update(table, slots[1], {"balance": 777})
        t2.delete(table, slots[2])
        mgr.commit(t2)
        res = recover(wal, schemas={schema.name: schema})
        rec = res.tables[schema.name]
        assert self._committed(rec, res.manager.now) == self._committed(
            table, mgr.now
        )
        assert res.report.committed_redone == 2
        assert wal.ledger.get(CostLedger.WAL_RECOVERY) > 0

    def test_uncommitted_and_aborted_stay_invisible(self):
        mgr, table, wal, schema = make_manager()
        t1 = mgr.begin()
        t1.insert(table, {"id": 1, "balance": 1})
        mgr.commit(t1)
        t2 = mgr.begin()
        t2.insert(table, {"id": 2, "balance": 2})
        mgr.abort(t2)
        t3 = mgr.begin()
        t3.insert(table, {"id": 3, "balance": 3})
        wal.flush()  # durable intents, no COMMIT
        res = recover(wal, schemas={schema.name: schema})
        rec = res.tables[schema.name]
        rows = self._committed(rec, res.manager.now + 10_000)
        assert rows == [(("balance", 1), ("id", 1))]
        assert res.report.aborted_seen == 1
        assert res.report.uncommitted_dropped == 1
        # The invisible garbage slots exist (slot alignment) but are NEVER.
        assert rec.nrows == 3
        assert int(rec.begin_ts[1]) == NEVER_TS
        assert int(rec.end_ts[2]) == LIVE_TS

    def test_recovered_clock_and_ids_resume_monotonically(self):
        mgr, table, wal, schema = make_manager()
        t1 = mgr.begin()
        t1.insert(table, {"id": 1, "balance": 1})
        mgr.commit(t1)
        res = recover(wal, schemas={schema.name: schema}, attach_wal=True)
        assert res.manager.now >= mgr.now - 1  # dangling begins may trail
        t2 = res.manager.begin()
        assert t2.txn_id > t1.txn_id
        slot = t2.insert(res.tables[schema.name], {"id": 2, "balance": 2})
        res.manager.commit(t2)
        # The re-attached WAL keeps logging: recover again sees both rows.
        res2 = recover(wal, schemas={schema.name: schema})
        assert len(
            self._committed(res2.tables[schema.name], res2.manager.now)
        ) == 2
        assert int(res.tables[schema.name].begin_ts[slot]) > 0

    def test_recover_twice_is_identical(self):
        mgr, table, wal, schema = make_manager()
        for k in range(5):
            t = mgr.begin()
            t.insert(table, {"id": k, "balance": k})
            mgr.commit(t)
        a = recover(wal, schemas={schema.name: schema})
        b = recover(wal, schemas={schema.name: schema})
        assert np.array_equal(
            a.tables[schema.name].frame, b.tables[schema.name].frame
        )
        assert a.manager.now == b.manager.now

    def test_missing_schema_is_a_typed_error(self):
        mgr, table, wal, schema = make_manager()
        t = mgr.begin()
        t.insert(table, {"id": 1, "balance": 1})
        mgr.commit(t)
        with pytest.raises(WalCorruptionError):
            recover(wal)

    def test_bitflip_on_read_back_is_detected(self):
        mgr, table, wal, schema = make_manager()
        for k in range(8):
            t = mgr.begin()
            t.insert(table, {"id": k, "balance": k})
            mgr.commit(t)
        wal.device.fault_injector = FaultInjector(
            FaultPlan(seed=4, rates={WAL_BITFLIP: 1.0})
        )
        with pytest.raises(WalCorruptionError):
            recover(wal, schemas={schema.name: schema})


class TestCheckpointer:
    def test_checkpoint_truncates_and_recovers(self):
        mgr, table, wal, schema = make_manager()
        for k in range(6):
            t = mgr.begin()
            t.insert(table, {"id": k, "balance": k})
            mgr.commit(t)
        bytes_before = wal.durable_bytes
        cp = Checkpointer(wal).checkpoint(mgr, [table])
        assert wal.durable_bytes < bytes_before
        t = mgr.begin()
        t.insert(table, {"id": 99, "balance": 99})
        mgr.commit(t)
        res = recover(wal, checkpoint=cp)
        rows = TestRecovery()._committed(res.tables[schema.name], res.manager.now)
        assert rows == TestRecovery()._committed(table, mgr.now)
        assert res.report.checkpoint_id == cp.checkpoint_id
        assert res.report.committed_redone == 1  # only the post-checkpoint txn
        assert wal.ledger.get(CostLedger.WAL_CHECKPOINT) > 0

    def test_checkpoint_requires_quiescence(self):
        mgr, table, wal, _ = make_manager()
        txn = mgr.begin()
        txn.insert(table, {"id": 1, "balance": 1})
        with pytest.raises(TransactionError):
            Checkpointer(wal).checkpoint(mgr, [table])
        mgr.abort(txn)
        Checkpointer(wal).checkpoint(mgr, [table])

    def test_damaged_checkpoint_refused(self):
        mgr, table, wal, _ = make_manager()
        t = mgr.begin()
        t.insert(table, {"id": 1, "balance": 1})
        mgr.commit(t)
        cp = Checkpointer(wal).checkpoint(mgr, [table])
        snap = next(iter(cp.snapshots.values()))
        snap.frame = snap.frame[:-1] + bytes([snap.frame[-1] ^ 0xFF])
        with pytest.raises(WalCorruptionError):
            recover(wal, checkpoint=cp)

    def test_checkpoint_id_mismatch_refused(self):
        mgr, table, wal, _ = make_manager()
        ckp = Checkpointer(wal)
        cp1 = ckp.checkpoint(mgr, [table])
        ckp.checkpoint(mgr, [table])  # log now starts at checkpoint 2
        with pytest.raises(WalCorruptionError):
            recover(wal, checkpoint=cp1)


class TestVacuumWalInteraction:
    """Vacuum compacts slot indices; a stale WAL referencing the old slots
    must never survive it (regression for a committed-row loss: insert 2,
    delete 1, vacuum, insert 1, recover — a committed row vanished)."""

    def _committed(self, table, ts):
        return TestRecovery()._committed(table, ts)

    def test_vacuum_with_wal_requires_checkpointer(self):
        mgr, table, wal, _ = make_manager()
        t = mgr.begin()
        s = t.insert(table, {"id": 1, "balance": 1})
        mgr.commit(t)
        t = mgr.begin()
        t.delete(table, s)
        mgr.commit(t)
        with pytest.raises(TransactionError):
            mgr.vacuum(table)
        # Nothing was compacted by the refused call.
        assert table.nrows == 1
        assert mgr.stats.versions_vacuumed == 0

    def test_vacuum_checkpointer_on_other_wal_refused(self):
        mgr, table, wal, _ = make_manager()
        with pytest.raises(TransactionError):
            mgr.vacuum(table, checkpointer=Checkpointer(WriteAheadLog()))

    def test_vacuum_without_wal_needs_no_checkpointer(self):
        schema = accounts_schema()
        table = Table(schema)
        mgr = TransactionManager()  # in-memory manager, original behaviour
        t = mgr.begin()
        s = t.insert(table, {"id": 1, "balance": 1})
        mgr.commit(t)
        t = mgr.begin()
        t.delete(table, s)
        mgr.commit(t)
        assert mgr.vacuum(table) == 1

    def test_reviewer_repro_vacuum_then_insert_recovers(self):
        """The exact committed-durable violation: the vacuum checkpoint
        must truncate the stale log so post-vacuum slots never collide
        with pre-vacuum WRITE records during redo."""
        mgr, table, wal, schema = make_manager()
        ckp = Checkpointer(wal)
        t = mgr.begin()
        s0 = t.insert(table, {"id": 1, "balance": 10})
        t.insert(table, {"id": 2, "balance": 20})
        mgr.commit(t)
        t = mgr.begin()
        t.delete(table, s0)
        mgr.commit(t)
        assert mgr.vacuum(table, checkpointer=ckp) == 1
        assert ckp.last is not None
        t = mgr.begin()
        t.insert(table, {"id": 3, "balance": 30})
        mgr.commit(t)
        res = recover(wal, checkpoint=ckp.last)
        rows = self._committed(res.tables[schema.name], res.manager.now)
        assert rows == self._committed(table, mgr.now)
        assert {dict(r)["id"] for r in rows} == {2, 3}
        # And recovery stays idempotent across the vacuum boundary.
        res2 = recover(wal, checkpoint=ckp.last)
        assert np.array_equal(
            res.tables[schema.name].frame, res2.tables[schema.name].frame
        )

    def test_vacuum_noop_takes_no_checkpoint(self):
        mgr, table, wal, _ = make_manager()
        ckp = Checkpointer(wal)
        t = mgr.begin()
        t.insert(table, {"id": 1, "balance": 1})
        mgr.commit(t)
        assert mgr.vacuum(table, checkpointer=ckp) == 0
        assert ckp.taken == 0  # nothing moved, the log is still valid

    def test_checkpoint_marker_without_snapshot_refused(self):
        """A log that begins at a checkpoint cannot be recovered WAL-only:
        redo would silently miss every pre-checkpoint commit."""
        mgr, table, wal, schema = make_manager()
        t = mgr.begin()
        t.insert(table, {"id": 1, "balance": 1})
        mgr.commit(t)
        Checkpointer(wal).checkpoint(mgr, [table])
        with pytest.raises(WalCorruptionError):
            recover(wal, schemas={schema.name: schema})


class TestTableSnapshotHelpers:
    def test_row_bytes_round_trip(self):
        table = Table(accounts_schema())
        table.append_row({"id": 1, "balance": 2})
        img = table.row_bytes(0)
        other = Table(accounts_schema())
        other.write_row_bytes(0, img)
        assert other.row(0) == table.row(0)

    def test_write_row_bytes_pads_invisibly(self):
        table = Table(accounts_schema())
        src = Table(accounts_schema())
        src.append_row({"id": 9, "balance": 9})
        table.write_row_bytes(3, src.row_bytes(0))
        assert table.nrows == 4
        assert (table.begin_ts[:3] == NEVER_TS).all()

    def test_write_row_bytes_validates_stride(self):
        table = Table(accounts_schema())
        with pytest.raises(SchemaError):
            table.write_row_bytes(0, b"short")

    def test_restore_round_trip(self):
        table = Table(accounts_schema())
        for i in range(3):
            table.append_row({"id": i, "balance": i})
        clone = Table.restore(
            table.schema, table.frame.tobytes(), table.nrows, table.version
        )
        assert np.array_equal(clone.frame, table.frame)
        assert clone.version == table.version
