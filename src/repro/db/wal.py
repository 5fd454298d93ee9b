"""Write-ahead logging, checkpointing, and crash recovery for MVCC.

The paper's single-copy HTAP story implicitly assumes the base row image
*survives*: Polynesia keeps transactional updates durable while analytics
stream over the same data, and Farview's operator offload presumes the
base copy outlives device faults. This module closes that gap for the
reproduction: the :class:`~repro.db.mvcc.TransactionManager` can attach a
:class:`WriteAheadLog`, after which every transaction emits records to a
simulated flash log (:class:`~repro.storage.ssd.SsdLog`) whose appends
cost real NAND program time in the :class:`~repro.core.ledger.CostLedger`
and are subject to :class:`~repro.faults.FaultInjector` corruption.

On-"disk" record format (little-endian, per record)::

    +--------+------+--------+-------------+-------+-----------+
    | magic  | type | txn_id | payload_len | crc32 | payload   |
    | uint16 | u8   | uint64 | uint32      | u32   | len bytes |
    +--------+------+--------+-------------+-------+-----------+

``crc32`` covers ``type || txn_id || payload``; a record is accepted only
when its checksum matches. Record types: BEGIN (start_ts), WRITE (table,
new/old slot, raw row image), COMMIT (commit_ts), ABORT, CHECKPOINT
(checkpoint id + clock + next txn id).

Torn-tail policy: after a crash the *final* region of the log may be
garbage (a torn append or partial flush). :func:`scan_records` therefore
discards an invalid suffix silently — but only if no intact record
follows it. A failed checksum with valid records *after* it is media
corruption, not a crash artifact, and raises
:class:`~repro.errors.WalCorruptionError`: redo past it would silently
drop committed transactions.

**Known ambiguity of that policy**: the heuristic cannot tell media
corruption of the *final* durable record from a crash artifact. A bit
flip landing on the last record of the log — even a fully flushed
COMMIT — looks exactly like a torn append and is discarded, so that one
committed transaction vanishes without a :class:`WalCorruptionError`.
This is a fundamental limit of checksum-only framing, not an
implementation bug: with no durable out-of-band state, "the tail never
made it" and "the tail made it and was then damaged" produce the same
bytes. Production logs close the gap with per-record sequence numbers
plus a durable end-of-log pointer (or commit count) kept in a
superblock, so a missing flushed record is *detected* rather than
absorbed; this reproduction keeps the single-region log and instead
bounds the exposure to exactly one record at the tail — checkpoint
cadence (:class:`Checkpointer`) bounds how much history ever sits in
that window, and :attr:`RecoveryReport.torn_tail_bytes` makes every
discard visible to callers and to the chaos harness.

Redo rules: one loop, :class:`Redo`, redoes the log for both full
recovery (:func:`recover`) and shard replicas
(:class:`repro.dist.replica.ShardReplica`); the recovered image matches
the crashed one byte for byte.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.ledger import CostLedger
from repro.db.schema import TableSchema
from repro.db.table import Table
from repro.errors import TransactionError, WalCorruptionError
from repro.obs import MetricsRegistry, Tracer, maybe_span
from repro.storage.ssd import SsdLog

__all__ = [
    "WalRecordType",
    "WalRecord",
    "WalStats",
    "WriteAheadLog",
    "Checkpoint",
    "Checkpointer",
    "RecoveryReport",
    "RecoveryResult",
    "encode_record",
    "scan_records",
    "Redo",
    "recover",
]

#: First two bytes of every record.
WAL_MAGIC = 0xFAB5

_HEADER = struct.Struct("<HBQII")  # magic, type, txn_id, payload_len, crc32
HEADER_BYTES = _HEADER.size

#: Refuse to believe a single record's payload exceeds this (a corrupted
#: length field would otherwise swallow megabytes of valid log).
MAX_PAYLOAD_BYTES = 1 << 24

#: CPU cycles charged per WAL byte for encode/CRC on append and for
#: decode/validate on recovery (a memcpy+CRC32 slice of an A53).
ENCODE_CYCLES_PER_BYTE = 3.0
DECODE_CYCLES_PER_BYTE = 4.0

#: Host CPU cycles per device microsecond at the default 1.5 GHz A53.
CYCLES_PER_US = 1_500.0


class WalRecordType(enum.IntEnum):
    """Discriminator byte of one log record."""

    BEGIN = 1
    WRITE = 2
    COMMIT = 3
    ABORT = 4
    CHECKPOINT = 5


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record; unused fields stay at their defaults."""

    type: WalRecordType
    txn_id: int = 0
    #: BEGIN: snapshot timestamp the transaction started at.
    start_ts: int = 0
    #: COMMIT: timestamp stamped onto the write set.
    commit_ts: int = 0
    #: WRITE: target table name and the intent's slots.
    table: str = ""
    new_slot: Optional[int] = None
    old_slot: Optional[int] = None
    #: WRITE: raw row image of the new version (empty for pure deletes).
    row_bytes: bytes = b""
    #: CHECKPOINT: identity + manager state at the checkpoint.
    checkpoint_id: int = 0
    clock: int = 0
    next_txn_id: int = 0


def _encode_payload(rec: WalRecord) -> bytes:
    if rec.type is WalRecordType.BEGIN:
        return struct.pack("<q", rec.start_ts)
    if rec.type is WalRecordType.WRITE:
        name = rec.table.encode("utf-8")
        new_slot = -1 if rec.new_slot is None else rec.new_slot
        old_slot = -1 if rec.old_slot is None else rec.old_slot
        return (
            struct.pack("<H", len(name))
            + name
            + struct.pack("<qqI", new_slot, old_slot, len(rec.row_bytes))
            + rec.row_bytes
        )
    if rec.type is WalRecordType.COMMIT:
        return struct.pack("<q", rec.commit_ts)
    if rec.type is WalRecordType.ABORT:
        return b""
    if rec.type is WalRecordType.CHECKPOINT:
        return struct.pack("<QqQ", rec.checkpoint_id, rec.clock, rec.next_txn_id)
    raise TransactionError(f"unknown WAL record type {rec.type!r}")


def _decode_payload(rtype: WalRecordType, txn_id: int, payload: bytes) -> WalRecord:
    if rtype is WalRecordType.BEGIN:
        (start_ts,) = struct.unpack("<q", payload)
        return WalRecord(rtype, txn_id, start_ts=start_ts)
    if rtype is WalRecordType.WRITE:
        (name_len,) = struct.unpack_from("<H", payload, 0)
        off = 2 + name_len
        name = payload[2:off].decode("utf-8")
        new_slot, old_slot, row_len = struct.unpack_from("<qqI", payload, off)
        off += 20
        row = payload[off : off + row_len]
        if len(row) != row_len or off + row_len != len(payload):
            raise ValueError("WRITE payload length mismatch")
        return WalRecord(
            rtype,
            txn_id,
            table=name,
            new_slot=None if new_slot < 0 else new_slot,
            old_slot=None if old_slot < 0 else old_slot,
            row_bytes=row,
        )
    if rtype is WalRecordType.COMMIT:
        (commit_ts,) = struct.unpack("<q", payload)
        return WalRecord(rtype, txn_id, commit_ts=commit_ts)
    if rtype is WalRecordType.ABORT:
        if payload:
            raise ValueError("ABORT carries no payload")
        return WalRecord(rtype, txn_id)
    if rtype is WalRecordType.CHECKPOINT:
        checkpoint_id, clock, next_txn_id = struct.unpack("<QqQ", payload)
        return WalRecord(
            rtype,
            txn_id,
            checkpoint_id=checkpoint_id,
            clock=clock,
            next_txn_id=next_txn_id,
        )
    raise ValueError(f"unknown record type {rtype}")


def encode_record(rec: WalRecord) -> bytes:
    """Serialize one record: header + CRC32-protected body."""
    payload = _encode_payload(rec)
    body = bytes([int(rec.type)]) + rec.txn_id.to_bytes(8, "little") + payload
    crc = zlib.crc32(body)
    return (
        _HEADER.pack(WAL_MAGIC, int(rec.type), rec.txn_id, len(payload), crc)
        + payload
    )


def _try_decode(data: bytes, off: int) -> Optional[Tuple[WalRecord, int]]:
    """Decode the record starting at ``off``; None if invalid/truncated."""
    if off + HEADER_BYTES > len(data):
        return None
    magic, rtype_raw, txn_id, payload_len, crc = _HEADER.unpack_from(data, off)
    if magic != WAL_MAGIC or payload_len > MAX_PAYLOAD_BYTES:
        return None
    end = off + HEADER_BYTES + payload_len
    if end > len(data):
        return None
    payload = data[off + HEADER_BYTES : end]
    body = bytes([rtype_raw]) + txn_id.to_bytes(8, "little") + payload
    if zlib.crc32(body) != crc:
        return None
    try:
        rtype = WalRecordType(rtype_raw)
        rec = _decode_payload(rtype, txn_id, payload)
    except (ValueError, struct.error, UnicodeDecodeError):
        return None
    return rec, end


def _valid_record_after(data: bytes, off: int) -> Optional[int]:
    """Offset of the first intact record strictly after ``off``, if any."""
    magic = struct.pack("<H", WAL_MAGIC)
    pos = data.find(magic, off + 1)
    while pos != -1:
        if _try_decode(data, pos) is not None:
            return pos
        pos = data.find(magic, pos + 1)
    return None


def scan_records(data: bytes) -> Tuple[List[Tuple[WalRecord, int]], int]:
    """Decode a log image into ``[(record, end_offset), ...]``.

    Returns the records plus the offset where scanning stopped. A
    trailing invalid region (torn tail) is tolerated: everything from the
    returned offset to ``len(data)`` is discarded garbage. An invalid
    record *followed by an intact one* is mid-log corruption and raises
    :class:`WalCorruptionError` — the typed, loud failure the chaos suite
    demands instead of a silently wrong recovery.

    Caveat (see the module docstring): corruption confined to the final
    record is indistinguishable from a torn append and is discarded as
    tail garbage — even if that record was a flushed COMMIT. Callers who
    must notice use the returned stop offset (``stop < len(data)`` means
    bytes were dropped) against any out-of-band durable-length knowledge
    they hold.
    """
    out: List[Tuple[WalRecord, int]] = []
    off = 0
    while off < len(data):
        decoded = _try_decode(data, off)
        if decoded is None:
            resync = _valid_record_after(data, off)
            if resync is not None:
                raise WalCorruptionError(
                    f"WAL record at byte {off} failed validation but an intact "
                    f"record follows at byte {resync}: mid-log corruption "
                    "(refusing to redo past it)"
                )
            return out, off
        rec, end = decoded
        out.append((rec, end))
        off = end
    return out, off


@dataclass
class WalStats:
    """Append-side counters for one :class:`WriteAheadLog`."""

    records: int = 0
    bytes_appended: int = 0
    flushes: int = 0
    commits_logged: int = 0
    aborts_logged: int = 0
    writes_logged: int = 0


class WriteAheadLog:
    """The durability pipe between the MVCC layer and simulated flash.

    Appends buffer in the device's controller DRAM; :meth:`flush` is the
    commit barrier that programs them to NAND. Every byte costs cycles in
    :attr:`ledger` (bucket ``wal_append``), converted from device
    microseconds at :data:`CYCLES_PER_US`, so enabling durability visibly
    moves the perf numbers instead of being free magic.
    """

    def __init__(
        self,
        device: Optional[SsdLog] = None,
        ledger: Optional[CostLedger] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ):
        self.device = device or SsdLog()
        self.ledger = ledger or CostLedger(tracer=tracer)
        self.stats = WalStats()
        #: Observability hook: append/flush/checkpoint/recovery spans.
        self.tracer = tracer
        if tracer is not None and self.ledger.tracer is None:
            self.ledger.tracer = tracer
        #: Metrics hook: WAL charges drive the simulated clock, flushes
        #: feed the fsync-barrier latency histogram, and the log/device
        #: counters are exposed through a collector.
        self.metrics: Optional["MetricsRegistry"] = None
        self._m_fsync = None
        #: Flight-recorder hook: checkpoint truncations and recovery
        #: passes are journaled when one is attached.
        self.journal = None
        if metrics is not None:
            self.attach_metrics(metrics)

    def attach_metrics(self, registry: "MetricsRegistry") -> None:
        """Wire this WAL into ``registry`` (idempotent; also called when
        a :class:`~repro.db.mvcc.TransactionManager` adopts the WAL)."""
        from repro.obs.collectors import register_wal

        if registry is None or self.metrics is not None:
            return
        self.metrics = registry
        if self.ledger.metrics is None:
            self.ledger.metrics = registry
        self._m_fsync = registry.histogram(
            "wal_fsync_cycles",
            help="Commit-barrier flush latency in simulated CPU cycles",
        )
        register_wal(registry, self)

    def attach_journal(self, journal) -> None:
        """Wire this WAL into a flight recorder (idempotent)."""
        if journal is None or self.journal is not None:
            return
        self.journal = journal

    # ------------------------------------------------------------------
    # Appending.
    # ------------------------------------------------------------------
    def append(self, rec: WalRecord, durable: bool = False) -> int:
        """Buffer one record; ``durable=True`` flushes (commit barrier).

        Returns the log sequence number — the byte offset just past this
        record once it reaches the media.
        """
        data = encode_record(rec)
        with maybe_span(
            self.tracer,
            "wal.append",
            layer="wal",
            record=rec.type.name,
            nbytes=len(data),
        ):
            self.device.append(data)
            self.stats.records += 1
            self.stats.bytes_appended += len(data)
            if rec.type is WalRecordType.COMMIT:
                self.stats.commits_logged += 1
            elif rec.type is WalRecordType.ABORT:
                self.stats.aborts_logged += 1
            elif rec.type is WalRecordType.WRITE:
                self.stats.writes_logged += 1
            self.ledger.charge(
                CostLedger.WAL_APPEND, ENCODE_CYCLES_PER_BYTE * len(data)
            )
            lsn = self.device.durable_bytes + self.device.pending_bytes
            if durable:
                self.flush()
        return lsn

    def flush(self) -> None:
        """Force buffered records to the media (priced NAND programs)."""
        with maybe_span(self.tracer, "wal.flush", layer="wal") as span:
            us = self.device.flush()
            self.stats.flushes += 1
            self.ledger.charge(CostLedger.WAL_APPEND, us * CYCLES_PER_US)
            if self._m_fsync is not None:
                self._m_fsync.observe(us * CYCLES_PER_US)
            span.add_counter("device_us", us)

    # ------------------------------------------------------------------
    # Reading back.
    # ------------------------------------------------------------------
    def read_image(self) -> bytes:
        """The durable log image, with read-back cost in ``wal_recovery``."""
        with maybe_span(self.tracer, "wal.read_image", layer="wal") as span:
            data, us = self.device.read_all()
            self.ledger.charge(
                CostLedger.WAL_RECOVERY,
                us * CYCLES_PER_US + DECODE_CYCLES_PER_BYTE * len(data),
            )
            span.set_attrs(nbytes=len(data))
            span.add_counter("device_us", us)
        return data

    def records(self) -> List[WalRecord]:
        """Validated records currently on the media (tail garbage dropped)."""
        recs, _ = scan_records(self.read_image())
        return [r for r, _ in recs]

    @property
    def durable_bytes(self) -> int:
        return self.device.durable_bytes


@dataclass
class _TableSnapshot:
    """One table's frozen image inside a checkpoint."""

    schema: TableSchema
    frame: bytes
    nrows: int
    version: int


@dataclass
class Checkpoint:
    """A point-in-time snapshot of every MVCC table plus manager state.

    The snapshot carries its own CRC32 over the frame bytes; recovery
    refuses a checkpoint whose image no longer matches (``validate``).
    """

    checkpoint_id: int
    clock: int
    next_txn_id: int
    snapshots: Dict[str, _TableSnapshot] = field(default_factory=dict)
    crc: int = 0

    @property
    def nbytes(self) -> int:
        """Snapshot payload size (what the checkpoint write costs)."""
        return sum(len(s.frame) for s in self.snapshots.values())

    def compute_crc(self) -> int:
        crc = zlib.crc32(
            struct.pack("<QqQ", self.checkpoint_id, self.clock, self.next_txn_id)
        )
        for name in sorted(self.snapshots):
            snap = self.snapshots[name]
            crc = zlib.crc32(name.encode("utf-8"), crc)
            crc = zlib.crc32(struct.pack("<qq", snap.nrows, snap.version), crc)
            crc = zlib.crc32(snap.frame, crc)
        return crc

    def validate(self) -> None:
        """Raise :class:`WalCorruptionError` if the image was damaged."""
        actual = self.compute_crc()
        if actual != self.crc:
            raise WalCorruptionError(
                f"checkpoint {self.checkpoint_id} failed its checksum "
                f"(stored {self.crc:#010x}, computed {actual:#010x})"
            )


class Checkpointer:
    """Snapshots MVCC tables and truncates the log behind them.

    Checkpoints require quiescence (no active transactions) — the same
    rule as :meth:`TransactionManager.vacuum`, because in-flight write
    intents hold slot indices the snapshot cannot represent. After the
    snapshot, the log is truncated to a single CHECKPOINT record, so
    recovery is ``checkpoint + short log`` instead of full-history redo.
    """

    def __init__(self, wal: WriteAheadLog):
        self.wal = wal
        self._next_id = 1
        #: Checkpoints taken through this checkpointer.
        self.taken = 0
        #: The most recent checkpoint (what recovery should start from).
        self.last: Optional[Checkpoint] = None

    def checkpoint(self, manager, tables: List[Table]) -> Checkpoint:
        """Snapshot ``tables`` + ``manager`` state; truncate the log."""
        if manager.active_count:
            raise TransactionError(
                "checkpoint requires no active transactions (write intents "
                "hold slot indices the snapshot cannot carry)"
            )
        cp = Checkpoint(
            checkpoint_id=self._next_id,
            clock=manager.now,
            next_txn_id=manager.next_txn_id,
        )
        self._next_id += 1
        for table in tables:
            cp.snapshots[table.schema.name] = _TableSnapshot(
                schema=table.schema,
                frame=bytes(table.frame.tobytes()),
                nrows=table.nrows,
                version=table.version,
            )
        cp.crc = cp.compute_crc()
        with maybe_span(
            self.wal.tracer,
            "wal.checkpoint",
            layer="wal",
            checkpoint_id=cp.checkpoint_id,
            nbytes=cp.nbytes,
            tables=len(cp.snapshots),
        ) as span:
            # Price the snapshot write: serialize + program every frame byte.
            page = self.wal.device.flash.config.page_bytes
            pages = -(-max(cp.nbytes, 1) // page)
            us = self.wal.device.flash.write_pages_us(pages)
            self.wal.ledger.charge(
                CostLedger.WAL_CHECKPOINT,
                us * CYCLES_PER_US + ENCODE_CYCLES_PER_BYTE * cp.nbytes,
            )
            span.add_counter("device_us", us)
            span.add_counter("pages_written", pages)
            # Truncate: the new log begins with the CHECKPOINT record.
            marker = encode_record(
                WalRecord(
                    WalRecordType.CHECKPOINT,
                    checkpoint_id=cp.checkpoint_id,
                    clock=cp.clock,
                    next_txn_id=cp.next_txn_id,
                )
            )
            self.wal.device.truncate(marker)
        self.taken += 1
        self.last = cp
        if self.wal.journal is not None:
            self.wal.journal.record(
                "wal.checkpoint",
                checkpoint_id=cp.checkpoint_id,
                nbytes=cp.nbytes,
                tables=len(cp.snapshots),
                clock=cp.clock,
            )
        return cp


class Redo:
    """The one redo loop: replays BEGIN, WRITE, COMMIT and ABORT records.

    Full recovery (:func:`recover`) and incremental replication
    (:class:`repro.dist.replica.ShardReplica`) both redo the log through
    :meth:`replay`; each keeps only its own CHECKPOINT rule, passed as
    ``on_checkpoint`` (called with the record before its floors fold in).

    A WRITE lands its new version's raw row image at exactly the slot the
    runtime used, invisible: ``write_row_bytes`` pads with ``(NEVER,
    LIVE)`` rows and the logged image carries those stamps. A COMMIT
    stamps the transaction's new versions' begin and superseded versions'
    end, in the runtime commit's order. Transactions with no COMMIT
    (still in :attr:`live` at the end, or aborted) leave only invisible
    garbage, exactly like a runtime abort. Replaying a record twice
    writes the same bytes to the same slot: redo is idempotent by
    construction.
    """

    def __init__(
        self,
        tables: Dict[str, Table],
        schemas: Mapping[str, TableSchema],
        on_checkpoint: Callable[[WalRecord], None],
        clock: int = 0,
        next_txn_id: int = 1,
    ):
        self.tables = tables
        self.schemas = schemas
        self.on_checkpoint = on_checkpoint
        #: Floors of the manager state the log implies: the highest
        #: timestamp and the next transaction id it has seen.
        self.clock = clock
        self.next_txn_id = next_txn_id
        #: txn_id -> WRITE intents not yet committed or aborted.
        self.live: Dict[int, List[WalRecord]] = {}
        #: COMMITs of transactions live in the log, and the writes they
        #: stamped.
        self.commits = 0
        self.writes = 0
        #: Every ABORT record, and those of transactions live in the log.
        self.aborts = 0
        self.aborts_live = 0

    def replay(self, records: Sequence[Tuple[WalRecord, int]]) -> None:
        """Redo ``records`` (as :func:`scan_records` returns them) in order."""
        for rec, _end in records:
            rtype = rec.type
            if rtype is WalRecordType.WRITE:
                table = self._table(rec.table)
                if rec.new_slot is not None:
                    table.write_row_bytes(rec.new_slot, rec.row_bytes)
                self.live.setdefault(rec.txn_id, []).append(rec)
            elif rtype is WalRecordType.BEGIN:
                self.live[rec.txn_id] = []
                self.clock = max(self.clock, rec.start_ts)
                self.next_txn_id = max(self.next_txn_id, rec.txn_id + 1)
            elif rtype is WalRecordType.COMMIT:
                intents = self.live.pop(rec.txn_id, None)
                if intents is not None:
                    for w in intents:
                        table = self.tables[w.table]
                        if w.new_slot is not None:
                            table.stamp_begin(w.new_slot, rec.commit_ts)
                        if w.old_slot is not None:
                            table.stamp_end(w.old_slot, rec.commit_ts)
                    self.commits += 1
                    self.writes += len(intents)
                self.clock = max(self.clock, rec.commit_ts)
            elif rtype is WalRecordType.ABORT:
                self.aborts += 1
                if self.live.pop(rec.txn_id, None) is not None:
                    self.aborts_live += 1
            else:
                self.on_checkpoint(rec)
                self.clock = max(self.clock, rec.clock)
                self.next_txn_id = max(self.next_txn_id, rec.next_txn_id)

    def _table(self, name: str) -> Table:
        if name not in self.tables:
            if name not in self.schemas:
                raise WalCorruptionError(
                    f"WAL references table {name!r} with no schema: "
                    "pass it via recover(..., schemas=...) or a checkpoint"
                )
            self.tables[name] = Table(self.schemas[name])
        return self.tables[name]


@dataclass
class RecoveryReport:
    """What one :func:`recover` pass saw and did."""

    records_scanned: int = 0
    bytes_scanned: int = 0
    torn_tail_bytes: int = 0
    committed_redone: int = 0
    writes_redone: int = 0
    uncommitted_dropped: int = 0
    aborted_seen: int = 0
    checkpoint_id: Optional[int] = None
    recovered_clock: int = 0


@dataclass
class RecoveryResult:
    """Recovered state: a fresh manager, the rebuilt tables, the report."""

    manager: "TransactionManager"  # noqa: F821 - forward ref, see repro.db.mvcc
    tables: Dict[str, Table]
    report: RecoveryReport


def recover(
    wal: WriteAheadLog,
    checkpoint: Optional[Checkpoint] = None,
    schemas: Optional[Mapping[str, TableSchema]] = None,
    attach_wal: bool = False,
) -> RecoveryResult:
    """Rebuild MVCC state from a checkpoint plus the durable log.

    Validates the checkpoint CRC, scans the log (discarding a torn tail,
    raising :class:`WalCorruptionError` on mid-log corruption), checks
    the CHECKPOINT marker against the snapshot, and redoes the rest
    through :class:`Redo`: WRITE intents land invisibly at their original
    slots, COMMIT stamps them, and everything uncommitted is dropped —
    restoring exactly the first-committer-wins state the crashed manager
    had established.
    Recovery is a pure function of ``(log image, checkpoint)``: running
    it twice yields identical tables, so redo is idempotent.

    ``schemas`` supplies table definitions for WAL-only recovery (no
    checkpoint); with a checkpoint they come from its snapshots. Pass
    ``attach_wal=True`` to let the recovered manager keep logging to the
    same log (normal restart); the default leaves it detached (what a
    what-if crash probe wants).
    """
    with maybe_span(
        wal.tracer,
        "wal.recover",
        layer="wal",
        with_checkpoint=checkpoint is not None,
    ) as span:
        result = _recover_impl(wal, checkpoint, schemas, attach_wal)
        span.set_attrs(
            records_scanned=result.report.records_scanned,
            committed_redone=result.report.committed_redone,
            torn_tail_bytes=result.report.torn_tail_bytes,
        )
    if wal.journal is not None:
        wal.journal.record(
            "wal.recovery",
            records_scanned=result.report.records_scanned,
            committed_redone=result.report.committed_redone,
            uncommitted_dropped=result.report.uncommitted_dropped,
            torn_tail_bytes=result.report.torn_tail_bytes,
            checkpoint_id=result.report.checkpoint_id,
        )
    return result


def _recover_impl(
    wal: WriteAheadLog,
    checkpoint: Optional[Checkpoint],
    schemas: Optional[Mapping[str, TableSchema]],
    attach_wal: bool,
) -> RecoveryResult:
    from repro.db.mvcc import TransactionManager  # local: avoid import cycle

    report = RecoveryReport()
    tables: Dict[str, Table] = {}
    known_schemas: Dict[str, TableSchema] = dict(schemas or {})
    clock_floor = 0
    next_txn_floor = 1
    if checkpoint is not None:
        checkpoint.validate()
        report.checkpoint_id = checkpoint.checkpoint_id
        clock_floor = checkpoint.clock
        next_txn_floor = checkpoint.next_txn_id
        for name, snap in checkpoint.snapshots.items():
            tables[name] = Table.restore(
                snap.schema, snap.frame, snap.nrows, snap.version
            )
            known_schemas[name] = snap.schema

    def check_checkpoint(rec: WalRecord) -> None:
        if checkpoint is None:
            raise WalCorruptionError(
                f"log begins at checkpoint {rec.checkpoint_id} but no "
                "checkpoint snapshot was supplied: WAL-only redo would "
                "silently miss every pre-checkpoint commit"
            )
        if rec.checkpoint_id != checkpoint.checkpoint_id:
            raise WalCorruptionError(
                f"log begins at checkpoint {rec.checkpoint_id} but snapshot "
                f"is checkpoint {checkpoint.checkpoint_id}"
            )

    data = wal.read_image()
    records, stop = scan_records(data)
    report.records_scanned = len(records)
    report.bytes_scanned = stop
    report.torn_tail_bytes = len(data) - stop

    redo = Redo(tables, known_schemas, check_checkpoint, clock_floor, next_txn_floor)
    redo.replay(records)
    report.committed_redone = redo.commits
    report.writes_redone = redo.writes
    report.aborted_seen = redo.aborts_live
    report.uncommitted_dropped = len(redo.live)
    report.recovered_clock = redo.clock

    manager = TransactionManager(wal=wal if attach_wal else None)
    manager.restore_state(clock=redo.clock, next_txn_id=redo.next_txn_id)
    return RecoveryResult(manager=manager, tables=tables, report=report)
