"""Incremental WAL-replay replica: one shard's recoverable state.

A shard worker does not receive a copy of the coordinator's table object
— it receives the shard's *write-ahead log*, the same byte stream the
durability layer already trusts (PR 3). :class:`ShardReplica` replays
that stream through the same redo loop full recovery uses
(:class:`repro.db.wal.Redo`), but incrementally: ``boot`` replays an
initial image, ``apply_delta`` appends later flushed records as the
coordinator replicates them. The replica adds only the LSN fence, the
check that a delta is whole records, and a refusal of CHECKPOINT records.

The replica is *LSN-fenced*: it tracks ``applied_lsn`` — the byte offset
into the shard's log it has fully applied — and refuses any delta that
does not start exactly there. A dropped replication message (the
``shard.partition`` fault site) therefore never produces a silently
stale answer: the replica's LSN stops advancing, the coordinator's next
query carries the durable LSN as a fence, and the mismatch surfaces as a
typed ``stale`` reply that triggers restart-from-log.

Equivalence with :func:`repro.db.wal.recover` is the contract: booting a
replica from a log image yields the same visible rows as recovering that
image, byte for byte (tested in ``tests/test_dist.py``), because both
walk the same records through the same loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.ledger import CostLedger
from repro.db.schema import TableSchema
from repro.db.table import Table
from repro.db.wal import DECODE_CYCLES_PER_BYTE, Redo, WalRecord, scan_records
from repro.errors import WalCorruptionError

__all__ = ["ReplicaStats", "ShardReplica"]


@dataclass
class ReplicaStats:
    """What replay cost, for the boot ack and the recovery benchmark."""

    records_applied: int = 0
    bytes_applied: int = 0
    commits_applied: int = 0
    aborts_applied: int = 0
    #: Simulated decode+redo cycles, integer (bytes x integer rate).
    recovery_cycles: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "records_applied": self.records_applied,
            "bytes_applied": self.bytes_applied,
            "commits_applied": self.commits_applied,
            "aborts_applied": self.aborts_applied,
            "recovery_cycles": self.recovery_cycles,
        }


@dataclass
class ShardReplica:
    """One shard's table, rebuilt and kept current from its WAL stream."""

    schema: TableSchema
    ledger: CostLedger = field(default_factory=CostLedger)
    #: Byte offset into the shard's log applied so far (the fence).
    applied_lsn: int = 0
    stats: ReplicaStats = field(default_factory=ReplicaStats)

    def __post_init__(self) -> None:
        #: Intents are materialized invisibly on arrival (same as
        #: recovery), so a delta that ends mid-transaction leaves no
        #: visible trace.
        self._redo = Redo(
            {self.schema.name: Table(self.schema)},
            {self.schema.name: self.schema},
            _refuse_checkpoint,
        )

    @property
    def table(self) -> Table:
        return self._redo.tables[self.schema.name]

    @property
    def clock(self) -> int:
        """Highest timestamp replayed; queries at or above this snapshot
        see every transaction the log delivered."""
        return self._redo.clock

    def boot(self, image: bytes) -> ReplicaStats:
        """Replay a full log image from offset zero (worker cold start)."""
        if self.applied_lsn != 0:
            raise WalCorruptionError(
                "boot on a replica that already applied "
                f"{self.applied_lsn} bytes"
            )
        self.apply_delta(image, base_lsn=0)
        return self.stats

    def apply_delta(self, delta: bytes, base_lsn: int) -> bool:
        """Apply a contiguous flushed-record slice of the shard's log.

        Returns ``False`` (and applies nothing) when ``base_lsn`` is not
        exactly the next unapplied byte — an out-of-order or duplicated
        replication message. The coordinator treats a frozen
        ``applied_lsn`` as staleness, never as silent data loss.
        """
        if base_lsn != self.applied_lsn:
            return False
        if not delta:
            return True
        records, stop = scan_records(delta)
        if stop != len(delta):
            # Replication ships only durable whole records; a short scan
            # means the stream itself is damaged, not a torn tail.
            raise WalCorruptionError(
                f"replication delta not record-aligned: scan stopped at "
                f"byte {stop} of {len(delta)}"
            )
        self._redo.replay(records)
        self.applied_lsn += len(delta)
        self.stats.records_applied += len(records)
        self.stats.bytes_applied += len(delta)
        self.stats.commits_applied = self._redo.commits
        self.stats.aborts_applied = self._redo.aborts
        cycles = int(DECODE_CYCLES_PER_BYTE * len(delta))
        self.stats.recovery_cycles += cycles
        self.ledger.charge(CostLedger.WAL_RECOVERY, cycles)
        return True


def _refuse_checkpoint(rec: WalRecord) -> None:
    # Cluster shards never checkpoint/truncate their logs; a CHECKPOINT
    # in the stream means the fence arithmetic (byte offsets from zero)
    # no longer holds.
    raise WalCorruptionError(
        f"unsupported record type {rec.type!r} in replication stream"
    )
