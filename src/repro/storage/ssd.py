"""The plain SSD read path: the baseline Relational Storage improves on.

A table's row image is laid out page-sequentially on flash. A legacy
host-side scan must pull **every page of every touched row** over the
host link, whatever the query's projectivity — the storage analogue of
Figure 1's "legacy fetch".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.db.table import Table
from repro.faults import WAL_BITFLIP, WAL_FLUSH, WAL_TORN, FaultInjector
from repro.storage.flash import FlashConfig, FlashDevice
from repro.errors import StorageError


@dataclass
class ReadReport:
    """Cost of one read: device-side time, link time, bytes to host."""

    pages_read: int
    device_us: float
    link_us: float
    host_bytes: int

    @property
    def total_us(self) -> float:
        # Flash reads and link transfer pipeline: the slower side dominates.
        return max(self.device_us, self.link_us) + min(self.device_us, self.link_us) * 0.05


class SsdTable:
    """A table resident on the simulated SSD."""

    def __init__(self, table: Table, flash: Optional[FlashDevice] = None):
        self.table = table
        self.flash = flash or FlashDevice()
        self._page_bytes = self.flash.config.page_bytes
        if table.schema.row_stride > self._page_bytes:
            raise StorageError(
                f"row stride {table.schema.row_stride} exceeds page size"
            )

    @property
    def rows_per_page(self) -> int:
        return self._page_bytes // self.table.schema.row_stride

    @property
    def total_pages(self) -> int:
        return math.ceil(self.table.nrows / self.rows_per_page)

    def scan_rows(self) -> Tuple[np.ndarray, ReadReport]:
        """Legacy full scan: ship every page to the host."""
        pages = self.total_pages
        device_us = self.flash.read_pages_us(pages)
        host_bytes = pages * self._page_bytes
        link_us = self.flash.host_transfer_us(host_bytes)
        report = ReadReport(
            pages_read=pages,
            device_us=device_us,
            link_us=link_us,
            host_bytes=host_bytes,
        )
        return self.table.frame, report

    def read_row(self, slot: int) -> Tuple[dict, ReadReport]:
        """Point read: one page to the host."""
        if not 0 <= slot < self.table.nrows:
            raise StorageError(f"row {slot} out of range")
        device_us = self.flash.read_pages_us(1)
        report = ReadReport(
            pages_read=1,
            device_us=device_us,
            link_us=self.flash.host_transfer_us(self._page_bytes),
            host_bytes=self._page_bytes,
        )
        return self.table.row(slot), report


class SsdLog:
    """An append-only log region on the simulated flash device.

    This is the durability substrate of :mod:`repro.db.wal`: appends are
    buffered in controller DRAM and reach the NAND media only at
    :meth:`flush` (the commit barrier), priced through
    :meth:`FlashDevice.write_pages_us` so every WAL byte costs simulated
    program time. The append/flush split is what makes crash semantics
    honest — anything not flushed when the "power fails" is gone.

    With a :class:`~repro.faults.FaultInjector` attached, flushes and
    read-backs are *shaped* rather than failed loudly, the way real
    storage betrays you:

    * ``wal.torn`` — the final append of a flush is cut at a seeded
      intra-record offset (a torn write);
    * ``wal.flush`` — only a prefix of the whole flushed batch reaches
      the media (a partial flush, possibly spanning records);
    * ``wal.bitflip`` — one bit of the returned image is flipped on
      read-back (detected later by record checksums).
    """

    def __init__(
        self,
        flash: Optional[FlashDevice] = None,
        fault_injector: Optional[FaultInjector] = None,
        initial: bytes = b"",
    ):
        self.flash = flash or FlashDevice()
        #: Optional chaos hook; ``None`` means perfectly reliable media.
        self.fault_injector = fault_injector
        self._media = bytearray(initial)
        self._pending: List[bytes] = []
        #: ``sum(map(len, _pending))``, kept as the chunks come and go:
        #: every WAL append reads it for its LSN.
        self._pending_bytes = 0
        self.appends = 0
        self.flushes = 0
        self.torn_appends = 0
        self.partial_flushes = 0
        self.bitflips = 0
        #: Log truncations (checkpoints) — each one erases the old image,
        #: the closest thing this model has to a NAND block erase.
        self.erases = 0

    @property
    def durable_bytes(self) -> int:
        """Bytes that have actually reached the media."""
        return len(self._media)

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered in controller DRAM, lost on a crash."""
        return self._pending_bytes

    def append(self, data: bytes) -> None:
        """Buffer one record's bytes for the next flush."""
        if not data:
            return
        chunk = bytes(data)
        self._pending.append(chunk)
        self._pending_bytes += len(chunk)
        self.appends += 1

    def flush(self) -> float:
        """Program buffered bytes to media; returns device microseconds."""
        if not self._pending:
            return 0.0
        chunks, self._pending = self._pending, []
        self._pending_bytes = 0
        inj = self.fault_injector
        if inj is not None and inj.armed and inj.should_fault(WAL_TORN):
            last = chunks[-1]
            chunks[-1] = last[: inj.draw(len(last))] if len(last) > 1 else b""
            self.torn_appends += 1
        blob = b"".join(chunks)
        if blob and inj is not None and inj.armed and inj.should_fault(WAL_FLUSH):
            blob = blob[: inj.draw(len(blob))]
            self.partial_flushes += 1
        start = len(self._media)
        self._media.extend(blob)
        first_page = start // self.flash.config.page_bytes
        last_page = max(len(self._media) - 1, start) // self.flash.config.page_bytes
        us = self.flash.write_pages_us(last_page - first_page + 1) if blob else 0.0
        self.flushes += 1
        return us

    def read_all(self) -> Tuple[bytes, float]:
        """The durable image plus the device+link microseconds to read it."""
        pages = math.ceil(len(self._media) / self.flash.config.page_bytes)
        us = self.flash.read_pages_us(pages) + self.flash.host_transfer_us(
            len(self._media)
        )
        data = bytes(self._media)
        inj = self.fault_injector
        if data and inj is not None and inj.armed and inj.should_fault(WAL_BITFLIP):
            pos = inj.draw(len(data) * 8)
            flipped = bytearray(data)
            flipped[pos // 8] ^= 1 << (pos % 8)
            data = bytes(flipped)
            self.bitflips += 1
        return data, us

    def media(self) -> bytes:
        """A copy of the durable image (for crash-point harnesses)."""
        return bytes(self._media)

    def crash(self) -> None:
        """Simulate power loss: buffered-but-unflushed bytes vanish."""
        self._pending.clear()
        self._pending_bytes = 0

    def truncate(self, keep: bytes = b"") -> None:
        """Replace the log with ``keep`` (checkpoint truncation)."""
        self._pending.clear()
        self._pending_bytes = 0
        self._media = bytearray(keep)
        self.erases += 1
