"""Flash device geometry and service-time model.

The substrate for Relational Storage (paper §IV-D): a NAND array with
``channels × dies`` of parallelism — the "internal parallelism of the
storage device" the paper wants to exploit — plus an internal controller
clock for in-storage compute and a host link (the bottleneck near-data
processing avoids).

Times are in microseconds; conversions to host-CPU cycles happen at the
callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import StorageError
from repro.faults import FLASH_READ, STORAGE_ENGINE, FaultInjector


@dataclass(frozen=True)
class FlashConfig:
    """An SSD in the SmartSSD/OpenSSD class."""

    channels: int = 8
    dies_per_channel: int = 8
    page_bytes: int = 4096
    #: NAND array read latency per page.
    read_page_us: float = 60.0
    #: NAND array program (write) latency per page — an order of
    #: magnitude above reads on real flash, which is what makes WAL
    #: appends a visible cost in the ledger.
    program_page_us: float = 350.0
    #: Per-channel bus time to move one page from die to controller.
    channel_page_us: float = 4.0
    #: Host link bandwidth. Deliberately below the aggregate internal
    #: bandwidth — the imbalance near-data processing exploits (a
    #: SmartSSD-class device shares a modest PCIe allocation while its
    #: channels sustain several GB/s internally).
    host_link_mb_s: float = 1500.0
    #: In-storage compute throughput of the transformation engine.
    engine_mb_s: float = 3500.0


class FlashDevice:
    """Prices page reads with die- and channel-level overlap."""

    def __init__(
        self,
        config: FlashConfig = FlashConfig(),
        fault_injector: Optional[FaultInjector] = None,
    ):
        self.config = config
        #: Optional chaos hook; ``None`` means a perfectly reliable device.
        self.fault_injector = fault_injector
        self.pages_read = 0
        self.pages_written = 0
        self.busy_us = 0.0

    def read_pages_us(self, n_pages: int) -> float:
        """Service time for ``n_pages`` sequentially-striped page reads.

        Pages stripe round-robin over channels and dies; array reads
        overlap across dies, channel transfers serialize per channel.
        """
        if n_pages < 0:
            raise StorageError(f"negative page count {n_pages}")
        if n_pages == 0:
            return 0.0
        if self.fault_injector is not None and self.fault_injector.armed:
            self.fault_injector.check(FLASH_READ, detail=f"{n_pages} pages")
        cfg = self.config
        self.pages_read += n_pages
        per_channel = math.ceil(n_pages / cfg.channels)
        array_waves = math.ceil(per_channel / cfg.dies_per_channel)
        array_us = array_waves * cfg.read_page_us
        transfer_us = per_channel * cfg.channel_page_us
        # Array reads pipeline behind channel transfers after the first wave.
        total = max(array_us, transfer_us) + min(
            cfg.read_page_us, cfg.channel_page_us
        )
        self.busy_us += total
        return total

    def write_pages_us(self, n_pages: int) -> float:
        """Service time to program ``n_pages`` sequentially-striped pages.

        Programs stripe like reads: array programs overlap across dies,
        channel transfers (host/controller -> die) serialize per channel.
        """
        if n_pages < 0:
            raise StorageError(f"negative page count {n_pages}")
        if n_pages == 0:
            return 0.0
        cfg = self.config
        self.pages_written += n_pages
        per_channel = math.ceil(n_pages / cfg.channels)
        array_waves = math.ceil(per_channel / cfg.dies_per_channel)
        array_us = array_waves * cfg.program_page_us
        transfer_us = per_channel * cfg.channel_page_us
        total = max(array_us, transfer_us) + min(
            cfg.program_page_us, cfg.channel_page_us
        )
        self.busy_us += total
        return total

    def host_transfer_us(self, nbytes: int) -> float:
        """Time on the host link for ``nbytes``."""
        if nbytes < 0:
            raise StorageError(f"negative byte count {nbytes}")
        return nbytes / (self.config.host_link_mb_s * 1e6) * 1e6

    def engine_us(self, nbytes: int) -> float:
        """In-storage transformation time over ``nbytes`` of row data."""
        if nbytes < 0:
            raise StorageError(f"negative byte count {nbytes}")
        if nbytes and self.fault_injector is not None and self.fault_injector.armed:
            self.fault_injector.check(STORAGE_ENGINE, detail=f"{nbytes} bytes")
        return nbytes / (self.config.engine_mb_s * 1e6) * 1e6
