"""Tiered fabric: Relational Storage and Relational Memory together
(paper §VII, Q3).

"Consider that the two fabrics may play different roles. For example,
the storage one can convert from compressed columns to rows in memory,
and the in-memory one can allow the processor to access arbitrary column
groups."

Pipeline implemented here:

1. cold data rests on flash as a **compressed column archive** — each
   column encoded with the best *fabric-compatible* codec (§III-D), so
   a row range decodes block-locally;
2. the **storage fabric** reads only the needed compressed segments,
   decompresses in-device, converts columns to a row-major frame, and
   ships rows over the host link;
3. the **memory fabric** then serves arbitrary ephemeral column groups
   over that fresh row frame, exactly as everywhere else in the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.ephemeral import EphemeralColumnGroup
from repro.core.fabric import RelationalMemory
from repro.db.compression import best_codec
from repro.db.compression.base import CompressedColumn
from repro.db.schema import TableSchema
from repro.db.table import Table
from repro.storage.flash import FlashConfig, FlashDevice
from repro.errors import DeviceTimeoutError, FlashReadError, StorageError
from repro.faults import RetryPolicy
from repro.hw.config import PlatformConfig
from repro.obs import Tracer, maybe_span


@dataclass
class _ArchivedColumn:
    """One column at rest: compressed ints or raw opaque bytes."""

    name: str
    compressed: Optional[CompressedColumn]  # None for CHAR payloads
    codec_name: Optional[str]
    raw_bytes: Optional[bytes]
    width: int
    n_values: int

    @property
    def stored_bytes(self) -> int:
        if self.compressed is not None:
            return self.compressed.nbytes
        return len(self.raw_bytes)

    def decode_range(self, start: int, stop: int) -> np.ndarray:
        if self.compressed is not None:
            from repro.db.compression import all_codecs

            codec = all_codecs()[self.codec_name]
            return codec.decode_range(self.compressed, start, stop)
        chunk = self.raw_bytes[start * self.width : stop * self.width]
        return np.frombuffer(chunk, dtype=np.uint8).reshape(-1, self.width)


class ColumnArchive:
    """A table frozen into per-column, fabric-compatible compressed form."""

    def __init__(self, schema: TableSchema, columns: List[_ArchivedColumn], nrows: int):
        self.schema = schema
        self._columns = {c.name: c for c in columns}
        self.nrows = nrows

    @classmethod
    def from_table(cls, table: Table) -> "ColumnArchive":
        """Archive every user column, picking the best fabric-compatible
        codec per column (CHAR payloads stay raw: they are opaque bytes)."""
        archived: List[_ArchivedColumn] = []
        for col in table.schema.user_columns:
            values = table.column(col.name)
            if col.dtype.np_dtype is None:
                archived.append(
                    _ArchivedColumn(
                        name=col.name,
                        compressed=None,
                        codec_name=None,
                        raw_bytes=values.tobytes(),
                        width=col.dtype.width,
                        n_values=table.nrows,
                    )
                )
                continue
            codec = best_codec(values, fabric_only=True)
            archived.append(
                _ArchivedColumn(
                    name=col.name,
                    compressed=codec.encode(values),
                    codec_name=codec.name,
                    raw_bytes=None,
                    width=col.dtype.width,
                    n_values=table.nrows,
                )
            )
        return cls(schema=table.schema, columns=archived, nrows=table.nrows)

    def column(self, name: str) -> _ArchivedColumn:
        if name not in self._columns:
            raise StorageError(f"archive has no column {name!r}")
        return self._columns[name]

    @property
    def stored_bytes(self) -> int:
        return sum(c.stored_bytes for c in self._columns.values())

    @property
    def raw_row_bytes(self) -> int:
        return self.nrows * self.schema.row_stride

    @property
    def compression_ratio(self) -> float:
        return self.raw_row_bytes / self.stored_bytes if self.stored_bytes else 0.0

    def codec_summary(self) -> Dict[str, str]:
        return {
            name: (c.codec_name or "raw") for name, c in self._columns.items()
        }


@dataclass
class TieredReport:
    """Cost picture of one cold→warm materialization."""

    compressed_bytes_read: int
    pages_read: int
    device_us: float
    decompress_us: float
    link_us: float
    host_bytes: int
    #: What a plain (uncompressed rows on flash) read would have cost.
    baseline_pages: int
    baseline_us: float
    #: Flash read attempts that faulted and were retried.
    retries: int = 0
    #: Backoff time spent waiting between flash read retries.
    retry_us: float = 0.0
    #: True when the in-storage engine faulted and decompression ran on
    #: the host CPU instead (compressed blocks shipped over the link).
    degraded: bool = False

    @property
    def total_us(self) -> float:
        return max(self.device_us, self.decompress_us, self.link_us) + self.retry_us

    @property
    def speedup_vs_uncompressed(self) -> float:
        return self.baseline_us / self.total_us if self.total_us else float("inf")


class TieredFabric:
    """Storage fabric (decompress columns→rows) + memory fabric
    (rows→ephemeral column groups).

    Resilience: faulted flash page reads are retried under
    ``retry_policy`` (backoff priced into the report); a faulted
    in-storage decompression engine degrades to shipping compressed
    blocks over the host link and decompressing on the host CPU — slower,
    but the materialized rows are identical.
    """

    #: Host-CPU decompression throughput used in degraded mode —
    #: deliberately below the in-storage engine's (no custom logic).
    HOST_DECOMPRESS_MB_S = 800.0

    def __init__(
        self,
        archive: ColumnArchive,
        platform: Optional[PlatformConfig] = None,
        flash: Optional[FlashDevice] = None,
        retry_policy: Optional[RetryPolicy] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.archive = archive
        self.flash = flash or FlashDevice()
        # Storage-side backoff is priced in microseconds.
        self.retry_policy = retry_policy or RetryPolicy(retries=3, base=50.0, cap=5_000.0)
        self.memory_fabric = RelationalMemory(platform, tracer=tracer)
        #: Observability hook, shared with the memory fabric: cold→warm
        #: materializations and the downstream ephemeral groups appear in
        #: the same trace. Storage spans tick in device microseconds.
        self.tracer = tracer
        #: Materializations that fell back to host-side decompression.
        self.degraded_runs = 0
        #: Tier-movement counters (read by repro.obs.collectors): each
        #: successful materialize promotes a cold row range into warm
        #: memory; :meth:`demote` records the reverse movement when the
        #: host releases a warm frame back to flash-only residence.
        self.promotions = 0
        self.promoted_rows = 0
        self.demotions = 0
        self.demoted_rows = 0

    def materialize_rows(
        self, row_lo: int = 0, row_hi: Optional[int] = None
    ) -> Tuple[Table, TieredReport]:
        """Storage-fabric step: decompress the row range in-device and
        ship it to memory as a row-major table."""
        archive = self.archive
        row_hi = archive.nrows if row_hi is None else row_hi
        if not 0 <= row_lo <= row_hi <= archive.nrows:
            raise StorageError(f"row range [{row_lo}, {row_hi}) out of bounds")

        with maybe_span(
            self.tracer,
            "storage.materialize",
            layer="storage",
            rows_in=archive.nrows,
            rows_out=row_hi - row_lo,
        ) as span:
            table = Table(archive.schema, capacity=max(1, row_hi - row_lo))
            columns: Dict[str, np.ndarray] = {}
            compressed_read = 0
            with maybe_span(self.tracer, "storage.decompress", layer="storage"):
                for col in archive.schema.user_columns:
                    arch = archive.column(col.name)
                    values = arch.decode_range(row_lo, row_hi)
                    # Range decode touches whole blocks; charge proportionally.
                    fraction = (row_hi - row_lo) / archive.nrows if archive.nrows else 0
                    compressed_read += math.ceil(arch.stored_bytes * fraction)
                    if col.dtype.np_dtype is None:
                        columns[col.name] = values.view(f"S{col.dtype.width}").reshape(-1)
                    else:
                        columns[col.name] = values.astype(col.dtype.np_dtype)
                if row_hi > row_lo:
                    table.append_arrays(columns)

            cfg = self.flash.config
            pages = math.ceil(compressed_read / cfg.page_bytes)
            with maybe_span(
                self.tracer, "storage.read", layer="storage", pages=pages
            ) as read_span:
                device_us, retries, retry_us = self._read_with_retry(pages)
                read_span.add_counters({"device_us": device_us, "retries": retries})
                read_span.set_duration(device_us + retry_us)
            degraded = False
            try:
                decompress_us = self.flash.engine_us(compressed_read)
            except DeviceTimeoutError:
                # In-storage engine down: ship the compressed blocks as-is
                # and decompress on the host CPU (the software path).
                degraded = True
                self.degraded_runs += 1
                decompress_us = compressed_read / (self.HOST_DECOMPRESS_MB_S * 1e6) * 1e6
            host_bytes = (row_hi - row_lo) * archive.schema.row_stride
            if degraded:
                link_us = self.flash.host_transfer_us(compressed_read)
            else:
                link_us = self.flash.host_transfer_us(host_bytes)
            with maybe_span(
                self.tracer, "storage.link", layer="storage"
            ) as link_span:
                link_span.add_counters({"link_us": link_us, "host_bytes": host_bytes})
                link_span.set_duration(link_us)

            baseline_pages = math.ceil(host_bytes / cfg.page_bytes)
            baseline_device = FlashDevice(cfg).read_pages_us(baseline_pages)
            baseline_link = FlashDevice(cfg).host_transfer_us(host_bytes)
            report = TieredReport(
                compressed_bytes_read=compressed_read,
                pages_read=pages,
                device_us=device_us,
                decompress_us=decompress_us,
                link_us=link_us,
                host_bytes=host_bytes,
                baseline_pages=baseline_pages,
                baseline_us=max(baseline_device, baseline_link),
                retries=retries,
                retry_us=retry_us,
                degraded=degraded,
            )
            span.set_attrs(degraded=degraded)
            span.add_counters(
                {
                    "compressed_bytes_read": compressed_read,
                    "decompress_us": decompress_us,
                }
            )
            span.set_duration(report.total_us)
        self.promotions += 1
        self.promoted_rows += row_hi - row_lo
        return table, report

    def demote(self, table: Table) -> int:
        """Release a warm row frame: the rows now live only in the cold
        compressed archive again. Pure bookkeeping (the archive is the
        source of truth and was never mutated); returns the rows demoted."""
        rows = table.nrows
        self.demotions += 1
        self.demoted_rows += rows
        return rows

    def _read_with_retry(self, pages: int) -> Tuple[float, int, float]:
        """Read ``pages``, retrying faulted attempts with backoff.

        Returns ``(device_us, retries, retry_us)``. A read that faults
        past the retry budget propagates its :class:`FlashReadError` —
        there is no software substitute for unreadable media.
        """
        policy = self.retry_policy
        retries = 0
        retry_us = 0.0
        for attempt in range(policy.retries + 1):
            try:
                return self.flash.read_pages_us(pages), retries, retry_us
            except FlashReadError:
                if attempt == policy.retries:
                    raise
                retries += 1
                retry_us += policy.backoff(attempt)
        raise AssertionError("unreachable")  # pragma: no cover

    def ephemeral(
        self, table: Table, columns: Iterable[str]
    ) -> EphemeralColumnGroup:
        """Memory-fabric step over a materialized row table."""
        geometry = table.schema.geometry(list(columns))
        return self.memory_fabric.configure(
            table.frame, geometry, base_geometry=table.schema.full_geometry()
        )
