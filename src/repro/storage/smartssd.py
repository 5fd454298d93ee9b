"""Relational Storage: the fabric inside a computational SSD (§IV-D).

"RS can be directly implemented in a specialized storage device ... In
contrast to RM, it is possible to push other operators like selection
and aggregation by utilizing the processing capabilities of in-storage
custom logic."

The device reads the row pages internally (exploiting channel/die
parallelism), runs projection + selection (+ optional aggregation) in
the in-storage engine, and ships **only the packed result** over the
host link — the same ephemeral-columns abstraction as Relational
Memory, implementing the shared :class:`~repro.core.fabric.RelationalFabric`
interface and its row selection, :func:`~repro.core.selection.select_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.fabric import RelationalFabric
from repro.core.geometry import DataGeometry
from repro.core.packer import gather, pack, record_view
from repro.core.selection import FabricAggregate, FabricFilter, select_rows
from repro.obs import Tracer, maybe_span
from repro.storage.flash import FlashDevice
from repro.storage.ssd import ReadReport, SsdTable
from repro.errors import StorageError


@dataclass
class StorageReport(ReadReport):
    """A device read plus the in-storage transformation accounting."""

    engine_us: float = 0.0
    rows_emitted: int = 0
    #: Host bytes a legacy scan of the same data would have moved.
    baseline_host_bytes: int = 0

    @property
    def total_us(self) -> float:
        # Array reads, the in-storage engine and the host link form a
        # pipeline; the slowest stage dominates.
        return max(self.device_us, self.engine_us, self.link_us)

    @property
    def host_bytes_saved(self) -> int:
        return self.baseline_host_bytes - self.host_bytes


class StorageEphemeralGroup:
    """The host's view of an in-storage ephemeral column group."""

    def __init__(self, packed: np.ndarray, geometry: DataGeometry, report: StorageReport):
        self._packed = packed
        self.geometry = geometry
        self.report = report
        #: The shipped image's own layout: the fields back to back.
        self._packed_geometry = DataGeometry(
            row_stride=geometry.packed_width,
            fields=tuple(geometry.packed_field(n) for n in geometry.field_names),
        )

    @property
    def packed(self) -> np.ndarray:
        return self._packed

    @property
    def length(self) -> int:
        return self._packed.shape[0]

    def __len__(self) -> int:
        return self.length

    def column(self, name: str) -> np.ndarray:
        """One field of the shipped image, as an array the caller owns."""
        return gather(record_view(self._packed, self._packed_geometry), (name,))[name]


class RelationalStorage(RelationalFabric):
    """Ephemeral column groups served from inside the SSD."""

    def __init__(self, ssd_table: SsdTable, tracer: Optional[Tracer] = None):
        self.ssd = ssd_table
        self.flash: FlashDevice = ssd_table.flash
        #: Observability hook: pushdown/aggregate reads open spans here.
        #: Storage spans tick in device microseconds, not CPU cycles.
        self.tracer = tracer

    def configure(
        self,
        frame: np.ndarray,
        geometry: DataGeometry,
        base_geometry: Optional[DataGeometry] = None,
        fabric_filter: Optional[FabricFilter] = None,
        snapshot_ts: Optional[int] = None,
    ) -> StorageEphemeralGroup:
        """Run one in-storage transformation and return the host view."""
        table = self.ssd.table
        if frame.shape[0] != table.nrows:
            raise StorageError("frame does not match the device-resident table")
        base_geometry = base_geometry or geometry

        with maybe_span(
            self.tracer,
            "storage.pushdown",
            layer="storage",
            columns=",".join(geometry.field_names),
            rows_in=table.nrows,
        ) as span:
            mask = select_rows(record_view(frame, base_geometry), snapshot_ts, fabric_filter)
            packed = pack(frame, geometry, row_mask=mask)
            report = self._price(packed.shape[0], geometry)
            span.set_attrs(rows_out=packed.shape[0])
            span.add_counters(
                {
                    "device_us": report.device_us,
                    "engine_us": report.engine_us,
                    "link_us": report.link_us,
                    "host_bytes": report.host_bytes,
                }
            )
            span.set_duration(report.total_us)
        return StorageEphemeralGroup(packed=packed, geometry=geometry, report=report)

    def aggregate(
        self,
        geometry: DataGeometry,
        aggregate: FabricAggregate,
        fabric_filter: Optional[FabricFilter] = None,
    ):
        """§IV-B taken to storage: ship only the aggregation result."""
        table = self.ssd.table
        frame = table.frame
        with maybe_span(
            self.tracer,
            "storage.aggregate",
            layer="storage",
            rows_in=table.nrows,
            rows_out=1,
        ) as span:
            records = record_view(frame, geometry)
            mask = select_rows(records, fabric_filter=fabric_filter)
            value = aggregate.evaluate(records, mask=mask)
            report = self._price(0, geometry, result_bytes=8)
            span.add_counters(
                {
                    "device_us": report.device_us,
                    "engine_us": report.engine_us,
                    "link_us": report.link_us,
                    "host_bytes": report.host_bytes,
                }
            )
            span.set_duration(report.total_us)
        return value, report

    def _price(
        self, rows_emitted: int, geometry: DataGeometry, result_bytes: Optional[int] = None
    ) -> StorageReport:
        pages = self.ssd.total_pages
        device_us = self.flash.read_pages_us(pages)
        scanned_bytes = pages * self.flash.config.page_bytes
        engine_us = self.flash.engine_us(scanned_bytes)
        host_bytes = (
            result_bytes
            if result_bytes is not None
            else rows_emitted * geometry.packed_width
        )
        return StorageReport(
            pages_read=pages,
            device_us=device_us,
            link_us=self.flash.host_transfer_us(host_bytes),
            host_bytes=host_bytes,
            engine_us=engine_us,
            rows_emitted=rows_emitted,
            baseline_host_bytes=scanned_bytes,
        )
