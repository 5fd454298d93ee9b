"""Ephemeral variables: non-materialized aliases of column groups.

The paper's key API (Section II): an ephemeral variable names a subset of
columns of a row-major table; it is "never instantiated in main memory.
Instead, upon accessing such a variable, the underlying machinery is set
in motion and generates an on-the-fly projection of the requested columns
according to the format that maximizes data locality."

In this reproduction the *simulated memory image* (the row frame) is
indeed never altered, and the projection is never materialized either.
:meth:`EphemeralColumnGroup.refresh` runs the transformation's control
half: it fixes the row set (:func:`~repro.core.selection.select_rows`:
MVCC visibility at the snapshot, pushed-down predicates) and records
the hardware cost report of producing it. Values are read
on access: :meth:`~EphemeralColumnGroup.column` takes the field straight
out of the row image at call time, copying only the rows fixed at the
last refresh. So an in-place write to a row already in the set shows on
the next ``column()`` call, while a row that starts or stops qualifying
does so only after the next :meth:`~EphemeralColumnGroup.refresh`,
exactly like re-touching the variable on the prototype. The packed byte
image (:attr:`~EphemeralColumnGroup.packed`) is built lazily by
:func:`~repro.core.packer.pack`, the byte-exactness referee.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

import numpy as np

from repro.core.geometry import DataGeometry
from repro.core.packer import gather, pack, record_view
from repro.core.selection import FabricFilter, select_rows
from repro.faults import FABRIC_CORRUPT
from repro.hw.engine import RelationalMemoryEngineModel, RmTransformReport
from repro.obs import Tracer, maybe_span


class EphemeralColumnGroup:
    """A read-only, densely packed alias of a column group.

    Created through :meth:`repro.core.fabric.RelationalMemory.configure`;
    not meant to be constructed directly.
    """

    def __init__(
        self,
        frame: np.ndarray,
        geometry: DataGeometry,
        engine: RelationalMemoryEngineModel,
        fabric_filter: Optional[FabricFilter] = None,
        base_geometry: Optional[DataGeometry] = None,
        snapshot_ts: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ):
        self._frame = frame
        self.geometry = geometry
        self._engine = engine
        self._filter = fabric_filter
        #: Layout the filter's fields and the MVCC stamps resolve in:
        #: the selection may read fields outside the projected group.
        self._base_geometry = base_geometry or geometry
        self._snapshot_ts = snapshot_ts
        self._tracer = tracer
        self._mask: Optional[np.ndarray] = None
        self._length = 0
        self._packed: Optional[np.ndarray] = None
        self._report: Optional[RmTransformReport] = None
        self._refreshes = 0

    # ------------------------------------------------------------------
    # Transformation machinery.
    # ------------------------------------------------------------------
    def refresh(self) -> "EphemeralColumnGroup":
        """(Re)run the on-the-fly transformation against the base frame:
        fix the qualifying row set and price producing it."""
        with maybe_span(
            self._tracer,
            "fabric.refresh",
            layer="fabric",
            rows_in=self._frame.shape[0],
        ) as span:
            mask = select_rows(
                record_view(self._frame, self._base_geometry), self._snapshot_ts, self._filter
            )
            qualifying = None if mask is None else int(np.count_nonzero(mask))
            self._mask = mask
            self._length = self._frame.shape[0] if mask is None else qualifying
            self._packed = None
            self._report = self._engine.transform(
                nrows=self._frame.shape[0],
                row_stride=self.geometry.row_stride,
                out_bytes_per_row=self.geometry.packed_width,
                qualifying_rows=qualifying,
                mvcc_filter=self._snapshot_ts is not None,
                fabric_predicates=len(self._filter) if self._filter else 0,
            )
            span.set_attrs(rows_out=self._length)
            span.add_counters(
                {
                    "refills": self._report.refills,
                    "out_bytes": self._report.out_bytes,
                    "fabric_dram_bytes": self._report.dram_bytes_touched,
                }
            )
            # The fabric pipeline's extent on the timeline (produce +
            # stalls); the consuming engine charges the exposed share.
            span.set_duration(
                self._report.produce_cycles + self._report.refill_stall_cycles
            )
            # The fabric checksums every packed line it pushes toward the
            # cache; a corrupt line is detected (never silently served) and
            # surfaces as a fabric fault the caller may retry.
            injector = self._engine.fault_injector
            if injector is not None and injector.armed:
                injector.check(FABRIC_CORRUPT, detail=f"{self._length} lines")
            self._refreshes += 1
        return self

    @property
    def packed(self) -> np.ndarray:
        """The packed byte image (``(n, packed_width)`` uint8), built on
        first access after a refresh by the :func:`pack` referee."""
        if self._packed is None:
            self._packed = pack(self._frame, self.geometry, row_mask=self.rows)
        return self._packed

    @property
    def report(self) -> RmTransformReport:
        """Hardware cost report of the most recent transformation."""
        if self._report is None:
            self.refresh()
        return self._report

    @property
    def refreshes(self) -> int:
        return self._refreshes

    @property
    def rows(self) -> Optional[np.ndarray]:
        """The qualifying-row mask over the frame fixed at the last
        refresh (None: every row). Reading the frame's fields at these
        rows yields the group's values."""
        if self._report is None:
            self.refresh()
        return self._mask

    # ------------------------------------------------------------------
    # Read API — what the CPU sees.
    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        """Number of (visible, qualifying) rows in the group."""
        if self._report is None:
            self.refresh()
        return self._length

    def __len__(self) -> int:
        return self.length

    @property
    def packed_width(self) -> int:
        return self.geometry.packed_width

    def column(self, name: str) -> np.ndarray:
        """One field of the group as a typed numpy array it owns
        (``S<width>`` byte strings for opaque fields)."""
        view = record_view(self._frame, self.geometry)
        return gather(view, (name,), self.rows)[name]

    def columns(self) -> Dict[str, np.ndarray]:
        """All fields, read in one pass over the image."""
        return gather(
            record_view(self._frame, self.geometry),
            self.geometry.field_names,
            self.rows,
        )

    def __getitem__(self, i: int) -> Dict[str, object]:
        """Row access, like indexing the ephemeral struct array in Fig. 3.
        Opaque fields come back as full-width ``bytes``."""
        if not 0 <= i < self.length:
            raise IndexError(i)
        rows = self.rows
        return self._row(i if rows is None else int(np.flatnonzero(rows)[i]))

    def __iter__(self) -> Iterator[Dict[str, object]]:
        rows = self.rows
        indices = range(self._length) if rows is None else np.flatnonzero(rows)
        for r in indices:
            yield self._row(int(r))

    def _row(self, r: int) -> Dict[str, object]:
        record = record_view(self._frame, self.geometry)[r]
        raw = self._frame[r]
        return {
            f.name: bytes(raw[f.offset : f.end]) if f.dtype is None else record[f.name]
            for f in self.geometry.fields
        }
