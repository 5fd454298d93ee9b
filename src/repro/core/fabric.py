"""The Relational Fabric interface and its in-memory instance.

``configure()`` is the paper's API (Figure 3, line 25): hand the fabric a
base table and the geometry of the columns you want, get back an
ephemeral variable whose reads behave as if the packed layout already
existed in memory. Both instances emit the rows
:func:`repro.core.selection.select_rows` selects: valid at ``snapshot_ts``
(stamps read from the row image) and passing ``fabric_filter``.

Two instances exist in this reproduction:

* :class:`RelationalMemory` (here) — the fabric between CPU and DRAM;
* :class:`repro.storage.smartssd.RelationalStorage` — the fabric inside a
  computational SSD, sharing this interface.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.core.ephemeral import EphemeralColumnGroup
from repro.core.geometry import DataGeometry
from repro.core.mvcc_filter import MVCC_BEGIN, MVCC_END
from repro.core.selection import FabricFilter
from repro.faults import FABRIC_CONFIGURE, FaultInjector
from repro.hw.config import PlatformConfig, default_platform
from repro.hw.engine import RelationalMemoryEngineModel
from repro.obs import Tracer, maybe_span


class RelationalFabric(ABC):
    """Anything that can serve ephemeral column groups over row data."""

    @abstractmethod
    def configure(
        self,
        frame: np.ndarray,
        geometry: DataGeometry,
        base_geometry: Optional[DataGeometry] = None,
        fabric_filter: Optional[FabricFilter] = None,
        snapshot_ts: Optional[int] = None,
    ) -> EphemeralColumnGroup:
        """Create an ephemeral variable over ``frame`` with ``geometry``;
        the selection's fields resolve in ``base_geometry`` (default
        ``geometry``)."""


class RelationalMemory(RelationalFabric):
    """The in-memory fabric instance (paper Sections II and IV-A).

    One engine model is shared across all ephemeral variables configured
    through the same ``RelationalMemory``, mirroring the single hardware
    engine multiplexed across queries.
    """

    def __init__(
        self,
        platform: Optional[PlatformConfig] = None,
        fault_injector: Optional[FaultInjector] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.platform = platform or default_platform()
        self.fault_injector = fault_injector
        self.engine = RelationalMemoryEngineModel(
            self.platform, fault_injector=fault_injector
        )
        #: Observability hook: configure/refresh open spans here.
        self.tracer = tracer

    def configure(
        self,
        frame: np.ndarray,
        geometry: DataGeometry,
        base_geometry: Optional[DataGeometry] = None,
        fabric_filter: Optional[FabricFilter] = None,
        snapshot_ts: Optional[int] = None,
    ) -> EphemeralColumnGroup:
        with maybe_span(
            self.tracer,
            "fabric.geometry",
            layer="fabric",
            columns=",".join(geometry.field_names),
        ):
            if self.fault_injector is not None and self.fault_injector.armed:
                self.fault_injector.check(
                    FABRIC_CONFIGURE, detail=",".join(geometry.field_names)
                )
            if base_geometry is None:
                # The selection's fields must be resolvable; default to the
                # projected geometry and fail early if a field is missing.
                names = fabric_filter.fields() if fabric_filter is not None else ()
                if snapshot_ts is not None:
                    names += (MVCC_BEGIN, MVCC_END)
                for name in names:
                    geometry.field(name)  # raises GeometryError when absent
            group = EphemeralColumnGroup(
                frame=frame,
                geometry=geometry,
                engine=self.engine,
                fabric_filter=fabric_filter,
                base_geometry=base_geometry,
                snapshot_ts=snapshot_ts,
                tracer=self.tracer,
            )
        return group


def configure(
    frame: np.ndarray,
    geometry: DataGeometry,
    platform: Optional[PlatformConfig] = None,
    **kwargs,
) -> EphemeralColumnGroup:
    """Module-level convenience mirroring the C API in the paper's Fig. 3:
    ``cg = configure(the_table, QUERY)``."""
    return RelationalMemory(platform).configure(frame, geometry, **kwargs)
