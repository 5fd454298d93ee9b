"""Cost model of the Relational Memory engine in programmable logic.

The engine implements the four operations of paper Section IV-A:

1. receive the access stride of the query and issue parallel DRAM
   requests for the target bytes (bank-level parallelism),
2. move the data over an AXI bus and assemble multiple entries into
   packed cache lines,
3. capture the CPU's reads of the ephemeral variable, and
4. return the reorganized lines on availability.

Stages 1-2 (produce) and 3-4 (consume) are pipelined against the CPU, so
a query's end-to-end cost is ``configure + max(produce, consume) +
refill stalls``; this module prices the produce side and the stalls, the
consuming engine prices its own side.

Functional transformation (the actual bytes) lives in
:mod:`repro.core.packer`; this module accounts cycles only, keeping the
what and the how-long of the hardware separable and separately testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.faults import DEVICE_TIMEOUT, FABRIC_REFILL, FaultInjector
from repro.hw.bus import AxiBus, AxiConfig
from repro.hw.config import PlatformConfig


@dataclass(frozen=True)
class RmTransformReport:
    """Where the fabric-side cycles of one ephemeral access went."""

    nrows: int
    out_bytes: int
    out_lines: int
    #: CPU cycles for the engine to produce all packed lines (pipelined
    #: bound: max of pack, DRAM-gather and bus stage throughput).
    produce_cycles: float
    #: CPU cycles of CPU-visible stall while the on-fabric buffer refills.
    refill_stall_cycles: float
    #: One-off CPU cycles to program the geometry registers.
    configure_cycles: float
    #: Bytes the engine itself pulled from DRAM (≥ out_bytes: the fabric
    #: touches whole bursts around scattered fields).
    dram_bytes_touched: float
    refills: int


class RelationalMemoryEngineModel:
    """Prices on-the-fly row→column-group transformation in the fabric."""

    def __init__(
        self,
        platform: PlatformConfig,
        axi: Optional[AxiConfig] = None,
        fault_injector: Optional[FaultInjector] = None,
    ):
        platform.validate()
        self.platform = platform
        self.rm = platform.rm
        self.bus = AxiBus(axi or AxiConfig())
        self._clock_ratio = self.rm.clock_ratio(platform.cpu)
        self._line_bytes = platform.l1.line_bytes
        #: Optional chaos hook; ``None`` means a perfectly reliable engine.
        self.fault_injector = fault_injector
        # Cumulative activity counters, PMU-style: one increment per
        # transform (coarse-grained), read by repro.obs.collectors.
        self.transforms = 0
        self.total_out_bytes = 0
        self.total_produce_cycles = 0.0
        self.total_stall_cycles = 0.0
        self.total_refills = 0
        self.total_dram_bytes = 0.0
        self.last_out_bytes = 0

    def transform(
        self,
        nrows: int,
        row_stride: int,
        out_bytes_per_row: int,
        qualifying_rows: Optional[int] = None,
        mvcc_filter: bool = False,
        fabric_predicates: int = 0,
    ) -> RmTransformReport:
        """Price one ephemeral column-group access.

        ``out_bytes_per_row`` is the packed width of the requested column
        group. ``qualifying_rows`` (with ``fabric_predicates`` > 0 or
        ``mvcc_filter``) models selection/visibility pushed into the
        fabric: all rows are inspected, only qualifiers are emitted.
        """
        if out_bytes_per_row <= 0 or out_bytes_per_row > row_stride:
            raise ConfigurationError(
                f"packed row width {out_bytes_per_row} outside (0, {row_stride}]"
            )
        if nrows < 0:
            raise ConfigurationError(f"row count must be >= 0, got {nrows}")
        if qualifying_rows is not None and not 0 <= qualifying_rows <= nrows:
            raise ConfigurationError(
                f"qualifying_rows {qualifying_rows} outside [0, {nrows}]"
            )
        if self.fault_injector is not None and self.fault_injector.armed:
            self.fault_injector.check(DEVICE_TIMEOUT, detail="AXI gather")
        emitted = nrows if qualifying_rows is None else qualifying_rows
        out_bytes = emitted * out_bytes_per_row
        out_lines = math.ceil(out_bytes / self._line_bytes) if out_bytes else 0

        # Per-row fabric work: stride generation, field steering, plus any
        # pushed-down comparisons (MVCC visibility is two timestamp
        # compares wired in parallel: one fabric cycle flat).
        per_row_fabric = self.rm.gather_row_fabric_cycles
        if mvcc_filter:
            per_row_fabric += 1.0 / 16  # amortized: 16 comparators in parallel
        per_row_fabric += fabric_predicates * (1.0 / 8)

        pack_fabric = out_lines * self.rm.line_fabric_cycles + nrows * per_row_fabric
        bus_fabric = self.bus.scatter_cycles(nrows, out_bytes_per_row)
        pack_cpu = pack_fabric * self._clock_ratio
        bus_cpu = bus_fabric * self._clock_ratio

        # DRAM-side gather: the engine touches the needed bytes of every
        # row; whole-burst granularity rounds narrow groups up to one AXI
        # beat per row.
        beat = self.bus.config.data_bytes_per_beat
        touched_per_row = math.ceil(out_bytes_per_row / beat) * beat
        touched_per_row = min(touched_per_row, row_stride)
        dram_bytes = nrows * touched_per_row
        dram_lines = dram_bytes / self._line_bytes
        dram_cpu = dram_lines * self.platform.dram.row_hit_cycles / self.platform.dram.banks

        produce = max(pack_cpu, bus_cpu, dram_cpu)

        refills = max(0, math.ceil(out_bytes / self.rm.buffer_bytes) - 1) if out_bytes else 0
        stall = refills * self.rm.refill_stall_cycles
        if refills and self.fault_injector is not None and self.fault_injector.armed:
            self.fault_injector.check(FABRIC_REFILL, detail=f"{refills} refills")

        self.transforms += 1
        self.total_out_bytes += out_bytes
        self.total_produce_cycles += produce
        self.total_stall_cycles += stall
        self.total_refills += refills
        self.total_dram_bytes += dram_bytes
        self.last_out_bytes = out_bytes

        return RmTransformReport(
            nrows=nrows,
            out_bytes=out_bytes,
            out_lines=out_lines,
            produce_cycles=produce,
            refill_stall_cycles=stall,
            configure_cycles=self.rm.configure_cycles,
            dram_bytes_touched=dram_bytes,
            refills=refills,
        )
