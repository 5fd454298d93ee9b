"""Memory-cost models shared by every query engine.

Two interchangeable implementations of one small interface:

* :class:`AnalyticMemoryModel` — closed-form costs for *cold* scans whose
  working set exceeds the last-level cache. O(1) per scan, used by the
  benchmark harness where tables are far larger than L2.
* :class:`TraceMemoryModel` — builds each access pattern's line
  numbers (:mod:`repro.hw.batch`) and walks them through the
  event-accurate :class:`repro.hw.hierarchy.MemoryHierarchy`. Property
  tests assert the analytic model agrees with it on large cold streams.

Every method returns a :class:`MemCost` splitting cycles into *covered*
(bandwidth-bound, prefetcher-hidden — an engine pays ``max(covered,
cpu_cycles)`` for a scan stage) and *exposed* (demand-miss latency an
in-order core cannot hide — always additive). Both models also count
DRAM traffic.

Known, documented divergences:

* For more concurrent streams than the prefetcher tracks, the trace
  model's LRU stream table thrashes under lockstep round-robin (no stream
  stays trained), while the analytic model optimistically keeps
  ``max_streams`` covered — closer to real hardware, where miss timing is
  less adversarial than an exact round-robin.
* A write stream (``sequential(..., write=True)``) costs twice a read in
  the analytic model (write-allocate plus write-back) but the same as a
  read in the trace model: :class:`~repro.hw.cache.Cache` marks lines
  dirty, yet a dirty eviction costs nothing. On the default platform a
  200k-line write stream costs 9,600,000 analytic cycles and 4,800,318
  trace cycles. The callers are the column store's layout conversion and
  its MVCC mask.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.hw import batch as hwbatch
from repro.hw.config import PlatformConfig
from repro.hw.hierarchy import MemoryHierarchy


@dataclass
class TrafficStats:
    """DRAM traffic attributed to one model instance."""

    dram_bytes: float = 0.0
    cycles: float = 0.0

    def add(self, dram_bytes: float, cycles: float) -> None:
        self.dram_bytes += dram_bytes
        self.cycles += cycles


@dataclass(frozen=True)
class MemCost:
    """Memory cycles split by overlappability.

    ``covered`` cycles are bandwidth-bound transfers the prefetcher hides
    behind computation (an engine pays ``max(covered, cpu)``); ``exposed``
    cycles are demand-miss latency an in-order core cannot hide (always
    added on top). The split is what lets CPU-heavy scans (TPC-H Q1) look
    alike across engines while movement-bound scans (Q6) diverge.
    """

    covered: float = 0.0
    exposed: float = 0.0

    @property
    def total(self) -> float:
        return self.covered + self.exposed

    def __add__(self, other: "MemCost") -> "MemCost":
        return MemCost(self.covered + other.covered, self.exposed + other.exposed)


ZERO_COST = MemCost()


class MemoryModel(ABC):
    """Cost interface the query engines program against."""

    def __init__(self, platform: PlatformConfig):
        platform.validate()
        self.platform = platform
        self.traffic = TrafficStats()
        self.line_bytes = platform.l1.line_bytes

    @abstractmethod
    def sequential(
        self, total_bytes: int, base_addr: int = 0, write: bool = False
    ) -> MemCost:
        """One contiguous prefetch-friendly stream of ``total_bytes``."""

    @abstractmethod
    def multi_stream(
        self, stream_bytes: Sequence[int], base_addrs: Optional[Sequence[int]] = None
    ) -> MemCost:
        """``len(stream_bytes)`` sequential streams progressing in lockstep
        (a column engine consuming several columns row-wise)."""

    @abstractmethod
    def random(self, n_accesses: int, working_set_bytes: int) -> MemCost:
        """``n_accesses`` uniformly random accesses over a working set
        (hash tables, index probes)."""

    #: Fraction of a column's lines that must be touched before an
    #: ascending gather behaves like a prefetchable stream.
    GATHER_STREAM_THRESHOLD = 0.5

    def gather(
        self,
        n_candidates: int,
        n_rows: int,
        value_bytes: int,
    ) -> MemCost:
        """Positional gather of ``n_candidates`` of ``n_rows`` values from
        one column array (lazy/late-materialized access after a selection).

        The access order is ascending but irregular. When the candidates
        are dense enough that most lines are touched, the miss pattern is
        line-sequential and the prefetcher engages (covered, bandwidth
        cost over the touched lines); when sparse, each touched line is a
        demand miss (exposed latency).
        """
        if n_candidates <= 0 or n_rows <= 0:
            return ZERO_COST
        per_line = max(1, self.line_bytes // max(1, value_bytes))
        total_lines = math.ceil(n_rows / per_line)
        density = n_candidates / n_rows
        touched = total_lines * (1.0 - (1.0 - density) ** per_line)
        self.traffic.add(touched * self.line_bytes, 0.0)
        if touched / total_lines >= self.GATHER_STREAM_THRESHOLD:
            cycles = touched * self.platform.dram.stream_cycles_per_line
            self.traffic.cycles += cycles
            return MemCost(covered=cycles, exposed=0.0)
        cycles = touched * self.platform.dram.unprefetched_cycles_per_line
        self.traffic.cycles += cycles
        return MemCost(covered=0.0, exposed=cycles)

    def lines(self, nbytes: float) -> float:
        return nbytes / self.line_bytes

    def region(self, key: Hashable, nbytes: int) -> int:
        """Stable synthetic base address for a named data region.

        Engines use this so repeated scans of the same structure (the row
        image, a column, the fabric's ephemeral window) revisit the same
        addresses and share cache state instead of touching a fresh
        allocation every query. Models without an address space return 0,
        which callers pass straight through as ``base_addr`` (the trace
        model treats 0 as "allocate fresh")."""
        return 0


class AnalyticMemoryModel(MemoryModel):
    """Closed-form costs for cold scans (working set >> LLC)."""

    def sequential(
        self, total_bytes: int, base_addr: int = 0, write: bool = False
    ) -> MemCost:
        if total_bytes <= 0:
            return ZERO_COST
        dram = self.platform.dram
        nlines = math.ceil(total_bytes / self.line_bytes)
        cycles = nlines * dram.stream_cycles_per_line
        if write:
            # Write-allocate + eventual write-back doubles the traffic.
            cycles *= 2
            self.traffic.add(2 * nlines * self.line_bytes, cycles)
        else:
            self.traffic.add(nlines * self.line_bytes, cycles)
        return MemCost(covered=cycles, exposed=0.0)

    def multi_stream(
        self, stream_bytes: Sequence[int], base_addrs: Optional[Sequence[int]] = None
    ) -> MemCost:
        dram = self.platform.dram
        max_streams = self.platform.prefetcher.max_streams
        sizes = sorted((b for b in stream_bytes if b > 0), reverse=True)
        covered = 0.0
        exposed = 0.0
        nbytes = 0.0
        for rank, size in enumerate(sizes):
            nlines = math.ceil(size / self.line_bytes)
            if rank < max_streams:
                covered += nlines * dram.stream_cycles_per_line
            else:
                exposed += nlines * dram.unprefetched_cycles_per_line
            nbytes += nlines * self.line_bytes
        self.traffic.add(nbytes, covered + exposed)
        return MemCost(covered=covered, exposed=exposed)

    def random(self, n_accesses: int, working_set_bytes: int) -> MemCost:
        if n_accesses <= 0:
            return ZERO_COST
        plat = self.platform
        if working_set_bytes <= plat.l1.size_bytes:
            cycles = n_accesses * plat.l1.hit_cycles
            self.traffic.add(0, cycles)
            return MemCost(covered=cycles, exposed=0.0)
        if working_set_bytes <= plat.l2.size_bytes:
            cycles = n_accesses * plat.l2.hit_cycles
            self.traffic.add(0, cycles)
            return MemCost(covered=cycles, exposed=0.0)
        # Cold random access: average of open/closed row DRAM latency plus
        # the L2 lookup on the way; a fraction still hits in L2 when the
        # working set is near-resident.
        dram = plat.dram
        per = plat.l2.hit_cycles + (dram.row_hit_cycles + dram.row_miss_cycles) / 2
        resident = min(1.0, plat.l2.size_bytes / working_set_bytes)
        per_mixed = resident * plat.l2.hit_cycles + (1 - resident) * per
        cycles = n_accesses * per_mixed
        self.traffic.add(n_accesses * (1 - resident) * self.line_bytes, cycles)
        return MemCost(covered=0.0, exposed=cycles)


class TraceMemoryModel(MemoryModel):
    """Event-accurate model: every charge walks the cache hierarchy.

    The covered/exposed split is classified per access: cache hits and
    prefetch-covered stream transfers are covered; demand DRAM misses are
    exposed.
    """

    def __init__(
        self,
        platform: PlatformConfig,
        hierarchy: Optional[MemoryHierarchy] = None,
        use_batch: bool = True,
    ):
        super().__init__(platform)
        self.hierarchy = hierarchy or MemoryHierarchy(platform)
        self._alloc_cursor = 1 << 32  # synthetic address space for streams
        self._rng_state = 0x9E3779B97F4A7C15
        self._lcg = hwbatch.LcgTable()
        #: Walk each pattern's lines with the vectorized batch kernel
        #: (:mod:`repro.hw.batch`); ``use_batch=False`` runs the scalar
        #: per-line loop instead, the reference. Both produce bit-identical
        #: stats and cycles (property-tested).
        self.use_batch = use_batch
        self._regions: Dict[Hashable, Tuple[int, int]] = {}

    def region(self, key: Hashable, nbytes: int) -> int:
        entry = self._regions.get(key)
        if entry is None or entry[1] < nbytes:
            entry = (self._alloc(nbytes), nbytes)
            self._regions[key] = entry
        return entry[0]

    def _alloc(self, nbytes: int) -> int:
        """Carve a fresh region so distinct scans do not alias."""
        base = self._alloc_cursor
        aligned = (nbytes + self.line_bytes - 1) // self.line_bytes * self.line_bytes
        self._alloc_cursor += aligned + 64 * self.line_bytes
        return base

    def _charge(
        self, lines: np.ndarray, write: bool = False, stride_hint: int = 0
    ) -> MemCost:
        """Walk one access pattern's ``lines`` through the hierarchy and
        classify the cycle total.

        The only reader of ``use_batch``: the batch kernel by default, the
        scalar per-line loop (:meth:`MemoryHierarchy.access_lines`) as its
        reference. Both see the same line array."""
        h = self.hierarchy
        covered_before = h.prefetcher.covered
        dram_before = h.stats.dram_lines
        if self.use_batch:
            cycles = h.access_lines_batch(lines, write=write, stride_hint=stride_hint)
        else:
            cycles = h.access_lines(lines.tolist(), write=write, stride_hint=stride_hint)
        covered_lines = h.prefetcher.covered - covered_before
        moved = h.stats.dram_lines - dram_before
        self.traffic.add(moved * self.line_bytes, cycles)
        # Demand misses (not prefetch-covered) are exposed latency; the
        # rest of the cycles (hits + streamed lines) are covered.
        exposed = 0.0
        if moved:
            exposed_fraction = max(0.0, (moved - covered_lines) / moved)
            exposed = cycles * exposed_fraction
        return MemCost(covered=cycles - exposed, exposed=exposed)

    def sequential(
        self, total_bytes: int, base_addr: int = 0, write: bool = False
    ) -> MemCost:
        if total_bytes <= 0:
            return ZERO_COST
        if base_addr == 0:
            base_addr = self._alloc(total_bytes)
        lines = hwbatch.sequential_lines(base_addr, total_bytes, self.line_bytes)
        return self._charge(lines, write=write, stride_hint=self.line_bytes)

    def multi_stream(
        self, stream_bytes: Sequence[int], base_addrs: Optional[Sequence[int]] = None
    ) -> MemCost:
        # Pair sizes with addresses *before* dropping empty streams, so a
        # caller-provided base_addrs stays aligned with its stream list.
        if base_addrs is not None:
            pairs = [(b, a) for b, a in zip(stream_bytes, base_addrs) if b > 0]
            sizes = [b for b, _ in pairs]
            addrs: List[int] = [a for _, a in pairs]
        else:
            sizes = [b for b in stream_bytes if b > 0]
            addrs = [self._alloc(b) for b in sizes]
        if not sizes:
            return ZERO_COST
        nlines = [math.ceil(b / self.line_bytes) for b in sizes]
        cursors = [self.hierarchy.l1.line_of(a) for a in addrs]
        lines = hwbatch.interleaved_lines(cursors, nlines)
        return self._charge(lines, stride_hint=self.line_bytes)

    def _lcg_offsets(self, n: int, modulus: int) -> np.ndarray:
        """The next ``n`` draws of the model's LCG, each ``(state >> 33) %
        modulus``; advances the shared state past them."""
        states = self._lcg.states(self._rng_state, n)
        self._rng_state = int(states[-1])
        return ((states >> np.uint64(33)) % np.uint64(modulus)).astype(np.int64)

    def random(self, n_accesses: int, working_set_bytes: int) -> MemCost:
        if n_accesses <= 0:
            return ZERO_COST
        base = self._alloc(working_set_bytes)
        nlines = max(1, working_set_bytes // self.line_bytes)
        base_line = self.hierarchy.l1.line_of(base)
        lines = base_line + self._lcg_offsets(n_accesses, nlines)
        return self._charge(lines, stride_hint=2**20)

    def gather(self, n_candidates: int, n_rows: int, value_bytes: int) -> MemCost:
        """Trace an ascending irregular gather over a fresh column array."""
        if n_candidates <= 0 or n_rows <= 0:
            return ZERO_COST
        base = self._alloc(n_rows * value_bytes)
        base_line = self.hierarchy.l1.line_of(base)
        step = max(1, n_rows // n_candidates)
        per_line = max(1, self.line_bytes // max(1, value_bytes))
        idx = np.cumsum(1 + self._lcg_offsets(n_candidates, 2 * step - 1))
        lines = base_line + idx // per_line
        return self._charge(lines, stride_hint=2**20)
