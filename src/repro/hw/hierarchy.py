"""Trace-mode (event-accurate) memory hierarchy: CPU → L1 → L2 → DRAM.

Every access walks the real cache state, consults the stream prefetcher on
misses, and pays DRAM bank timing. Two kernels walk a line array:
:meth:`MemoryHierarchy.access_lines`, one Python call per line and the
reference, and :meth:`MemoryHierarchy.access_lines_batch`, the vectorized
kernel of :mod:`repro.hw.batch`, bit-identical to it. The closed-form
:class:`repro.hw.analytic.AnalyticMemoryModel` must agree with this model
on large cold scans (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.hw.cache import Cache, CacheStats
from repro.hw.config import PlatformConfig
from repro.hw.dram import Dram
from repro.hw.prefetcher import StreamPrefetcher


@dataclass
class AccessStats:
    """Aggregate traffic counters for one hierarchy instance."""

    cycles: int = 0
    accesses: int = 0
    dram_lines: int = 0

    @property
    def dram_bytes(self) -> int:
        return self.dram_lines * 64


class MemoryHierarchy:
    """An event-accurate two-level cache hierarchy over banked DRAM."""

    def __init__(self, platform: PlatformConfig):
        platform.validate()
        self.platform = platform
        self.l1 = Cache(platform.l1)
        self.l2 = Cache(platform.l2)
        self.dram = Dram(platform.dram, line_bytes=platform.l1.line_bytes)
        self.prefetcher = StreamPrefetcher(
            platform.prefetcher, line_bytes=platform.l1.line_bytes
        )
        self.stats = AccessStats()
        self._line_bytes = platform.l1.line_bytes

    def access(self, addr: int, write: bool = False, stride_hint: int = 0) -> int:
        """One byte-address access; returns its cost in CPU cycles."""
        line = self.l1.line_of(addr)
        return self.access_lines([line], write=write, stride_hint=stride_hint)

    def access_lines(
        self,
        lines: Sequence[int],
        write: bool = False,
        stride_hint: int = 0,
    ) -> int:
        """Access a sequence of line numbers; returns total CPU cycles."""
        total = 0
        for line in lines:
            total += self._access_line(line, write, stride_hint)
        self.stats.cycles += total
        self.stats.accesses += len(lines)
        return total

    def access_lines_batch(
        self,
        lines,
        write: bool = False,
        stride_hint: int = 0,
    ) -> int:
        """Vectorized :meth:`access_lines`: one numpy batch instead of a
        Python loop per line, with bit-identical stats, cycles and end
        state (see :mod:`repro.hw.batch`)."""
        from repro.hw.batch import hierarchy_access_lines_batch

        return hierarchy_access_lines_batch(
            self, lines, write=write, stride_hint=stride_hint
        )

    def _access_line(self, line: int, write: bool, stride_hint: int) -> int:
        if self.l1.access_line(line, write=write):
            return self.platform.l1.hit_cycles
        if self.l2.access_line(line, write=write):
            return self.platform.l2.hit_cycles
        # L2 miss: consult the prefetcher, then DRAM.
        self.stats.dram_lines += 1
        covered = self.prefetcher.observe_miss(line, stride_bytes=stride_hint)
        if covered:
            return self.dram.stream_cost(1)
        return self.platform.l2.hit_cycles + self.dram.access_line(line)

    def scan_region(self, base_addr: int, total_bytes: int, write: bool = False) -> int:
        """Read (or write) a region sequentially, line by line, and return
        its cycle cost."""
        if total_bytes <= 0:
            return 0
        first = self.l1.line_of(base_addr)
        last = self.l1.line_of(base_addr + total_bytes - 1)
        return self.access_lines(
            range(first, last + 1), write=write, stride_hint=self._line_bytes
        )

    def flush(self) -> None:
        """Drop all cached state (cold-cache experiments)."""
        self.l1.flush()
        self.l2.flush()
        self.prefetcher.reset()

    def level_stats(self) -> dict:
        """Per-level counters, for reports and tests."""
        return {
            "l1": self.l1.stats,
            "l2": self.l2.stats,
            "dram": self.dram.stats,
            "prefetch_covered": self.prefetcher.covered,
            "prefetch_uncovered": self.prefetcher.uncovered,
        }

    def counters(self) -> dict:
        """Flat numeric snapshot of every hardware counter.

        This is the probe format :class:`repro.obs.Tracer` spans consume:
        snapshotted at span open, diffed at close, so each span carries
        exactly the cache/prefetcher/DRAM activity of its own work.
        """
        return {
            "l1_hits": self.l1.stats.hits,
            "l1_misses": self.l1.stats.misses,
            "l2_hits": self.l2.stats.hits,
            "l2_misses": self.l2.stats.misses,
            "dram_row_hits": self.dram.stats.row_hits,
            "dram_row_misses": self.dram.stats.row_misses,
            "dram_lines": self.stats.dram_lines,
            "prefetch_covered": self.prefetcher.covered,
            "prefetch_uncovered": self.prefetcher.uncovered,
        }
