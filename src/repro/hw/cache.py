"""Event-accurate set-associative cache with LRU replacement.

Used by the trace-mode memory hierarchy (:mod:`repro.hw.hierarchy`) and by
unit/property tests. The benchmark harness uses the closed-form model in
:mod:`repro.hw.analytic` for large scans; the two are kept honest by
property tests asserting agreement on small traces.

Addresses are plain integers (byte addresses). The cache operates on line
granularity and never stores data — only presence — because data movement
is simulated, not emulated; the actual bytes live in the table frames.

The state is four ``[num_sets, ways]`` numpy arrays, so the batch kernel
in :mod:`repro.hw.batch` resolves whole traces over every set at once.
:meth:`Cache.access_line` applies one access at a time to the same arrays
and is that kernel's scalar referee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.config import CacheConfig


@dataclass
class CacheStats:
    """Counters for one cache level."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Lines installed that were never hit again before eviction. This is
    #: the quantitative form of the paper's "cache pollution with
    #: unnecessary attributes" (its Figure 2).
    polluted_evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        self.polluted_evictions += other.polluted_evictions


class Cache:
    """One set-associative, write-back, write-allocate cache level.

    State lives in four ``[num_sets, ways]`` arrays: ``tags`` (``-1`` marks
    an empty way, so line numbers must be non-negative), ``last_use`` (tick
    of the line's latest access), ``use_count`` (hits since install) and
    ``dirty``. Invariants, kept by every writer — here and in
    :mod:`repro.hw.batch`:

    * Way position carries no meaning: ascending ``last_use`` within a set
      IS the LRU order (ticks are unique per cache and start at 1), so the
      victim of a full set is its ``argmin``.
    * Empty ways hold ``last_use == use_count == 0`` and ``dirty == False``,
      so they sort before every resident by ``last_use``.
    """

    def __init__(self, config: CacheConfig):
        config.validate()
        self.config = config
        self.stats = CacheStats()
        shape = (config.num_sets, config.ways)
        self.tags = np.full(shape, -1, dtype=np.int64)
        self.last_use = np.zeros(shape, dtype=np.int64)
        self.use_count = np.zeros(shape, dtype=np.int64)
        self.dirty = np.zeros(shape, dtype=bool)
        self._tick = 0
        self._set_mask = config.num_sets - 1
        self._tag_shift = self._set_mask.bit_length()
        self._line_shift = config.line_bytes.bit_length() - 1

    def line_of(self, addr: int) -> int:
        """Line number containing byte address ``addr``."""
        return addr >> self._line_shift

    def access_line(self, line: int, write: bool = False) -> bool:
        """Access one line; returns True on hit.

        On miss the line is installed, evicting the LRU victim when the
        set is full. Called once per access, this is the scalar referee
        of the batch kernel in :mod:`repro.hw.batch`.
        """
        self._tick += 1
        index = line & self._set_mask
        tag = line >> self._tag_shift
        row = self.tags[index].tolist()
        if tag in row:
            way = row.index(tag)
            self.stats.hits += 1
            self.last_use[index, way] = self._tick
            self.use_count[index, way] += 1
            if write:
                self.dirty[index, way] = True
            return True
        self.stats.misses += 1
        if -1 in row:
            way = row.index(-1)
        else:
            way = int(self.last_use[index].argmin())
            self.stats.evictions += 1
            if self.use_count[index, way] == 0:
                self.stats.polluted_evictions += 1
        self.tags[index, way] = tag
        self.last_use[index, way] = self._tick
        self.use_count[index, way] = 0
        self.dirty[index, way] = write
        return False

    def access(self, addr: int, write: bool = False) -> bool:
        """Access the line containing byte address ``addr``."""
        return self.access_line(self.line_of(addr), write=write)

    def contains_line(self, line: int) -> bool:
        """True if the line is currently cached (does not touch LRU state)."""
        index = line & self._set_mask
        return bool((self.tags[index] == line >> self._tag_shift).any())

    def flush(self) -> int:
        """Drop every line; returns how many were resident."""
        count = self.resident_lines
        self.tags.fill(-1)
        self.last_use.fill(0)
        self.use_count.fill(0)
        self.dirty.fill(False)
        return count

    @property
    def resident_lines(self) -> int:
        return int(np.count_nonzero(self.tags >= 0))
