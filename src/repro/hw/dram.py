"""DRAM device model: banks, open-row policy, bank-level parallelism.

:meth:`Dram.access_line` costs one demand access at a time, honouring
open rows per bank; :meth:`Dram.stream_cost` prices prefetch-covered line
transfers. The trace-mode hierarchy drives both, one line at a time or
through the batch kernel (:func:`repro.hw.batch.batch_dram_demand`). The
fabric's bank-parallel gather is priced by
:class:`repro.hw.engine.RelationalMemoryEngineModel`, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.hw.config import CACHE_LINE_BYTES, DramConfig


@dataclass
class DramStats:
    row_hits: int = 0
    row_misses: int = 0
    lines_transferred: int = 0

    @property
    def accesses(self) -> int:
        return self.row_hits + self.row_misses

    @property
    def bytes_transferred(self) -> int:
        return self.lines_transferred * CACHE_LINE_BYTES


class Dram:
    """A DRAM device with ``banks`` independent banks and open-row policy."""

    def __init__(self, config: DramConfig, line_bytes: int = CACHE_LINE_BYTES):
        self.config = config
        self.line_bytes = line_bytes
        self.stats = DramStats()
        self._open_rows: List[Optional[int]] = [None] * config.banks
        self._lines_per_row = config.row_bytes // line_bytes
        # Per-bank demand-access counters (PMU-style; read by
        # repro.obs.collectors, never on the hot path). Kept outside
        # DramStats so aggregate-stats equality checks stay unchanged.
        # Only bank-attributable accesses count here: access_line knows
        # its bank; stream costs are an amortized closed form with no
        # per-bank attribution in either the scalar or the batched kernel
        # (which must stay bit-identical).
        self.bank_row_hits: List[int] = [0] * config.banks
        self.bank_row_misses: List[int] = [0] * config.banks
        self.bank_lines: List[int] = [0] * config.banks

    def _bank_row(self, line: int) -> tuple:
        row = line // self._lines_per_row
        bank = row % self.config.banks
        return bank, row

    def access_line(self, line: int) -> int:
        """Cost, in CPU cycles, of one demand line access."""
        bank, row = self._bank_row(line)
        self.stats.lines_transferred += 1
        self.bank_lines[bank] += 1
        if self._open_rows[bank] == row:
            self.stats.row_hits += 1
            self.bank_row_hits[bank] += 1
            return self.config.row_hit_cycles
        self._open_rows[bank] = row
        self.stats.row_misses += 1
        self.bank_row_misses[bank] += 1
        return self.config.row_miss_cycles

    def stream_cost(self, lines: int) -> int:
        """Cost of ``lines`` sequential prefetch-covered line transfers."""
        self.stats.lines_transferred += lines
        self.stats.row_hits += lines
        return lines * self.config.stream_cycles_per_line

    def reset(self) -> None:
        self.stats = DramStats()
        self._open_rows = [None] * self.config.banks
        self.bank_row_hits = [0] * self.config.banks
        self.bank_row_misses = [0] * self.config.banks
        self.bank_lines = [0] * self.config.banks
