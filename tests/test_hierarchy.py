"""Tests for the event-accurate memory hierarchy."""

import pytest

from repro.hw.config import TEST_PLATFORM
from repro.hw.hierarchy import MemoryHierarchy


@pytest.fixture
def hierarchy():
    return MemoryHierarchy(TEST_PLATFORM)


class TestLevels:
    def test_l1_hit_cost(self, hierarchy):
        hierarchy.access(0)
        assert hierarchy.access(0) == TEST_PLATFORM.l1.hit_cycles

    def test_l2_hit_after_l1_eviction(self, hierarchy):
        hierarchy.access(0)
        # Blow L1 (1 KB = 16 lines) but stay inside L2 (8 KB).
        for i in range(1, 64):
            hierarchy.access(i * 64)
        cost = hierarchy.access(0)
        assert cost == TEST_PLATFORM.l2.hit_cycles

    def test_cold_miss_costs_dram(self, hierarchy):
        cost = hierarchy.access(123456)
        assert cost >= TEST_PLATFORM.dram.row_hit_cycles

    def test_dram_lines_counted(self, hierarchy):
        hierarchy.access(0)
        hierarchy.access(0)
        assert hierarchy.stats.dram_lines == 1

    def test_flush_forces_remisses(self, hierarchy):
        hierarchy.access(0)
        hierarchy.flush()
        assert hierarchy.access(0) > TEST_PLATFORM.l1.hit_cycles


class TestScans:
    def test_sequential_scan_converges_to_stream_cost(self, hierarchy):
        nbytes = 64 * 1024  # far beyond the 8 KB test L2
        cycles = hierarchy.scan_region(1 << 20, nbytes)
        lines = nbytes // 64
        per_line = cycles / lines
        stream = TEST_PLATFORM.dram.stream_cycles_per_line
        assert stream <= per_line <= stream * 1.1  # training tail only

    def test_scan_region_is_sequential_access_lines(self):
        # scan_region reads every line the byte range overlaps, in order,
        # as one unit-stride stream.
        scanned = MemoryHierarchy(TEST_PLATFORM)
        walked = MemoryHierarchy(TEST_PLATFORM)
        base, nbytes = 100, 5000
        cycles = scanned.scan_region(base, nbytes)
        first, last = base // 64, (base + nbytes - 1) // 64
        assert cycles == walked.access_lines(range(first, last + 1), stride_hint=64)
        assert scanned.counters() == walked.counters()
        assert scanned.stats.accesses == last - first + 1

    def test_prefetchable_stride_is_covered(self, hierarchy):
        # One line per 256 B row: the stride is within the prefetcher's
        # reach, so after training the stream costs bandwidth, not latency.
        nrows = 200
        base = (1 << 22) // 64
        lines = [base + 4 * i for i in range(nrows)]
        cycles = hierarchy.access_lines(lines, stride_hint=256)
        train = TEST_PLATFORM.prefetcher.train_lines
        assert hierarchy.prefetcher.covered == nrows - train
        stream = TEST_PLATFORM.dram.stream_cycles_per_line
        assert stream <= cycles / nrows <= stream * 1.1

    def test_large_stride_defeats_prefetcher(self, hierarchy):
        nrows = 200
        base = (1 << 22) // 64
        lines = [base + 16 * i for i in range(nrows)]  # one line per 1 KB row
        cycles = hierarchy.access_lines(lines, stride_hint=1024)
        assert hierarchy.prefetcher.covered == 0
        per_row = cycles / nrows
        assert per_row >= TEST_PLATFORM.dram.row_hit_cycles * 0.8

    def test_small_scan_reuses_cache(self, hierarchy):
        base = 1 << 23
        hierarchy.scan_region(base, 2048)
        cycles = hierarchy.scan_region(base, 2048)
        per_line = cycles / (2048 // 64)
        assert per_line <= TEST_PLATFORM.l2.hit_cycles

    def test_zero_bytes_is_free(self, hierarchy):
        assert hierarchy.scan_region(0, 0) == 0

    def test_level_stats_shape(self, hierarchy):
        hierarchy.scan_region(1 << 24, 4096)
        stats = hierarchy.level_stats()
        assert {"l1", "l2", "dram", "prefetch_covered", "prefetch_uncovered"} <= set(
            stats
        )
        assert stats["l1"].accesses > 0
