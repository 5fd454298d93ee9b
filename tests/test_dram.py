"""Tests for the DRAM bank/open-row model and the AXI bus."""

from repro.hw.bus import AxiBus, AxiConfig
from repro.hw.config import DramConfig
from repro.hw.dram import Dram


def make(banks=4, row_bytes=512):
    return Dram(DramConfig(banks=banks, row_bytes=row_bytes))


class TestOpenRow:
    def test_first_access_is_row_miss(self):
        dram = make()
        cost = dram.access_line(0)
        assert cost == dram.config.row_miss_cycles
        assert dram.stats.row_misses == 1

    def test_same_row_hits(self):
        dram = make(row_bytes=512)  # 8 lines per row
        dram.access_line(0)
        assert dram.access_line(1) == dram.config.row_hit_cycles
        assert dram.stats.row_hits == 1

    def test_row_conflict_misses(self):
        dram = make(banks=1, row_bytes=512)
        dram.access_line(0)
        dram.access_line(8)  # next row, same (only) bank
        assert dram.stats.row_misses == 2

    def test_different_banks_keep_rows_open(self):
        dram = make(banks=2, row_bytes=512)
        dram.access_line(0)   # row 0, bank 0
        dram.access_line(8)   # row 1, bank 1
        assert dram.access_line(1) == dram.config.row_hit_cycles
        assert dram.access_line(9) == dram.config.row_hit_cycles


class TestBatchAndStream:
    def test_stream_cost_linear(self):
        dram = make()
        assert dram.stream_cost(10) == 10 * dram.config.stream_cycles_per_line

    def test_reset_clears(self):
        dram = make()
        dram.access_line(0)
        dram.reset()
        assert dram.stats.accesses == 0
        assert dram.access_line(0) == dram.config.row_miss_cycles

    def test_traffic_counted(self):
        dram = make()
        dram.access_line(0)
        dram.stream_cost(3)
        assert dram.stats.lines_transferred == 4
        assert dram.stats.bytes_transferred == 4 * 64

    def test_bank_counters_attribute_demand_only(self):
        dram = make(banks=4, row_bytes=512)
        dram.access_line(0)   # bank 0, miss
        dram.access_line(1)   # bank 0, same row: hit
        dram.access_line(8)   # row 1 -> bank 1, miss
        dram.stream_cost(5)   # amortized closed form: no bank
        assert dram.bank_lines == [2, 1, 0, 0]
        assert dram.bank_row_hits == [1, 0, 0, 0]
        assert dram.bank_row_misses == [1, 1, 0, 0]
        assert dram.stats.row_hits == 1 + 5


class TestAxiBus:
    def test_single_burst(self):
        bus = AxiBus(AxiConfig())
        # 64 bytes = 4 beats of 16B, one burst.
        cycles = bus.burst_cycles(64)
        assert cycles == 4 + 4 * 1
        assert bus.stats.bursts == 1
        assert bus.stats.beats == 4

    def test_multi_burst(self):
        bus = AxiBus(AxiConfig(max_beats_per_burst=4))
        cycles = bus.burst_cycles(128)  # 8 beats -> 2 bursts
        assert bus.stats.bursts == 2
        assert cycles == 2 * 4 + 8

    def test_zero_bytes_free(self):
        bus = AxiBus()
        assert bus.burst_cycles(0) == 0

    def test_scatter_pipelines(self):
        bus = AxiBus()
        cycles = bus.scatter_cycles(100, 8)  # 100 narrow requests
        # One handshake then one issue cycle per request.
        assert cycles == 4 + 100
        assert bus.stats.bursts == 100

    def test_scatter_wide_requests(self):
        bus = AxiBus()
        cycles = bus.scatter_cycles(10, 32)  # 2 beats per request
        assert cycles == 4 + 10 * 2
