"""Tests for the MVCC visibility masks, the cost ledger, and the RM
engine cost model."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.ledger import CostLedger
from repro.core.mvcc_filter import LIVE_TS, NEVER_TS, latest_mask, version_count, visible_mask
from repro.errors import ConfigurationError
from repro.hw.config import TEST_PLATFORM, ZYNQ_ULTRASCALE
from repro.hw.engine import RelationalMemoryEngineModel


class TestVisibilityMasks:
    def test_visible_window(self):
        begin = np.array([1, 5, 10])
        end = np.array([4, LIVE_TS, LIVE_TS])
        assert visible_mask(begin, end, 3).tolist() == [True, False, False]
        assert visible_mask(begin, end, 5).tolist() == [False, True, False]
        assert visible_mask(begin, end, 100).tolist() == [False, True, True]

    def test_boundaries_begin_inclusive_end_exclusive(self):
        begin = np.array([5])
        end = np.array([9])
        assert visible_mask(begin, end, 5).tolist() == [True]
        assert visible_mask(begin, end, 9).tolist() == [False]

    def test_uncommitted_never_visible(self):
        begin = np.array([NEVER_TS])
        end = np.array([LIVE_TS])
        assert not visible_mask(begin, end, 10**15).any()

    def test_latest_mask(self):
        begin = np.array([1, 1, NEVER_TS])
        end = np.array([5, LIVE_TS, LIVE_TS])
        assert latest_mask(begin, end).tolist() == [False, True, False]

    def test_version_count(self):
        begin = np.array([1, NEVER_TS, 3])
        end = np.array([LIVE_TS, LIVE_TS, 7])
        assert version_count(begin, end) == 2


class TestCostLedger:
    def test_charge_and_total(self):
        ledger = CostLedger()
        ledger.charge("cpu", 100)
        ledger.charge("cpu", 50)
        ledger.charge("memory", 25)
        assert ledger.total_cycles == 175
        assert ledger.get("cpu") == 150
        assert ledger.get("missing") == 0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            CostLedger().charge("cpu", -1)

    def test_merge(self):
        a, b = CostLedger(), CostLedger()
        a.charge("cpu", 10)
        b.charge("cpu", 5)
        b.charge("memory", 7)
        b.charge_traffic(64)
        a.merge(b)
        assert a.get("cpu") == 15 and a.get("memory") == 7
        assert a.dram_bytes == 64

    def test_breakdown_sums_to_one(self):
        ledger = CostLedger()
        ledger.charge("a", 30)
        ledger.charge("b", 70)
        breakdown = ledger.breakdown()
        assert sum(breakdown.values()) == pytest.approx(1.0)
        assert breakdown["b"] == pytest.approx(0.7)

    def test_empty_breakdown_covers_all_buckets(self):
        # A zero-total ledger still reports every known bucket (at 0.0)
        # instead of an empty dict, so degraded/empty runs render a table.
        breakdown = CostLedger().breakdown()
        assert set(CostLedger.KNOWN_BUCKETS) <= set(breakdown)
        assert all(v == 0.0 for v in breakdown.values())


class TestRmEngineModel:
    def make(self, platform=ZYNQ_ULTRASCALE):
        return RelationalMemoryEngineModel(platform)

    def test_out_lines_rounding(self):
        report = self.make().transform(nrows=10, row_stride=64, out_bytes_per_row=24)
        assert report.out_bytes == 240
        assert report.out_lines == 4

    def test_zero_width_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make().transform(nrows=10, row_stride=64, out_bytes_per_row=0)

    def test_width_beyond_stride_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make().transform(nrows=10, row_stride=64, out_bytes_per_row=65)

    def test_qualifying_rows_shrink_output_not_scan(self):
        full = self.make().transform(nrows=1000, row_stride=64, out_bytes_per_row=16)
        selected = self.make().transform(
            nrows=1000, row_stride=64, out_bytes_per_row=16, qualifying_rows=10
        )
        assert selected.out_bytes == 160
        assert selected.nrows == full.nrows  # all rows inspected

    def test_mvcc_and_predicates_add_fabric_work(self):
        base = self.make().transform(nrows=10000, row_stride=64, out_bytes_per_row=16)
        mvcc = self.make().transform(
            nrows=10000, row_stride=64, out_bytes_per_row=16, mvcc_filter=True
        )
        preds = self.make().transform(
            nrows=10000, row_stride=64, out_bytes_per_row=16, fabric_predicates=4
        )
        assert mvcc.produce_cycles >= base.produce_cycles
        assert preds.produce_cycles >= base.produce_cycles

    def test_refills_track_buffer(self):
        engine = RelationalMemoryEngineModel(TEST_PLATFORM)  # 4 KB buffer
        small = engine.transform(nrows=100, row_stride=64, out_bytes_per_row=16)
        big = engine.transform(nrows=10_000, row_stride=64, out_bytes_per_row=16)
        assert small.refills == 0
        assert big.refills == 10_000 * 16 // TEST_PLATFORM.rm.buffer_bytes - 1 + 1
        assert big.refill_stall_cycles > 0

    def test_produce_cost_scales_with_rows(self):
        a = self.make().transform(nrows=1000, row_stride=64, out_bytes_per_row=16)
        b = self.make().transform(nrows=10_000, row_stride=64, out_bytes_per_row=16)
        assert b.produce_cycles > a.produce_cycles * 5

    def test_slower_fabric_clock_costs_more(self):
        fast = RelationalMemoryEngineModel(
            ZYNQ_ULTRASCALE.with_rm(freq_hz=400_000_000)
        ).transform(nrows=10_000, row_stride=64, out_bytes_per_row=16)
        slow = RelationalMemoryEngineModel(
            ZYNQ_ULTRASCALE.with_rm(freq_hz=50_000_000)
        ).transform(nrows=10_000, row_stride=64, out_bytes_per_row=16)
        assert slow.produce_cycles > fast.produce_cycles

    def test_dram_gather_touches_whole_beats(self):
        # Each row's fields are fetched in whole AXI beats (16 B), never
        # more than the row itself.
        engine = self.make()
        assert engine.transform(
            nrows=100, row_stride=64, out_bytes_per_row=20
        ).dram_bytes_touched == 100 * 32
        assert engine.transform(
            nrows=100, row_stride=60, out_bytes_per_row=60
        ).dram_bytes_touched == 100 * 60

    def test_dram_gather_divides_by_banks(self):
        # The fabric's gather hits open rows in every bank in parallel:
        # with one bank it is DRAM-bound at one row hit per touched line.
        dram = ZYNQ_ULTRASCALE.dram
        one_bank = replace(ZYNQ_ULTRASCALE, dram=replace(dram, banks=1))
        serial = RelationalMemoryEngineModel(one_bank).transform(
            nrows=1000, row_stride=64, out_bytes_per_row=20
        )
        touched_lines = serial.dram_bytes_touched / 64
        assert serial.produce_cycles == pytest.approx(touched_lines * dram.row_hit_cycles)
        parallel = self.make().transform(nrows=1000, row_stride=64, out_bytes_per_row=20)
        assert parallel.produce_cycles >= touched_lines * dram.row_hit_cycles / dram.banks
        assert parallel.produce_cycles < serial.produce_cycles
