"""Tests for the flash device, the SSD read path, and Relational Storage."""

import numpy as np
import pytest

from repro.core.fabric import RelationalMemory
from repro.core.selection import CompareOp, FabricAggregate, FabricFilter, FabricPredicate
from repro.db import Column, Table, TableSchema
from repro.db.types import INT64
from repro.storage import FlashConfig, FlashDevice, RelationalStorage, SsdTable
from repro.errors import StorageError
from repro.workloads.tpch import generate_lineitem


@pytest.fixture
def device_table():
    schema = TableSchema("kv", [Column("k", INT64), Column("v", INT64)])
    table = Table(schema)
    rng = np.random.default_rng(8)
    table.append_arrays(
        {"k": np.arange(10_000, dtype=np.int64), "v": rng.integers(0, 100, 10_000)}
    )
    return SsdTable(table)


class TestFlashDevice:
    def test_zero_pages_free(self):
        assert FlashDevice().read_pages_us(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(StorageError):
            FlashDevice().read_pages_us(-1)
        with pytest.raises(StorageError):
            FlashDevice().host_transfer_us(-1)

    def test_monotonic_in_pages(self):
        dev = FlashDevice()
        times = [FlashDevice().read_pages_us(n) for n in (1, 8, 64, 512)]
        assert times == sorted(times)

    def test_channel_parallelism_helps(self):
        narrow = FlashDevice(FlashConfig(channels=1)).read_pages_us(256)
        wide = FlashDevice(FlashConfig(channels=8)).read_pages_us(256)
        assert wide < narrow / 4

    def test_die_parallelism_overlaps_array_reads(self):
        few = FlashDevice(FlashConfig(dies_per_channel=1)).read_pages_us(256)
        many = FlashDevice(FlashConfig(dies_per_channel=8)).read_pages_us(256)
        assert many <= few

    def test_host_transfer_linear(self):
        dev = FlashDevice()
        assert dev.host_transfer_us(2_000_000) == pytest.approx(
            2 * dev.host_transfer_us(1_000_000)
        )

    def test_stats_accumulate(self):
        dev = FlashDevice()
        dev.read_pages_us(10)
        dev.read_pages_us(5)
        assert dev.pages_read == 15


class TestSsdTable:
    def test_rows_per_page(self, device_table):
        assert device_table.rows_per_page == 4096 // 16
        assert device_table.total_pages == int(np.ceil(10_000 / 256))

    def test_scan_ships_all_pages(self, device_table):
        frame, report = device_table.scan_rows()
        assert report.pages_read == device_table.total_pages
        assert report.host_bytes == report.pages_read * 4096
        assert frame.shape[0] == 10_000

    def test_point_read(self, device_table):
        row, report = device_table.read_row(7)
        assert row["k"] == 7
        assert report.pages_read == 1

    def test_point_read_bounds(self, device_table):
        with pytest.raises(StorageError):
            device_table.read_row(10_000)

    def test_oversized_rows_rejected(self):
        schema = TableSchema(
            "fat", [Column(f"c{i}", INT64) for i in range(600)]
        )
        with pytest.raises(StorageError):
            SsdTable(Table(schema))


class TestRelationalStorage:
    def test_projection_reduces_host_bytes(self, device_table):
        rs = RelationalStorage(device_table)
        table = device_table.table
        geo = table.schema.geometry(["v"])
        group = rs.configure(table.frame, geo)
        assert group.report.host_bytes == 10_000 * 8
        assert group.report.host_bytes < group.report.baseline_host_bytes
        assert np.array_equal(group.column("v"), table.column_values("v"))

    def test_selection_in_device(self, device_table):
        rs = RelationalStorage(device_table)
        table = device_table.table
        geo = table.schema.geometry(["k", "v"])
        flt = FabricFilter.of(FabricPredicate("v", CompareOp.LT, 10))
        group = rs.configure(table.frame, geo, fabric_filter=flt)
        expected = int((table.column_values("v") < 10).sum())
        assert len(group) == expected
        assert (group.column("v") < 10).all()

    def test_selection_on_unprojected_field(self, device_table):
        rs = RelationalStorage(device_table)
        table = device_table.table
        geo = table.schema.geometry(["k"])
        flt = FabricFilter.of(FabricPredicate("v", CompareOp.GE, 90))
        group = rs.configure(
            table.frame, geo, base_geometry=table.schema.full_geometry(), fabric_filter=flt
        )
        expected = int((table.column_values("v") >= 90).sum())
        assert len(group) == expected

    def test_snapshot_selection_matches_memory_fabric(self):
        """Both fabric instances select the same rows: visible at the
        snapshot (stamps read from the row image) and passing the filter."""
        schema = TableSchema("kv", [Column("k", INT64), Column("v", INT64)], mvcc=True)
        table = Table(schema)
        table.append_arrays({"k": np.arange(200), "v": np.arange(200) % 50})
        for i in range(200):
            table.stamp_begin(i, i % 7)
            if i % 5 == 0:
                table.stamp_end(i, 4)
        flt = FabricFilter.of(FabricPredicate("v", CompareOp.LT, 30))
        kw = dict(base_geometry=schema.full_geometry(), fabric_filter=flt, snapshot_ts=5)
        geo = schema.geometry(["k"])
        stored = RelationalStorage(SsdTable(table)).configure(table.frame, geo, **kw)
        memory = RelationalMemory().configure(table.frame, geo, **kw).refresh()
        visible = table.visible_mask(5) & (table.column_values("v") < 30)
        assert 0 < visible.sum() < 200
        assert np.array_equal(stored.column("k"), np.flatnonzero(visible))
        assert np.array_equal(memory.column("k"), stored.column("k"))

    def test_aggregate_ships_one_value(self, device_table):
        rs = RelationalStorage(device_table)
        table = device_table.table
        value, report = rs.aggregate(
            table.schema.full_geometry(), FabricAggregate("v", "sum")
        )
        assert value == table.column_values("v").sum()
        assert report.host_bytes == 8

    def test_device_still_reads_all_pages(self, device_table):
        """Near-data processing saves link traffic, not array reads."""
        rs = RelationalStorage(device_table)
        table = device_table.table
        group = rs.configure(table.frame, table.schema.geometry(["v"]))
        assert group.report.pages_read == device_table.total_pages

    def test_pipeline_total_is_max_stage(self, device_table):
        rs = RelationalStorage(device_table)
        table = device_table.table
        r = rs.configure(table.frame, table.schema.geometry(["v"])).report
        assert r.total_us == max(r.device_us, r.engine_us, r.link_us)

    def test_mismatched_frame_rejected(self, device_table):
        rs = RelationalStorage(device_table)
        table = device_table.table
        with pytest.raises(StorageError):
            rs.configure(table.frame[:10], table.schema.geometry(["v"]))

    def test_lineitem_q6_style_pushdown(self):
        catalog, table = generate_lineitem(5_000)
        rs = RelationalStorage(SsdTable(table))
        geo = table.schema.geometry(["l_extendedprice", "l_discount"])
        flt = FabricFilter.of(
            FabricPredicate("l_discount", CompareOp.GE, 5),
            FabricPredicate("l_discount", CompareOp.LE, 7),
            FabricPredicate("l_quantity", CompareOp.LT, 2400),
        )
        group = rs.configure(
            table.frame, geo, base_geometry=table.schema.full_geometry(), fabric_filter=flt
        )
        disc = table.column("l_discount")
        qty = table.column("l_quantity")
        expected = int(((disc >= 5) & (disc <= 7) & (qty < 2400)).sum())
        assert len(group) == expected
        saved = group.report.host_bytes_saved / group.report.baseline_host_bytes
        assert saved > 0.9
