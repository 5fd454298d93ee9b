"""Tests for ephemeral column groups and the fabric configure() API."""

import numpy as np
import pytest

from repro.core import (
    CompareOp,
    FabricFilter,
    FabricPredicate,
    RelationalMemory,
    configure,
)
from repro.core.geometry import DataGeometry, FieldSlice
from repro.core.mvcc_filter import LIVE_TS, MVCC_BEGIN, MVCC_END
from repro.core.packer import pack, record_view
from repro.errors import GeometryError
from repro.hw.config import TEST_PLATFORM

GEO = DataGeometry(
    row_stride=64,
    fields=(
        FieldSlice("key", 0, 8, "<i8"),
        FieldSlice("a", 8, 8, "<i8"),
        FieldSlice("b", 48, 8, "<i8"),
    ),
)


#: GEO plus the MVCC stamp fields the fabric compares for visibility.
MVCC_GEO = DataGeometry(
    row_stride=64,
    fields=GEO.fields
    + (FieldSlice(MVCC_BEGIN, 16, 8, "<i8"), FieldSlice(MVCC_END, 24, 8, "<i8")),
)


def stamped(frame, begin, end):
    """``frame`` with its rows' begin/end stamps written in place."""
    view = record_view(frame, MVCC_GEO)
    view[MVCC_BEGIN] = begin
    view[MVCC_END] = end
    return frame


def make_frame(nrows=100, seed=1):
    rng = np.random.default_rng(seed)
    frame = np.zeros((nrows, 64), dtype=np.uint8)
    for name, lo in (("key", 0), ("a", 8), ("b", 48)):
        vals = rng.integers(0, 1000, nrows, dtype=np.int64)
        frame[:, lo : lo + 8] = vals.view(np.uint8).reshape(nrows, 8)
    return frame


class TestBasics:
    def test_length_and_width(self):
        cg = RelationalMemory(TEST_PLATFORM).configure(make_frame(), GEO)
        assert len(cg) == 100
        assert cg.packed_width == 24

    def test_columns_match_frame(self):
        frame = make_frame()
        cg = RelationalMemory(TEST_PLATFORM).configure(frame, GEO)
        expected = np.ascontiguousarray(frame[:, 8:16]).view("<i8").reshape(-1)
        assert np.array_equal(cg.column("a"), expected)

    def test_getitem_returns_typed_row(self):
        frame = make_frame()
        cg = RelationalMemory(TEST_PLATFORM).configure(frame, GEO)
        row = cg[3]
        assert set(row) == {"key", "a", "b"}
        assert row["a"] == cg.column("a")[3]

    def test_getitem_bounds(self):
        cg = RelationalMemory(TEST_PLATFORM).configure(make_frame(), GEO)
        with pytest.raises(IndexError):
            cg[100]

    def test_iteration(self):
        cg = RelationalMemory(TEST_PLATFORM).configure(make_frame(5), GEO)
        rows = list(cg)
        assert len(rows) == 5
        assert rows[0]["key"] == cg.column("key")[0]

    def test_module_level_configure(self):
        cg = configure(make_frame(), GEO, platform=TEST_PLATFORM)
        assert len(cg) == 100


class TestTransformationSemantics:
    def test_base_frame_never_materializes_packed_layout(self):
        frame = make_frame()
        before = frame.copy()
        cg = RelationalMemory(TEST_PLATFORM).configure(frame, GEO)
        cg.packed  # force the transformation
        assert np.array_equal(frame, before)

    def test_refresh_sees_base_updates(self):
        frame = make_frame()
        cg = RelationalMemory(TEST_PLATFORM).configure(frame, GEO)
        assert cg.column("a")[0] != 424242 or True
        new_val = np.array([424242], dtype="<i8")
        frame[0, 8:16] = new_val.view(np.uint8)
        cg.refresh()
        assert cg.column("a")[0] == 424242

    def test_row_set_fixed_at_refresh_values_read_on_column(self):
        frame = make_frame()
        keys = np.ascontiguousarray(frame[:, 0:8]).view("<i8").reshape(-1)
        inside = int(np.flatnonzero(keys < 500)[0])
        outside = int(np.flatnonzero(keys >= 500)[0])
        flt = FabricFilter.of(FabricPredicate("key", CompareOp.LT, 500))
        cg = RelationalMemory(TEST_PLATFORM).configure(frame, GEO, fabric_filter=flt)
        cg.refresh()
        n = len(cg)

        def put(row, lo, value):
            frame[row, lo : lo + 8] = np.array([value], dtype="<i8").view(np.uint8)

        # A value written in place shows on the next column() ...
        put(inside, 8, 424242)
        assert 424242 in cg.column("a")
        # ... but rows entering or leaving the set wait for refresh().
        put(inside, 0, 900)
        put(outside, 0, 1)
        assert len(cg) == n
        assert 900 in cg.column("key") and 1 not in cg.column("key")
        mask = keys < 500
        assert cg.packed.tobytes() == pack(frame, GEO, row_mask=mask).tobytes()
        cg.refresh()
        assert len(cg) == n
        assert 900 not in cg.column("key") and 1 in cg.column("key")

    def test_refresh_counter(self):
        cg = RelationalMemory(TEST_PLATFORM).configure(make_frame(), GEO)
        cg.packed
        cg.refresh()
        assert cg.refreshes == 2

    def test_report_accounting(self):
        cg = RelationalMemory(TEST_PLATFORM).configure(make_frame(200), GEO)
        r = cg.report
        assert r.nrows == 200
        assert r.out_bytes == 200 * 24
        assert r.out_lines == int(np.ceil(200 * 24 / 64))
        assert r.produce_cycles > 0
        assert r.dram_bytes_touched >= r.out_bytes

    def test_buffer_refills_on_large_groups(self):
        nrows = 2000  # 48 KB packed > 4 KB test buffer
        cg = RelationalMemory(TEST_PLATFORM).configure(make_frame(nrows), GEO)
        assert cg.report.refills > 0
        assert cg.report.refill_stall_cycles > 0


class TestFilterAndVisibility:
    def test_fabric_filter_reduces_rows(self):
        frame = make_frame()
        flt = FabricFilter.of(FabricPredicate("key", CompareOp.LT, 500))
        cg = RelationalMemory(TEST_PLATFORM).configure(frame, GEO, fabric_filter=flt)
        keys = np.ascontiguousarray(frame[:, 0:8]).view("<i8").reshape(-1)
        assert len(cg) == int((keys < 500).sum())
        assert (cg.column("key") < 500).all()

    def test_filter_on_field_outside_projection(self):
        frame = make_frame()
        proj = DataGeometry(row_stride=64, fields=(FieldSlice("a", 8, 8, "<i8"),))
        flt = FabricFilter.of(FabricPredicate("key", CompareOp.GE, 500))
        cg = RelationalMemory(TEST_PLATFORM).configure(
            frame, proj, base_geometry=GEO, fabric_filter=flt
        )
        keys = np.ascontiguousarray(frame[:, 0:8]).view("<i8").reshape(-1)
        assert len(cg) == int((keys >= 500).sum())

    def test_visibility_filters_versions(self):
        frame = make_frame(10)
        begin = np.array([1, 1, 5, 5, 9, 1, 1, 1, 1, 20], dtype=np.int64)
        end = np.full(10, LIVE_TS, dtype=np.int64)
        end[1] = 4  # superseded at ts 4
        cg = RelationalMemory(TEST_PLATFORM).configure(
            stamped(frame, begin, end), GEO, base_geometry=MVCC_GEO, snapshot_ts=6
        )
        # Visible: begin<=6<end -> slots 0,2,3,5,6,7,8 (not 1: ended; not
        # 4: begin 9; not 9: begin 20).
        assert len(cg) == 7

    def test_visibility_and_filter_combine(self):
        frame = make_frame(50)
        begin = np.ones(50, dtype=np.int64)
        begin[25:] = 100
        end = np.full(50, LIVE_TS, dtype=np.int64)
        flt = FabricFilter.of(FabricPredicate("key", CompareOp.LT, 500))
        cg = RelationalMemory(TEST_PLATFORM).configure(
            stamped(frame, begin, end), GEO, base_geometry=MVCC_GEO,
            fabric_filter=flt, snapshot_ts=10,
        )
        keys = np.ascontiguousarray(frame[:25, 0:8]).view("<i8").reshape(-1)
        assert len(cg) == int((keys < 500).sum())

    def test_selection_fields_resolve_at_configure(self):
        """Without a base geometry, the comparator fields and the MVCC
        stamps must be in the projected one; configure fails early."""
        rm = RelationalMemory(TEST_PLATFORM)
        proj = DataGeometry(row_stride=64, fields=(FieldSlice("a", 8, 8, "<i8"),))
        flt = FabricFilter.of(FabricPredicate("key", CompareOp.LT, 500))
        with pytest.raises(GeometryError):
            rm.configure(make_frame(), proj, fabric_filter=flt)
        with pytest.raises(GeometryError):
            rm.configure(make_frame(), GEO, snapshot_ts=5)

    def test_mvcc_report_flag_costs(self):
        frame = make_frame(1000)
        rm = RelationalMemory(TEST_PLATFORM)
        plain = rm.configure(frame, GEO).report
        begin = np.ones(1000, dtype=np.int64)
        end = np.full(1000, LIVE_TS, dtype=np.int64)
        filtered = rm.configure(
            stamped(frame, begin, end), GEO, base_geometry=MVCC_GEO, snapshot_ts=5
        ).report
        assert filtered.produce_cycles >= plain.produce_cycles
