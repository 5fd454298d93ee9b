"""Tests for range sharding with the fabric's ranged column-group API."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.schema import Column, TableSchema
from repro.db.sharding import ShardedTable
from repro.db.table import Table
from repro.db.types import CHAR, INT64
from repro.workloads.synthetic import wide_schema
from repro.errors import SchemaError


def make_sharded(boundaries=(100, 200, 300), nrows=2000, seed=1):
    st_ = ShardedTable(wide_schema(ncols=4, row_bytes=16), "c0", list(boundaries))
    rng = np.random.default_rng(seed)
    st_.bulk_load(
        {f"c{i}": rng.integers(0, 400, nrows, dtype=np.int32) for i in range(4)}
    )
    return st_


class TestSplit:
    """``ShardedTable.split``: quantile cut points, one shard per row,
    CHAR columns byte for byte."""

    @staticmethod
    def table_of(keys):
        table = Table(TableSchema("t", [Column("k", INT64), Column("tag", CHAR(6))]))
        for i, k in enumerate(keys):
            table.append_row({"k": int(k), "tag": f"r{i:03d}{'xyz'[i % 3]}"})
        return table

    @pytest.mark.parametrize(
        "keys, nshards, bounds",
        [
            # Quantiles of 0..99 at 1/4, 2/4, 3/4 are 24.75, 49.5, 74.25.
            (np.random.default_rng(3).permutation(100), 4, [24, 49, 74]),
            # 91 of 100 keys are 5: all three cut points collapse into one.
            ([5] * 90 + list(range(10)), 4, [5]),
        ],
    )
    def test_split(self, keys, nshards, bounds):
        table = self.table_of(keys)
        sharded = ShardedTable.split(table, "k", nshards)
        assert sharded.boundaries == bounds
        assert len(sharded.shards) == len(bounds) + 1
        all_keys = table.column("k")
        tags = table.column("tag")
        seen = []
        for i, shard in enumerate(sharded.shards):
            lo, hi = sharded.shard_bounds(i)
            mask = (all_keys >= (lo if lo is not None else all_keys.min())) & (
                all_keys <= (hi if hi is not None else all_keys.max())
            )
            # The shard holds exactly the rows in its key range, in the
            # original order, and their CHAR bytes are unchanged.
            np.testing.assert_array_equal(shard.column("k"), all_keys[mask])
            assert shard.column("tag").tobytes() == tags[mask].tobytes()
            seen.extend(bytes(row) for row in shard.column("tag"))
        # Every row lands in exactly one shard (tags are unique).
        assert sorted(seen) == sorted(bytes(row) for row in tags)


class TestRouting:
    def test_shard_of(self):
        st_ = ShardedTable(wide_schema(ncols=4, row_bytes=16), "c0", [100, 200])
        assert st_.shard_of(0) == 0
        assert st_.shard_of(99) == 0
        assert st_.shard_of(100) == 1
        assert st_.shard_of(199) == 1
        assert st_.shard_of(200) == 2
        assert st_.shard_of(10**6) == 2

    def test_shards_for_range(self):
        st_ = ShardedTable(wide_schema(ncols=4, row_bytes=16), "c0", [100, 200])
        assert st_.shards_for_range(0, 50) == [0]
        assert st_.shards_for_range(50, 150) == [0, 1]
        assert st_.shards_for_range(0, 300) == [0, 1, 2]
        assert st_.shards_for_range(150, 150) == [1]
        assert st_.shards_for_range(5, 1) == []

    def test_shards_for_range_open_ends(self):
        st_ = ShardedTable(wide_schema(ncols=4, row_bytes=16), "c0", [100, 200])
        assert st_.shards_for_range() == [0, 1, 2]
        assert st_.shards_for_range(low=150) == [1, 2]
        assert st_.shards_for_range(high=150) == [0, 1]
        assert st_.shards_for_range(low=-(10**9)) == [0, 1, 2]
        assert st_.shards_for_range(high=10**9) == [0, 1, 2]

    def test_shards_for_range_boundary_keys(self):
        st_ = ShardedTable(wide_schema(ncols=4, row_bytes=16), "c0", [100, 200])
        # A boundary key belongs to the right-hand shard exclusively.
        assert st_.shards_for_range(100, 100) == [1]
        assert st_.shards_for_range(99, 100) == [0, 1]
        assert st_.shards_for_range(200, 200) == [2]

    def test_single_shard_table(self):
        st_ = ShardedTable(wide_schema(ncols=4, row_bytes=16), "c0", [])
        assert st_.shards_for_range() == [0]
        assert st_.shards_for_range(5, 900) == [0]
        assert st_.shard_bounds(0) == (None, None)

    def test_shard_bounds(self):
        st_ = ShardedTable(wide_schema(ncols=4, row_bytes=16), "c0", [100, 200])
        assert st_.shard_bounds(0) == (None, 99)
        assert st_.shard_bounds(1) == (100, 199)
        assert st_.shard_bounds(2) == (200, None)

    def test_shard_bounds_out_of_range(self):
        st_ = ShardedTable(wide_schema(ncols=4, row_bytes=16), "c0", [100])
        with pytest.raises(SchemaError):
            st_.shard_bounds(2)
        with pytest.raises(SchemaError):
            st_.shard_bounds(-1)

    def test_shard_bounds_round_trip_with_routing(self):
        st_ = ShardedTable(
            wide_schema(ncols=4, row_bytes=16), "c0", [100, 200, 300]
        )
        for i in range(len(st_.shards)):
            lo, hi = st_.shard_bounds(i)
            for key in (lo, hi):
                if key is not None:
                    assert st_.shard_of(key) == i

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(SchemaError):
            ShardedTable(wide_schema(ncols=4, row_bytes=16), "c0", [200, 100])

    def test_non_numeric_key_rejected(self):
        from repro.db import Column, TableSchema
        from repro.db.types import CHAR, INT64

        schema = TableSchema("s", [Column("k", CHAR(4)), Column("v", INT64)])
        with pytest.raises(SchemaError):
            ShardedTable(schema, "k", [10])


class TestIngestion:
    def test_insert_routes_by_key(self):
        st_ = ShardedTable(wide_schema(ncols=4, row_bytes=16), "c0", [100])
        shard, slot = st_.insert({"c0": 42, "c1": 0, "c2": 0, "c3": 0})
        assert shard == 0 and slot == 0
        shard, _ = st_.insert({"c0": 150, "c1": 0, "c2": 0, "c3": 0})
        assert shard == 1
        assert st_.nrows == 2

    def test_bulk_load_partitions_correctly(self):
        st_ = make_sharded()
        for i, shard in enumerate(st_.shards):
            keys = shard.column_values("c0")
            lo = st_.boundaries[i - 1] if i > 0 else -(2**31)
            hi = st_.boundaries[i] if i < len(st_.boundaries) else 2**31
            assert (keys >= lo).all() and (keys < hi).all()

    def test_no_rows_lost(self):
        st_ = make_sharded(nrows=1234)
        assert st_.nrows == 1234


def masked_load(sharded, columns):
    """Each shard loaded through a row mask of its keys, a masked copy of
    every column: the referee for ``bulk_load``'s routes."""
    assignment = np.searchsorted(
        sharded.boundaries, columns[sharded.shard_key], side="right"
    )
    frames = []
    for i in range(len(sharded.shards)):
        shard = Table(sharded.schema)
        mask = assignment == i
        if mask.any():
            shard.append_arrays({k: v[mask] for k, v in columns.items()})
        frames.append(shard.frame.tobytes())
    return frames


class TestBulkLoadRoutes:
    """Clustered input loads each shard from slices, any other order
    through masks; both give the masked referee's shard frames."""

    @given(
        st.integers(0, 300),
        st.lists(st.integers(0, 400), max_size=4, unique=True).map(sorted),
        st.sampled_from(["shuffled", "sorted", "clustered"]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_shard_frames_equal_masked_referee(self, nrows, bounds, order, seed):
        rng = np.random.default_rng(seed)
        columns = {
            "k": rng.integers(0, 400, nrows, dtype=np.int64),
            "tag": rng.choice(np.array([b"", b"ab", b"abcdef"], dtype="S6"), nrows),
        }
        shard_of = np.searchsorted(bounds, columns["k"], side="right")
        if order == "sorted":
            perm = np.argsort(columns["k"], kind="stable")
        elif order == "clustered":  # by shard, keys unsorted inside one
            perm = np.argsort(shard_of, kind="stable")
        else:
            perm = np.arange(nrows)
        columns = {name: arr[perm] for name, arr in columns.items()}
        schema = TableSchema("t", [Column("k", INT64), Column("tag", CHAR(6))])
        sharded = ShardedTable(schema, "k", bounds)
        sharded.bulk_load(columns)
        assert [s.frame.tobytes() for s in sharded.shards] == masked_load(
            sharded, columns
        )
        assert sharded.nrows == nrows

    def test_clustered_input_loads_slice_views(self, monkeypatch):
        """Every shard of a clustered load is handed views of the input,
        not copies."""
        keys = np.arange(1000, dtype=np.int32)
        columns = {f"c{i}": keys * (i + 1) for i in range(4)}
        handed = []
        real = Table.append_arrays

        def spy(table, cols):
            handed.append(cols)
            return real(table, cols)

        monkeypatch.setattr(Table, "append_arrays", spy)
        st_ = ShardedTable(wide_schema(ncols=4, row_bytes=16), "c0", [100, 700])
        st_.bulk_load(columns)
        assert len(handed) == 3
        for cols in handed:
            assert all(np.shares_memory(cols[k], columns[k]) for k in cols)


class TestRangedColumnGroups:
    def test_full_scan_touches_all_nonempty_shards(self):
        st_ = make_sharded()
        scans = st_.column_group(["c1"])
        assert len(scans) == sum(1 for s in st_.shards if s.nrows)
        total = sum(len(s.group) for s in scans)
        assert total == st_.nrows

    def test_interior_shard_ships_unfiltered(self):
        st_ = make_sharded()
        scans = st_.column_group(["c0"], key_low=0, key_high=399)
        for scan in scans:
            assert len(scan.group) == st_.shards[scan.shard_index].nrows

    def test_range_only_touches_overlapping_shards(self):
        st_ = make_sharded(boundaries=(100, 200, 300))
        scans = st_.column_group(["c0"], key_low=120, key_high=180)
        assert [s.shard_index for s in scans] == [1]

    def test_boundary_shards_filtered_in_fabric(self):
        st_ = make_sharded()
        values = st_.gather_column("c0", 150, 250)
        assert (values >= 150).all() and (values <= 250).all()
        all_keys = np.concatenate([s.column_values("c0") for s in st_.shards])
        expected = np.sort(all_keys[(all_keys >= 150) & (all_keys <= 250)])
        assert np.array_equal(np.sort(values), expected)

    def test_reports_attached_per_shard(self):
        st_ = make_sharded()
        scans = st_.column_group(["c1", "c2"], key_low=0, key_high=99)
        assert all(s.report.produce_cycles > 0 for s in scans)

    def test_empty_range(self):
        st_ = make_sharded()
        empty = st_.gather_column("c0", 500, 600)
        assert empty.size == 0
        # Dtype must match the decoded column so callers can concatenate.
        assert empty.dtype == st_.shards[0].column_values("c0").dtype

    def test_boundary_filter_interior_shard_is_none(self):
        st_ = make_sharded(boundaries=(100, 200, 300))
        # Shard 1 is [100, 199]; a range covering it needs no comparator.
        assert st_._boundary_filter(1, 50, 250) is None
        assert st_._boundary_filter(1, 100, 199) is None
        assert st_._boundary_filter(1, None, None) is None

    def test_boundary_filter_cuts_only_where_needed(self):
        from repro.core.selection import CompareOp

        st_ = make_sharded(boundaries=(100, 200, 300))
        low_cut = st_._boundary_filter(1, 150, 250)
        assert [p.op for p in low_cut.predicates] == [CompareOp.GE]
        high_cut = st_._boundary_filter(1, 50, 150)
        assert [p.op for p in high_cut.predicates] == [CompareOp.LE]
        both = st_._boundary_filter(1, 120, 180)
        assert [p.op for p in both.predicates] == [CompareOp.GE, CompareOp.LE]

    def test_boundary_filter_open_edge_shards(self):
        from repro.core.selection import CompareOp

        st_ = make_sharded(boundaries=(100, 200, 300))
        # First/last shards have an open end: only the closing bound cuts.
        first = st_._boundary_filter(0, None, 50)
        assert [p.op for p in first.predicates] == [CompareOp.LE]
        last = st_._boundary_filter(3, 350, None)
        assert [p.op for p in last.predicates] == [CompareOp.GE]
        assert st_._boundary_filter(0, None, None) is None

    @given(
        lo=st.integers(min_value=-50, max_value=450),
        hi=st.integers(min_value=-50, max_value=450),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=25, deadline=None)
    def test_ranged_gather_matches_flat_filter(self, lo, hi, seed):
        lo, hi = min(lo, hi), max(lo, hi)
        st_ = make_sharded(nrows=500, seed=seed)
        got = np.sort(st_.gather_column("c0", lo, hi))
        all_keys = np.concatenate(
            [s.column_values("c0") for s in st_.shards if s.nrows]
        )
        expected = np.sort(all_keys[(all_keys >= lo) & (all_keys <= hi)])
        assert np.array_equal(got, expected)
