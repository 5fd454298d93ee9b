"""Tests for fabric-pushed selection and aggregation units."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import packer, selection
from repro.core.geometry import DataGeometry, FieldSlice
from repro.core.mvcc_filter import LIVE_TS, MVCC_BEGIN, MVCC_END, NEVER_TS, visible_mask
from repro.core.packer import record_view
from repro.core.selection import (
    CompareOp,
    FabricAggregate,
    FabricFilter,
    FabricPredicate,
    select_rows,
)
from repro.errors import GeometryError

GEO = DataGeometry(
    row_stride=16,
    fields=(FieldSlice("x", 0, 8, "<i8"), FieldSlice("tag", 8, 4)),
)


def frame_with_x(values):
    values = np.asarray(values, dtype="<i8")
    frame = np.zeros((len(values), 16), dtype=np.uint8)
    frame[:, 0:8] = values.view(np.uint8).reshape(-1, 8)
    return frame


class TestCompareOp:
    @pytest.mark.parametrize(
        "op,expected",
        [
            (CompareOp.LT, [True, False, False]),
            (CompareOp.LE, [True, True, False]),
            (CompareOp.GT, [False, False, True]),
            (CompareOp.GE, [False, True, True]),
            (CompareOp.EQ, [False, True, False]),
            (CompareOp.NE, [True, False, True]),
        ],
    )
    def test_all_ops(self, op, expected):
        values = np.array([1, 5, 9])
        assert op.apply(values, 5).tolist() == expected

    @pytest.mark.parametrize("sql", ["<", "<=", ">", ">=", "=", "<>"])
    def test_flipped_swaps_operands(self, sql):
        op = CompareOp.from_sql(sql)
        values = np.array([1, 5, 9])
        for constant in (0, 5, 10):
            # ``values <op> c`` is ``c <op.flipped> values``.
            assert op.apply(values, constant).tolist() == [
                bool(op.flipped.apply(np.array([constant]), v)[0]) for v in values
            ]
        assert op.flipped.flipped is op


class TestPredicateAndFilter:
    def test_predicate_evaluates_on_frame(self):
        frame = frame_with_x([1, 10, 100])
        pred = FabricPredicate("x", CompareOp.GT, 5)
        mask = select_rows(record_view(frame, GEO), fabric_filter=FabricFilter.of(pred))
        assert mask.tolist() == [False, True, True]

    def test_predicate_on_opaque_field_rejected(self):
        frame = frame_with_x([1])
        with pytest.raises(GeometryError):
            select_rows(
                record_view(frame, GEO),
                fabric_filter=FabricFilter.of(FabricPredicate("tag", CompareOp.EQ, 0)),
            )
        with pytest.raises(GeometryError):
            select_rows(
                record_view(frame, GEO),
                fabric_filter=FabricFilter.of(FabricPredicate("nope", CompareOp.EQ, 0)),
            )

    def test_filter_conjunction(self):
        frame = frame_with_x([1, 5, 10, 50])
        flt = FabricFilter.of(
            FabricPredicate("x", CompareOp.GE, 5),
            FabricPredicate("x", CompareOp.LT, 50),
        )
        mask = select_rows(record_view(frame, GEO), fabric_filter=flt)
        assert mask.tolist() == [False, True, True, False]

    def test_filter_len_and_fields(self):
        flt = FabricFilter.of(
            FabricPredicate("x", CompareOp.GE, 5),
            FabricPredicate("x", CompareOp.LT, 50),
        )
        assert len(flt) == 2
        assert flt.fields() == ("x", "x")

    def test_empty_filter_passes_all(self):
        flt = FabricFilter.of()
        assert select_rows(record_view(frame_with_x([1, 2]), GEO), fabric_filter=flt).all()


class TestAggregates:
    def test_sum_min_max_count(self):
        frame = frame_with_x([3, 1, 4, 1, 5])
        assert FabricAggregate("x", "sum").evaluate(record_view(frame, GEO)) == 14
        assert FabricAggregate("x", "min").evaluate(record_view(frame, GEO)) == 1
        assert FabricAggregate("x", "max").evaluate(record_view(frame, GEO)) == 5
        assert FabricAggregate("x", "count").evaluate(record_view(frame, GEO)) == 5

    def test_masked_aggregate(self):
        frame = frame_with_x([3, 1, 4, 1, 5])
        mask = np.array([True, False, True, False, False])
        assert FabricAggregate("x", "sum").evaluate(record_view(frame, GEO), mask=mask) == 7
        assert FabricAggregate("x", "count").evaluate(record_view(frame, GEO), mask=mask) == 2

    def test_empty_input(self):
        frame = frame_with_x([])
        assert FabricAggregate("x", "sum").evaluate(record_view(frame, GEO)) == 0
        assert FabricAggregate("x", "min").evaluate(record_view(frame, GEO)) is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(GeometryError):
            FabricAggregate("x", "median")


#: A row image with MVCC stamps, integer fields of three widths, a float
#: field and an opaque field: the shapes a comparator meets.
WALK_GEO = DataGeometry(
    row_stride=40,
    fields=(
        FieldSlice(MVCC_BEGIN, 0, 8, "<i8"),
        FieldSlice(MVCC_END, 8, 8, "<i8"),
        FieldSlice("i32", 16, 4, "<i4"),
        FieldSlice("i16", 20, 2, "<i2"),
        FieldSlice("tag", 22, 2),
        FieldSlice("i64", 24, 8, "<i8"),
        FieldSlice("f64", 32, 8, "<f8"),
    ),
)
STAMPS = DataGeometry(
    row_stride=16,
    fields=(FieldSlice(MVCC_BEGIN, 0, 8, "<i8"), FieldSlice(MVCC_END, 8, 8, "<i8")),
)

CONSTANTS = st.one_of(
    st.integers(-25, 25),
    # Outside the range of some or all of the integer fields.
    st.sampled_from([2**15, -(2**15) - 1, 2**31, -(2**31) - 1, 2**40, 2**63, -(2**63) - 1, 2**64]),
    # Fractional constants, also against the integer fields.
    st.floats(-25, 25),
    st.sampled_from([float("inf"), float("-inf"), float("nan")]),
)
TERMS = st.lists(
    st.tuples(st.sampled_from(["i16", "i32", "i64", "f64"]), st.sampled_from(list(CompareOp)), CONSTANTS),
    max_size=5,
)


def walk_records(n, seed):
    """``n`` rows of WALK_GEO: small field values, stamps that include
    never-committed slots and live versions."""
    rng = np.random.default_rng(seed)
    records = record_view(np.zeros((n, WALK_GEO.row_stride), dtype=np.uint8), WALK_GEO)
    begin = rng.integers(0, 100, n)
    records[MVCC_BEGIN] = np.where(rng.random(n) < 0.1, NEVER_TS, begin)
    records[MVCC_END] = np.where(rng.random(n) < 0.3, LIVE_TS, begin + rng.integers(0, 50, n))
    for name in ("i32", "i16", "i64"):
        records[name] = rng.integers(-20, 21, n)
    records["f64"] = rng.integers(-40, 41, n) / 2
    return records


def block_rows(kind, n):
    """Rows per block: one, three, a count that does not divide ``n``, or
    the default block size (None)."""
    if kind == "non-divisor":
        return next((k for k in range(2, n + 2) if n % k), 2)
    return {"one": 1, "three": 3, "default": None}[kind]


def blocks_of(rows, geometry):
    """Patch the block size to ``rows`` records of ``geometry`` (None:
    leave it)."""
    size = packer._BLOCK_BYTES if rows is None else rows * geometry.row_stride
    return patch.object(packer, "_BLOCK_BYTES", size)


class TestSelectRows:
    """``select_rows`` walks the image once, a block at a time; its mask
    must equal the whole-array compares ANDed together."""

    @given(
        n=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
        snapshot=st.one_of(st.none(), st.integers(0, 150)),
        terms=st.one_of(st.none(), TERMS),
        block=st.sampled_from(["one", "three", "non-divisor", "default"]),
    )
    @settings(max_examples=400, deadline=None)
    @example(n=0, seed=0, snapshot=7, terms=[("i32", CompareOp.LT, 3)], block="three")
    @example(n=0, seed=0, snapshot=None, terms=[], block="one")
    @example(
        n=17, seed=1, snapshot=60,
        terms=[
            ("i16", CompareOp.LT, 2**15), ("i32", CompareOp.GE, -(2**31) - 1),
            ("i64", CompareOp.NE, 2**64), ("i32", CompareOp.EQ, 1.5),
            ("f64", CompareOp.LE, 3.5),
        ],
        block="non-divisor",
    )
    def test_walk_bit_identical(self, n, seed, snapshot, terms, block):
        records = walk_records(n, seed)
        flt = None if terms is None else FabricFilter.of(
            *(FabricPredicate(f, op, c) for f, op, c in terms)
        )
        with blocks_of(block_rows(block, n), WALK_GEO):
            mask = select_rows(records, snapshot, flt)
        if snapshot is None and flt is None:
            assert mask is None
            return
        expected = (
            np.ones(n, dtype=bool) if snapshot is None
            else visible_mask(records[MVCC_BEGIN], records[MVCC_END], snapshot)
        )
        for field, op, constant in terms or ():
            expected &= op.apply(records[field], constant)
        assert mask.dtype == bool and mask.shape == (n,)
        assert np.array_equal(mask, expected)

    @given(
        st.lists(st.integers(0, 2**40), min_size=0, max_size=200),
        st.integers(0, 2**40),
        st.integers(1, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_visibility_bit_identical(self, begins, snapshot, batch):
        begin_ts = np.asarray(begins, dtype=np.int64)
        rng = np.random.default_rng(len(begins))
        end_ts = begin_ts + rng.integers(0, 2**20, len(begins))
        records = record_view(np.zeros((len(begins), STAMPS.row_stride), dtype=np.uint8), STAMPS)
        records[MVCC_BEGIN] = begin_ts
        records[MVCC_END] = end_ts
        with blocks_of(batch, STAMPS):
            assert np.array_equal(
                visible_mask(begin_ts, end_ts, snapshot), select_rows(records, snapshot)
            )

    def test_contract_without_terms(self):
        records = walk_records(9, 3)
        assert select_rows(records) is None
        assert select_rows(records, fabric_filter=FabricFilter.of()).tolist() == [True] * 9
        assert np.array_equal(
            select_rows(records, 50, FabricFilter.of()),
            visible_mask(records[MVCC_BEGIN], records[MVCC_END], 50),
        )

    @pytest.mark.parametrize("name", ["tag", "nope"])
    def test_bad_field_raises_before_any_block(self, name):
        flt = FabricFilter.of(
            FabricPredicate("i32", CompareOp.LT, 3), FabricPredicate(name, CompareOp.EQ, 0)
        )

        def no_walk(*args):
            raise AssertionError("the image was walked")

        with patch.object(selection, "blocks", no_walk):
            for snapshot in (None, 50):
                with pytest.raises(GeometryError):
                    select_rows(walk_records(5, 0), snapshot, flt)
