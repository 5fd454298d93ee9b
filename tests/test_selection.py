"""Tests for fabric-pushed selection and aggregation units."""

import numpy as np
import pytest

from repro.core.geometry import DataGeometry, FieldSlice
from repro.core.packer import record_view
from repro.core.selection import (
    CompareOp,
    FabricAggregate,
    FabricFilter,
    FabricPredicate,
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
        assert pred.evaluate(record_view(frame, GEO)).tolist() == [False, True, True]

    def test_predicate_on_opaque_field_rejected(self):
        frame = frame_with_x([1])
        with pytest.raises(GeometryError):
            FabricPredicate("tag", CompareOp.EQ, 0).evaluate(record_view(frame, GEO))
        with pytest.raises(GeometryError):
            FabricPredicate("nope", CompareOp.EQ, 0).evaluate(record_view(frame, GEO))

    def test_filter_conjunction(self):
        frame = frame_with_x([1, 5, 10, 50])
        flt = FabricFilter.of(
            FabricPredicate("x", CompareOp.GE, 5),
            FabricPredicate("x", CompareOp.LT, 50),
        )
        assert flt.evaluate(record_view(frame, GEO)).tolist() == [False, True, True, False]

    def test_filter_len_and_fields(self):
        flt = FabricFilter.of(
            FabricPredicate("x", CompareOp.GE, 5),
            FabricPredicate("x", CompareOp.LT, 50),
        )
        assert len(flt) == 2
        assert flt.fields() == ("x", "x")

    def test_empty_filter_passes_all(self):
        flt = FabricFilter.of()
        assert flt.evaluate(record_view(frame_with_x([1, 2]), GEO)).all()


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
