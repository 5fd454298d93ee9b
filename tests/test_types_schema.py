"""Tests for the type system and table schemas."""

import datetime

import numpy as np
import pytest

from repro.db.plan.binder import _check_insert_value
from repro.db.schema import MVCC_BEGIN, MVCC_END, Column, TableSchema
from repro.db.types import (
    BOOL,
    CHAR,
    DATE,
    DECIMAL,
    FLOAT64,
    INT8,
    INT16,
    INT32,
    INT64,
    TIMESTAMP,
    parse_type,
)
from repro.errors import SchemaError, SqlError


class TestTypes:
    def test_widths(self):
        assert INT32.width == 4
        assert INT64.width == 8
        assert CHAR(12).width == 12
        assert DECIMAL(2).width == 8
        assert DATE.width == 4

    def test_decimal_roundtrip(self):
        d = DECIMAL(2)
        assert d.encode(12.34) == 1234
        assert d.decode(1234) == pytest.approx(12.34)

    def test_decimal_rounding(self):
        assert DECIMAL(2).encode(0.009) == 1
        assert DECIMAL(2).encode(0.005) == 0  # round-half-even

    def test_decimal_decode_array_rescales(self):
        vals = np.array([100, 250], dtype=np.int64)
        assert DECIMAL(2).decode_array(vals).tolist() == [1.0, 2.5]

    def test_date_roundtrip(self):
        day = datetime.date(1998, 12, 1)
        raw = DATE.encode(day)
        assert DATE.decode(raw) == day

    def test_date_accepts_day_number(self):
        assert DATE.encode(100) == 100

    def test_char_pads_and_strips(self):
        c = CHAR(6)
        raw = c.encode("ab")
        assert raw == b"ab\x00\x00\x00\x00"
        assert c.decode(raw) == "ab"

    def test_char_overflow_rejected(self):
        with pytest.raises(SchemaError):
            CHAR(2).encode("abc")

    def test_fits_bounds_the_stored_range(self):
        assert INT32.fits([2**31 - 1, -(2**31)])
        assert not INT32.fits([2**31])
        assert INT64.fits([2**63 - 1]) and not INT64.fits([2**64])
        assert not INT64.fits([float("nan")])
        assert DATE.fits([datetime.date(1998, 12, 1), 2**31 - 1]) and not DATE.fits([2**31])
        # DECIMAL bounds its scaled int, exactly: the float nearest the
        # largest decodable value scales to 2**63, one past the top.
        top = (2**63 - 1) / 100
        assert DECIMAL(2).fits([1e16]) and not DECIMAL(2).fits([top])
        assert not DECIMAL(2).fits([float("inf")])
        assert FLOAT64.fits([1e308]) and CHAR(2).fits([b"ab"])

    def test_whole_refuses_a_fraction_only_where_it_would_be_cut(self):
        assert INT32.whole([1, 2.0, -7.0, True]) and not INT32.whole([1, 1.7])
        assert not DATE.whole([3.5]) and DATE.whole([datetime.date(1998, 12, 1), 3.0])
        assert not INT64.whole([float("inf")])
        # DECIMAL rounds to its scale; floats and CHAR keep what they get.
        assert DECIMAL(2).whole([1.234]) and FLOAT64.whole([0.5]) and CHAR(2).whole([b"ab"])

    def test_parse_type(self):
        assert parse_type("int64") is INT64
        assert parse_type("CHAR(12)").width == 12
        assert parse_type("DECIMAL(4)").scale == 4
        assert parse_type("decimal").scale == 2
        with pytest.raises(SchemaError):
            parse_type("VARCHAR(9)")


def _fits_referee(dtype, values):
    """``DataType.fits`` as it reads every value: through ``encode``."""
    top = dtype.limit
    if top is None:
        return True
    try:
        return all(-top <= dtype.encode(v) < top for v in values)
    except (OverflowError, ValueError):
        return False


def _whole_referee(dtype, values):
    if dtype.limit is None or dtype.name.startswith("DECIMAL"):
        return True
    return all(not isinstance(v, float) or v.is_integer() for v in values)


def _verdict(check, dtype, values):
    """A check's verdict, or the type of the exception it raised."""
    try:
        return check(dtype, values)
    except Exception as exc:  # noqa: BLE001 - the raise is the verdict
        return type(exc)


#: Every integer-backed type: the fast path's (integers, DATE) and DECIMAL's.
RANGED = (INT8, INT16, INT32, INT64, BOOL, TIMESTAMP, DATE, DECIMAL(2))


def _probe_values(dtype):
    top = dtype.limit
    edges = [top - 2, top - 1, top, top + 1, -top - 1, -top, -top + 1, 0, 1 << 70]
    return [
        *edges,
        *(-v for v in edges),
        True,
        False,
        np.int64(-(1 << 63)),
        np.int64((1 << 63) - 1),
        np.int32(-5),
        np.int8(7),
        float(top - 1),
        float(top),
        -float(top),
        2.5,
        -0.0,
        1e300,
        float("inf"),
        float("-inf"),
        float("nan"),
        datetime.date(2000, 2, 29),
        datetime.date(1, 1, 1),
    ]


class TestRangeChecks:
    """``fits`` and ``whole`` give the verdicts (and raise what) reading
    every value through ``encode`` gives, the fast path for Python ints
    included: at each type's bounds and one past them, for ``bool``,
    numpy ints, floats, ``inf``/``nan`` and dates."""

    @pytest.mark.parametrize("dtype", RANGED, ids=[t.name for t in RANGED])
    def test_verdicts_equal_encoding_every_value(self, dtype):
        for v in _probe_values(dtype):
            for check, referee in ((type(dtype).fits, _fits_referee),
                                   (type(dtype).whole, _whole_referee)):
                assert _verdict(check, dtype, (v,)) == _verdict(referee, dtype, (v,)), (
                    dtype.name, check.__name__, repr(v)
                )
        values = _probe_values(dtype)[:7]
        assert dtype.fits(values) == _fits_referee(dtype, values)

    @pytest.mark.parametrize("dtype", RANGED, ids=[t.name for t in RANGED])
    def test_insert_refusal_text_is_unchanged(self, dtype):
        schema = TableSchema("t", [Column("v", dtype)])
        for v in _probe_values(dtype):
            if isinstance(v, datetime.date) and dtype is not DATE:
                continue  # encode has no day number for a non-DATE column
            if _fits_referee(dtype, (v,)) is False:
                want = f"INSERT value for 'v' out of range for {dtype.name}"
            elif not _whole_referee(dtype, (v,)):
                want = f"INSERT value for 'v' is not a whole number for {dtype.name}"
            else:
                want = None
            try:
                _check_insert_value(v, schema, "v")
            except SqlError as exc:
                assert str(exc) == want, (dtype.name, repr(v))
            else:
                assert want is None, (dtype.name, repr(v))


class TestSchema:
    def test_offsets_back_to_back(self):
        schema = TableSchema(
            "t", [Column("a", INT64), Column("b", INT32), Column("c", CHAR(3))]
        )
        assert schema.offset_of("a") == 0
        assert schema.offset_of("b") == 8
        assert schema.offset_of("c") == 12
        assert schema.row_stride == 15

    def test_row_alignment_pads(self):
        schema = TableSchema("t", [Column("a", INT32)], row_align=64)
        assert schema.row_stride == 64

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", INT32), Column("a", INT64)])

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [])

    def test_reserved_names_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column(MVCC_BEGIN, INT64)])

    def test_mvcc_appends_hidden_columns(self):
        schema = TableSchema("t", [Column("a", INT64)], mvcc=True)
        assert schema.row_stride == 8 + 16
        assert schema.column_names == ("a",)  # user view
        assert schema.has_column(MVCC_BEGIN) and schema.has_column(MVCC_END)

    def test_geometry_selected_columns(self):
        schema = TableSchema(
            "t", [Column("a", INT64), Column("b", INT32), Column("c", INT64)]
        )
        g = schema.geometry(["c", "a"])
        assert g.field_names == ("c", "a")
        assert g.packed_width == 16
        assert g.field("c").offset == 12

    def test_geometry_default_all_user_columns(self):
        schema = TableSchema("t", [Column("a", INT64)], mvcc=True)
        g = schema.geometry()
        assert g.field_names == ("a",)
        full = schema.full_geometry()
        assert MVCC_END in full.field_names

    def test_bytes_of(self):
        schema = TableSchema("t", [Column("a", INT64), Column("b", INT32)])
        assert schema.bytes_of(["a", "b"]) == 12

    def test_unknown_column_raises(self):
        schema = TableSchema("t", [Column("a", INT64)])
        with pytest.raises(SchemaError):
            schema.offset_of("zz")
        with pytest.raises(SchemaError):
            schema.column("zz")

    def test_field_slice_carries_dtype(self):
        schema = TableSchema("t", [Column("p", DECIMAL(2)), Column("c", CHAR(4))])
        assert schema.field_slice("p").dtype == "<i8"
        assert schema.field_slice("c").dtype is None
