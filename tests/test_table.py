"""Tests for the row-major table frames."""

import datetime
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fabric import RelationalMemory
from repro.core.mvcc_filter import LIVE_TS, NEVER_TS, visible_mask
from repro.core import packer
from repro.core.packer import record_view
from repro.db import Catalog, Column, Table, TableSchema
from repro.db.engines import (
    ColumnStoreEngine,
    RelationalMemoryEngine,
    RowStoreEngine,
)
from repro.db.sql.pipeline import Session
from repro.db.schema import MVCC_BEGIN, MVCC_END
from repro.db.types import (
    BOOL,
    CHAR,
    DATE,
    DECIMAL,
    FLOAT32,
    FLOAT64,
    INT8,
    INT16,
    INT32,
    INT64,
    TIMESTAMP,
)
from repro.errors import SchemaError

SCHEMA = TableSchema(
    "t",
    [
        Column("id", INT64),
        Column("name", CHAR(4)),
        Column("price", DECIMAL(2)),
        Column("qty", INT32),
    ],
)


class TestAppendRow:
    def test_roundtrip_python_values(self):
        table = Table(SCHEMA)
        idx = table.append_row({"id": 7, "name": "ab", "price": 19.99, "qty": 3})
        assert idx == 0
        row = table.row(0)
        assert row == {"id": 7, "name": "ab", "price": pytest.approx(19.99), "qty": 3}

    def test_missing_column_rejected(self):
        table = Table(SCHEMA)
        with pytest.raises(SchemaError):
            table.append_row({"id": 1})

    def test_capacity_growth(self):
        table = Table(SCHEMA, capacity=2)
        for i in range(100):
            table.append_row({"id": i, "name": "x", "price": 1.0, "qty": i})
        assert table.nrows == 100
        assert table.column_values("qty").tolist() == list(range(100))

    def test_version_bumps_on_mutation(self):
        table = Table(SCHEMA)
        v0 = table.version
        table.append_row({"id": 1, "name": "a", "price": 1.0, "qty": 1})
        v1 = table.version
        table.set_value(0, "qty", 9)
        assert v0 < v1 < table.version


class TestBulkLoad:
    def test_append_arrays(self):
        table = Table(SCHEMA)
        table.append_arrays(
            {
                "id": np.array([1, 2, 3]),
                "name": np.array([b"aa", b"bb", b"cc"], dtype="S4"),
                "price": np.array([100, 200, 300]),  # cents
                "qty": np.array([4, 5, 6], dtype=np.int32),
            }
        )
        assert table.nrows == 3
        assert table.column_values("price").tolist() == [1.0, 2.0, 3.0]
        assert table.column_values("name").tolist() == [b"aa", b"bb", b"cc"]

    def test_ragged_rejected(self):
        table = Table(SCHEMA)
        with pytest.raises(SchemaError):
            table.append_arrays(
                {
                    "id": np.array([1]),
                    "name": np.array([b"a", b"b"], dtype="S4"),
                    "price": np.array([1]),
                    "qty": np.array([1], dtype=np.int32),
                }
            )

    def test_wrong_columns_rejected(self):
        table = Table(SCHEMA)
        with pytest.raises(SchemaError):
            table.append_arrays({"id": np.array([1])})

    def test_bulk_then_row_append_interleave(self):
        table = Table(SCHEMA)
        table.append_arrays(
            {
                "id": np.array([1, 2]),
                "name": np.array([b"aa", b"bb"], dtype="S4"),
                "price": np.array([100, 200]),
                "qty": np.array([1, 2], dtype=np.int32),
            }
        )
        table.append_row({"id": 3, "name": "cc", "price": 3.0, "qty": 3})
        assert table.column_values("id").tolist() == [1, 2, 3]


#: Bulk-load columns of every stored kind: an INT8 and an INT16 fed
#: wider ints (narrowed as numpy casts), a DECIMAL's raw ints, a FLOAT32
#: fed float64s, and CHARs fed longer (truncated) and shorter (padded)
#: strings.
BULK_SCHEMA_COLUMNS = [
    Column("id", INT64),
    Column("tiny", INT8),
    Column("small", INT16),
    Column("price", DECIMAL(2)),
    Column("ratio", FLOAT32),
    Column("flag", CHAR(1)),
    Column("name", CHAR(5)),
]


def _stored_dtype(col):
    return col.dtype.np_dtype or f"S{col.dtype.width}"


def reference_frame(schema, columns):
    """A per-column bulk write: one whole-field pass per column, each
    converted in one ``np.asarray``, then the MVCC stamps."""
    n = len(next(iter(columns.values())))
    frame = np.zeros((n, schema.row_stride), dtype=np.uint8)
    records = record_view(frame, schema.full_geometry())
    for col in schema.user_columns:
        records[col.name] = np.asarray(columns[col.name], dtype=_stored_dtype(col))
    if schema.mvcc:
        records[MVCC_BEGIN] = NEVER_TS
        records[MVCC_END] = LIVE_TS
    return frame


@st.composite
def bulk_columns(draw, nrows):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    as_lists = draw(st.booleans())
    # Arrays narrow by casting; Python ints out of range would raise.
    wide = 1 if as_lists else 8
    words = ["", "a", "abcde", "abcdefgh", "z\x00y"]
    columns = {
        "id": rng.integers(-(2**62), 2**62, nrows),
        "tiny": rng.integers(-128 * wide, 128 * wide, nrows),
        "small": rng.integers(-(2**15) * wide, 2**15 * wide, nrows),
        "price": rng.integers(-(10**9), 10**9, nrows),
        "ratio": rng.standard_normal(nrows),
        "flag": rng.choice(np.array([b"", b"A", b"NR", b"\x00"], dtype="S2"), nrows),
        "name": [words[i] for i in rng.integers(0, len(words), nrows)],
    }
    if as_lists:  # Python values, converted a block at a time
        columns = {k: list(np.asarray(v).tolist()) for k, v in columns.items()}
    return columns


class TestBlockedBulkLoad:
    """``append_arrays`` writes the image a block of records at a time;
    its frame must equal a per-column write byte for byte."""

    @given(
        data=st.data(),
        mvcc=st.booleans(),
        nrows=st.integers(0, 40),
        prefix_rows=st.integers(0, 9),
        block_rows=st.integers(1, 7),
    )
    @settings(max_examples=80, deadline=None)
    def test_frame_equals_per_column_write(
        self, data, mvcc, nrows, prefix_rows, block_rows
    ):
        schema = TableSchema("bulk", BULK_SCHEMA_COLUMNS, mvcc=mvcc)
        prefix = data.draw(bulk_columns(prefix_rows))
        rows = data.draw(bulk_columns(nrows))
        table = Table(schema)
        with mock.patch.object(packer, "_BLOCK_BYTES", block_rows * schema.row_stride):
            table.append_arrays(prefix)
            table.append_arrays(rows)
        want = np.concatenate(
            [reference_frame(schema, prefix), reference_frame(schema, rows)]
        )
        assert table.nrows == prefix_rows + nrows
        assert table.version == 2
        assert table.frame.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad_row", [0, 5, 10])
    def test_bad_value_leaves_the_table_as_it_was(self, bad_row):
        schema = TableSchema("bulk", BULK_SCHEMA_COLUMNS, mvcc=True)
        table = Table(schema)
        good = {
            "id": np.arange(3), "tiny": np.arange(3), "small": np.arange(3),
            "price": np.arange(3), "ratio": np.ones(3), "flag": [b"A"] * 3,
            "name": ["x"] * 3,
        }
        table.append_arrays(good)
        before = (table.nrows, table.version, table.frame.tobytes())
        bad = {k: list(v) * 4 for k, v in good.items()}  # 12 rows
        bad["small"][bad_row] = "not a number"
        with mock.patch.object(packer, "_BLOCK_BYTES", 3 * schema.row_stride):
            with pytest.raises(ValueError):
                table.append_arrays(bad)
        assert (table.nrows, table.version, table.frame.tobytes()) == before


class TestReads:
    def test_column_raw_vs_values(self):
        table = Table(SCHEMA)
        table.append_row({"id": 1, "name": "a", "price": 12.5, "qty": 1})
        assert table.column("price")[0] == 1250
        assert table.column_values("price")[0] == 12.5

    def test_frame_shape_and_bytes(self):
        table = Table(SCHEMA)
        table.append_row({"id": 1, "name": "a", "price": 1.0, "qty": 1})
        assert table.frame.shape == (1, SCHEMA.row_stride)
        assert table.nbytes == SCHEMA.row_stride

    def test_rows_iterator(self):
        table = Table(SCHEMA)
        table.append_row({"id": 1, "name": "a", "price": 1.0, "qty": 1})
        table.append_row({"id": 2, "name": "b", "price": 2.0, "qty": 2})
        assert [r["id"] for r in table.rows()] == [1, 2]

    def test_row_out_of_range(self):
        with pytest.raises(IndexError):
            Table(SCHEMA).row(0)


class TestStoredForm:
    def test_char_column_is_fixed_width_byte_strings(self):
        table = Table(SCHEMA)
        table.append_row({"id": 1, "name": "ab", "price": 1.0, "qty": 1})
        table.append_row({"id": 2, "name": "wxyz", "price": 2.0, "qty": 2})
        names = table.column("name")
        assert names.dtype == np.dtype("S4") and names.shape == (2,)
        assert names.tobytes() == b"ab\x00\x00wxyz"
        assert table.column_values("name").tobytes() == names.tobytes()


class TestNoFrameAliasing:
    """Whatever a read hands out owns its data: rewriting a row in place
    afterwards must not show through it."""

    @pytest.mark.parametrize(
        "engine_cls", [RowStoreEngine, ColumnStoreEngine, RelationalMemoryEngine]
    )
    def test_reads_survive_in_place_rewrite(self, engine_cls):
        catalog = Catalog()
        table = catalog.create_table(SCHEMA)
        for i in range(8):
            table.append_row({"id": i, "name": "n%d" % i, "price": i, "qty": 10 * i})
        group = RelationalMemory().configure(
            table.frame, SCHEMA.geometry(["qty", "name"])
        )
        session = Session(catalog, engine=engine_cls(catalog))
        held = {
            "column": table.column("qty"),
            "column_char": table.column("name"),
            "column_values": table.column_values("qty"),
            "column_values_char": table.column_values("name"),
            "group": group.column("qty"),
            "group_char": group.column("name"),
            "select": session.execute("SELECT qty FROM t").result.columns["qty"],
        }
        before = {k: v.copy() for k, v in held.items()}
        for i in range(8):
            table.set_value(i, "qty", -1)
            table.set_value(i, "name", "zz")
        for key, arr in held.items():
            assert arr.tobytes() == before[key].tobytes(), key
        assert (group.column("qty") == -1).all()  # the frame did change
        session.close()


class TestMvccColumns:
    def schema(self):
        return TableSchema("m", [Column("a", INT64)], mvcc=True)

    def test_defaults_invisible(self):
        table = Table(self.schema())
        table.append_row({"a": 1})
        assert table.begin_ts[0] == NEVER_TS
        assert table.end_ts[0] == LIVE_TS

    def test_stamping(self):
        table = Table(self.schema())
        table.append_row({"a": 1})
        table.stamp_begin(0, 5)
        table.stamp_end(0, 9)
        assert table.begin_ts[0] == 5 and table.end_ts[0] == 9

    def test_non_mvcc_table_rejects_ts_access(self):
        table = Table(SCHEMA)
        with pytest.raises(SchemaError):
            _ = table.begin_ts

    def test_retain_compacts(self):
        table = Table(self.schema())
        for i in range(10):
            table.append_row({"a": i})
        keep = np.array([i % 2 == 0 for i in range(10)])
        table.retain(keep)
        assert table.nrows == 5
        assert table.column_values("a").tolist() == [0, 2, 4, 6, 8]

    def test_retain_shape_check(self):
        table = Table(self.schema())
        table.append_row({"a": 1})
        with pytest.raises(SchemaError):
            table.retain(np.array([True, False]))


class TestProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-(2**62), max_value=2**62),
                st.text(
                    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                    max_size=4,
                ),
                st.integers(min_value=-(10**6), max_value=10**6),
                st.integers(min_value=-(2**31), max_value=2**31 - 1),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_row_roundtrip(self, rows):
        table = Table(SCHEMA)
        for rid, name, cents, qty in rows:
            table.append_row(
                {"id": rid, "name": name, "price": cents / 100, "qty": qty}
            )
        for i, (rid, name, cents, qty) in enumerate(rows):
            row = table.row(i)
            assert row["id"] == rid
            assert row["name"] == name.rstrip("\x00")
            assert row["price"] == pytest.approx(cents / 100)
            assert row["qty"] == qty


# ----------------------------------------------------------------------
# Point writes against an independent per-column image.
# ----------------------------------------------------------------------
EVERY_TYPE = TableSchema(
    "every",
    [
        Column("i8", INT8),
        Column("i16", INT16),
        Column("i32", INT32),
        Column("i64", INT64),
        Column("f32", FLOAT32),
        Column("f64", FLOAT64),
        Column("day", DATE),
        Column("flag", BOOL),
        Column("ts", TIMESTAMP),
        Column("cents", DECIMAL(2)),
        Column("whole", DECIMAL(0)),
        Column("c1", CHAR(1)),
        Column("c5", CHAR(5)),
    ],
    row_align=8,
    mvcc=True,
)

_STRUCT_FORMAT = {"<i1": "<b", "<i2": "<h", "<i4": "<i", "<i8": "<q", "<f4": "<f", "<f8": "<d"}


def _int_values(bits):
    return st.integers(min_value=-(2 ** (bits - 1)), max_value=2 ** (bits - 1) - 1)


def _char_values(width):
    text = st.text(max_size=width).filter(lambda s: len(s.encode()) <= width)
    return st.one_of(text, st.binary(max_size=width))


_VALUES = {
    "i8": _int_values(8),
    "i16": _int_values(16),
    "i32": _int_values(32),
    "i64": _int_values(64),
    "f32": st.floats(width=32, allow_nan=False),
    "f64": st.floats(allow_nan=False),
    "day": st.one_of(
        st.dates(),
        # Day numbers of dates Python can decode back (years 1..9999).
        st.integers(min_value=-719162, max_value=2932896),
    ),
    "flag": st.one_of(st.booleans(), st.integers(min_value=0, max_value=1)),
    "ts": _int_values(64),
    "cents": st.one_of(
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
        st.integers(min_value=-(10**9), max_value=10**9),
    ),
    "whole": st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
    "c1": _char_values(1),
    "c5": _char_values(5),
    MVCC_BEGIN: _int_values(64),
    MVCC_END: _int_values(64),
}


def _referee_field(dtype, value) -> bytes:
    """One field's stored bytes, worked out without ``DataType.encode``
    or numpy: scaled ints for DECIMAL, day numbers for DATE, NUL-padded
    bytes for CHAR, ``struct`` packing for every scalar."""
    if dtype.name.startswith("DECIMAL"):
        value = int(round(float(value) * 10**dtype.scale))
    elif isinstance(value, datetime.date):
        value = (value - datetime.date(1970, 1, 1)).days
    if dtype.np_dtype is None:
        data = value.encode() if isinstance(value, str) else bytes(value)
        return data.ljust(dtype.width, b"\x00")
    return struct.pack(_STRUCT_FORMAT[dtype.np_dtype], value)


def _referee_row(schema, values) -> bytes:
    image = bytearray(schema.row_stride)
    for col in schema.columns:
        off = schema.offset_of(col.name)
        image[off : off + col.dtype.width] = _referee_field(col.dtype, values[col.name])
    return bytes(image)


class TestPointWritesMatchReferee:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_images_equal_per_column_referee(self, data):
        table = Table(EVERY_TYPE, capacity=1)
        expected = []
        names = [c.name for c in EVERY_TYPE.columns]
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            values = {c.name: data.draw(_VALUES[c.name]) for c in EVERY_TYPE.user_columns}
            full = {MVCC_BEGIN: NEVER_TS, MVCC_END: LIVE_TS, **values}
            for stamp in (MVCC_BEGIN, MVCC_END):  # omitted stamps default
                if data.draw(st.booleans()):
                    values[stamp] = full[stamp] = data.draw(_VALUES[stamp])
            assert table.append_row(values) == len(expected)
            expected.append(full)
            for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
                i = data.draw(st.integers(min_value=0, max_value=len(expected) - 1))
                name = data.draw(st.sampled_from(names))
                value = data.draw(_VALUES[name])
                table.set_value(i, name, value)
                expected[i][name] = value
        for i, values in enumerate(expected):
            assert table.row_bytes(i) == _referee_row(EVERY_TYPE, values), i
            row = table.row(i)
            assert {name: table.value(i, name) for name in row} == row
        assert table.nrows == len(expected)


class TestBadRowRaisesFirstBadColumn:
    """A row with several bad values raises what the first bad column in
    schema order raises, and leaves the table as it was."""

    @pytest.mark.parametrize(
        "values, error, message",
        [
            # id fails only when written; later columns fail while encoding.
            ({"id": None, "name": "toolong", "price": "x", "qty": 1},
             TypeError, "NoneType"),
            ({"id": None, "price": 1.0, "qty": 1}, TypeError, "NoneType"),
            ({"id": 1, "price": "x", "qty": 1}, SchemaError, "column 'name'"),
            ({"id": 1, "name": "toolong", "price": "x", "qty": None},
             SchemaError, r"CHAR\(4\) value too long"),
            ({"id": 1, "name": "ok", "price": "x", "qty": None},
             ValueError, "could not convert string to float"),
            ({"id": 1, "name": "ok", "price": 1.0, "qty": "q"},
             ValueError, "invalid literal"),
        ],
    )
    def test_first_bad_column_decides(self, values, error, message):
        table = Table(SCHEMA, capacity=1)
        table.append_row({"id": 1, "name": "a", "price": 1.0, "qty": 1})
        nrows, version = table.nrows, table.version
        with pytest.raises(error, match=message):
            table.append_row(values)
        assert (table.nrows, table.version) == (nrows, version)
        # The slot the failed row touched is reused cleanly.
        good = {"id": 2, "name": "b", "price": 2.5, "qty": 3}
        assert table.append_row(good) == 1
        assert table.row_bytes(1) == _referee_row(SCHEMA, good)

    @pytest.mark.parametrize(
        "changes, error, message",
        [
            ({"id": None, "name": "toolong", "price": "x", "qty": 1},
             TypeError, "NoneType"),
            # Unchanged columns are copied, never re-encoded.
            ({"price": "x", "qty": None}, ValueError,
             "could not convert string to float"),
            ({"name": "toolong", "qty": "q"}, SchemaError,
             r"CHAR\(4\) value too long"),
            ({"qty": "q", "nope": None}, ValueError, "invalid literal"),
        ],
    )
    def test_first_bad_changed_column_decides_a_new_version(
        self, changes, error, message
    ):
        table = Table(SCHEMA, capacity=1)
        first = {"id": 1, "name": "a", "price": 1.0, "qty": 1}
        table.append_row(first)
        nrows, version = table.nrows, table.version
        with pytest.raises(error, match=message):
            table.append_version(0, changes)
        assert (table.nrows, table.version) == (nrows, version)
        # The slot the failed version touched is reused cleanly.
        assert table.append_version(0, {"qty": 3, "nope": 1}) == 1
        assert table.row_bytes(1) == _referee_row(SCHEMA, dict(first, qty=3))


class TestPointReadsSeeTheCurrentImage:
    """Point reads and visibility go through a record view of the frame;
    every path that replaces or rewrites the frame must leave them
    reading the image as it is now."""

    def schema(self):
        return TableSchema("m", [Column("a", INT64), Column("s", CHAR(3))], mvcc=True)

    def assert_current(self, table):
        image = record_view(table.frame.copy(), table.schema.full_geometry())
        for i in range(table.nrows):
            assert table.row(i) == {"a": int(image["a"][i]), "s": image["s"][i].decode()}
            for name in ("a", MVCC_BEGIN, MVCC_END):
                assert table.value(i, name) == int(image[name][i])
        assert table.column("a").tolist() == image["a"].tolist()
        for ts in (0, 1, 2, 5):
            want = visible_mask(image[MVCC_BEGIN], image[MVCC_END], ts)
            assert table.visible_mask(ts).tolist() == want.tolist()

    def filled(self, n=3):
        table = Table(self.schema(), capacity=n)
        for i in range(n):
            table.append_row({"a": i, "s": "r%d" % i})
            table.stamp_begin(i, 1)
        self.assert_current(table)
        return table

    def test_growth_past_capacity(self):
        table = self.filled()
        table.append_row({"a": 10, "s": "new"})  # reallocates the frame
        table.stamp_begin(3, 2)
        table.set_value(0, "a", -5)
        table.stamp_end(0, 2)
        assert table.value(0, "a") == -5 and table.value(3, MVCC_BEGIN) == 2
        assert table.visible_mask(2).tolist() == [False, True, True, True]
        self.assert_current(table)

    def test_restore(self):
        table = self.filled()
        restored = Table.restore(table.schema, bytes(table.frame), table.nrows)
        restored.set_value(1, "a", 99)
        restored.stamp_end(2, 2)
        assert restored.value(1, "a") == 99 and table.value(1, "a") == 1
        self.assert_current(restored)
        self.assert_current(table)

    def test_retain(self):
        table = self.filled(5)
        table.retain(np.array([False, True, False, True, True]))
        assert [table.value(i, "a") for i in range(3)] == [1, 3, 4]
        table.stamp_end(0, 2)
        self.assert_current(table)

    def test_pad_to(self):
        table = self.filled()
        table.pad_to(9)
        assert table.value(8, MVCC_BEGIN) == NEVER_TS
        assert table.value(8, MVCC_END) == LIVE_TS
        table.set_value(8, "a", 8)
        self.assert_current(table)

    def test_write_row_bytes(self):
        table = self.filled()
        donor = self.filled()
        donor.set_value(2, "a", 42)
        table.write_row_bytes(6, donor.row_bytes(2))  # pads and grows
        table.write_row_bytes(0, donor.row_bytes(2))
        assert table.value(6, "a") == 42 and table.value(0, "a") == 42
        assert table.row(6) == {"a": 42, "s": "r2"}
        self.assert_current(table)
