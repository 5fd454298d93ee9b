"""Tests for the row-major table frames."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fabric import RelationalMemory
from repro.core.mvcc_filter import LIVE_TS, NEVER_TS
from repro.db import Catalog, Column, Table, TableSchema
from repro.db.engines import (
    ColumnStoreEngine,
    RelationalMemoryEngine,
    RowStoreEngine,
)
from repro.db.sql.pipeline import Session
from repro.db.types import CHAR, DECIMAL, INT32, INT64
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
