"""Tests for binding SQL against the catalog."""

import pytest

from repro.db.plan import bind
from repro.db.plan.binder import BoundTemplate
from repro.db.sql import parse
from repro.errors import SqlError


def bound(sql, catalog):
    return bind(parse(sql), catalog)


class TestResolution:
    def test_unknown_table(self, mixed_catalog):
        catalog, _ = mixed_catalog
        with pytest.raises(Exception):
            bound("SELECT id FROM nope", catalog)

    def test_unknown_column(self, mixed_catalog):
        catalog, _ = mixed_catalog
        with pytest.raises(SqlError):
            bound("SELECT nope FROM mixed", catalog)

    def test_referenced_columns_in_schema_order(self, mixed_catalog):
        catalog, _ = mixed_catalog
        b = bound("SELECT sum(qty) AS s FROM mixed WHERE price > 1 AND id < 100", catalog)
        assert b.referenced_columns == ("id", "price", "qty")
        assert b.selection_columns == ("id", "price")
        assert b.projection_columns == ("qty",)

    def test_group_by_column_counts_as_projection(self, mixed_catalog):
        catalog, _ = mixed_catalog
        b = bound("SELECT grp, count(*) AS n FROM mixed GROUP BY grp", catalog)
        assert "grp" in b.projection_columns

    def test_count_star_touches_narrowest_column(self, mixed_catalog):
        catalog, table = mixed_catalog
        b = bound("SELECT count(*) AS n FROM mixed", catalog)
        assert b.referenced_columns == ("grp",)  # CHAR(2) is narrowest

    def test_output_names(self, mixed_catalog):
        catalog, _ = mixed_catalog
        b = bound("SELECT id, qty + 1 AS next FROM mixed", catalog)
        assert b.outputs[0].name == "id"
        assert b.outputs[1].name == "next"

    def test_mixing_agg_and_plain_without_group_rejected(self, mixed_catalog):
        catalog, _ = mixed_catalog
        with pytest.raises(SqlError):
            bound("SELECT id, sum(qty) FROM mixed", catalog)

    def test_non_grouped_plain_output_rejected(self, mixed_catalog):
        catalog, _ = mixed_catalog
        with pytest.raises(SqlError):
            bound("SELECT id, sum(qty) AS s FROM mixed GROUP BY grp", catalog)


class TestCharPadding:
    def test_char_literal_padded_to_width(self, mixed_catalog):
        catalog, _ = mixed_catalog
        b = bound("SELECT id FROM mixed WHERE grp = 'aa'", catalog)
        assert b.where.right.value == b"aa"

    def test_char_literal_shorter_than_width(self, mixed_catalog):
        catalog, table = mixed_catalog
        b = bound("SELECT id FROM mixed WHERE grp = 'a'", catalog)
        assert b.where.right.value == b"a\x00"

    def test_literal_on_left_also_padded(self, mixed_catalog):
        catalog, _ = mixed_catalog
        b = bound("SELECT id FROM mixed WHERE 'aa' = grp", catalog)
        assert b.where.left.value == b"aa"


class TestDerivedCounts:
    def test_op_counts(self, mixed_catalog):
        catalog, _ = mixed_catalog
        b = bound(
            "SELECT sum(price * qty) AS s FROM mixed WHERE qty BETWEEN 1 AND 5",
            catalog,
        )
        assert b.where_op_count == 2
        assert b.output_op_count == 1
        assert b.aggregate_count == 1

    def test_where_conjuncts_split(self, mixed_catalog):
        catalog, _ = mixed_catalog
        b = bound(
            "SELECT id FROM mixed WHERE id > 1 AND qty < 5 AND price > 0", catalog
        )
        assert len(b.where_conjuncts) == 3

    def test_join_binding(self, mixed_catalog):
        catalog, table = mixed_catalog
        from repro.db import Column, TableSchema
        from repro.db.types import CHAR, INT64

        lookup = catalog.create_table(
            TableSchema("grps", [Column("code", CHAR(2)), Column("label", CHAR(8))])
        )
        lookup.append_row({"code": "aa", "label": "alpha"})
        b = bound(
            "SELECT id, label FROM mixed JOIN grps ON grp = code", catalog
        )
        (join,) = b.joins
        assert join.table.schema.name == "grps"


class TestShapeMemo:
    """``bind(parse_statement(sql))`` through the shape memo equals the
    uncached ``bind(Parser(sql).parse_statement())``, compared by ``repr``
    (which tells ``1`` from ``1.0`` and padded bytes from ``str``)."""

    TEMPLATES = (
        "SELECT id, qty FROM mixed WHERE qty < {i} AND price > {f}",
        "SELECT id FROM mixed WHERE qty = {num} OR qty = - {i}",
        "SELECT count(*) AS n FROM mixed WHERE id >= DATE '{date}' "
        "AND id < DATE '{date}' + INTERVAL '{i}' DAY",
        "SELECT id FROM mixed WHERE grp = '{s}' OR '{s}' = grp",
        "SELECT id FROM mixed WHERE grp IN ({slist}) AND qty NOT IN ({ilist})",
        "SELECT id, qty * {f} AS x FROM mixed ORDER BY id LIMIT {n} OFFSET {n}",
        "SELECT grp, sum(qty) AS s FROM mixed WHERE qty BETWEEN {i} AND {num} "
        "GROUP BY grp HAVING s > {f} ORDER BY grp",
        "SELECT id, label FROM mixed m JOIN grps g ON m.grp = g.code "
        "WHERE label = '{s}' AND -qty < {i} ORDER BY id DESC LIMIT {n}",
        "SELECT id FROM mixed WHERE NOT (qty <> {num}) AND (qty + {i}) * 2 > {f}",
    )

    @pytest.fixture(scope="class")
    def catalog(self):
        import numpy as np

        from repro.db import Catalog, Column, TableSchema
        from repro.db.types import CHAR, DECIMAL, INT32, INT64

        catalog = Catalog()
        mixed = catalog.create_table(TableSchema("mixed", [
            Column("id", INT64), Column("grp", CHAR(2)),
            Column("price", DECIMAL(2)), Column("qty", INT32),
        ]))
        mixed.append_arrays({
            "id": np.arange(20, dtype=np.int64),
            "grp": np.array([b"aa", b"b"] * 10, dtype="S2"),
            "price": np.arange(20) * 7,
            "qty": np.arange(20, dtype=np.int32),
        })
        grps = catalog.create_table(TableSchema(
            "grps", [Column("code", CHAR(2)), Column("label", CHAR(8))]
        ))
        grps.append_row({"code": "aa", "label": "alpha"})
        return catalog

    @staticmethod
    def literals():
        from hypothesis import strategies as st

        ints = st.integers(0, 10**6).map(str)
        floats = st.floats(0, 1e6, allow_nan=False).map(lambda x: f"{x:.3f}")
        text = st.text(alphabet="ab'x", max_size=3).map(lambda s: s.replace("'", "''"))
        quoted = text.map(lambda s: f"'{s}'")
        return st.fixed_dictionaries({
            "i": ints,
            "f": floats,
            "num": st.one_of(ints, floats, ints.map(lambda s: "-" + s)),
            "date": st.dates().map(lambda d: d.isoformat()),
            "s": text,
            "slist": st.lists(quoted, min_size=1, max_size=4).map(", ".join),
            "ilist": st.lists(ints, min_size=1, max_size=4).map(", ".join),
            "n": st.integers(0, 30).map(str),
        })

    def test_memoized_bind_equals_the_referee(self, catalog):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.db.sql.parser import Parser, parse_statement

        @settings(max_examples=300, deadline=None)
        @given(st.sampled_from(self.TEMPLATES), self.literals(), self.literals())
        def check(template, first, second):
            for values in (first, second):  # the second is a memo hit
                sql = template.format(**values)
                memo = parse_statement(sql)
                referee = Parser(sql).parse_statement()
                assert repr(memo) == repr(referee)
                assert repr(bind(memo, catalog)) == repr(bind(referee, catalog))

        check()

    def test_hits_reuse_the_shape(self, catalog):
        from repro.db.sql.parser import parse_statement

        sql = "SELECT id AS reuse_probe FROM mixed WHERE qty < {}"
        first = parse_statement(sql.format(3))
        bind(first, catalog)
        second = parse_statement(sql.format(4))
        assert first.template is None  # a shape's first statement binds fresh
        assert str(bind(second, catalog).where) == "(qty < 4)"
        assert isinstance(second.template[0].bound, BoundTemplate)
        # An int and a float literal are different shapes.
        third = parse_statement(sql.format(4.0))
        assert third.template is None
        assert str(bind(third, catalog).where) == "(qty < 4.0)"

    def test_a_failing_shape_binds_once_per_statement(self, catalog, monkeypatch):
        from repro.db.plan import binder
        from repro.db.sql.parser import parse_statement

        calls = []
        real = binder._bind_select

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(binder, "_bind_select", counted)
        sql = "SELECT nope AS fail_probe FROM mixed WHERE qty < {}"
        for i in range(5):
            with pytest.raises(SqlError, match="unknown column 'nope'"):
                bind(parse_statement(sql.format(i)), catalog)
        # One fresh bind per statement, plus one try of the template on
        # the shape's first repeat; the failure is then remembered.
        assert len(calls) == 6

    def test_a_failed_shape_binds_again_once_its_table_exists(self):
        from repro.db import Catalog, Column, TableSchema
        from repro.db.sql.parser import parse_statement
        from repro.db.types import INT32
        from repro.errors import ReproError

        catalog = Catalog()
        sql = "SELECT a AS late_probe FROM late WHERE a < {}"
        for i in range(3):
            with pytest.raises(ReproError):
                bind(parse_statement(sql.format(i)), catalog)
        catalog.create_table(TableSchema("late", [Column("a", INT32)]))
        stmt = parse_statement(sql.format(7))
        assert str(bind(stmt, catalog).where) == "(a < 7)"
        assert isinstance(stmt.template[0].bound, BoundTemplate)
