"""Tests for DISTINCT, HAVING and SELECT * across the whole stack."""

import numpy as np
import pytest

from repro.db import Catalog, Column, TableSchema
from repro.db.engines import all_engines
from repro.db.exec import results_equal, run_vector
from repro.db.plan import bind
from repro.db.sql import parse
from repro.db.types import CHAR, INT64
from repro.errors import SqlError
from tests.conftest import assert_matches_oracle


@pytest.fixture
def dup_catalog():
    schema = TableSchema(
        "dups", [Column("g", CHAR(1)), Column("v", INT64), Column("w", INT64)]
    )
    catalog = Catalog()
    table = catalog.create_table(schema)
    rng = np.random.default_rng(4)
    n = 400
    table.append_arrays(
        {
            "g": rng.choice(np.array([b"a", b"b", b"c"], dtype="S1"), n),
            "v": rng.integers(0, 5, n),
            "w": rng.integers(0, 3, n),
        }
    )
    return catalog, table


def checked(sql, catalog, table):
    """``run_vector``'s answer to ``sql``, checked against the oracle."""
    b = bind(parse(sql), catalog)
    result = run_vector(b, {n: table.column_values(n) for n in b.referenced_columns})
    assert_matches_oracle(result, catalog, sql)
    return result


class TestDistinct:
    def test_single_column(self, dup_catalog):
        catalog, table = dup_catalog
        vec = checked("SELECT DISTINCT v FROM dups", catalog, table)
        assert vec.nrows == len(np.unique(table.column_values("v")))

    def test_multi_column(self, dup_catalog):
        catalog, table = dup_catalog
        vec = checked("SELECT DISTINCT g, v FROM dups", catalog, table)
        pairs = set(zip(table.column_values("g"), table.column_values("v")))
        assert vec.nrows == len(pairs)

    def test_distinct_with_where(self, dup_catalog):
        catalog, table = dup_catalog
        vec = checked("SELECT DISTINCT v FROM dups WHERE v > 2", catalog, table)
        assert (vec.column("v") > 2).all()

    def test_distinct_with_order_and_limit(self, dup_catalog):
        catalog, table = dup_catalog
        vec = checked(
            "SELECT DISTINCT v FROM dups ORDER BY v DESC LIMIT 2", catalog, table
        )
        expected = sorted(np.unique(table.column_values("v")), reverse=True)[:2]
        assert vec.column("v").tolist() == expected

    def test_engines_agree_on_distinct(self, dup_catalog):
        catalog, table = dup_catalog
        sql = "SELECT DISTINCT g, w FROM dups ORDER BY g, w"
        results = [e.execute(sql).result for e in all_engines(catalog).values()]
        assert results_equal(results[0], results[1])
        assert results_equal(results[0], results[2])

    def test_distinct_charges_dedup_cost(self, dup_catalog):
        catalog, _ = dup_catalog
        engines = all_engines(catalog)
        plain = engines["row"].execute("SELECT v FROM dups").cycles
        distinct = all_engines(catalog)["row"].execute("SELECT DISTINCT v FROM dups").cycles
        assert distinct > plain


class TestHaving:
    def test_filters_groups(self, dup_catalog):
        catalog, table = dup_catalog
        sql = "SELECT v, count(*) AS n FROM dups GROUP BY v HAVING n > 70 ORDER BY v"
        vec = checked(sql, catalog, table)
        assert (vec.column("n") > 70).all()

    def test_having_on_group_key(self, dup_catalog):
        catalog, table = dup_catalog
        sql = "SELECT v, sum(w) AS s FROM dups GROUP BY v HAVING v >= 3 ORDER BY v"
        vec = checked(sql, catalog, table)
        assert (vec.column("v") >= 3).all()

    def test_having_conjunction(self, dup_catalog):
        catalog, table = dup_catalog
        sql = (
            "SELECT g, count(*) AS n, sum(v) AS s FROM dups GROUP BY g "
            "HAVING n > 10 AND s > 100 ORDER BY g"
        )
        checked(sql, catalog, table)

    def test_having_requires_group_by(self):
        with pytest.raises(SqlError):
            parse("SELECT v FROM dups HAVING v > 1")

    def test_having_can_empty_result(self, dup_catalog):
        catalog, table = dup_catalog
        sql = "SELECT v, count(*) AS n FROM dups GROUP BY v HAVING n > 100000"
        vec = checked(sql, catalog, table)
        assert vec.nrows == 0

    def test_engines_agree_on_having(self, dup_catalog):
        catalog, _ = dup_catalog
        sql = "SELECT g, avg(v) AS a FROM dups GROUP BY g HAVING a > 1.5 ORDER BY g"
        results = [e.execute(sql).result for e in all_engines(catalog).values()]
        assert results_equal(results[0], results[1])
        assert results_equal(results[0], results[2])


class TestSelectStar:
    def test_expands_to_all_user_columns(self, dup_catalog):
        catalog, table = dup_catalog
        b = bind(parse("SELECT * FROM dups"), catalog)
        assert tuple(o.name for o in b.outputs) == ("g", "v", "w")

    def test_star_with_where(self, dup_catalog):
        catalog, table = dup_catalog
        vec = checked("SELECT * FROM dups WHERE v = 4", catalog, table)
        assert vec.nrows == int((table.column_values("v") == 4).sum())

    def test_star_excludes_mvcc_columns(self, mvcc_catalog):
        catalog, table = mvcc_catalog
        table.append_row({"id": 1, "balance": 2})
        b = bind(parse("SELECT * FROM accounts"), catalog)
        assert tuple(o.name for o in b.outputs) == ("id", "balance")

    def test_plan_renders_new_nodes(self, dup_catalog):
        catalog, _ = dup_catalog
        from repro.db.plan import explain

        b = bind(
            parse("SELECT v, count(*) AS n FROM dups GROUP BY v HAVING n > 1"),
            catalog,
        )
        assert "Having" in explain(b)
        b2 = bind(parse("SELECT DISTINCT v FROM dups"), catalog)
        assert "Distinct" in explain(b2)
