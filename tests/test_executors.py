"""Tests for the vectorized executor, with the SQL oracle as the
independent referee on every query shape the subset supports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Catalog, Column, TableSchema
from repro.db.plan import bind
from repro.db.sql import parse
from repro.db.types import CHAR, INT64
from repro.db.exec import QueryResult, results_equal, run_vector
from repro.errors import ExecutionError
from tests.conftest import assert_matches_oracle


def columns_for(bound, table):
    return {n: table.column_values(n) for n in bound.referenced_columns}


def checked(sql, catalog, table):
    """``run_vector``'s answer to ``sql``, checked against the oracle."""
    b = bind(parse(sql), catalog)
    result = run_vector(b, columns_for(b, table))
    assert_matches_oracle(result, catalog, sql)
    return result


QUERIES = [
    "SELECT id, qty FROM mixed WHERE qty > 25",
    "SELECT sum(price) AS s, count(*) AS n FROM mixed",
    "SELECT grp, sum(price * qty) AS rev, avg(qty) AS aq, min(price) AS lo, "
    "max(price) AS hi, count(*) AS n FROM mixed GROUP BY grp ORDER BY grp",
    "SELECT id FROM mixed WHERE qty BETWEEN 10 AND 20 ORDER BY id DESC LIMIT 7",
    "SELECT grp, count(*) AS n FROM mixed WHERE price > 500 GROUP BY grp ORDER BY n DESC, grp",
    "SELECT sum(qty) AS s FROM mixed WHERE qty > 100",  # empty qualifying set
    "SELECT id, price FROM mixed WHERE grp = 'aa' AND qty < 10",
    "SELECT qty, count(*) AS n FROM mixed GROUP BY qty ORDER BY qty LIMIT 5",
]


class TestVectorVsOracle:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_equivalence(self, mixed_catalog, sql):
        catalog, table = mixed_catalog
        checked(sql, catalog, table)

    def test_join_equivalence(self, mixed_catalog):
        catalog, table = mixed_catalog
        lookup = catalog.create_table(
            TableSchema("grps", [Column("code", CHAR(2)), Column("weight", INT64)])
        )
        lookup.append_rows(
            [
                {"code": "aa", "weight": 1},
                {"code": "bb", "weight": 2},
                {"code": "cc", "weight": 3},
            ]
        )
        sql = (
            "SELECT sum(qty * weight) AS s FROM mixed JOIN grps ON grp = code "
            "WHERE qty < 30"
        )
        checked(sql, catalog, table)

    def test_join_duplicates_on_build_side(self, mixed_catalog):
        catalog, table = mixed_catalog
        lookup = catalog.create_table(
            TableSchema("dups", [Column("code", CHAR(2)), Column("w", INT64)])
        )
        lookup.append_rows(
            [{"code": "aa", "w": 1}, {"code": "aa", "w": 10}, {"code": "bb", "w": 2}]
        )
        sql = "SELECT count(*) AS n FROM mixed JOIN dups ON grp = code"
        vec = checked(sql, catalog, table)
        n_aa = int((table.column_values("grp") == b"aa").sum())
        n_bb = int((table.column_values("grp") == b"bb").sum())
        assert vec.scalar() == 2 * n_aa + n_bb


class TestAggregates:
    def test_global_aggregate_on_empty_input_yields_one_row(self, mixed_catalog):
        catalog, table = mixed_catalog
        b = bind(parse("SELECT count(*) AS n FROM mixed WHERE qty > 10000"), catalog)
        res = run_vector(b, columns_for(b, table))
        assert res.nrows == 1
        assert res.scalar() == 0

    def test_avg(self, mixed_catalog):
        catalog, table = mixed_catalog
        b = bind(parse("SELECT avg(qty) AS a FROM mixed"), catalog)
        res = run_vector(b, columns_for(b, table))
        assert res.scalar() == pytest.approx(float(table.column_values("qty").mean()))

    def test_multi_key_group(self, mixed_catalog):
        catalog, table = mixed_catalog
        sql = "SELECT grp, qty, count(*) AS n FROM mixed GROUP BY grp, qty ORDER BY grp, qty"
        vec = checked(sql, catalog, table)
        assert vec.column("n").sum() == table.nrows


class TestResultType:
    def test_ragged_rejected(self):
        with pytest.raises(ExecutionError):
            QueryResult(
                names=("a", "b"),
                columns={"a": np.array([1]), "b": np.array([1, 2])},
            )

    def test_scalar_requires_1x1(self, mixed_catalog):
        catalog, table = mixed_catalog
        b = bind(parse("SELECT id, qty FROM mixed"), catalog)
        res = run_vector(b, columns_for(b, table))
        with pytest.raises(ExecutionError):
            res.scalar()

    def test_rows_decode_bytes(self):
        res = QueryResult(
            names=("g",), columns={"g": np.array([b"ab\x00"], dtype="S3")}
        )
        assert res.rows() == [("ab",)]

    def test_to_dicts(self):
        res = QueryResult(names=("x",), columns={"x": np.array([1, 2])})
        assert res.to_dicts() == [{"x": 1}, {"x": 2}]

    def test_results_equal_float_tolerance(self):
        a = QueryResult(names=("x",), columns={"x": np.array([1.0])})
        b = QueryResult(names=("x",), columns={"x": np.array([1.0 + 1e-12])})
        assert results_equal(a, b)

    def test_results_not_equal_names(self):
        a = QueryResult(names=("x",), columns={"x": np.array([1])})
        b = QueryResult(names=("y",), columns={"y": np.array([1])})
        assert not results_equal(a, b)


class TestRandomizedEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        threshold=st.integers(min_value=0, max_value=60),
        limit=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=25, deadline=None)
    def test_filter_order_limit(self, seed, threshold, limit):
        rng = np.random.default_rng(seed)
        catalog = Catalog()
        table = catalog.create_table(
            TableSchema("r", [Column("k", INT64), Column("v", INT64)])
        )
        n = int(rng.integers(1, 60))
        table.append_arrays(
            {
                "k": rng.integers(0, 50, n),
                "v": rng.integers(0, 100, n),
            }
        )
        sql = (
            f"SELECT k, v FROM r WHERE v > {threshold} "
            f"ORDER BY k, v DESC LIMIT {limit}"
        )
        checked(sql, catalog, table)
