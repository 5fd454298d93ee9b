"""Tests for the RM engine extensions: aggregation pushdown (§IV-B) and
the auto (hybrid) consumption mode (§III-B)."""

import numpy as np
import pytest

from repro.db import Catalog, Column, TableSchema
from repro.db.engines import RelationalMemoryEngine, RowStoreEngine
from repro.db.exec import results_equal
from repro.db.types import DECIMAL, INT64
from repro.workloads.synthetic import make_wide_table, projectivity_query
from repro.workloads.tpch import Q6, generate_lineitem


@pytest.fixture(scope="module")
def wide():
    return make_wide_table(nrows=20_000, seed=21)


def decimal_table(catalog, name, raw):
    """``name(k INT64, d DECIMAL(2))`` holding the stored ints ``raw``."""
    table = catalog.create_table(
        TableSchema(name, [Column("k", INT64), Column("d", DECIMAL(2))])
    )
    table.append_arrays({"k": np.arange(len(raw)), "d": np.asarray(raw)})
    return table


@pytest.fixture(scope="module")
def aggregates():
    """``wide``, an empty table ``e``, a ten-row table ``ten`` and 100k
    random DECIMAL(2) values in ``dec``."""
    catalog, _ = make_wide_table(nrows=20_000, seed=21)
    decimal_table(catalog, "e", [])
    decimal_table(catalog, "ten", np.arange(10))
    rng = np.random.default_rng(5)
    decimal_table(catalog, "dec", rng.integers(0, 10**7, 100_000))
    return catalog


def assert_identical(result, reference):
    """Same names, dtypes and column bytes."""
    assert result.names == reference.names
    for name in reference.names:
        got, want = result.columns[name], reference.columns[name]
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), (name, got, want)


class TestAggregatePushdown:
    def engine(self, catalog):
        return RelationalMemoryEngine(catalog, pushdown=True, aggregate_pushdown=True)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT sum(c1) AS s FROM wide WHERE c0 < 500000",
            "SELECT count(*) AS n FROM wide WHERE c3 < 100000",
            "SELECT min(c2) AS lo FROM wide",
            "SELECT max(c2) AS hi FROM wide WHERE c1 > 100",
            "SELECT sum(c5) AS s FROM wide",
            # min/max of no rows, and an empty pushed selection
            "SELECT min(d) AS lo FROM e",
            "SELECT max(k) AS hi FROM e",
            "SELECT sum(d) AS s FROM e",
            "SELECT count(*) AS n FROM e",
            "SELECT min(c2) AS lo FROM wide WHERE c0 < 0",
            # LIMIT/OFFSET apply to the one-row answer
            "SELECT count(*) AS n FROM ten LIMIT 0",
            "SELECT count(*) AS n FROM ten OFFSET 1",
            "SELECT sum(d) AS s FROM ten LIMIT 1",
            # the executor's float accumulation, not an exact int sum
            "SELECT sum(d) AS s FROM dec",
            "SELECT sum(d) AS s FROM dec WHERE d > 12345.675",
        ],
    )
    def test_answers_match_scan_path(self, aggregates, sql):
        engine = self.engine(aggregates)
        fast = engine.execute(sql)
        assert engine.fabric_answered == 1
        assert engine.access_path == "fabric-aggregate"
        plain = RelationalMemoryEngine(aggregates).execute(sql)
        row = RowStoreEngine(aggregates).execute(sql)
        assert_identical(fast.result, plain.result)
        assert_identical(fast.result, row.result)

    def test_decimal_bounds_select_the_cpus_rows(self):
        """A pushed DECIMAL comparison keeps exactly the rows the CPU's
        comparison of decoded values keeps, for every operator, whether
        the literal falls between stored values or on one."""
        catalog = Catalog()
        decimal_table(catalog, "t", [5000, 5001, 4999, 12])
        pushdown = RelationalMemoryEngine(catalog, pushdown=True)
        aggregate = self.engine(catalog)
        row = RowStoreEngine(catalog)
        for literal in ("50.005", "50.01", "49.995", "0.125", "0.12", "50", "-1"):
            for op in ("<", "<=", ">", ">=", "=", "<>"):
                for where in (f"d {op} {literal}", f"{literal} {op} d"):
                    rows = f"SELECT k FROM t WHERE {where} ORDER BY k"
                    count = f"SELECT count(*) AS n FROM t WHERE {where}"
                    want = row.execute(rows).result
                    assert_identical(pushdown.execute(rows).result, want)
                    assert_identical(
                        aggregate.execute(count).result, row.execute(count).result
                    )

    def test_fabric_path_is_cheaper(self, wide):
        catalog, _ = wide
        sql = "SELECT sum(c1) AS s FROM wide WHERE c0 < 500000"
        engine = self.engine(catalog)
        fast = engine.execute(sql)
        plain = RelationalMemoryEngine(catalog).execute(sql)
        assert fast.cycles < plain.cycles
        assert engine.fabric_answered == 1
        assert "Fabric-Aggregate" in fast.plan

    def test_decimal_aggregate_rescaled(self):
        catalog, table = generate_lineitem(5_000)
        engine = RelationalMemoryEngine(
            catalog, pushdown=True, aggregate_pushdown=True
        )
        sql = "SELECT sum(l_extendedprice) AS s FROM lineitem WHERE l_quantity < 10"
        fast = engine.execute(sql)
        plain = RelationalMemoryEngine(catalog).execute(sql)
        assert engine.fabric_answered == 1
        assert fast.result.scalar() == pytest.approx(plain.result.scalar(), rel=1e-9)

    @pytest.mark.parametrize(
        "sql",
        [
            # grouping cannot reduce to one accumulator
            "SELECT c0, sum(c1) AS s FROM wide GROUP BY c0",
            # avg is not a single hardware accumulator here
            "SELECT avg(c1) AS a FROM wide",
            # expression argument (needs a multiplier, not a comparator)
            "SELECT sum(c1 * c2) AS s FROM wide",
            # two aggregates
            "SELECT sum(c1) AS s, count(*) AS n FROM wide",
            # residual predicate (column-vs-column is not pushable)
            "SELECT sum(c1) AS s FROM wide WHERE c0 < c2",
        ],
    )
    def test_falls_back_when_not_expressible(self, wide, sql):
        catalog, _ = wide
        engine = self.engine(catalog)
        res = engine.execute(sql)
        assert engine.fabric_answered == 0
        plain = RelationalMemoryEngine(catalog).execute(sql)
        assert results_equal(res.result, plain.result)

    def test_mvcc_visibility_respected(self, mvcc_catalog):
        from repro.db.mvcc import TransactionManager

        catalog, table = mvcc_catalog
        manager = TransactionManager()
        txn = manager.begin()
        for i in range(40):
            txn.insert(table, {"id": i, "balance": 10})
        manager.commit(txn)
        snapshot = manager.now
        txn2 = manager.begin()
        txn2.insert(table, {"id": 99, "balance": 1000})
        manager.commit(txn2)
        engine = RelationalMemoryEngine(
            catalog, pushdown=True, aggregate_pushdown=True
        )
        old = engine.execute(
            "SELECT sum(balance) AS s FROM accounts", snapshot_ts=snapshot
        )
        assert old.result.scalar() == 400
        assert engine.fabric_answered == 1


class TestLiteralFirstPushdown:
    @pytest.mark.parametrize(
        "literal_first,column_first",
        [
            ("500000 > c0", "c0 < 500000"),
            ("500000 >= c0", "c0 <= 500000"),
            ("500000 < c0", "c0 > 500000"),
            ("500000 <= c0", "c0 >= 500000"),
            ("235128 = c3", "c3 = 235128"),
            ("634429 <> c2 AND 900000 > c0", "c2 <> 634429 AND c0 < 900000"),
        ],
    )
    def test_same_rows_as_column_first_and_rowstore(
        self, wide, literal_first, column_first
    ):
        from repro.db.engines import RowStoreEngine

        catalog, _ = wide
        engine = RelationalMemoryEngine(catalog, pushdown=True)
        flipped = engine.execute(f"SELECT c0, c1 FROM wide WHERE {literal_first}")
        plain = engine.execute(f"SELECT c0, c1 FROM wide WHERE {column_first}")
        row = RowStoreEngine(catalog).execute(
            f"SELECT c0, c1 FROM wide WHERE {literal_first}"
        )
        assert flipped.result.nrows > 0
        assert results_equal(flipped.result, plain.result)
        assert results_equal(flipped.result, row.result)


class TestAutoConsumption:
    def test_auto_never_worse_than_either_mode(self, wide):
        catalog, _ = wide
        for k in (1, 4, 8):
            sql = projectivity_query(k)
            auto = RelationalMemoryEngine(catalog, consumption="auto").execute(sql)
            scalar = RelationalMemoryEngine(catalog, consumption="scalar").execute(sql)
            vector = RelationalMemoryEngine(catalog, consumption="vector").execute(sql)
            assert auto.cycles <= min(scalar.cycles, vector.cycles) + 1e-6
            assert results_equal(auto.result, scalar.result)

    def test_auto_records_choice(self, wide):
        catalog, _ = wide
        engine = RelationalMemoryEngine(catalog, consumption="auto")
        engine.execute(projectivity_query(4))
        assert engine.last_consumption in ("scalar", "vector")

    def test_auto_on_tpch_q6(self):
        catalog, _ = generate_lineitem(10_000)
        auto = RelationalMemoryEngine(catalog, consumption="auto").execute(Q6)
        scalar = RelationalMemoryEngine(catalog, consumption="scalar").execute(Q6)
        assert auto.cycles <= scalar.cycles
        assert results_equal(auto.result, scalar.result)
