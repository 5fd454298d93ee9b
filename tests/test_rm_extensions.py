"""Tests for the RM engine extensions: aggregation pushdown (§IV-B) and
the auto (hybrid) consumption mode (§III-B)."""

import numpy as np
import pytest

from repro.db.engines import RelationalMemoryEngine
from repro.db.exec import results_equal
from repro.workloads.synthetic import make_wide_table, projectivity_query
from repro.workloads.tpch import Q6, generate_lineitem


@pytest.fixture(scope="module")
def wide():
    return make_wide_table(nrows=20_000, seed=21)


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
        ],
    )
    def test_answers_match_scan_path(self, wide, sql):
        catalog, _ = wide
        fast = self.engine(catalog).execute(sql)
        plain = RelationalMemoryEngine(catalog).execute(sql)
        assert results_equal(fast.result, plain.result)

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
