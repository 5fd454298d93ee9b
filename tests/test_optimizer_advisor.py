"""Tests for cost estimation, the optimizer, and the design advisor."""

import numpy as np
import pytest

from repro.db.advisor import (
    WorkloadQuery,
    advise_partitions,
    affinity_matrix,
    fabric_cost,
    partition_cost,
)
from repro.db.index import build_index
from repro.db.plan.cost import estimate_selectivity
from repro.db.plan.optimizer import Optimizer
from repro.db.plan import bind
from repro.db.sql import parse
from repro.db.engines import all_engines
from repro.workloads.synthetic import (
    VALUE_RANGE,
    make_wide_table,
    projection_selection_query,
    projectivity_query,
)


class TestSelectivityRules:
    def test_rules(self):
        from repro.db.expr import (
            And,
            Between,
            ColumnRef,
            Compare,
            Literal,
            Not,
            Or,
        )

        eq = Compare("=", ColumnRef("a"), Literal(1))
        rng = Compare("<", ColumnRef("a"), Literal(1))
        assert estimate_selectivity(None) == 1.0
        assert estimate_selectivity(eq) == 0.05
        assert estimate_selectivity(rng) == 0.33
        assert estimate_selectivity(And(terms=(rng, rng))) == pytest.approx(0.33**2)
        assert estimate_selectivity(Not(eq)) == pytest.approx(0.95)
        between = Between(ColumnRef("a"), Literal(1), Literal(2))
        assert estimate_selectivity(between) == 0.25
        either = Or(terms=(eq, eq))
        assert estimate_selectivity(either) == pytest.approx(1 - 0.95**2)


class TestEstimatesTrackMeasurements:
    """The estimator must *rank* access paths the way measured ledgers do."""

    @pytest.mark.parametrize(
        "sql_builder",
        [
            lambda: projectivity_query(1),
            lambda: projectivity_query(8),
            lambda: projection_selection_query(5, 3),
        ],
    )
    def test_ranking_agrees_with_measurement(self, sql_builder):
        catalog, _ = make_wide_table(nrows=60_000)
        sql = sql_builder()
        chosen = Optimizer(catalog).choose(sql).estimates
        estimates = {
            "row": chosen["scan"].cycles,
            "column": chosen["column-scan"].cycles,
            "rm": chosen["ephemeral-scan"].cycles,
        }
        measured = {
            name: engine.execute(sql).cycles
            for name, engine in all_engines(catalog).items()
        }
        est_order = sorted(estimates, key=estimates.get)
        meas_order = sorted(measured, key=measured.get)
        assert est_order[0] == meas_order[0]


def _mvcc_session(nrows=2_000, ncols=8, delete_below=0):
    """An MVCC table of committed rows, as SQL creates and fills it; rows
    whose last column is below ``delete_below`` are then deleted, so
    their versions stay in the image but are not visible."""
    from repro.db.sql.pipeline import Session

    rng = np.random.default_rng(7)
    session = Session()
    names = [f"c{i}" for i in range(ncols)]
    session.execute(
        f"CREATE TABLE m ({', '.join(f'{c} INT32' for c in names)})"
    )
    values = rng.integers(0, VALUE_RANGE, (nrows, ncols))
    session.execute(
        f"INSERT INTO m ({', '.join(names)}) VALUES "
        + ", ".join(f"({', '.join(map(str, row))})" for row in values)
    )
    if delete_below:
        session.execute(f"DELETE FROM m WHERE c{ncols - 1} < {delete_below}")
    return session


ENGINE_OF_PATH = {"scan": "row", "column-scan": "column", "ephemeral-scan": "rm"}


class TestEstimatesAreTheEnginesCharges:
    """Each access path is priced by the engine that executes it, so an
    estimate at the true row counts is that engine's ledger."""

    @pytest.mark.parametrize(
        "query",
        [
            "SELECT sum(c0 + c1 + c2) AS total FROM {}",
            "SELECT c1, c4 FROM {}",
            "SELECT c3, count(*) AS n FROM {} GROUP BY c3 ORDER BY c3",
        ],
    )
    def test_scan_estimates_equal_measured_cycles(self, query):
        session = _mvcc_session()
        mvcc_catalog = session.catalog
        plain_catalog, _ = make_wide_table(nrows=2_000)
        for catalog, name, snapshot in (
            (mvcc_catalog, "m", session.manager.now),
            (plain_catalog, "wide", None),
        ):
            sql = query.format(name)
            estimates = Optimizer(catalog).choose(sql).estimates
            engines = all_engines(catalog)
            for path, engine_name in ENGINE_OF_PATH.items():
                measured = engines[engine_name].execute(sql, snapshot_ts=snapshot)
                assert measured.visible_rows == 2_000
                assert estimates[path].cycles == measured.ledger.total_cycles, (
                    name, path,
                )

    @pytest.mark.parametrize("n_selection", [1, 2, 4])
    @pytest.mark.parametrize("mvcc", [False, True])
    def test_pricing_at_measured_counts_is_the_ledger(self, n_selection, mvcc):
        if mvcc:
            session = _mvcc_session(ncols=10, delete_below=VALUE_RANGE // 10)
            catalog, snapshot = session.catalog, session.manager.now
            sql = projection_selection_query(5, n_selection, name="m")
        else:
            catalog, _ = make_wide_table(nrows=5_000)
            snapshot = None
            sql = projection_selection_query(5, n_selection)
        bound_q = bind(parse(sql), catalog)
        pricers = Optimizer(catalog).pricers
        engines = all_engines(catalog)
        for path, engine_name in ENGINE_OF_PATH.items():
            measured = engines[engine_name].execute(bound_q, snapshot_ts=snapshot)
            assert 0 < measured.qualifying_rows < measured.visible_rows
            assert (measured.visible_rows < bound_q.table.nrows) == mvcc
            priced = pricers[path].price(
                bound_q, measured.visible_rows, measured.qualifying_rows, mvcc
            )
            assert priced == measured.ledger, path

    def test_price_follows_the_engines_options(self):
        from repro.db.engines import (
            ColumnStoreEngine,
            RelationalMemoryEngine,
            RowStoreEngine,
        )

        session = _mvcc_session(ncols=10, delete_below=VALUE_RANGE // 10)
        catalog, snapshot = session.catalog, session.manager.now
        table = catalog.table("m")
        key = int(table.column_values("c6")[17])
        catalog.add_index("m", "c6", build_index(table, "c6"))
        engines = [
            RowStoreEngine(catalog, use_indexes=True, threads=2),
            ColumnStoreEngine(catalog, threads=4),
            RelationalMemoryEngine(
                catalog, pushdown=True, consumption="auto", threads=2
            ),
            RelationalMemoryEngine(catalog, pushdown=True, aggregate_pushdown=True),
        ]
        for sql in (
            projection_selection_query(5, 2, name="m"),
            f"SELECT c1, c2 FROM m WHERE c6 = {key} AND c7 < 500000",
            # Few rows emitted: the fabric's production is exposed, and
            # with eight comparators per row it is the fabric's own work.
            f"SELECT c1 FROM m WHERE c6 < {VALUE_RANGE // 50}",
            "SELECT c1 FROM m WHERE c6 < 20000 AND "
            + " AND ".join(f"c6 <> {v}" for v in range(1, 8)),
            "SELECT c1 FROM m",
            # The fabric reduces it to one accumulator.
            f"SELECT sum(c1) AS s FROM m WHERE c6 < {VALUE_RANGE // 2}",
        ):
            bound_q = bind(parse(sql), catalog)
            for engine in engines:
                measured = engine.execute(bound_q, snapshot_ts=snapshot)
                priced = engine.price(
                    bound_q, measured.visible_rows, measured.qualifying_rows, True
                )
                assert priced == measured.ledger, (engine.name, sql)


    def test_fabric_refills_follow_the_visible_rows(self):
        """Past the fabric's buffer, refills depend on how many rows the
        fabric emits at the snapshot, not on the slots it scans."""
        from repro.core.ledger import CostLedger
        from repro.db.catalog import Catalog
        from repro.db.schema import Column, TableSchema
        from repro.db.types import INT32

        catalog = Catalog()
        table = catalog.create_table(TableSchema(
            "m", [Column(f"c{i}", INT32) for i in range(10)], mvcc=True
        ))
        nrows = 60_000
        table.append_arrays(
            {f"c{i}": np.arange(nrows, dtype=np.int32) for i in range(10)}
        )
        for slot in range(nrows):
            table.stamp_begin(slot, 1)
            if slot % 3 == 0:
                table.stamp_end(slot, 2)
        sql = "SELECT " + ", ".join(f"c{i}" for i in range(10)) + " FROM m"
        bound_q = bind(parse(sql), catalog)
        rm = Optimizer(catalog).pricers["ephemeral-scan"]
        before = all_engines(catalog)["rm"].execute(bound_q, snapshot_ts=1)
        after = all_engines(catalog)["rm"].execute(bound_q, snapshot_ts=2)
        assert before.ledger.buckets[CostLedger.STALL] > 0
        assert after.ledger.buckets[CostLedger.STALL] == 0
        for measured in (before, after):
            priced = rm.price(
                bound_q, measured.visible_rows, measured.qualifying_rows, True
            )
            assert priced == measured.ledger


class TestOptimizer:
    def test_fastest_solution_constructed(self):
        catalog, _ = make_wide_table(nrows=60_000)
        decision = Optimizer(catalog).choose(projectivity_query(8))
        assert decision.winner == "ephemeral-scan"
        assert decision.speedup_vs_worst > 1
        assert "Ephemeral" in decision.plan

    def test_fabric_off_falls_back(self):
        catalog, _ = make_wide_table(nrows=60_000)
        decision = Optimizer(catalog, fabric_available=False).choose(
            projectivity_query(8)
        )
        assert decision.winner in ("scan", "column-scan")
        assert "ephemeral-scan" not in decision.estimates

    def test_index_chosen_for_point_query(self):
        catalog, table = make_wide_table(nrows=60_000)
        catalog.add_index("wide", "c0", build_index(table, "c0"))
        decision = Optimizer(catalog).choose(
            "SELECT c1 FROM wide WHERE c0 = 12345"
        )
        assert decision.winner == "index(c0)"

    def test_index_chosen_for_literal_first_point_query(self):
        catalog, table = make_wide_table(nrows=60_000)
        catalog.add_index("wide", "c0", build_index(table, "c0"))
        decision = Optimizer(catalog).choose(
            "SELECT c1 FROM wide WHERE 12345 = c0"
        )
        assert "index(c0)" in decision.estimates
        assert decision.winner == "index(c0)"

    def test_index_not_offered_for_range(self):
        catalog, table = make_wide_table(nrows=60_000)
        catalog.add_index("wide", "c0", build_index(table, "c0"))
        decision = Optimizer(catalog).choose(
            "SELECT c1 FROM wide WHERE c0 < 12345"
        )
        assert "index(c0)" not in decision.estimates

    def test_accepts_bound_query(self):
        catalog, _ = make_wide_table(nrows=10_000)
        bound_q = bind(parse(projectivity_query(2)), catalog)
        decision = Optimizer(catalog).choose(bound_q)
        assert decision.winner in decision.estimates


class TestAdvisor:
    def schema(self):
        from repro.workloads.synthetic import wide_schema

        return wide_schema(ncols=8, row_bytes=32)

    def test_affinity_matrix_counts_coaccess(self):
        schema = self.schema()
        workload = [WorkloadQuery(("c0", "c1"), 3.0), WorkloadQuery(("c1", "c2"), 1.0)]
        aff = affinity_matrix(schema, workload)
        assert aff[("c0", "c1")] == 3.0
        assert aff[("c1", "c2")] == 1.0
        assert ("c0", "c2") not in aff

    def test_partition_cost_full_fragments(self):
        schema = self.schema()
        parts = [frozenset({"c0", "c1"}), frozenset({"c2"})]
        workload = [WorkloadQuery(("c0",), 1.0)]
        # Reads the whole {c0,c1} fragment: 8 bytes per row.
        assert partition_cost(schema, parts, workload, nrows=10) == 80

    def test_multi_fragment_stitch_surcharge(self):
        schema = self.schema()
        parts = [frozenset({"c0"}), frozenset({"c1"})]
        workload = [WorkloadQuery(("c0", "c1"), 1.0)]
        cost = partition_cost(schema, parts, workload, nrows=10)
        assert cost == 10 * 8 + 10 * 8  # two 4B fragments + 8B/row stitch

    def test_fabric_cost_is_exact_bytes(self):
        schema = self.schema()
        workload = [WorkloadQuery(("c0", "c3"), 2.0)]
        assert fabric_cost(schema, workload, nrows=100) == 2 * 100 * 8

    def test_advisor_groups_coaccessed_columns(self):
        schema = self.schema()
        workload = [
            WorkloadQuery(("c0", "c1"), 20.0),
            WorkloadQuery(("c2", "c3"), 10.0),
        ]
        report = advise_partitions(schema, workload, nrows=1000)
        groups = {tuple(sorted(p)) for p in report.partitions}
        assert ("c0", "c1") in groups
        assert ("c2", "c3") in groups

    def test_fabric_never_worse_than_any_layout(self):
        schema = self.schema()
        workload = [
            WorkloadQuery(("c0", "c1"), 10.0),
            WorkloadQuery(("c1", "c2", "c5"), 5.0),
            WorkloadQuery(tuple(f"c{i}" for i in range(8)), 1.0),
        ]
        report = advise_partitions(schema, workload, nrows=1000)
        assert report.fabric_cost <= report.partitioned_cost
        assert report.fabric_cost <= report.row_layout_cost
        assert report.fabric_cost <= report.column_layout_cost

    def test_advisor_beats_naive_layouts_on_skewed_workload(self):
        schema = self.schema()
        workload = [WorkloadQuery(("c0", "c1"), 100.0), WorkloadQuery(("c7",), 1.0)]
        report = advise_partitions(schema, workload, nrows=1000)
        assert report.partitioned_cost <= report.row_layout_cost
        assert report.partitioned_cost <= report.column_layout_cost

    def test_summary_renders(self):
        schema = self.schema()
        report = advise_partitions(schema, [WorkloadQuery(("c0",), 1.0)], nrows=10)
        assert "fabric" in report.summary()
