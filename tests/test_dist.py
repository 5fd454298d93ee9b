"""Fault-domain scatter-gather: fragments, replicas, and the cluster.

The load-bearing contract is *bit-identity*: the distributed answer —
payload bytes and charged ledger cycles both — must equal serial
execution at every shard count, under every recoverable fault. The
fault-path tests drive kills, partitions, crashes, and stalls through
the same coordinator entry points the chaos harness uses.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp_st

from repro.chaos import table_visible_rows
from repro.core.ledger import CostLedger
from repro.core.selection import CompareOp
from repro.db.mvcc import TransactionManager
from repro.db.sharding import ShardedTable
from repro.db.table import Table
from repro.db.wal import WriteAheadLog, recover
from repro.dist import (
    AggSpec,
    AggTerm,
    DistConfig,
    DistPlan,
    DistPredicate,
    ShardCluster,
    ShardReplica,
    execute_fragment,
    execute_plan,
    merge_partials,
    q1_plan,
    q6_plan,
)
from repro.errors import PartialResultError, WalCorruptionError
from repro.faults import SHARD_CRASH, SHARD_PARTITION, SHARD_STALL
from repro.workloads.htap import orders_schema
from repro.workloads.tpch import generate_lineitem


def lineitem_table(rows=2000, seed=11):
    _, table = generate_lineitem(rows, seed=seed)
    return table


ORDERS_PLAN = DistPlan(
    table="orders",
    key_column="o_id",
    predicates=(DistPredicate("o_customer", CompareOp.LE, 40),),
    group_by=("o_status",),
    aggregates=(
        AggSpec("sum_amount", "sum", (AggTerm("o_amount"),)),
        AggSpec("max_amount", "max", (AggTerm("o_amount"),)),
        AggSpec("n", "count"),
    ),
)


def durable_cluster(config=None, n=120, seed=5):
    cluster = ShardCluster(
        ShardedTable(orders_schema(), "o_id", [100, 200, 300]),
        config or DistConfig(inline=True),
        durable=True,
    )
    cluster.start()
    rng = np.random.default_rng(seed)
    for _ in range(n):
        cluster.insert(
            {
                "o_id": int(rng.integers(0, 400)),
                "o_customer": int(rng.integers(1, 50)),
                "o_amount": float(rng.integers(1, 20_000)) / 100.0,
                "o_status": int(rng.integers(0, 3)),
            }
        )
    return cluster


class TestFragment:
    def test_q6_matches_raw_numpy_brute_force(self):
        table = lineitem_table()
        plan = q6_plan()
        partial = execute_fragment(table, plan, snapshot_ts=None)
        result = merge_partials([partial], plan, CostLedger())

        ship = table.column("l_shipdate")
        disc = table.column("l_discount")
        qty = table.column("l_quantity")
        ext = table.column("l_extendedprice")
        mask = np.ones(len(ship), dtype=bool)
        for pred in plan.predicates:
            col = {"l_shipdate": ship, "l_discount": disc, "l_quantity": qty}[
                pred.column
            ]
            mask &= pred.op.apply(col, pred.value)
        expected = int(
            np.sum(ext[mask].astype(object) * disc[mask].astype(object))
        )
        assert result.groups == [((), [expected])]
        assert result.rows_qualifying == int(mask.sum())
        assert result.rows_scanned == table.nrows

    def test_key_range_restricts_rows(self):
        table = lineitem_table()
        keys = table.column("l_orderkey")
        lo, hi = int(np.quantile(keys, 0.3)), int(np.quantile(keys, 0.6))
        plan = q6_plan(key_low=lo, key_high=hi)
        partial = execute_fragment(table, plan, snapshot_ts=None)
        in_range = int(((keys >= lo) & (keys <= hi)).sum())
        assert partial.rows_qualifying <= in_range

    def test_merge_values_are_python_ints(self):
        table = lineitem_table()
        plan = q1_plan()
        res = execute_plan(table, plan)
        for key, values in res.groups:
            assert all(type(v) is int for v in values)
            assert all(type(k) is not np.int64 for k in key)


class TestReplica:
    def _workload(self, n=40, seed=3):
        schema = orders_schema()
        table = Table(schema)
        wal = WriteAheadLog()
        manager = TransactionManager(wal=wal)
        rng = np.random.default_rng(seed)
        for i in range(n):
            txn = manager.begin()
            txn.insert(
                table,
                {
                    "o_id": i,
                    "o_customer": int(rng.integers(1, 50)),
                    "o_amount": float(rng.integers(1, 9_000)) / 100.0,
                    "o_status": int(rng.integers(0, 3)),
                },
            )
            if rng.random() < 0.2:
                manager.abort(txn)
            else:
                manager.commit(txn)
        wal.flush()
        return schema, table, wal, manager

    def test_full_image_matches_recover(self):
        schema, table, wal, manager = self._workload()
        image = wal.device.media()
        replica = ShardReplica(schema=schema)
        replica.boot(image)
        assert replica.applied_lsn == wal.durable_bytes
        assert table_visible_rows(
            replica.table, manager.now
        ) == table_visible_rows(table, manager.now)
        from repro.storage.ssd import SsdLog

        recovered = recover(
            WriteAheadLog(device=SsdLog(initial=image)),
            schemas={schema.name: schema},
        )
        assert table_visible_rows(
            recovered.tables[schema.name], manager.now
        ) == table_visible_rows(replica.table, manager.now)

    def test_split_deltas_equal_one_boot(self):
        schema, table, wal, manager = self._workload()
        image = wal.device.media()
        # Split on a record boundary found by scanning the prefix.
        from repro.db.wal import scan_records

        records, _ = scan_records(image)
        cut = records[len(records) // 2][1]
        replica = ShardReplica(schema=schema)
        assert replica.apply_delta(image[:cut], 0)
        assert replica.apply_delta(image[cut:], cut)
        assert table_visible_rows(
            replica.table, manager.now
        ) == table_visible_rows(table, manager.now)

    def test_gap_and_duplicate_deltas_rejected(self):
        schema, _, wal, _ = self._workload(n=10)
        image = wal.device.media()
        replica = ShardReplica(schema=schema)
        assert not replica.apply_delta(image, 16)  # gap
        assert replica.apply_delta(image, 0)
        assert not replica.apply_delta(image, 0)  # duplicate
        assert replica.applied_lsn == len(image)

    def test_truncated_delta_raises_typed_corruption(self):
        schema, _, wal, _ = self._workload(n=10)
        image = wal.device.media()
        replica = ShardReplica(schema=schema)
        with pytest.raises(WalCorruptionError):
            replica.apply_delta(image[:-3], 0)


class TestBenchCluster:
    @pytest.mark.parametrize("nshards", [1, 2, 8])
    def test_q1_q6_bit_identical_to_serial(self, nshards):
        table = lineitem_table()
        sharded = ShardedTable.split(table, "l_orderkey", nshards)
        with ShardCluster(sharded, DistConfig(inline=True)) as cluster:
            for plan in (q1_plan(), q6_plan()):
                serial = execute_plan(table, plan)
                res = cluster.query(plan)
                assert res.to_bytes() == serial.to_bytes()
                assert res.ledger.buckets == serial.ledger.buckets

    def test_key_range_prunes_shards(self):
        table = lineitem_table()
        sharded = ShardedTable.split(table, "l_orderkey", 4)
        lo, hi = sharded.shard_bounds(1)
        with ShardCluster(sharded, DistConfig(inline=True)) as cluster:
            res = cluster.query(q6_plan(key_low=lo, key_high=hi))
            assert res.stats.shards_planned == 1
            serial = execute_plan(table, q6_plan(key_low=lo, key_high=hi))
            assert res.groups == serial.groups

    def test_process_transport_matches_inline(self):
        table = lineitem_table()
        plan = q6_plan()
        serial = execute_plan(table, plan)
        with ShardCluster(
            ShardedTable.split(table, "l_orderkey", 2), DistConfig(deadline_s=30.0)
        ) as cluster:
            res = cluster.query(plan)
        assert res.to_bytes() == serial.to_bytes()


class TestDurableCluster:
    def test_query_matches_run_serial(self):
        cluster = durable_cluster()
        try:
            res = cluster.query(ORDERS_PLAN)
            assert res.to_bytes() == cluster.run_serial(ORDERS_PLAN).to_bytes()
            assert not res.degraded
        finally:
            cluster.close()

    def test_kill_restarts_and_recovers_from_wal(self):
        cluster = durable_cluster()
        try:
            serial = cluster.run_serial(ORDERS_PLAN)
            for i in range(4):
                cluster.kill_shard(i)
                res = cluster.query(ORDERS_PLAN)
                assert res.to_bytes() == serial.to_bytes()
            assert cluster.stats.restarts_total == 4
            assert cluster.stats.recoveries_total == 4
            assert cluster.stats.recovered_bytes_total > 0
        finally:
            cluster.close()

    def test_dropped_delta_caught_by_lsn_fence(self):
        cluster = durable_cluster(
            DistConfig(
                inline=True,
                fault_rates={SHARD_PARTITION: 1.0},
                fault_max=1,
                fault_shards=frozenset({1}),
                fault_incarnations=frozenset({0}),
            )
        )
        try:
            res = cluster.query(ORDERS_PLAN)
            assert res.to_bytes() == cluster.run_serial(ORDERS_PLAN).to_bytes()
            assert cluster.stats.stale_fences_total >= 1
            assert cluster.stats.restarts_total >= 1
        finally:
            cluster.close()

    def test_crash_on_exec_recovers(self):
        cluster = durable_cluster(
            DistConfig(
                inline=True,
                fault_rates={SHARD_CRASH: 1.0},
                fault_max=1,
                fault_shards=frozenset({2}),
                fault_incarnations=frozenset({0}),
            )
        )
        try:
            res = cluster.query(ORDERS_PLAN)
            assert res.to_bytes() == cluster.run_serial(ORDERS_PLAN).to_bytes()
            assert cluster.stats.restarts_total >= 1
        finally:
            cluster.close()

    def test_persistent_crash_degrades_to_typed_partial(self):
        config = DistConfig(
            inline=True,
            deadline_s=0.5,
            retries=1,
            fault_rates={SHARD_CRASH: 1.0},
            fault_shards=frozenset({3}),
        )
        cluster = durable_cluster(config)
        try:
            bounds = cluster.sharded.shard_bounds(3)
            with pytest.raises(PartialResultError) as err:
                cluster.query(ORDERS_PLAN)
            assert err.value.missing_ranges == (bounds,)
            res = cluster.query(ORDERS_PLAN, allow_partial=True)
            assert res.degraded and res.missing_ranges == (bounds,)
            lo, _ = bounds
            clipped = DistPlan(
                table=ORDERS_PLAN.table,
                key_column=ORDERS_PLAN.key_column,
                key_high=lo - 1,
                predicates=ORDERS_PLAN.predicates,
                group_by=ORDERS_PLAN.group_by,
                aggregates=ORDERS_PLAN.aggregates,
            )
            assert res.groups == cluster.run_serial(clipped).groups
        finally:
            cluster.close()

    def test_stalled_shard_loses_to_hedge(self):
        config = DistConfig(
            deadline_s=10.0,
            hedge_after_s=0.1,
            stall_s=1.5,
            fault_rates={SHARD_STALL: 1.0},
            fault_max=1,
            fault_shards=frozenset({0}),
            fault_incarnations=frozenset({0}),
        )
        cluster = durable_cluster(config, n=60)
        try:
            res = cluster.query(ORDERS_PLAN)
            assert res.to_bytes() == cluster.run_serial(ORDERS_PLAN).to_bytes()
            assert cluster.stats.hedges_total >= 1
            assert cluster.stats.hedge_wins_total >= 1
        finally:
            cluster.close()


class TestShardCountInvariance:
    """Satellite 3: payload and ledger bit-identity across shard counts."""

    @given(seed=hyp_st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=8, deadline=None)
    def test_serial_2_and_8_shards_bit_identical(self, seed):
        _, table = generate_lineitem(800, seed=seed)
        for plan in (q1_plan(), q6_plan()):
            serial = execute_plan(table, plan)
            for nshards in (2, 8):
                sharded = ShardedTable.split(table, "l_orderkey", nshards)
                with ShardCluster(sharded, DistConfig(inline=True)) as c:
                    res = c.query(plan)
                assert res.to_bytes() == serial.to_bytes()
                assert res.ledger.buckets == serial.ledger.buckets
                # Every dist charge is an exact integer cycle count —
                # fractional cycles would break cross-shard bit-identity.
                assert all(
                    float(v).is_integer()
                    for v in res.ledger.buckets.values()
                )
