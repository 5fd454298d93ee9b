"""SQL into the scatter-gather dialect: :func:`dist_plan_for` and the
TPC-H plans it builds.

The shard layer selects with the fabric's comparators, split off the
WHERE clause by the same function the RM engine's pushdown uses, so a
DECIMAL column compares its stored ints against a scaled constant and an
aggregate factor over it is probed in decoded units.
"""

import datetime

import pytest

from repro.core.selection import CompareOp, FabricPredicate
from repro.db.catalog import Catalog
from repro.db.engines import RelationalMemoryEngine, all_engines
from repro.db.expr import conjuncts, fabric_comparators
from repro.db.plan.binder import bind
from repro.db.schema import Column, TableSchema
from repro.db.sharding import ShardedTable
from repro.db.sql.parser import parse_statement
from repro.db.types import CHAR, DECIMAL, INT32
from repro.dist import (
    AggSpec,
    AggTerm,
    DistConfig,
    DistPlan,
    ShardCluster,
    dist_plan_for,
    execute_plan,
    q1_plan,
    q6_plan,
)
from repro.errors import PlanError
from repro.workloads.tpch import generate_lineitem


def _day(y, m, d):
    return (datetime.date(y, m, d) - datetime.date(1970, 1, 1)).days


def _hand_q1(key_low=None, key_high=None):
    """Q1 as it was written by hand before the plans came from SQL."""
    ext = AggTerm("l_extendedprice")
    one_minus_disc = AggTerm("l_discount", coeff=-1, const=100)
    one_plus_tax = AggTerm("l_tax", coeff=1, const=100)
    return DistPlan(
        table="lineitem",
        key_column="l_orderkey",
        key_low=key_low,
        key_high=key_high,
        predicates=(
            FabricPredicate("l_shipdate", CompareOp.LE, _day(1998, 12, 1) - 90),
        ),
        group_by=("l_returnflag", "l_linestatus"),
        aggregates=(
            AggSpec("sum_qty", "sum", (AggTerm("l_quantity"),)),
            AggSpec("sum_base_price", "sum", (ext,)),
            AggSpec("sum_disc_price", "sum", (ext, one_minus_disc)),
            AggSpec("sum_charge", "sum", (ext, one_minus_disc, one_plus_tax)),
            AggSpec("count_order", "count"),
        ),
    )


def _hand_q6(key_low=None, key_high=None):
    """Q6 as it was written by hand before the plans came from SQL."""
    return DistPlan(
        table="lineitem",
        key_column="l_orderkey",
        key_low=key_low,
        key_high=key_high,
        predicates=(
            FabricPredicate("l_shipdate", CompareOp.GE, _day(1994, 1, 1)),
            FabricPredicate("l_shipdate", CompareOp.LE, _day(1995, 1, 1) - 1),
            FabricPredicate("l_discount", CompareOp.GE, 5),
            FabricPredicate("l_discount", CompareOp.LE, 7),
            FabricPredicate("l_quantity", CompareOp.LT, 2400),
        ),
        aggregates=(
            AggSpec(
                "revenue",
                "sum",
                (AggTerm("l_extendedprice"), AggTerm("l_discount")),
            ),
        ),
    )


@pytest.mark.parametrize("make, hand", [(q1_plan, _hand_q1), (q6_plan, _hand_q6)])
def test_tpch_plans_from_sql_match_the_hand_built_ones(make, hand):
    _, table = generate_lineitem(3000, seed=7)
    keys = table.column("l_orderkey")
    lo, hi = int(keys[len(keys) // 4]), int(keys[3 * len(keys) // 4])
    sharded = ShardedTable.split(table, "l_orderkey", 4)
    with ShardCluster(sharded, DistConfig(inline=True)) as cluster:
        for bounds in ((None, None), (lo, hi)):
            for run in (lambda p: execute_plan(table, p), cluster.query):
                want, got = run(hand(*bounds)), run(make(*bounds))
                assert got.to_bytes() == want.to_bytes()
                assert got.ledger.buckets == want.ledger.buckets


# ----------------------------------------------------------------------
# DECIMAL columns through dist_plan_for.
# ----------------------------------------------------------------------
def _decimal_catalog():
    catalog = Catalog()
    table = catalog.create_table(
        TableSchema(
            "t",
            [
                Column("id", INT32),
                Column("e", INT32),
                Column("d", DECIMAL(2)),
                Column("tag", CHAR(4)),
            ],
        )
    )
    for i, (e, d) in enumerate(((3, 0.05), (4, 5.00), (5, 7.25))):
        table.append_row({"id": i, "e": e, "d": d, "tag": "oak"})
    return catalog, table


def _plan(sql, catalog):
    return dist_plan_for(bind(parse_statement(sql), catalog), "id")


def _engine_answers(catalog, sql):
    engines = dict(all_engines(catalog))
    engines["rm-pushdown"] = RelationalMemoryEngine(
        catalog, pushdown=True, aggregate_pushdown=True
    )
    return {
        name: engine.execute(sql).result.rows()
        for name, engine in engines.items()
    }


def test_decimal_predicate_compares_decoded_values():
    catalog, table = _decimal_catalog()
    sql = "SELECT count(*) AS n FROM t WHERE d >= 5"
    plan = _plan(sql, catalog)
    assert plan.predicates == (FabricPredicate("d", CompareOp.GE, 500),)
    assert execute_plan(table, plan).groups == [((), [2])]
    assert set(map(tuple, _engine_answers(catalog, sql).values())) == {((2,),)}


def test_decimal_factor_is_probed_in_decoded_units():
    catalog, table = _decimal_catalog()
    sql = "SELECT sum(e * (1 - d)) AS s FROM t"
    plan = _plan(sql, catalog)
    assert plan.aggregates[0].terms == (
        AggTerm("e"),
        AggTerm("d", coeff=-1, const=100),
    )
    # 3·(100 − 5) + 4·(100 − 500) + 5·(100 − 725), in hundredths.
    assert execute_plan(table, plan).groups == [((), [-4440])]
    for rows in _engine_answers(catalog, sql).values():
        assert round(rows[0][0] * 100) == -4440


def test_decimal_between_and_literal_bounds():
    catalog, table = _decimal_catalog()
    plan = _plan("SELECT count(*) AS n FROM t WHERE d BETWEEN 0.05 AND 5", catalog)
    assert plan.predicates == (
        FabricPredicate("d", CompareOp.GE, 5),
        FabricPredicate("d", CompareOp.LE, 500),
    )
    assert execute_plan(table, plan).groups == [((), [2])]


@pytest.mark.parametrize(
    "where",
    [
        "tag = 'oak'",  # CHAR: no comparator
        "e + 1 > 3",  # not column-vs-literal
        "e < 2 OR e > 4",  # not a conjunction of comparators
        "d = 0.055",  # no stored int decodes to it
        "e BETWEEN 1 AND d",  # BETWEEN bound is not a literal
    ],
)
def test_a_residual_conjunct_is_a_plan_error(where):
    catalog, _ = _decimal_catalog()
    with pytest.raises(PlanError, match="cannot push down"):
        _plan(f"SELECT count(*) AS n FROM t WHERE {where}", catalog)


def test_every_order_by_is_a_plan_error():
    catalog, _ = _decimal_catalog()
    with pytest.raises(PlanError, match="ORDER BY"):
        _plan(
            "SELECT id AS k, count(*) AS n FROM t GROUP BY id ORDER BY k",
            catalog,
        )


@pytest.mark.parametrize(
    "agg", ["sum(d / 3)", "sum(0.5 * d)", "sum(d * (e + d))", "avg(d)"]
)
def test_a_non_integer_affine_factor_is_a_plan_error(agg):
    catalog, _ = _decimal_catalog()
    with pytest.raises(PlanError):
        _plan(f"SELECT {agg} AS s FROM t", catalog)


def test_fabric_comparators_split():
    catalog, table = _decimal_catalog()
    bound = bind(
        parse_statement(
            "SELECT id FROM t WHERE d > 0.05 AND 4 <= e AND tag = 'oak'"
        ),
        catalog,
    )
    pushed, residual = fabric_comparators(bound.where_conjuncts, table.schema)
    assert pushed == [
        FabricPredicate("d", CompareOp.GT, 5),
        FabricPredicate("e", CompareOp.GE, 4),
    ]
    assert residual == [conjuncts(bound.where)[2]]
