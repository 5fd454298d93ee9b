"""Multi-way-join TPC-H shapes: Q3-class and Q14-class queries.

The vectorized executor's headline workloads (ISSUE 7): a three-table
shipping-priority query (Q3: lineitem ⋈ orders ⋈ customer with grouped
revenue, sorted and limited) and a promotion-revenue query (Q14:
lineitem ⋈ part with a conditional aggregate). Both run through the
same SQL front door as Q1/Q6, on every engine, in every exec mode.

The dimension generators extend :mod:`repro.workloads.tpch`: ``customer``
parents every ``o_custkey`` and ``part`` parents every ``l_partkey``, so
both foreign keys are total, as dbgen guarantees.

Dialect substitutions (documented, DESIGN.md §11): no ``LIKE``, so Q14's
``p_type LIKE 'PROMO%'`` becomes equality against one generated promo
type (``p_type`` is drawn from a small closed set, keeping the promo
fraction realistic); the final ``100 * promo / total`` ratio is left to
the caller since the dialect has no aggregate-over-aggregate arithmetic.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.db.catalog import Catalog
from repro.db.schema import Column, TableSchema
from repro.db.table import Table
from repro.db.types import CHAR, DECIMAL, INT32, INT64
from repro.distinct import distinct
from repro.workloads.tpch import generate_lineitem, generate_orders


def customer_schema(mvcc: bool = False) -> TableSchema:
    """The TPC-H customer layout (fixed-width CHARs, comment shortened)."""
    return TableSchema(
        "customer",
        [
            Column("c_custkey", INT64),
            Column("c_name", CHAR(18)),
            Column("c_address", CHAR(25)),
            Column("c_nationkey", INT32),
            Column("c_phone", CHAR(15)),
            Column("c_acctbal", DECIMAL(2)),
            Column("c_mktsegment", CHAR(10)),
            Column("c_comment", CHAR(32)),
        ],
        row_align=8,
        mvcc=mvcc,
    )


_SEGMENTS = (b"AUTOMOBILE", b"BUILDING", b"FURNITURE", b"MACHINERY", b"HOUSEHOLD")


def generate_customer(
    orders: Table,
    catalog: Optional[Catalog] = None,
    seed: int = 19920103,
) -> Table:
    """Generate the customer parent of every distinct ``o_custkey`` in
    ``orders`` (total foreign key, as in TPC-H)."""
    catalog = catalog or Catalog()
    schema = customer_schema()
    table = catalog.create_table(schema)
    rng = np.random.default_rng(seed)

    custkeys = distinct(orders.column("o_custkey"))
    n = len(custkeys)
    table.append_arrays(
        {
            "c_custkey": custkeys,
            "c_name": np.full(n, b"Customer#000000001", dtype="S18"),
            "c_address": np.full(n, b"generated address", dtype="S25"),
            "c_nationkey": rng.integers(0, 25, n, dtype=np.int32),
            "c_phone": np.full(n, b"11-111-111-1111", dtype="S15"),
            "c_acctbal": rng.integers(-99_999, 1_000_000, n, dtype=np.int64),
            "c_mktsegment": rng.choice(np.array(_SEGMENTS, dtype="S10"), n),
            "c_comment": np.full(n, b"generated customer", dtype="S32"),
        }
    )
    return table


def part_schema(mvcc: bool = False) -> TableSchema:
    """The TPC-H part layout (fixed-width CHARs, comment shortened)."""
    return TableSchema(
        "part",
        [
            Column("p_partkey", INT64),
            Column("p_name", CHAR(32)),
            Column("p_mfgr", CHAR(25)),
            Column("p_brand", CHAR(10)),
            Column("p_type", CHAR(25)),
            Column("p_size", INT32),
            Column("p_container", CHAR(10)),
            Column("p_retailprice", DECIMAL(2)),
            Column("p_comment", CHAR(14)),
        ],
        row_align=8,
        mvcc=mvcc,
    )


#: p_type values; one in six parts is the promo type Q14 keys on — in
#: line with dbgen, where PROMO* is one of five type prefixes.
PROMO_TYPE = b"PROMO ANODIZED TIN"
_TYPES = (
    PROMO_TYPE,
    b"STANDARD POLISHED BRASS",
    b"SMALL PLATED COPPER",
    b"MEDIUM BURNISHED NICKEL",
    b"LARGE BRUSHED STEEL",
    b"ECONOMY ANODIZED PEWTER",
)
_CONTAINERS = (b"SM CASE", b"MED BOX", b"LG DRUM", b"JUMBO JAR")


def generate_part(
    lineitem: Table,
    catalog: Optional[Catalog] = None,
    seed: int = 19920104,
) -> Table:
    """Generate the part parent of every distinct ``l_partkey`` in
    ``lineitem`` (total foreign key, as in TPC-H)."""
    catalog = catalog or Catalog()
    schema = part_schema()
    table = catalog.create_table(schema)
    rng = np.random.default_rng(seed)

    partkeys = distinct(lineitem.column("l_partkey"))
    n = len(partkeys)
    table.append_arrays(
        {
            "p_partkey": partkeys,
            "p_name": np.full(n, b"generated part", dtype="S32"),
            "p_mfgr": np.full(n, b"Manufacturer#1", dtype="S25"),
            "p_brand": np.full(n, b"Brand#11", dtype="S10"),
            "p_type": rng.choice(np.array(_TYPES, dtype="S25"), n),
            "p_size": rng.integers(1, 51, n, dtype=np.int32),
            "p_container": rng.choice(np.array(_CONTAINERS, dtype="S10"), n),
            "p_retailprice": rng.integers(90_000, 200_001, n, dtype=np.int64),
            "p_comment": np.full(n, b"generated", dtype="S14"),
        }
    )
    return table


def generate_tpch_analytics(
    nrows_lineitem: int, seed: int = 19920101
) -> Tuple[Catalog, Table, Table, Table, Table]:
    """One catalog holding a consistent lineitem + orders + customer +
    part star, sized by the fact table's row count."""
    catalog, lineitem = generate_lineitem(nrows_lineitem, seed=seed)
    orders = generate_orders(lineitem, catalog=catalog, seed=seed + 1)
    customer = generate_customer(orders, catalog=catalog, seed=seed + 2)
    part = generate_part(lineitem, catalog=catalog, seed=seed + 3)
    return catalog, lineitem, orders, customer, part


#: TPC-H Q3 — the shipping-priority query: a three-way join with grouped
#: revenue, ordered and limited. The hot shape for the vectorized join
#: chain (two probe phases feeding one grouped aggregation).
Q3 = """
SELECT l_orderkey,
       sum(l_extendedprice * (1 - l_discount)) AS revenue,
       o_orderdate,
       o_shippriority
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
WHERE c_mktsegment = 'BUILDING'
  AND o_orderdate < date '1995-03-15'
  AND l_shipdate > date '1995-03-15'
GROUP BY l_orderkey, o_orderdate, o_shippriority
ORDER BY revenue DESC, o_orderdate
LIMIT 10
"""

#: TPC-H Q14 — the promotion-effect query: join to part, split revenue by
#: a predicate on the joined side. ``LIKE 'PROMO%'`` is substituted with
#: equality against :data:`PROMO_TYPE` (the dialect has no LIKE); the
#: promo ratio is ``100 * promo_revenue / total_revenue``, computed by
#: the caller.
Q14 = """
SELECT sum((p_type = 'PROMO ANODIZED TIN') * l_extendedprice * (1 - l_discount))
           AS promo_revenue,
       sum(l_extendedprice * (1 - l_discount)) AS total_revenue
FROM lineitem
JOIN part ON l_partkey = p_partkey
WHERE l_shipdate >= date '1995-09-01'
  AND l_shipdate < date '1995-10-01'
"""

#: Fact-table columns each query touches (target-column sizing, like
#: Q1_COLUMNS / Q6_COLUMNS).
Q3_COLUMNS = ("l_orderkey", "l_extendedprice", "l_discount", "l_shipdate")
Q14_COLUMNS = ("l_partkey", "l_extendedprice", "l_discount", "l_shipdate")
