"""A TPC-H-compatible ``lineitem`` generator plus Q1 and Q6.

The paper's Figure 7 runs TPC-H Q1 and Q6 over lineitem tables sized by
their *target-column* footprint. Since dbgen is unavailable offline, this
generator reproduces the columns, domains and correlations Q1/Q6 are
sensitive to (value ranges, date distributions, the returnflag/linestatus
dependence on dates, the Q6 predicate selectivity of a few percent).

Documented substitution (see DESIGN.md): proportional scaling — the
benchmark sweeps smaller absolute sizes than the paper's 11-692 MB but
the same geometry per row, so per-row costs and engine orderings are
unchanged.
"""

from __future__ import annotations

import datetime
from typing import Optional, Tuple

import numpy as np

from repro.db.catalog import Catalog
from repro.db.schema import Column, TableSchema
from repro.db.table import Table
from repro.db.types import CHAR, DATE, DECIMAL, INT32, INT64
from repro.distinct import distinct

_EPOCH = datetime.date(1970, 1, 1)


def _days(y: int, m: int, d: int) -> int:
    return (datetime.date(y, m, d) - _EPOCH).days


#: TPC-H date domain for l_shipdate.
SHIP_LO = _days(1992, 1, 2)
SHIP_HI = _days(1998, 12, 1)
#: Receipts after this date are still open (linestatus 'O').
CUTOFF_1995 = _days(1995, 6, 17)


def lineitem_schema(mvcc: bool = False) -> TableSchema:
    """The full 16-column TPC-H lineitem layout (fixed-width CHARs)."""
    return TableSchema(
        "lineitem",
        [
            Column("l_orderkey", INT64),
            Column("l_partkey", INT64),
            Column("l_suppkey", INT64),
            Column("l_linenumber", INT32),
            Column("l_quantity", DECIMAL(2)),
            Column("l_extendedprice", DECIMAL(2)),
            Column("l_discount", DECIMAL(2)),
            Column("l_tax", DECIMAL(2)),
            Column("l_returnflag", CHAR(1)),
            Column("l_linestatus", CHAR(1)),
            Column("l_shipdate", DATE),
            Column("l_commitdate", DATE),
            Column("l_receiptdate", DATE),
            Column("l_shipinstruct", CHAR(25)),
            Column("l_shipmode", CHAR(10)),
            Column("l_comment", CHAR(44)),
        ],
        row_align=8,
        mvcc=mvcc,
    )


_INSTRUCTIONS = (b"DELIVER IN PERSON", b"COLLECT COD", b"NONE", b"TAKE BACK RETURN")
_MODES = (b"REG AIR", b"AIR", b"RAIL", b"SHIP", b"TRUCK", b"MAIL", b"FOB")


def generate_lineitem(
    nrows: int,
    seed: int = 19920101,
    catalog: Optional[Catalog] = None,
    mvcc: bool = False,
) -> Tuple[Catalog, Table]:
    """Generate ``nrows`` lineitem rows with TPC-H-style distributions."""
    catalog = catalog or Catalog()
    schema = lineitem_schema(mvcc=mvcc)
    table = catalog.create_table(schema)
    rng = np.random.default_rng(seed)

    orderkey = np.sort(rng.integers(1, max(2, nrows // 4 * 8), nrows, dtype=np.int64))
    partkey = rng.integers(1, 200_000, nrows, dtype=np.int64)
    suppkey = rng.integers(1, 10_000, nrows, dtype=np.int64)
    linenumber = rng.integers(1, 8, nrows, dtype=np.int32)

    quantity = rng.integers(1, 51, nrows, dtype=np.int64)  # 1..50
    # retailprice-style base in cents; extendedprice = qty * price.
    unit_price_cents = rng.integers(90_000, 200_001, nrows, dtype=np.int64)
    extendedprice = quantity * unit_price_cents
    discount = rng.integers(0, 11, nrows, dtype=np.int64)  # 0.00..0.10
    tax = rng.integers(0, 9, nrows, dtype=np.int64)  # 0.00..0.08

    shipdate = rng.integers(SHIP_LO, SHIP_HI + 1, nrows, dtype=np.int32)
    commitdate = shipdate + rng.integers(-30, 31, nrows).astype(np.int32)
    receiptdate = shipdate + rng.integers(1, 31, nrows).astype(np.int32)

    # TPC-H semantics (dbgen): items *received* after the cutoff carry
    # returnflag 'N'; older ones split between returned 'R' and accepted
    # 'A'. linestatus keys off the *ship* date, so the narrow band shipped
    # before but received after the cutoff yields the small 'N'/'F' group
    # Q1 reports.
    not_returned = receiptdate > CUTOFF_1995
    returned = rng.random(nrows) < 0.5
    returnflag = np.where(not_returned, b"N", np.where(returned, b"R", b"A")).astype("S1")
    linestatus = np.where(shipdate > CUTOFF_1995, b"O", b"F").astype("S1")

    shipinstruct = rng.choice(np.array(_INSTRUCTIONS, dtype="S25"), nrows)
    shipmode = rng.choice(np.array(_MODES, dtype="S10"), nrows)
    comment = np.full(nrows, b"generated by repro tpch loader", dtype="S44")

    table.append_arrays(
        {
            "l_orderkey": orderkey,
            "l_partkey": partkey,
            "l_suppkey": suppkey,
            "l_linenumber": linenumber,
            "l_quantity": quantity * 100,  # DECIMAL(2) raw form
            "l_extendedprice": extendedprice,
            "l_discount": discount,
            "l_tax": tax,
            "l_returnflag": returnflag,
            "l_linestatus": linestatus,
            "l_shipdate": shipdate,
            "l_commitdate": commitdate,
            "l_receiptdate": receiptdate,
            "l_shipinstruct": shipinstruct,
            "l_shipmode": shipmode,
            "l_comment": comment,
        }
    )
    return catalog, table


def orders_schema(mvcc: bool = False) -> TableSchema:
    """The TPC-H orders layout (fixed-width CHARs, comment shortened)."""
    return TableSchema(
        "orders",
        [
            Column("o_orderkey", INT64),
            Column("o_custkey", INT64),
            Column("o_orderstatus", CHAR(1)),
            Column("o_totalprice", DECIMAL(2)),
            Column("o_orderdate", DATE),
            Column("o_orderpriority", CHAR(15)),
            Column("o_clerk", CHAR(15)),
            Column("o_shippriority", INT32),
            Column("o_comment", CHAR(32)),
        ],
        row_align=8,
        mvcc=mvcc,
    )


_PRIORITIES = (b"1-URGENT", b"2-HIGH", b"3-MEDIUM", b"4-NOT SPECIFIED", b"5-LOW")


def generate_orders(
    lineitem: Table,
    catalog: Optional[Catalog] = None,
    seed: int = 19920102,
) -> Table:
    """Generate the order parent of every distinct ``l_orderkey`` in
    ``lineitem`` (so the foreign key is total, as in TPC-H)."""
    catalog = catalog or Catalog()
    schema = orders_schema()
    table = catalog.create_table(schema)
    rng = np.random.default_rng(seed)

    orderkeys = distinct(lineitem.column("l_orderkey"))
    n = len(orderkeys)
    orderdate = rng.integers(SHIP_LO - 120, SHIP_HI - 30, n, dtype=np.int32)
    open_orders = rng.random(n) < 0.25
    status = np.where(open_orders, b"O", b"F").astype("S1")
    table.append_arrays(
        {
            "o_orderkey": orderkeys,
            "o_custkey": rng.integers(1, 30_000, n, dtype=np.int64),
            "o_orderstatus": status,
            "o_totalprice": rng.integers(100_000, 50_000_000, n, dtype=np.int64),
            "o_orderdate": orderdate,
            "o_orderpriority": rng.choice(np.array(_PRIORITIES, dtype="S15"), n),
            "o_clerk": np.full(n, b"Clerk#000000001", dtype="S15"),
            "o_shippriority": np.zeros(n, dtype=np.int32),
            "o_comment": np.full(n, b"generated order", dtype="S32"),
        }
    )
    return table


def generate_tpch(
    nrows_lineitem: int, seed: int = 19920101
) -> Tuple[Catalog, Table, Table]:
    """One catalog holding a consistent lineitem + orders pair."""
    catalog, lineitem = generate_lineitem(nrows_lineitem, seed=seed)
    orders = generate_orders(lineitem, catalog=catalog, seed=seed + 1)
    return catalog, lineitem, orders


#: A Q12-flavoured join: shipping-mode activity for line items received
#: in 1994, joined to their orders (simplified to this SQL dialect).
QJOIN = """
SELECT l_shipmode, count(*) AS n, sum(l_extendedprice) AS value
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
WHERE l_receiptdate >= date '1994-01-01'
  AND l_receiptdate < date '1995-01-01'
GROUP BY l_shipmode
ORDER BY l_shipmode
"""

#: TPC-H Q1 — the pricing summary report (CPU-heavy: eight aggregates and
#: two-key grouping; Figure 7a).
Q1 = """
SELECT l_returnflag, l_linestatus,
       sum(l_quantity) AS sum_qty,
       sum(l_extendedprice) AS sum_base_price,
       sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
       avg(l_quantity) AS avg_qty,
       avg(l_extendedprice) AS avg_price,
       avg(l_discount) AS avg_disc,
       count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= date '1998-12-01' - interval '90' day
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""

#: TPC-H Q6 — the forecasting revenue change query (data-movement-bound:
#: three cheap predicates, one product aggregate; Figure 7b).
Q6 = """
SELECT sum(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= date '1994-01-01'
  AND l_shipdate < date '1995-01-01'
  AND l_discount BETWEEN 0.05 AND 0.07
  AND l_quantity < 24
"""

#: Columns each query touches (for sizing the paper's x-axis, which is in
#: *target column* megabytes).
Q1_COLUMNS = (
    "l_returnflag",
    "l_linestatus",
    "l_quantity",
    "l_extendedprice",
    "l_discount",
    "l_tax",
    "l_shipdate",
)
Q6_COLUMNS = ("l_extendedprice", "l_discount", "l_quantity", "l_shipdate")


def rows_for_target_bytes(target_bytes: int, columns: Tuple[str, ...]) -> int:
    """Rows needed so the query's target columns occupy ``target_bytes``
    (how the paper parameterizes Figure 7's x-axis)."""
    schema = lineitem_schema()
    per_row = schema.bytes_of(columns)
    return max(1, target_bytes // per_row)
