"""Differential SQL fuzzing: every engine, one answer, or a violation.

One seeded run drives a random statement stream — DML (autocommit and
explicit transactions), joins, grouping, subqueries, DISTINCT,
ORDER BY/LIMIT/OFFSET — through four independent evaluations:

- the **primary** session (all DML flows through it),
- a **twin** session (fresh engine over the same catalog — its ledger
  buckets must match the primary's exactly, the determinism check),
- the bound-level :func:`~repro.db.exec.run_volcano` reference, called
  directly on the visible rows of ``t``,
- the :class:`~repro.db.sql.oracle.SqlOracle` (dict rows, no numpy,
  no shared executor code).

Every SELECT must come back *byte-identical* to the Volcano reference
(same names, dtypes and column bytes), with bucket-identical cost
ledgers between the twins, and value-identical to the oracle. SELECTs
with subqueries bind only inside a session (which folds them first), so
they skip the reference and keep the oracle check. Statements
that fit the scatter-gather dialect additionally run through a real
:class:`~repro.dist.ShardCluster` (inline workers over a range-sharded
copy of the visible rows) and must merge to the same groups.

With ``crash_points > 0`` the run attaches a WAL, journals the oracle's
visible rows at every commit offset, and replays the chaos crash-point
probe (:func:`repro.chaos.probe_crash_points`) over record boundaries
and torn tails — SQL-issued DML must survive crash/recovery exactly like
the native MVCC workload does.

``python -m repro.chaos --mode sql-fuzz`` wraps this for CI;
``tests/test_sql_fuzz.py`` drives the same entry point under hypothesis.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chaos import (
    ChaosReportBase,
    WorkloadJournal,
    _freeze,
    probe_crash_points,
    table_visible_rows,
)
from repro.core.mvcc_filter import visible_mask
from repro.db.catalog import Catalog
from repro.db.exec import run_volcano
from repro.db.mvcc import TransactionManager
from repro.db.plan.binder import bind
from repro.db.schema import Column, TableSchema
from repro.db.sharding import ShardedTable
from repro.db.sql.oracle import SqlOracle
from repro.db.sql.parser import parse_statement
from repro.db.sql.pipeline import Session
from repro.db.types import CHAR, INT32
from repro.db.wal import SsdLog, WriteAheadLog
from repro.dist import DistConfig, ShardCluster, dist_plan_for
from repro.errors import PlanError, ReproError

TAGS = ("ash", "birch", "cedar", "elm", "fir", "oak", "pine")

#: The mutable table every DML statement targets.
T_COLUMNS = ("id", "v", "w", "tag")
#: The static side table joins and IN-subqueries pull from.
U_COLUMNS = ("uk", "uv", "utag")


@dataclass
class GenStatement:
    """One generated statement plus routing hints for the harness."""

    sql: str
    #: Worth attempting a scatter-gather translation (single-table
    #: aggregate, no subqueries, no ORDER BY) — the translation itself
    #: may still bail with PlanError (e.g. CHAR predicates).
    dist_ok: bool = False
    has_subquery: bool = False


@dataclass
class SqlFuzzReport(ChaosReportBase):
    """Outcome of one seeded differential run."""

    steps: int
    selects: int = 0
    dml_statements: int = 0
    txn_blocks: int = 0
    rollbacks: int = 0
    rows_checked: int = 0
    subquery_selects: int = 0
    dist_checked: int = 0
    commits: int = 0
    crash_boundary_points: int = 0
    crash_torn_points: int = 0

    SUMMARY = (
        "sql-fuzz chaos seed={seed}: {steps} steps — {selects} selects "
        "({subquery_selects} with subqueries, {dist_checked} dist-checked, "
        "{rows_checked} rows), {dml_statements} DML, {txn_blocks} txn blocks "
        "({rollbacks} rollbacks), {commits} commits, {crash_boundary_points} "
        "boundary + {crash_torn_points} torn crash points"
    )


# ----------------------------------------------------------------------
# Statement generation.
# ----------------------------------------------------------------------
class StatementGen:
    """Seeded SQL source: every statement it emits is valid (error paths
    have their own tests — a differential fuzzer wants both sides to
    *answer*, not to agree on refusals)."""

    def __init__(self, rng: random.Random, side_table: bool = True):
        self.rng = rng
        self.side_table = side_table

    # -- values ---------------------------------------------------------
    def _int(self, lo: int = -50, hi: int = 200) -> int:
        return self.rng.randrange(lo, hi)

    def _tag(self) -> str:
        return self.rng.choice(TAGS)

    def _row(self) -> str:
        return (
            f"({self._int(0, 100)}, {self._int()}, {self._int()}, "
            f"'{self._tag()}')"
        )

    # -- DML ------------------------------------------------------------
    def insert(self) -> str:
        rows = ", ".join(self._row() for _ in range(self.rng.randrange(1, 4)))
        return f"INSERT INTO t (id, v, w, tag) VALUES {rows}"

    def update(self) -> str:
        sets = self.rng.choice(
            (
                f"v = v + {self._int(1, 9)}",
                f"w = {self._int()}",
                f"tag = '{self._tag()}'",
                f"v = v - w, w = w + {self._int(1, 5)}",
            )
        )
        return f"UPDATE t SET {sets} WHERE {self._narrow_predicate()}"

    def delete(self) -> str:
        return f"DELETE FROM t WHERE {self._narrow_predicate()}"

    def _narrow_predicate(self) -> str:
        """A predicate that usually hits only a few rows, so the table
        neither empties out nor explodes."""
        pick = self.rng.random()
        if pick < 0.5:
            return f"id = {self._int(0, 100)}"
        if pick < 0.75:
            a = self._int()
            return f"v BETWEEN {a} AND {a + self.rng.randrange(2, 12)}"
        return f"tag = '{self._tag()}' AND w < {self._int(-40, 30)}"

    # -- predicates -----------------------------------------------------
    def _leaf(self, scope: Sequence[str]) -> Tuple[str, bool]:
        """One atomic predicate; returns (sql, uses_subquery)."""
        col = self.rng.choice([c for c in scope if c not in ("tag", "utag")])
        pick = self.rng.random()
        if pick < 0.35:
            op = self.rng.choice(("<", "<=", ">", ">=", "=", "<>"))
            return f"{col} {op} {self._int()}", False
        if pick < 0.5:
            a = self._int()
            return f"{col} BETWEEN {a} AND {a + self.rng.randrange(0, 60)}", False
        if pick < 0.6:
            vals = ", ".join(
                str(self._int()) for _ in range(self.rng.randrange(1, 5))
            )
            return f"{col} IN ({vals})", False
        if pick < 0.72 and "tag" in scope:
            op = self.rng.choice(("=", "<>"))
            return f"tag {op} '{self._tag()}'", False
        if pick < 0.86:
            agg = self.rng.choice(("max(v)", "min(w)", "avg(v)", "count(*)"))
            op = self.rng.choice(("<", "<=", ">", ">="))
            return f"{col} {op} (SELECT {agg} FROM t)", True
        if self.side_table:
            inner_col = self.rng.choice(("uk", "uv"))
            return (
                f"{col} IN (SELECT {inner_col} FROM u "
                f"WHERE uv > {self._int()})",
                True,
            )
        return f"{col} IN (SELECT w FROM t WHERE v > {self._int()})", True

    def predicate(self, scope: Sequence[str], depth: int = 2) -> Tuple[str, bool]:
        if depth == 0 or self.rng.random() < 0.45:
            return self._leaf(scope)
        pick = self.rng.random()
        a, sa = self.predicate(scope, depth - 1)
        if pick < 0.2:
            return f"NOT ({a})", sa
        b, sb = self.predicate(scope, depth - 1)
        junct = "AND" if pick < 0.65 else "OR"
        return f"({a}) {junct} ({b})", sa or sb

    # -- SELECT shapes --------------------------------------------------
    def _scalar_items(self, scope: Sequence[str]) -> Tuple[List[str], bool]:
        items: List[str] = []
        sub = False
        for i in range(self.rng.randrange(1, 4)):
            pick = self.rng.random()
            if pick < 0.45:
                expr = self.rng.choice(scope)
            elif pick < 0.65:
                expr = f"v + {self._int(1, 20)}" if "v" in scope else "uv"
            elif pick < 0.8:
                expr = "v * w" if "v" in scope else "uk + uv"
            elif pick < 0.9:
                expr = "v - w" if "v" in scope else "uv - uk"
            else:
                agg = self.rng.choice(("max(v)", "sum(w)", "count(*)"))
                expr = f"(SELECT {agg} FROM t)"
                sub = True
            items.append(f"{expr} AS c{i}")
        return items, sub

    def select(self) -> GenStatement:
        shape = self.rng.random()
        if shape < 0.3:
            return self._select_aggregate()
        if shape < 0.45 and self.side_table:
            return self._select_join()
        if shape < 0.58:
            return self._select_distinct()
        return self._select_plain()

    def _order_all(self, n: int) -> str:
        keys = ", ".join(
            f"c{i}{' DESC' if self.rng.random() < 0.3 else ''}"
            for i in range(n)
        )
        return f" ORDER BY {keys}"

    def _limit_clause(self) -> str:
        if self.rng.random() < 0.35:
            off = (
                f" OFFSET {self.rng.randrange(0, 6)}"
                if self.rng.random() < 0.4
                else ""
            )
            return f" LIMIT {self.rng.randrange(1, 12)}{off}"
        return ""

    def _select_plain(self) -> GenStatement:
        items, sub = self._scalar_items(T_COLUMNS)
        where, wsub = self._maybe_where(T_COLUMNS)
        sql = (
            f"SELECT {', '.join(items)} FROM t{where}"
            f"{self._order_all(len(items))}{self._limit_clause()}"
        )
        return GenStatement(sql, has_subquery=sub or wsub)

    def _select_distinct(self) -> GenStatement:
        cols = self.rng.sample(T_COLUMNS, self.rng.randrange(1, 3))
        items = [f"{c} AS c{i}" for i, c in enumerate(cols)]
        where, wsub = self._maybe_where(T_COLUMNS)
        sql = (
            f"SELECT DISTINCT {', '.join(items)} FROM t{where}"
            f"{self._order_all(len(items))}{self._limit_clause()}"
        )
        return GenStatement(sql, has_subquery=wsub)

    def _select_join(self) -> GenStatement:
        on = self.rng.choice(("id = uk", "v = uv"))
        scope = T_COLUMNS + U_COLUMNS
        if self.rng.random() < 0.35:
            agg = self.rng.choice(("sum(v)", "count(*)", "min(uv)", "sum(uv * w)"))
            items = ["tag AS c0", f"{agg} AS c1"]
            where, wsub = self._maybe_where(scope)
            sql = (
                f"SELECT {', '.join(items)} FROM t JOIN u ON {on}{where} "
                f"GROUP BY tag"
            )
            return GenStatement(sql, has_subquery=wsub)
        items, sub = self._scalar_items(scope)
        where, wsub = self._maybe_where(scope)
        sql = (
            f"SELECT {', '.join(items)} FROM t JOIN u ON {on}{where}"
            f"{self._order_all(len(items))}{self._limit_clause()}"
        )
        return GenStatement(sql, has_subquery=sub or wsub)

    def _select_aggregate(self) -> GenStatement:
        group = self.rng.choice(((), ("tag",), ("id",), ("tag", "w")))
        aggs = self.rng.sample(
            (
                "count(*)",
                "sum(v)",
                "sum(v * w)",
                "sum(2 * v)",
                "min(v)",
                "max(w)",
                "avg(v)",
            ),
            self.rng.randrange(1, 4),
        )
        items = [f"{g} AS c{i}" for i, g in enumerate(group)]
        items += [f"{a} AS c{i + len(group)}" for i, a in enumerate(aggs)]
        where, wsub = self._maybe_where(T_COLUMNS)
        sql = f"SELECT {', '.join(items)} FROM t{where}"
        if group:
            sql += f" GROUP BY {', '.join(group)}"
        having = ""
        if group and self.rng.random() < 0.3:
            target = f"c{len(group)}"
            having = f" HAVING {target} {self.rng.choice(('>', '<='))} {self._int()}"
            sql += having
        order = ""
        if self.rng.random() < 0.5:
            n = len(group) + len(aggs)
            picks = self.rng.sample(range(n), self.rng.randrange(1, n + 1))
            order = " ORDER BY " + ", ".join(
                f"c{i}{' DESC' if self.rng.random() < 0.3 else ''}"
                for i in picks
            )
            sql += order + self._limit_clause()
        dist_ok = bool(group) and not order and not having and not wsub and (
            "avg(v)" not in aggs
        )
        return GenStatement(sql, dist_ok=dist_ok, has_subquery=wsub)

    def _maybe_where(self, scope: Sequence[str]) -> Tuple[str, bool]:
        if self.rng.random() < 0.3:
            return "", False
        pred, sub = self.predicate(scope, depth=self.rng.randrange(0, 3))
        return f" WHERE {pred}", sub


# ----------------------------------------------------------------------
# Value comparison.
# ----------------------------------------------------------------------
def _values_equal(a, b) -> bool:
    if (
        isinstance(a, float)
        and isinstance(b, float)
        and math.isnan(a)
        and math.isnan(b)
    ):
        return True
    return a == b


def _rows_equal(a: Sequence[Tuple], b: Sequence[Tuple]) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        if not all(_values_equal(x, y) for x, y in zip(ra, rb)):
            return False
    return True


def _decode(value):
    if isinstance(value, bytes):
        return value.rstrip(b"\x00").decode()
    if isinstance(value, np.generic):
        return value.item()
    return value


# ----------------------------------------------------------------------
# The harness.
# ----------------------------------------------------------------------
class _Harness:
    def __init__(self, seed: int, crash: bool, side_table: bool, recorder=None):
        self.report: Optional[SqlFuzzReport] = None  # set by run_sql_fuzz
        self.rng = random.Random(seed)
        self.wal = WriteAheadLog(device=SsdLog()) if crash else None
        self.catalog = Catalog()
        self.manager = TransactionManager(wal=self.wal)
        self.primary = Session(
            catalog=self.catalog, manager=self.manager, journal=recorder
        )
        self.twin = Session(
            catalog=self.catalog, manager=self.manager, journal=recorder
        )
        self.oracle = SqlOracle()
        self.gen = StatementGen(self.rng, side_table=side_table)
        #: (durable offset, frozen visible rows) after each commit.
        self.journal_commits: List[Tuple[int, List[Tuple]]] = []

        ddl = "CREATE TABLE t (id INT32, v INT32, w INT32, tag CHAR(8))"
        self.primary.execute(ddl)
        self.oracle.execute(ddl)
        if side_table:
            self._build_side_table()

    def _build_side_table(self) -> None:
        schema = TableSchema(
            "u",
            [Column("uk", INT32), Column("uv", INT32), Column("utag", CHAR(8))],
        )
        table = self.catalog.create_table(schema)
        rows = []
        for _ in range(self.rng.randrange(8, 25)):
            row = {
                "uk": self.gen._int(0, 100),
                "uv": self.gen._int(),
                "utag": self.gen._tag(),
            }
            table.append_row(row)
            rows.append(row)
        self.oracle.load("u", U_COLUMNS, rows)

    # -- state capture for the crash journal ----------------------------
    def frozen_oracle_rows(self) -> List[Tuple]:
        # Oracle rows are already in ``table.row()``'s value space
        # (decoded str for CHAR, Python ints), so they freeze like one.
        return sorted(_freeze(r) for r in self.oracle.tables["t"].rows)

    def journal_commit(self) -> None:
        if self.wal is not None:
            self.journal_commits.append(
                (self.wal.durable_bytes, self.frozen_oracle_rows())
            )

    def visible_columns(self) -> Dict[str, np.ndarray]:
        """Every user column of ``t``, restricted to the rows visible at
        the manager's current timestamp (what a SELECT outside a
        transaction reads)."""
        table = self.catalog.table("t")
        mask = visible_mask(table.begin_ts, table.end_ts, self.manager.now)
        return {
            c.name: table.column_values(c.name)[mask]
            for c in table.schema.user_columns
        }

    # -- one step -------------------------------------------------------
    def step(self) -> None:
        roll = self.rng.random()
        if roll < 0.45:
            self.check_select(self.gen.select())
        elif roll < 0.93:
            self.run_dml(self.rng.choice(
                (self.gen.insert, self.gen.update, self.gen.delete)
            )())
        else:
            self.run_txn_block()
        # Keep the working set bounded so seeds stay fast.
        if len(self.oracle.tables["t"].rows) > 400:
            self.run_dml("DELETE FROM t WHERE id < 50")

    def run_dml(self, sql: str) -> None:
        report = self.report
        result = self.primary.execute(sql)
        expected = self.oracle.execute(sql)
        if result.rows_affected != expected:
            report.violations.append(
                f"{sql!r}: engine affected {result.rows_affected} rows, "
                f"oracle {expected}"
            )
        report.dml_statements += 1
        report.commits += 1
        self.journal_commit()

    def run_txn_block(self) -> None:
        report = self.report
        sql = self.rng.choice((self.gen.insert, self.gen.update, self.gen.delete))()
        commit = self.rng.random() < 0.7
        for stmt in ("BEGIN", sql, "COMMIT" if commit else "ROLLBACK"):
            self.primary.execute(stmt)
            self.oracle.execute(stmt)
        report.txn_blocks += 1
        if commit:
            report.commits += 1
            self.journal_commit()
        else:
            report.rollbacks += 1

    def check_select(self, gen: GenStatement) -> None:
        report = self.report
        sql = gen.sql
        try:
            primary = self.primary.execute(sql)
            twin = self.twin.execute(sql)
        except ReproError as exc:
            report.violations.append(f"{sql!r}: engine raised {exc}")
            return
        try:
            names_o, rows_o = self.oracle.execute(sql)
        except ReproError as exc:
            report.violations.append(f"{sql!r}: oracle raised {exc}")
            return
        report.selects += 1
        if gen.has_subquery:
            report.subquery_selects += 1

        # Byte identity against the Volcano reference.
        pr = primary.result
        if not gen.has_subquery:
            try:
                bound = bind(parse_statement(sql), self.catalog)
                vr = run_volcano(bound, self.visible_columns())
            except ReproError as exc:
                report.violations.append(f"{sql!r}: reference raised {exc}")
                return
            if pr.names != vr.names:
                report.violations.append(
                    f"{sql!r}: engine names {pr.names} != reference {vr.names}"
                )
                return
            for name in pr.names:
                a, b = pr.columns[name], vr.columns[name]
                if a.dtype != b.dtype or a.tobytes() != b.tobytes():
                    report.violations.append(
                        f"{sql!r}: column {name!r} differs between engine "
                        f"({a.dtype}) and reference ({b.dtype})"
                    )
                    return

        # Determinism: the twin's cost ledger bucket-for-bucket.
        pb = primary.execution.ledger.buckets
        tb = twin.execution.ledger.buckets
        if pb != tb:
            report.violations.append(
                f"{sql!r}: ledger buckets differ between twins: "
                f"{pb} != {tb}"
            )

        # Value identity against the oracle.
        rows_e = primary.rows
        if tuple(names_o) != pr.names:
            report.violations.append(
                f"{sql!r}: oracle names {names_o} != engine {pr.names}"
            )
            return
        if not _rows_equal(rows_e, rows_o):
            report.violations.append(
                f"{sql!r}: engine rows {rows_e[:5]}... != oracle {rows_o[:5]}..."
                f" ({len(rows_e)} vs {len(rows_o)} rows)"
            )
            return
        report.rows_checked += len(rows_e)

        if gen.dist_ok:
            self.check_dist(sql, rows_e)

    # -- the scatter-gather leg -----------------------------------------
    def check_dist(self, sql: str, rows_e: List[Tuple]) -> None:
        report = self.report
        bound = bind(parse_statement(sql), self.catalog)
        try:
            plan = dist_plan_for(bound, "id")
        except PlanError:
            return  # outside the dist dialect (e.g. CHAR predicates)
        table = self.catalog.table("t")
        columns = self.visible_columns()
        shard_schema = TableSchema(
            "t", [Column(c.name, c.dtype) for c in table.schema.user_columns]
        )
        n_shards = self.rng.randrange(2, 5)
        boundaries = sorted(
            self.rng.sample(range(5, 100, 5), n_shards - 1)
        )
        sharded = ShardedTable(shard_schema, "id", boundaries)
        sharded.bulk_load(columns)
        with ShardCluster(sharded, DistConfig(inline=True)) as cluster:
            result = cluster.query(plan)
        expected: List[Tuple] = []
        for key, values in result.groups or []:
            key = tuple(_decode(k) for k in key)
            it = iter(values)
            row = []
            for out in bound.outputs:
                if out.kind == "expr":
                    row.append(key[plan.group_by.index(out.expr.name)])
                else:
                    row.append(next(it))
            expected.append(tuple(row))
        if not _rows_equal(rows_e, expected):
            report.violations.append(
                f"{sql!r}: dist groups {expected[:5]}... != engine "
                f"{rows_e[:5]}... ({len(expected)} vs {len(rows_e)} rows)"
            )
            return
        report.dist_checked += 1


def run_sql_fuzz(
    seed: int,
    steps: int = 60,
    crash_points: int = 0,
    side_table: bool = True,
    recorder=None,
) -> SqlFuzzReport:
    """One seeded differential run; see the module docstring.

    ``crash_points`` > 0 attaches a WAL, journals the oracle's visible
    rows at every commit offset, and probes that many random torn
    offsets on top of every record boundary after the stream finishes.
    (The side table is non-MVCC and never written by DML, so it stays
    out of the WAL and out of the recovery contract.)

    ``recorder`` is an optional :class:`~repro.obs.FlightRecorder`: the
    fuzzed sessions journal every statement error into it, so a crashing
    stream's dump shows the statement sequence that led to the failure.
    """
    t0 = time.perf_counter()
    report = SqlFuzzReport(seed=seed, steps=steps)
    harness = _Harness(
        seed, crash=crash_points > 0, side_table=side_table, recorder=recorder
    )
    harness.report = report
    for _ in range(steps):
        harness.step()
    if crash_points > 0:
        # Leave one uncommitted SQL transaction in flight so crash images
        # contain intents the recovery must NOT surface.
        harness.primary.execute("BEGIN")
        harness.primary.execute(harness.gen.insert())
        harness.wal.flush()
        table = harness.catalog.table("t")
        if table_visible_rows(table, harness.manager.now) != harness.frozen_oracle_rows():
            report.violations.append(
                "pre-crash disagreement: SQL-visible rows != oracle rows"
            )
        else:
            journal = WorkloadJournal(
                media=harness.wal.device.media(),
                schemas={"t": table.schema},
                commits=harness.journal_commits,
            )
            probes = probe_crash_points(journal, crash_points, seed)
            report.crash_boundary_points = probes.boundary_points
            report.crash_torn_points = probes.torn_points
            report.violations.extend(probes.violations)
    harness.primary.close()
    harness.twin.close()
    report.seconds = time.perf_counter() - t0
    return report
