"""The unified statement pipeline: SQL text in, results out.

Every entry point — engines, the serving layer, benchmarks, the REPL,
and the chaos harnesses — can drive the system through one door::

    sql.parse  ->  plan.bind  ->  exec (vector kernels)    (SELECT)
                              ->  MVCC transaction -> WAL  (DML)
                              ->  plan.optimizer           (EXPLAIN SELECT)

:class:`Session` owns the pieces: a catalog, one engine (any of the
three — they share the execute contract), a
:class:`~repro.db.mvcc.TransactionManager` (optionally WAL-backed for
durability), and the observability hooks. Each statement runs under
``sql.parse`` / ``sql.bind`` / ``sql.exec`` spans (``sql.plan`` for
the optimizer under EXPLAIN SELECT, the only statement that reads its
choice) and feeds the ``sql_*`` metrics collector, so an EXPLAIN
ANALYZE of any statement renders the full span tree down to the storage
probes.

Statement semantics:

* ``SELECT`` binds and executes on the session engine at the current
  snapshot (or the open transaction's snapshot). Scalar and ``IN``
  subqueries (uncorrelated) are *folded* first: the inner SELECT runs
  through the same pipeline and its result is substituted as a constant.
* ``INSERT``/``UPDATE``/``DELETE`` bind to MVCC write plans. Outside an
  explicit transaction each statement autocommits via
  :func:`~repro.db.mvcc.run_transaction` (conflict retries included);
  inside ``BEGIN``/``COMMIT`` the writes join the open transaction.
  Reads-your-own-writes inside an open transaction is not supported —
  the engines evaluate visibility from committed timestamps only.
* ``CREATE TABLE`` makes an MVCC table (DML needs the version stamps);
  ``DROP TABLE`` removes it.
* ``EXPLAIN`` renders the logical plan with the optimizer's chosen
  access path; ``EXPLAIN ANALYZE`` executes the statement and renders
  the recorded span tree (requires a tracer-enabled session).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.db.catalog import Catalog
from repro.db.expr import (
    And,
    Between,
    BinOp,
    Compare,
    Expr,
    InList,
    Literal,
    Not,
    Or,
)
from repro.db.mvcc import Transaction, TransactionManager, run_transaction
from repro.db.plan.binder import (
    BoundDelete,
    BoundInsert,
    BoundUpdate,
    bind,
    bind_delete,
    bind_insert,
    bind_update,
)
from repro.db.plan.logical import explain
from repro.db.plan.optimizer import Optimizer
from repro.db.schema import Column, TableSchema
from repro.db.sql.nodes import (
    Aggregate,
    BeginStmt,
    CommitStmt,
    CreateTableStmt,
    DeleteStmt,
    DropTableStmt,
    ExplainStmt,
    InsertStmt,
    InSubquery,
    RollbackStmt,
    ScalarSubquery,
    SelectItem,
    SelectStmt,
    UpdateStmt,
)
from repro.db.sql.parser import parse_statement
from repro.db.types import parse_type
from repro.errors import ReproError, SchemaError, SqlError
from repro.faults import RetryPolicy
from repro.obs import MetricsRegistry, Span, Trace, Tracer, maybe_span

#: Maximum subquery nesting (uncorrelated folding recursion guard).
MAX_SUBQUERY_DEPTH = 8


@dataclass
class SqlStats:
    """Cumulative per-session statement accounting (collector-sampled)."""

    statements: int = 0
    selects: int = 0
    inserts: int = 0
    updates: int = 0
    deletes: int = 0
    ddl: int = 0
    txn_control: int = 0
    explains: int = 0
    errors: int = 0
    rows_returned: int = 0
    rows_written: int = 0
    subqueries_folded: int = 0


@dataclass
class StatementResult:
    """What one statement produced, whatever its kind."""

    kind: str
    sql: str
    #: SELECT answer (None for DML/DDL/transaction control).
    result: Optional[Any] = None
    #: The engine's full execution record for SELECTs.
    execution: Optional[Any] = None
    #: Rows inserted/updated/deleted by DML.
    rows_affected: int = 0
    #: EXPLAIN text (logical plan or rendered span tree).
    plan: Optional[str] = None
    #: Total simulated cycles attributed to the statement (including
    #: folded subqueries and WAL flushes charged by the engine ledger).
    cycles: float = 0.0
    #: Span tree of the statement (tracer-enabled sessions only).
    trace: Optional[Trace] = None

    @property
    def rows(self) -> List[tuple]:
        return self.result.rows() if self.result is not None else []

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self.result.names) if self.result is not None else ()


class Session:
    """One SQL front-door session over a catalog + engine + MVCC manager.

    ``Session(wal=WriteAheadLog(...))`` makes every DML statement
    durable; :func:`repro.db.wal.recover` replays the committed SQL
    workload after a crash.
    """

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        engine=None,
        manager: Optional[TransactionManager] = None,
        *,
        wal=None,
        platform=None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        codecache=None,
        retry_policy: Optional[RetryPolicy] = None,
        journal=None,
    ):
        if engine is not None and catalog is not None \
                and engine.catalog is not catalog:
            raise SqlError("engine and session must share one catalog")
        self.catalog = (
            catalog if catalog is not None
            else (engine.catalog if engine is not None else Catalog())
        )
        if engine is None:
            from repro.db.engines.rowstore import RowStoreEngine

            engine = RowStoreEngine(
                self.catalog,
                platform,
                tracer=tracer,
                metrics=metrics,
                codecache=codecache,
            )
        self.engine = engine
        self.tracer = tracer if tracer is not None else engine.tracer
        self.metrics = metrics if metrics is not None else engine.metrics
        if manager is None:
            manager = TransactionManager(
                wal=wal, tracer=self.tracer, metrics=self.metrics
            )
        elif wal is not None and manager.wal is None:
            raise SqlError("pass the WAL through the manager, not both")
        self.manager = manager
        #: Chooses the access path EXPLAIN SELECT reports.
        self.optimizer = Optimizer(self.catalog, engine.platform)
        self.retry_policy = retry_policy
        #: Flight recorder: statement errors are journaled (kind
        #: ``sql.error``) so a fuzz crash's black box shows the failing
        #: statement sequence, not just the final exception.
        self.journal = journal
        if self.journal is not None and self.manager.wal is not None:
            self.manager.wal.attach_journal(self.journal)
        self.stats = SqlStats()
        #: Span tree of the most recent statement (tracer sessions).
        self.last_trace: Optional[Trace] = None
        self._txn: Optional[Transaction] = None
        self._sub_cycles = 0.0
        self._sub_depth = 0
        if self.metrics is not None:
            from repro.obs.collectors import register_sql

            register_sql(self.metrics, self)
            self._m_cycles = self.metrics.histogram(
                "sql_statement_cycles",
                "Simulated cycles per SQL statement",
                first_bound=1024.0,
            )
        else:
            self._m_cycles = None

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------
    @property
    def in_transaction(self) -> bool:
        return self._txn is not None

    def execute(self, sql: str) -> StatementResult:
        """Run one statement of any supported kind."""
        self._sub_cycles = 0.0
        root = None
        try:
            with maybe_span(self.tracer, "sql.statement", layer="sql") as span:
                root = span
                with maybe_span(self.tracer, "sql.parse", layer="sql") as ps:
                    stmt = parse_statement(sql)
                    ps.set_attrs(kind=type(stmt).__name__)
                out = self._dispatch(stmt, sql)
                span.set_attrs(kind=out.kind, rows=out.rows_affected)
        except ReproError as exc:
            self.stats.errors += 1
            if self.journal is not None:
                self.journal.record(
                    "sql.error",
                    error=type(exc).__name__,
                    message=str(exc)[:200],
                    sql=sql[:200],
                )
            raise
        self.stats.statements += 1
        out.cycles += self._sub_cycles
        if isinstance(root, Span):
            self.last_trace = Trace(root)
            out.trace = self.last_trace
        if self._m_cycles is not None:
            self._m_cycles.observe(out.cycles)
        return out

    def run_script(self, script: str) -> List[StatementResult]:
        """Execute ``;``-separated statements, returning one result each."""
        return [self.execute(text) for text in split_statements(script)]

    def close(self) -> None:
        """Abort any open transaction (end-of-session hygiene)."""
        if self._txn is not None:
            self.manager.abort(self._txn)
            self._txn = None

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------
    def _dispatch(self, stmt, sql: str) -> StatementResult:
        if isinstance(stmt, SelectStmt):
            return self._execute_select(stmt, sql)
        if isinstance(stmt, (InsertStmt, UpdateStmt, DeleteStmt)):
            return self._execute_dml(stmt, sql)
        if isinstance(stmt, CreateTableStmt):
            return self._execute_create(stmt, sql)
        if isinstance(stmt, DropTableStmt):
            try:
                self.catalog.drop_table(stmt.name)
            except SchemaError as exc:
                raise SqlError(str(exc))
            self.stats.ddl += 1
            return StatementResult(kind="drop", sql=sql)
        if isinstance(stmt, BeginStmt):
            if self._txn is not None:
                raise SqlError("a transaction is already open")
            self._txn = self.manager.begin()
            self.stats.txn_control += 1
            return StatementResult(kind="begin", sql=sql)
        if isinstance(stmt, CommitStmt):
            if self._txn is None:
                raise SqlError("no open transaction to COMMIT")
            txn, self._txn = self._txn, None
            self.manager.commit(txn)  # WriteConflictError propagates
            self.stats.txn_control += 1
            return StatementResult(kind="commit", sql=sql)
        if isinstance(stmt, RollbackStmt):
            if self._txn is None:
                raise SqlError("no open transaction to ROLLBACK")
            txn, self._txn = self._txn, None
            self.manager.abort(txn)
            self.stats.txn_control += 1
            return StatementResult(kind="rollback", sql=sql)
        if isinstance(stmt, ExplainStmt):
            return self._execute_explain(stmt, sql)
        raise SqlError(f"unsupported statement {type(stmt).__name__}")

    # ------------------------------------------------------------------
    # SELECT.
    # ------------------------------------------------------------------
    def _snapshot_for(self, bound) -> Optional[int]:
        """The statement's snapshot when any table it reads (the main
        table or a joined one) is MVCC, else None."""
        tables = (bound.table, *(join.table for join in bound.joins))
        if not any(table.schema.mvcc for table in tables):
            return None
        if self._txn is not None:
            return self._txn.start_ts
        return self.manager.now

    def _execute_select(self, stmt: SelectStmt, sql: str) -> StatementResult:
        stmt = self._fold_subqueries(stmt)
        with maybe_span(self.tracer, "sql.bind", layer="sql") as bs:
            bound = bind(stmt, self.catalog)
            bs.set_attrs(
                table=bound.table.schema.name,
                columns=len(bound.referenced_columns),
            )
        with maybe_span(self.tracer, "sql.exec", layer="sql"):
            execution = self.engine.execute(
                bound, snapshot_ts=self._snapshot_for(bound)
            )
        self.stats.selects += 1
        self.stats.rows_returned += execution.result.nrows
        return StatementResult(
            kind="select",
            sql=sql,
            result=execution.result,
            execution=execution,
            plan=execution.plan,
            cycles=execution.cycles,
        )

    # ------------------------------------------------------------------
    # Subquery folding.
    # ------------------------------------------------------------------
    def _fold_subqueries(self, stmt: SelectStmt) -> SelectStmt:
        if stmt.template is not None and not stmt.template[0].has_subquery:
            return stmt

        def fold(expr: Optional[Expr]) -> Optional[Expr]:
            if expr is None:
                return None
            if isinstance(expr, ScalarSubquery):
                return Literal(self._scalar_subquery(expr.select))
            if isinstance(expr, InSubquery):
                return InList(
                    term=fold(expr.term),
                    values=self._in_subquery(expr.select),
                )
            if isinstance(expr, BinOp):
                return BinOp(op=expr.op, left=fold(expr.left),
                             right=fold(expr.right))
            if isinstance(expr, Compare):
                return Compare(op=expr.op, left=fold(expr.left),
                               right=fold(expr.right))
            if isinstance(expr, And):
                return And(terms=tuple(fold(t) for t in expr.terms))
            if isinstance(expr, Or):
                return Or(terms=tuple(fold(t) for t in expr.terms))
            if isinstance(expr, Not):
                return Not(term=fold(expr.term))
            if isinstance(expr, Between):
                return Between(term=fold(expr.term), low=fold(expr.low),
                               high=fold(expr.high))
            if isinstance(expr, InList):
                return InList(term=fold(expr.term), values=expr.values)
            return expr

        items = tuple(
            SelectItem(
                expr=(
                    Aggregate(func=it.expr.func, arg=fold(it.expr.arg))
                    if it.is_aggregate else fold(it.expr)
                ),
                alias=it.alias,
            )
            for it in stmt.items
        )
        return replace(
            stmt,
            items=items,
            where=fold(stmt.where),
            having=fold(stmt.having),
            template=None,
        )

    def _run_subquery(self, select: SelectStmt):
        if self._sub_depth >= MAX_SUBQUERY_DEPTH:
            raise SqlError(
                f"subqueries nest deeper than {MAX_SUBQUERY_DEPTH}"
            )
        self._sub_depth += 1
        try:
            folded = self._fold_subqueries(select)
            with maybe_span(self.tracer, "sql.subquery", layer="sql") as ss:
                bound = bind(folded, self.catalog)
                execution = self.engine.execute(
                    bound, snapshot_ts=self._snapshot_for(bound)
                )
                ss.set_attrs(rows=execution.result.nrows)
        finally:
            self._sub_depth -= 1
        self._sub_cycles += execution.cycles
        self.stats.subqueries_folded += 1
        return execution.result

    def _scalar_subquery(self, select: SelectStmt) -> Any:
        result = self._run_subquery(select)
        if len(result.names) != 1:
            raise SqlError(
                f"scalar subquery must return one column, got "
                f"{len(result.names)}"
            )
        rows = result.rows()
        if len(rows) != 1:
            raise SqlError(
                f"scalar subquery must return exactly one row, got "
                f"{len(rows)} (this dialect has no NULL)"
            )
        return rows[0][0]

    def _in_subquery(self, select: SelectStmt) -> Tuple[Any, ...]:
        result = self._run_subquery(select)
        if len(result.names) != 1:
            raise SqlError(
                f"IN subquery must return one column, got {len(result.names)}"
            )
        # Deduplicate (IN is a set test) preserving first-seen order.
        return tuple(dict.fromkeys(row[0] for row in result.rows()))

    # ------------------------------------------------------------------
    # DML.
    # ------------------------------------------------------------------
    def _execute_dml(self, stmt, sql: str) -> StatementResult:
        with maybe_span(self.tracer, "sql.bind", layer="sql"):
            if isinstance(stmt, InsertStmt):
                bound, kind = bind_insert(stmt, self.catalog), "insert"
            elif isinstance(stmt, UpdateStmt):
                bound, kind = bind_update(stmt, self.catalog), "update"
            else:
                bound, kind = bind_delete(stmt, self.catalog), "delete"
        table = bound.table
        if not table.schema.mvcc:
            raise SqlError(
                f"table {table.schema.name!r} is not MVCC-enabled; DML "
                "needs version stamps (CREATE TABLE via SQL makes MVCC "
                "tables)"
            )
        with maybe_span(self.tracer, "sql.exec", layer="sql", kind=kind) as ex:
            if self._txn is not None:
                count = self._apply_dml(self._txn, bound)
            else:
                count = run_transaction(
                    self.manager,
                    lambda txn: self._apply_dml(txn, bound),
                    policy=self.retry_policy,
                )
            ex.set_attrs(rows=count)
        self.stats.rows_written += count
        setattr(self.stats, kind + "s", getattr(self.stats, kind + "s") + 1)
        # WAL/backoff cycles accrue on the manager's and WAL's own
        # ledgers; the statement itself reports only rows touched.
        return StatementResult(kind=kind, sql=sql, rows_affected=count)

    def _apply_dml(self, txn: Transaction, bound) -> int:
        table = bound.table
        if isinstance(bound, BoundInsert):
            for values in bound.rows:
                txn.insert(table, dict(values))
            return len(bound.rows)
        slots = self._matching_slots(txn, table, bound.where)
        if isinstance(bound, BoundUpdate):
            # Evaluate every SET value before the first write: a failing
            # expression leaves the transaction exactly as it was.
            updates = [
                (int(slot), _set_values(table.row(int(slot)), bound.assignments))
                for slot in slots
            ]
            for slot, changes in updates:
                txn.update(table, slot, changes)
            return len(slots)
        if isinstance(bound, BoundDelete):
            for slot in slots:
                txn.delete(table, int(slot))
            return len(slots)
        raise SqlError(f"unknown DML plan {type(bound).__name__}")

    @staticmethod
    def _matching_slots(txn: Transaction, table, where: Optional[Expr]):
        mask = txn.visibility(table)
        if where is not None:
            cols = {
                name: table.column_values(name)
                for name in sorted(where.columns())
            }
            wmask = np.asarray(where.eval_vector(cols))
            if wmask.shape == ():  # constant predicate (WHERE 1 = 1)
                wmask = np.broadcast_to(wmask, mask.shape)
            mask = mask & wmask
        return np.flatnonzero(mask)

    # ------------------------------------------------------------------
    # DDL.
    # ------------------------------------------------------------------
    def _execute_create(self, stmt: CreateTableStmt, sql: str) -> StatementResult:
        columns = []
        for name, type_text in stmt.columns:
            try:
                columns.append(Column(name, parse_type(type_text)))
            except SchemaError as exc:
                raise SqlError(f"bad column {name!r}: {exc}")
        try:
            # SQL-created tables are MVCC so DML statements can hit them.
            self.catalog.create_table(
                TableSchema(stmt.name, tuple(columns), mvcc=True)
            )
        except SchemaError as exc:
            raise SqlError(str(exc))
        self.stats.ddl += 1
        return StatementResult(kind="create", sql=sql)

    # ------------------------------------------------------------------
    # EXPLAIN.
    # ------------------------------------------------------------------
    def _execute_explain(self, stmt: ExplainStmt, sql: str) -> StatementResult:
        target = stmt.target
        if stmt.analyze:
            if self.tracer is None:
                raise SqlError(
                    "EXPLAIN ANALYZE needs a tracer-enabled Session "
                    "(Session(tracer=Tracer()))"
                )
            with maybe_span(
                self.tracer, "sql.analyze", layer="sql"
            ) as span:
                inner = self._dispatch(target, sql)
            text = Trace(span).render() if isinstance(span, Span) else None
            self.stats.explains += 1
            return StatementResult(
                kind="explain",
                sql=sql,
                plan=text,
                rows_affected=inner.rows_affected,
                cycles=inner.cycles,
            )
        if isinstance(target, SelectStmt):
            folded = self._fold_subqueries(target)
            with maybe_span(self.tracer, "sql.bind", layer="sql"):
                bound = bind(folded, self.catalog)
            with maybe_span(self.tracer, "sql.plan", layer="sql"):
                decision = self.optimizer.choose(bound)
            text = decision.plan
        elif isinstance(target, InsertStmt):
            bound_i = bind_insert(target, self.catalog)
            text = (
                f"Insert: {bound_i.table.schema.name} "
                f"rows={len(bound_i.rows)}"
            )
        elif isinstance(target, (UpdateStmt, DeleteStmt)):
            if isinstance(target, UpdateStmt):
                bound_u = bind_update(target, self.catalog)
                head = (
                    f"Update: {bound_u.table.schema.name} "
                    f"set=[{', '.join(n for n, _ in bound_u.assignments)}]"
                )
                where = bound_u.where
                name = bound_u.table.schema.name
            else:
                bound_d = bind_delete(target, self.catalog)
                head = f"Delete: {bound_d.table.schema.name}"
                where = bound_d.where
                name = bound_d.table.schema.name
            lines = [head]
            if where is not None:
                lines.append(f"  Filter: {where}")
            lines.append(f"  Scan: {name}(visible)")
            text = "\n".join(lines)
        else:
            raise SqlError(
                f"EXPLAIN does not support {type(target).__name__}"
            )
        self.stats.explains += 1
        return StatementResult(kind="explain", sql=sql, plan=text)


def _set_values(row: dict, assignments) -> dict:
    """One row's UPDATE SET values; evaluation faults become SqlError."""
    changes = {}
    for name, expr in assignments:
        try:
            changes[name] = expr.eval_row(row)
        except SqlError:
            raise
        except Exception as exc:  # noqa: BLE001 — surface as a statement error
            raise SqlError(
                f"cannot evaluate UPDATE value for {name!r}: {exc}"
            ) from exc
    return changes


def split_statements(script: str) -> List[str]:
    """Split a script on ``;`` boundaries, respecting string literals
    and ``--`` comments. Statements holding only whitespace and comments
    are dropped; an unterminated last statement is kept."""
    statements, tail = scan_statements(script)
    return statements + [tail] if tail else statements


def scan_statements(script: str) -> Tuple[List[str], str]:
    """The ``;``-terminated statements of ``script`` and its unterminated
    rest, respecting string literals and ``--`` comments (a ``;`` inside
    either ends nothing). Pieces holding only whitespace and comments are
    dropped: the rest is ``""`` then."""
    out: List[str] = []
    buf: List[str] = []
    content = False
    i, n = 0, len(script)
    while i < n:
        ch = script[i]
        if ch == "'":
            j = i + 1
            while j < n:
                if script[j] == "'":
                    if script[j + 1 : j + 2] == "'":
                        j += 2
                        continue
                    break
                j += 1
            buf.append(script[i : j + 1])
            content = True
            i = j + 1
            continue
        if ch == "-" and script[i : i + 2] == "--":
            j = script.find("\n", i)
            j = n if j < 0 else j
            buf.append(script[i:j])
            i = j
            continue
        if ch == ";":
            if content:
                out.append("".join(buf).strip())
            buf = []
            content = False
            i += 1
            continue
        buf.append(ch)
        content = content or not ch.isspace()
        i += 1
    return out, "".join(buf).strip() if content else ""
