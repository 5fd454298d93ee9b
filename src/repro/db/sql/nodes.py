"""SQL AST nodes produced by the parser and consumed by the binder.

Beyond the original ``SELECT`` shape this module now carries the full
statement surface of the front door: DML (``INSERT``/``UPDATE``/
``DELETE``), DDL (``CREATE TABLE``/``DROP TABLE``), transaction control
(``BEGIN``/``COMMIT``/``ROLLBACK``), ``EXPLAIN [ANALYZE]``, and the
subquery expression nodes the statement pipeline folds before binding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, FrozenSet, Mapping, Optional, Tuple

from repro.db.expr import Expr
from repro.errors import SqlError


@dataclass(frozen=True)
class Aggregate:
    """``func(arg)`` in a select list; ``arg is None`` means ``COUNT(*)``."""

    func: str  # "sum" | "avg" | "count" | "min" | "max"
    arg: Optional[Expr]

    FUNCS = ("sum", "avg", "count", "min", "max")

    def __str__(self) -> str:
        inner = "*" if self.arg is None else str(self.arg)
        return f"{self.func}({inner})"


@dataclass(frozen=True)
class SelectItem:
    """One output of the select list: a plain expression or an aggregate."""

    expr: object  # Expr | Aggregate
    alias: Optional[str] = None

    @property
    def is_aggregate(self) -> bool:
        return isinstance(self.expr, Aggregate)

@dataclass(frozen=True)
class JoinClause:
    """``JOIN <table> [alias] ON <left> = <right>`` (equi-join only).

    ``left_qual``/``right_qual`` carry the table qualifiers when the join
    keys were written qualified (``ON o.key = l.key``); ``None`` means the
    key was unqualified and the binder resolves it by schema membership.
    """

    table: str
    left_col: str
    right_col: str
    alias: Optional[str] = None
    left_qual: Optional[str] = None
    right_qual: Optional[str] = None


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class Star:
    """``SELECT *``: expanded to every user column by the binder."""


@dataclass(frozen=True)
class SelectStmt:
    """A parsed ``SELECT`` over one table, optionally equi-joined.

    ``joins`` chains left-deep: each clause joins the running result to
    one more table (``FROM a JOIN b ON .. JOIN c ON ..``).

    ``template`` is ``(template, slot inputs)`` when the shape memo
    (:mod:`repro.db.sql.shapes`) instantiated this statement, which lets
    the binder reuse the shape's bound form; None when parsed fresh.
    """

    items: Tuple[SelectItem, ...]
    table: str
    joins: Tuple[JoinClause, ...] = ()
    where: Optional[Expr] = None
    group_by: Tuple[str, ...] = ()
    having: Optional[Expr] = None
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    distinct: bool = False
    offset: Optional[int] = None
    alias: Optional[str] = None
    template: Optional[Tuple[Any, Tuple[Any, ...]]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def has_aggregates(self) -> bool:
        return any(item.is_aggregate for item in self.items)


# ----------------------------------------------------------------------
# Subquery expression nodes.
#
# These are *placeholders*: the statement pipeline executes the inner
# SELECT and substitutes a constant before the binder ever sees the
# statement. Reaching an evaluator means a caller bypassed the pipeline.
# ----------------------------------------------------------------------
class _SubqueryExpr(Expr):
    def columns(self) -> FrozenSet[str]:
        return frozenset()

    def eval_row(self, row: Mapping[str, Any]) -> Any:
        raise SqlError(
            "subqueries must be folded by the statement pipeline "
            "(repro.db.sql.pipeline.Session) before execution"
        )

    def eval_vector(self, cols: Mapping[str, Any]) -> Any:
        self.eval_row({})


@dataclass(frozen=True)
class ScalarSubquery(_SubqueryExpr):
    """``(SELECT ...)`` used as a scalar value (one row, one column)."""

    select: SelectStmt

    def __str__(self) -> str:
        return f"(SELECT ... FROM {self.select.table})"


@dataclass(frozen=True)
class InSubquery(_SubqueryExpr):
    """``term IN (SELECT ...)`` (uncorrelated; folded to an IN list)."""

    term: Expr
    select: SelectStmt

    def columns(self) -> FrozenSet[str]:
        return self.term.columns()

    def __str__(self) -> str:
        return f"({self.term} IN (SELECT ... FROM {self.select.table}))"


# ----------------------------------------------------------------------
# DML / DDL / transaction-control / EXPLAIN statements.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InsertStmt:
    """``INSERT INTO t [(cols)] VALUES (...), (...)`` — constant rows."""

    table: str
    columns: Optional[Tuple[str, ...]]
    rows: Tuple[Tuple[Expr, ...], ...]


@dataclass(frozen=True)
class UpdateStmt:
    """``UPDATE t [alias] SET col = expr, ... [WHERE pred]``."""

    table: str
    assignments: Tuple[Tuple[str, Expr], ...]
    where: Optional[Expr] = None
    alias: Optional[str] = None


@dataclass(frozen=True)
class DeleteStmt:
    """``DELETE FROM t [alias] [WHERE pred]``."""

    table: str
    where: Optional[Expr] = None
    alias: Optional[str] = None


@dataclass(frozen=True)
class CreateTableStmt:
    """``CREATE TABLE t (col TYPE, ...)`` — types per ``repro.db.types``."""

    name: str
    columns: Tuple[Tuple[str, str], ...]  # (column name, type text)


@dataclass(frozen=True)
class DropTableStmt:
    name: str


@dataclass(frozen=True)
class BeginStmt:
    pass


@dataclass(frozen=True)
class CommitStmt:
    pass


@dataclass(frozen=True)
class RollbackStmt:
    pass


@dataclass(frozen=True)
class ExplainStmt:
    """``EXPLAIN [ANALYZE] <statement>``."""

    target: object  # SelectStmt | InsertStmt | UpdateStmt | DeleteStmt
    analyze: bool = False


#: Everything ``parse_statement`` can produce.
Statement = object
