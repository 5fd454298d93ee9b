"""Brute-force SQL oracle: the one answer referee.

Evaluates parsed statements over plain Python dict rows — no numpy, no
binder, no executors, no shape memo, no code shared with the engines
beyond the uncached :class:`~repro.db.sql.parser.Parser`, the frozen
AST dataclasses and, to load a catalog table, the table's reader. Where
the engines pad CHAR values to fixed-width byte strings, the oracle
keeps bare ``str``; where the engines carry ``int32`` columns, the
oracle keeps ``int``. The value contract is
exactly :meth:`repro.db.exec.result.QueryResult.rows`: decoded strings,
Python ints, Python floats.

The oracle *defines* the dialect's answers:

- ``SUM``/``MIN``/``MAX``/``AVG`` accumulate as floats, in row order,
  and reject a CHAR column or string argument with a ``SqlError``;
  ``COUNT`` is an int. A global aggregate over zero rows yields one row
  with ``count=0``, ``sum=0.0``, ``avg=NaN``, ``min=inf``, ``max=-inf``.
- Groups emit sorted by group-key tuple; ``DISTINCT`` emits sorted by
  output tuple.
- ``ORDER BY`` is a stable multi-key sort (last key first, one stable
  pass per key) over the output row; a key that is not an output reads
  the source row's column. ``OFFSET`` skips before ``LIMIT`` counts.
- Joins are left-deep equi-joins in nested-loop order: left rows in
  order, and per left row its matching right rows in table order
  (found through a dict index on the right key). Merged rows let the
  right side win on column-name collisions.
- MVCC slot discipline: ``UPDATE`` retires the old version and appends
  the new one at the end of the scan order, in ascending matched order.
- ``INSERT`` and ``UPDATE`` store a DECIMAL value rounded to its
  column's scale, as the engines' encoder stores it, so later reads and
  arithmetic see the stored value. They refuse with a ``SqlError``, and
  write nothing, a value outside its column's stored range (an integer
  type's, or a DECIMAL's scaled int64) and a fraction for an integer or
  DATE column; a whole float there is kept as an int. Inside a
  transaction a statement is refused when it is issued, as the engines
  refuse it, not at ``COMMIT``.

It also declares each output's type, in numpy's ``dtype.str`` spelling
(spelled out here, not imported), with numpy 2's promotion rules:

- ``COUNT`` is ``<i8``; ``SUM``, ``AVG``, ``MIN`` and ``MAX`` are ``<f8``.
- A column keeps its column's type (``INT32`` → ``<i4``, ``CHAR(n)`` →
  ``|Sn``, ``DECIMAL`` → ``<f8``, ``DATE`` → ``<i4``).
- Arithmetic promotes like numpy arrays: a literal (or a folded scalar
  subquery) takes the other operand's type (``v + 5`` over ``INT32`` is
  ``<i4``), two columns take the wider type, and ``/`` over integers is
  ``<f8``. A constant output is ``<i8`` or ``<f8``.

The oracle also evaluates the subquery forms the statement pipeline
folds (scalar subqueries and ``IN (SELECT ...)``), recursively, against
its own current state — matching the pipeline's fold-then-bind timing
because both see the same committed snapshot between statements. They
are uncorrelated, so each runs once per statement, not once per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.db.expr import (
    And,
    Between,
    BinOp,
    ColumnRef,
    Compare,
    Expr,
    InList,
    Literal,
    Not,
    Or,
)
from repro.db.sql.nodes import (
    Aggregate,
    BeginStmt,
    CommitStmt,
    CreateTableStmt,
    DeleteStmt,
    DropTableStmt,
    InsertStmt,
    InSubquery,
    RollbackStmt,
    ScalarSubquery,
    SelectItem,
    SelectStmt,
    Star,
    UpdateStmt,
)
from repro.db.sql.parser import Parser
from repro.errors import SqlError

Row = Dict[str, Any]

_ARITH: Dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}
_COMPARE: Dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

#: Query-facing type of each fixed SQL column type.
_COLUMN_TYPES = {
    "INT8": "|i1",
    "INT16": "<i2",
    "INT32": "<i4",
    "INT64": "<i8",
    "FLOAT32": "<f4",
    "FLOAT64": "<f8",
    "DATE": "<i4",
    "BOOL": "|i1",
    "TIMESTAMP": "<i8",
}
#: Bits of each integer column type's stored range (DATE is ``<i4``).
_INT_BITS = {"|i1": 8, "<i2": 16, "<i4": 32, "<i8": 64}
#: A Python scalar's type before it meets a column: it takes the other
#: operand's type, or this default when it stands alone.
_WEAK = {"int": "<i8", "float": "<f8"}


def column_type(sql_type: str) -> str:
    """The type a column of SQL type ``sql_type`` has in an answer."""
    name = sql_type.strip().upper()
    if name.startswith("CHAR(") and name.endswith(")"):
        return f"|S{int(name[5:-1])}"
    if name.startswith("DECIMAL"):
        return "<f8"  # scaled ints, rescaled for queries
    try:
        return _COLUMN_TYPES[name]
    except KeyError:
        raise SqlError(f"oracle: unknown column type {sql_type!r}")


def column_scale(sql_type: str) -> Optional[int]:
    """The scale of a DECIMAL column type (``DECIMAL`` alone is
    ``DECIMAL(2)``), None for every other type."""
    name = sql_type.strip().upper()
    if name == "DECIMAL":
        return 2
    if name.startswith("DECIMAL(") and name.endswith(")"):
        return int(name[8:-1])
    return None


def _decimal_scales(columns) -> Dict[str, int]:
    """Name to scale of the DECIMAL columns among ``(name, SQL type)``
    pairs."""
    scales = {name: column_scale(sql_type) for name, sql_type in columns}
    return {name: scale for name, scale in scales.items() if scale is not None}


def _promote(op: str, a: str, b: str) -> str:
    """The type of ``a op b`` (numpy 2 promotion, weak Python scalars)."""
    if a in _WEAK and b in _WEAK:
        return "float" if "float" in (a, b) or op == "/" else "int"
    if a in _WEAK:
        a, b = b, a
    if b == "int" or (b == "float" and a[1] == "f"):
        out = a
    elif b == "float":
        out = "<f8"
    else:
        (ka, sa), (kb, sb) = (a[1], int(a[2:])), (b[1], int(b[2:]))
        if ka == kb:
            out = a if sa >= sb else b
        else:
            si, sf = (sa, sb) if ka == "i" else (sb, sa)
            out = f"<f{min(8, max(sf, 2 * si))}"
    return "<f8" if op == "/" and out[1] == "i" else out


def _non_numeric(expr: object, scope: Dict[str, str]) -> Optional[str]:
    """The CHAR column or string literal that makes ``expr``'s value
    non-numeric, described for an error message, or None."""
    if isinstance(expr, ColumnRef) and scope.get(expr.name, "")[1:2] == "S":
        return f"CHAR column {expr.name!r}"
    if isinstance(expr, Literal) and isinstance(expr.value, (str, bytes)):
        return f"string literal {expr.value!r}"
    if isinstance(expr, BinOp):
        return _non_numeric(expr.left, scope) or _non_numeric(expr.right, scope)
    return None


def plain(value: Any) -> Any:
    """``value`` in the oracle's value space: CHAR bytes decoded to
    ``str``, numpy scalars as Python scalars."""
    if isinstance(value, bytes):
        return value.rstrip(b"\x00").decode(errors="replace")
    item = getattr(value, "item", None)
    return item() if item is not None else value


@dataclass(frozen=True)
class Answer:
    """A SELECT's answer: output names, each output's type (numpy's
    ``dtype.str``) and rows of plain Python values."""

    names: Tuple[str, ...]
    types: Tuple[str, ...]
    rows: List[Tuple]

    @classmethod
    def of(cls, result) -> "Answer":
        """An engine's :class:`~repro.db.exec.result.QueryResult`."""
        names = tuple(result.names)
        types = tuple(result.columns[n].dtype.str for n in names)
        return cls(names, types, result.rows())


def _same(a: Any, b: Any) -> bool:
    return a == b or (a != a and b != b)  # NaN equals NaN


def mismatch(got: Answer, want: Answer) -> Optional[str]:
    """How ``got`` differs from ``want`` — names, then types, then exact
    values row by row — or None when it does not."""
    if got.names != want.names:
        return f"names {got.names} != {want.names}"
    for name, a, b in zip(want.names, got.types, want.types):
        if a != b:
            return f"column {name!r} is {a}, expected {b}"
    if len(got.rows) != len(want.rows):
        return f"{len(got.rows)} rows, expected {len(want.rows)}"
    for i, (ra, rb) in enumerate(zip(got.rows, want.rows)):
        if len(ra) != len(rb) or not all(map(_same, ra, rb)):
            return f"row {i}: {ra} != {rb}"
    return None


class OracleTable:
    """One relation: ordered column names, their types, the scale of each
    DECIMAL column and dict rows."""

    def __init__(
        self,
        name: str,
        columns: Tuple[str, ...],
        types: Tuple[str, ...],
        scales: Dict[str, int],
    ):
        self.name = name
        self.columns = tuple(columns)
        self.types = dict(zip(columns, types))
        self.scales = scales
        self.rows: List[Row] = []

    def stored(self, name: str, value: Any) -> Any:
        """``value`` as column ``name`` keeps it: a DECIMAL is rounded to
        its column's scale as a scaled int, as the engines' encoder rounds
        it, and read back as a float; an integer column keeps a whole
        number as an int. A number the column cannot keep (outside its
        stored range, or a fraction for an integer column) is a
        SqlError."""
        scale = self.scales.get(name)
        bits = 64 if scale is not None else _INT_BITS.get(self.types[name])
        if bits is None or not isinstance(value, (int, float)):
            return value
        try:
            raw = int(value) if scale is None else int(round(float(value) * 10**scale))
        except (OverflowError, ValueError):  # inf or nan
            raw = None
        if raw is None or not -(1 << (bits - 1)) <= raw < 1 << (bits - 1):
            raise SqlError(
                f"oracle: value {value!r} for {name!r} out of range for {self.types[name]}"
            )
        if scale is not None:
            return raw / 10**scale
        if raw != value:
            raise SqlError(f"oracle: value {value!r} for {name!r} is not a whole number")
        return raw


class SqlOracle:
    """Executes the dialect over dict rows."""

    def __init__(self):
        self.tables: Dict[str, OracleTable] = {}
        #: Statements staged by an explicit BEGIN, applied on COMMIT.
        self._txn: Optional[List[object]] = None
        #: Subquery answers of the statement being applied, by node id
        #: (each entry keeps its node alive, so the id stays its own).
        self._subqueries: Dict[int, Tuple[SelectStmt, Answer]] = {}

    # ------------------------------------------------------------------
    # Statement entry points.
    # ------------------------------------------------------------------
    def execute(self, sql: str):
        """Run one statement; SELECT returns an :class:`Answer`, DML the
        affected row count, everything else ``None``."""
        return self.apply(Parser(sql).parse_statement())

    def apply(self, stmt: object):
        if isinstance(stmt, BeginStmt):
            if self._txn is not None:
                raise SqlError("oracle: transaction already open")
            self._txn = []
            return None
        if isinstance(stmt, CommitStmt):
            staged, self._txn = self._txn, None
            if staged is None:
                raise SqlError("oracle: no transaction open")
            for s in staged:
                self._apply_now(s)
            return None
        if isinstance(stmt, RollbackStmt):
            if self._txn is None:
                raise SqlError("oracle: no transaction open")
            self._txn = None
            return None
        if self._txn is not None and isinstance(
            stmt, (InsertStmt, UpdateStmt, DeleteStmt)
        ):
            self._try_staged(stmt)
            self._txn.append(stmt)
            return None
        return self._apply_now(stmt)

    def _try_staged(self, stmt: object) -> None:
        """Raise now what ``stmt`` would raise at COMMIT: apply the staged
        statements and ``stmt`` to copies of the tables' row lists, then
        put the lists back."""
        rows = {name: table.rows for name, table in self.tables.items()}
        try:
            for table in self.tables.values():
                table.rows = list(table.rows)
            for staged in (*self._txn, stmt):
                self._apply_now(staged)
        finally:
            for name, kept in rows.items():
                self.tables[name].rows = kept

    def _apply_now(self, stmt: object):
        # Subqueries are uncorrelated: each runs once per statement.
        self._subqueries = {}
        if isinstance(stmt, SelectStmt):
            return self.select(stmt)
        if isinstance(stmt, InsertStmt):
            return self._insert(stmt)
        if isinstance(stmt, UpdateStmt):
            return self._update(stmt)
        if isinstance(stmt, DeleteStmt):
            return self._delete(stmt)
        if isinstance(stmt, CreateTableStmt):
            if stmt.name in self.tables:
                raise SqlError(f"oracle: table {stmt.name!r} exists")
            self.tables[stmt.name] = OracleTable(
                stmt.name,
                tuple(name for name, _ in stmt.columns),
                tuple(column_type(sql_type) for _, sql_type in stmt.columns),
                _decimal_scales(stmt.columns),
            )
            return None
        if isinstance(stmt, DropTableStmt):
            self.tables.pop(stmt.name, None)
            return None
        raise SqlError(f"oracle: unsupported statement {type(stmt).__name__}")

    def load_table(self, table, snapshot_ts: Optional[int] = None) -> None:
        """Register a catalog :class:`~repro.db.table.Table` under its
        name: its user columns, over the rows an MVCC table shows at
        ``snapshot_ts`` (every slot when None), in slot order."""
        schema = table.schema
        names = tuple(c.name for c in schema.user_columns)
        loaded = OracleTable(
            schema.name,
            names,
            tuple(column_type(c.dtype.name) for c in schema.user_columns),
            _decimal_scales((c.name, c.dtype.name) for c in schema.user_columns),
        )
        values = table.read(names)
        columns = [[plain(v) for v in values[n].tolist()] for n in names]
        loaded.rows = [dict(zip(names, row)) for row in zip(*columns)]
        if snapshot_ts is not None and schema.mvcc:
            # The snapshot rule, read off the stamps: begin <= ts < end.
            stamps = zip(table.begin_ts.tolist(), table.end_ts.tolist())
            loaded.rows = [
                row for row, (begin, end) in zip(loaded.rows, stamps)
                if begin <= snapshot_ts < end
            ]
        self.tables[schema.name] = loaded

    # ------------------------------------------------------------------
    # DML.
    # ------------------------------------------------------------------
    def _table(self, name: str) -> OracleTable:
        try:
            return self.tables[name]
        except KeyError:
            raise SqlError(f"oracle: unknown table {name!r}")

    def _insert(self, stmt: InsertStmt) -> int:
        table = self._table(stmt.table)
        names = stmt.columns if stmt.columns is not None else table.columns
        rows = []
        for values in stmt.rows:
            if len(values) != len(names):
                raise SqlError("oracle: INSERT arity mismatch")
            rows.append(
                {n: table.stored(n, self._eval(e, {})) for n, e in zip(names, values)}
            )
        # Every row is checked before the first is written.
        table.rows.extend(rows)
        return len(stmt.rows)

    def _update(self, stmt: UpdateStmt) -> int:
        table = self._table(stmt.table)
        matched = [
            r
            for r in table.rows
            if stmt.where is None or self._eval(stmt.where, r)
        ]
        if not matched:
            return 0
        # Every SET value is computed against the table as it stands, each
        # from its pre-update row; then the new versions land at the end
        # of scan order (the MVCC slot discipline).
        updated = [
            {
                **old,
                **{
                    name: table.stored(name, self._eval(expr, old))
                    for name, expr in stmt.assignments
                },
            }
            for old in matched
        ]
        hit = set(map(id, matched))
        table.rows = [r for r in table.rows if id(r) not in hit] + updated
        return len(matched)

    def _delete(self, stmt: DeleteStmt) -> int:
        table = self._table(stmt.table)
        keep = [
            r
            for r in table.rows
            if not (stmt.where is None or self._eval(stmt.where, r))
        ]
        removed = len(table.rows) - len(keep)
        table.rows = keep
        return removed

    # ------------------------------------------------------------------
    # SELECT.
    # ------------------------------------------------------------------
    def select(self, stmt: SelectStmt) -> Answer:
        table = self._table(stmt.table)
        rows: List[Row] = [dict(r) for r in table.rows]
        scope = set(table.columns)
        for clause in stmt.joins:
            right = self._table(clause.table)
            left_col, right_col = clause.left_col, clause.right_col
            if left_col not in scope:  # written ``ON right = left``
                left_col, right_col = right_col, left_col
            index: Dict[Any, List[Row]] = {}
            for rrow in right.rows:
                index.setdefault(rrow[right_col], []).append(rrow)
            joined: List[Row] = []
            for lrow in rows:
                for rrow in index.get(lrow[left_col], ()):
                    merged = dict(lrow)
                    merged.update(rrow)
                    joined.append(merged)
            rows = joined
            scope.update(right.columns)
        if stmt.where is not None:
            rows = [r for r in rows if self._eval(stmt.where, r)]

        items = self._items(stmt)
        names = tuple(self._output_name(item, pos) for pos, item in enumerate(items))
        types = self._output_types(stmt)

        # (output row, the row ORDER BY reads) pairs.
        if stmt.group_by or any(isinstance(i.expr, Aggregate) for i in items):
            out = [(r, r) for r in self._aggregate(items, names, stmt.group_by, rows)]
        else:
            out = []
            for r in rows:
                row = {n: self._eval(item.expr, r) for n, item in zip(names, items)}
                out.append((row, {**r, **row}))

        if stmt.having is not None:
            out = [pair for pair in out if self._eval(stmt.having, pair[0])]
        if stmt.distinct:
            seen: Dict[Tuple, Tuple[Row, Row]] = {}
            for pair in out:
                seen.setdefault(tuple(pair[0][n] for n in names), pair)
            out = [seen[k] for k in sorted(seen)]
        for item in reversed(stmt.order_by):
            out.sort(
                key=lambda pair: self._eval(item.expr, pair[1]),
                reverse=item.descending,
            )
        offset = stmt.offset or 0
        if stmt.limit is not None or offset:
            stop = None if stmt.limit is None else offset + stmt.limit
            out = out[offset:stop]
        return Answer(names, types, [tuple(row[n] for n in names) for row, _ in out])

    def _items(self, stmt: SelectStmt) -> Tuple[SelectItem, ...]:
        items = stmt.items
        if len(items) == 1 and isinstance(items[0].expr, Star):
            items = tuple(
                SelectItem(expr=ColumnRef(name))
                for name in self._table(stmt.table).columns
            )
        return items

    @staticmethod
    def _output_name(item: SelectItem, pos: int) -> str:
        if item.alias:
            return item.alias
        expr = item.expr
        if isinstance(expr, Aggregate):
            return f"{expr.func}_{pos}"
        if isinstance(expr, ColumnRef):
            return expr.name
        return f"col{pos}"

    def _output_types(self, stmt: SelectStmt) -> Tuple[str, ...]:
        scope = dict(self._table(stmt.table).types)
        for clause in stmt.joins:
            scope.update(self._table(clause.table).types)
        types = (self._type(item.expr, scope) for item in self._items(stmt))
        return tuple(_WEAK.get(t, t) for t in types)

    def _type(self, expr: object, scope: Dict[str, str]) -> str:
        if isinstance(expr, Aggregate):
            if expr.func == "count":
                return "<i8"
            culprit = _non_numeric(expr.arg, scope)
            if culprit is not None:
                raise SqlError(
                    f"oracle: {expr.func.upper()} needs a numeric argument, "
                    f"got {culprit}"
                )
            return "<f8"
        if isinstance(expr, ColumnRef):
            try:
                return scope[expr.name]
            except KeyError:
                raise SqlError(f"oracle: no column {expr.name!r}")
        if isinstance(expr, BinOp):
            return _promote(
                expr.op, self._type(expr.left, scope), self._type(expr.right, scope)
            )
        if isinstance(expr, Literal) and type(expr.value) in (int, float):
            return type(expr.value).__name__
        if isinstance(expr, ScalarSubquery):
            # Folded to the Python value of its one output.
            kind = self._output_types(expr.select)[0][1]
            if kind in "if":
                return "int" if kind == "i" else "float"
        raise SqlError(f"oracle: {expr} has no numeric output type")

    def _aggregate(
        self,
        items: Tuple[SelectItem, ...],
        names: Tuple[str, ...],
        group_by: Tuple[str, ...],
        rows: List[Row],
    ) -> List[Row]:
        groups: Dict[Tuple, List[Row]] = {}
        for r in rows:
            groups.setdefault(tuple(r[g] for g in group_by), []).append(r)
        if not groups and not group_by:
            groups[()] = []
        out: List[Row] = []
        for key in sorted(groups):
            grp = groups[key]
            row: Row = {}
            for name, item in zip(names, items):
                expr = item.expr
                if isinstance(expr, Aggregate):
                    row[name] = self._agg_value(expr, grp)
                else:
                    if not isinstance(expr, ColumnRef) or expr.name not in group_by:
                        raise SqlError(
                            f"oracle: output {name!r} is neither aggregated "
                            f"nor a group key"
                        )
                    row[name] = key[group_by.index(expr.name)]
            out.append(row)
        return out

    def _agg_value(self, agg: Aggregate, grp: List[Row]):
        if agg.func == "count":
            return len(grp)
        vals = [float(self._eval(agg.arg, r)) for r in grp]
        acc = 0.0
        for v in vals:
            acc += v
        if agg.func == "sum":
            return acc
        if agg.func == "avg":
            return acc / len(vals) if vals else float("nan")
        if agg.func == "min":
            return min(vals) if vals else float("inf")
        if agg.func == "max":
            return max(vals) if vals else float("-inf")
        raise SqlError(f"oracle: unknown aggregate {agg.func!r}")

    # ------------------------------------------------------------------
    # Expression evaluation (with recursive subqueries).
    # ------------------------------------------------------------------
    def _eval(self, expr: Expr, row: Row):
        if isinstance(expr, ColumnRef):
            try:
                return row[expr.name]
            except KeyError:
                raise SqlError(f"oracle: row has no column {expr.name!r}")
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, ScalarSubquery):
            return self._scalar_subquery(expr.select)
        if isinstance(expr, InSubquery):
            v = self._eval(expr.term, row)
            return any(v == r[0] for r in self._subquery(expr.select).rows)
        if isinstance(expr, BinOp):
            return _ARITH[expr.op](
                self._eval(expr.left, row), self._eval(expr.right, row)
            )
        if isinstance(expr, Compare):
            return _COMPARE[expr.op](
                self._eval(expr.left, row), self._eval(expr.right, row)
            )
        if isinstance(expr, And):
            return all(self._eval(t, row) for t in expr.terms)
        if isinstance(expr, Or):
            return any(self._eval(t, row) for t in expr.terms)
        if isinstance(expr, Not):
            return not self._eval(expr.term, row)
        if isinstance(expr, Between):
            v = self._eval(expr.term, row)
            return (
                self._eval(expr.low, row) <= v <= self._eval(expr.high, row)
            )
        if isinstance(expr, InList):
            v = self._eval(expr.term, row)
            return any(v == x for x in expr.values)
        raise SqlError(f"oracle: unknown expression {type(expr).__name__}")

    def _subquery(self, select: SelectStmt) -> Answer:
        """``select``'s answer, run once for the statement being applied."""
        cached = self._subqueries.get(id(select))
        if cached is None:
            cached = self._subqueries[id(select)] = (select, self.select(select))
        return cached[1]

    def _scalar_subquery(self, select: SelectStmt):
        answer = self._subquery(select)
        if len(answer.names) != 1 or len(answer.rows) != 1:
            raise SqlError(
                f"oracle: scalar subquery returned {len(answer.rows)} rows x "
                f"{len(answer.names)} columns"
            )
        return answer.rows[0][0]
