"""Binding: resolve parsed statements against the catalog.

The binder validates column references, pads CHAR literals to their
column width (so vectorized byte-string comparisons are exact), splits
the WHERE clause into conjuncts, and — crucially for the fabric — derives
the **referenced column group**: exactly the columns the query touches,
which becomes the ephemeral geometry of the RM engine and the stream set
of the column engine.

Name resolution works over a *scope*: the main table plus each joined
table, addressed by alias (or table name when unaliased). Unqualified
names that resolve in more than one scope entry are ambiguous and
rejected; qualified names (``o.amount``) resolve against their entry and
are stripped to bare :class:`ColumnRef`\\ s — executors key batches by
bare column name, which also means a join between tables sharing a
column name is rejected when that name is referenced.

DML statements bind through :func:`bind_insert` / :func:`bind_update` /
:func:`bind_delete` into small bound forms the statement pipeline runs
as MVCC transactions.

A ``SELECT`` the shape memo instantiated (:mod:`repro.db.sql.shapes`)
binds once per shape: :class:`BoundTemplate` keeps the shape's bound form
and rebinds only the literal slots (their CHAR padding) for each new
statement, while every table it names is still the catalog's table of
that name. Every query it makes shares the template's :class:`QueryShape`,
so what the engines and the executor derive from the literal-free parts
of a query is derived once per shape.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.geometry import DataGeometry
from repro.db.catalog import Catalog
from repro.db.expr import (
    And,
    BinOp,
    ColumnRef,
    Compare,
    Expr,
    InList,
    Literal,
    conjuncts,
    op_count,
    rewrite,
)
from repro.db.schema import TableSchema
from repro.db.sql.shapes import Recipe, Template
from repro.db.sql.nodes import (
    Aggregate,
    DeleteStmt,
    InsertStmt,
    InSubquery,
    OrderItem,
    ScalarSubquery,
    SelectStmt,
    UpdateStmt,
)
from repro.db.table import Table
from repro.errors import ReproError, SqlError


@dataclass(frozen=True)
class BoundOutput:
    """One output column of the query."""

    name: str
    #: "expr" for plain expressions / group keys, or an aggregate function.
    kind: str  # "expr" | "sum" | "avg" | "count" | "min" | "max"
    expr: Optional[Expr]  # None only for COUNT(*)


@dataclass(frozen=True)
class BoundJoin:
    """One equi-join step in a left-deep chain.

    ``left_col`` lives in the main table *or* in any previously joined
    table; ``right_col`` always lives in ``table``.
    """

    table: Table
    left_col: str
    right_col: str


class QueryShape:
    """The literal-free facts of a bound query: what the engines and the
    executor derive from it that no literal value changes.

    A fresh bind gets a shape of its own; every query a
    :class:`BoundTemplate` instantiates shares the template's, so a
    statement whose shape the memo has seen derives none of these facts
    again. Each fact is a :class:`BoundQuery` attribute declared with
    :class:`shaped`: the first query of the shape that reads it computes it
    and stores it here. No fact is a :class:`Table`, or holds one (the
    memo keeps up to 512 shapes, and DROP must be able to free a table).
    """


class shaped:
    """Declare a :class:`BoundQuery` fact kept on the query's
    :class:`QueryShape` (a ``cached_property`` per shape): ``build(query)``
    runs once per shape, on first read, and must read only what every
    query of the shape shares (column names, operators, the tables'
    schemas), never a literal's value."""

    def __init__(self, build: Callable[["BoundQuery"], Any]):
        self.build = build
        self.name = build.__name__
        self.__doc__ = build.__doc__

    def __get__(self, query, owner=None):
        if query is None:
            return self
        facts = query.shape.__dict__
        try:
            return facts[self.name]
        except KeyError:
            value = facts[self.name] = self.build(query)
            return value


@dataclass
class BoundQuery:
    """A validated query ready for any engine to execute."""

    table: Table
    outputs: Tuple[BoundOutput, ...]
    where: Optional[Expr]
    where_conjuncts: Tuple[Expr, ...]
    group_by: Tuple[str, ...]
    order_by: Tuple[OrderItem, ...]
    limit: Optional[int]
    joins: Tuple[BoundJoin, ...]
    #: Post-aggregation filter over output columns, or None.
    having: Optional[Expr]
    #: Deduplicate result rows (SELECT DISTINCT).
    distinct: bool
    #: Columns of the main table the query touches, in schema order.
    referenced_columns: Tuple[str, ...]
    #: Columns referenced by the WHERE clause only.
    selection_columns: Tuple[str, ...]
    #: Columns referenced by outputs / grouping / ordering only.
    projection_columns: Tuple[str, ...]
    #: WHERE conjuncts touching only main-table columns — evaluated as a
    #: pre-join mask over the scan. Equals ``where`` when every conjunct
    #: is main-table-only (notably all join-free queries).
    where_main: Optional[Expr] = None
    #: Remaining conjuncts (referencing joined columns) — evaluated after
    #: the join chain, before aggregation.
    where_post: Optional[Expr] = None
    #: Rows to skip before LIMIT applies (OFFSET clause).
    offset: Optional[int] = None
    #: The facts this query shares with every statement of its shape;
    #: outside ``repr`` and ``==``, which compare the bound form alone.
    shape: QueryShape = field(default_factory=QueryShape, repr=False, compare=False)

    @shaped
    def has_aggregates(self) -> bool:
        return any(o.kind != "expr" for o in self.outputs)

    @shaped
    def aggregate_count(self) -> int:
        return sum(1 for o in self.outputs if o.kind != "expr")

    @shaped
    def where_op_count(self) -> int:
        """Operators of the WHERE clause (``op_count`` counts no literal
        value; an IN list's length is part of the shape)."""
        return op_count(self.where) if self.where is not None else 0

    @shaped
    def output_op_count(self) -> int:
        return sum(op_count(o.expr) for o in self.outputs if o.expr is not None)

    @shaped
    def projection_only_columns(self) -> Tuple[str, ...]:
        """Projection columns the WHERE clause does not reference."""
        return tuple(
            c for c in self.projection_columns if c not in self.selection_columns
        )

    @shaped
    def where_main_columns(self) -> Tuple[str, ...]:
        """Main-table columns ``where_main`` reads, in schema order."""
        used = set() if self.where_main is None else set(self.where_main.columns())
        return tuple(c for c in self.referenced_columns if c in used)

    @shaped
    def answer_columns(self) -> Tuple[str, ...]:
        """Main-table columns the answer path reads, in schema order: the
        projection columns and those ``where_post`` reads; when there are
        none (COUNT(*) alone, a constant output), the first referenced
        column, whose length is the row count."""
        post = set() if self.where_post is None else set(self.where_post.columns())
        used = post.union(self.projection_columns)
        return tuple(c for c in self.referenced_columns if c in used) or (
            self.referenced_columns[:1]
        )

    @shaped
    def late_columns(self) -> Tuple[str, ...]:
        """Answer columns ``where_main`` does not read: read at the
        qualifying rows only."""
        return tuple(
            c for c in self.answer_columns if c not in self.where_main_columns
        )

    @shaped
    def scan_geometry(self) -> DataGeometry:
        """The referenced columns' geometry: the fabric's ephemeral scan."""
        return self.table.schema.geometry(self.referenced_columns)

    @shaped
    def fragment_signatures(self) -> Dict[str, str]:
        """The compiled code fragment's signature per layout, filled by
        :meth:`~repro.db.plan.codecache.CodeFragmentCache.lookup` on the
        shape's first lookup under each layout
        (:func:`~repro.db.plan.codecache.fragment_signature` blanks every
        literal)."""
        return {}

    @shaped
    def kernel(self):
        """The :class:`~repro.db.exec.vector.FusedKernel` compiled for this
        shape; it runs with each statement's own query."""
        from repro.db.exec.vector import FusedKernel

        return FusedKernel(self)


class _Scope:
    """Name resolution over the tables a statement has in scope."""

    def __init__(self, trail: Optional[Dict[int, Tuple[Expr, Optional[int]]]] = None):
        self.entries: List[Tuple[str, TableSchema]] = []
        #: When set, records ``id(parsed node) -> (bound node, CHAR width)``
        #: for padded literals and IN lists (see :class:`BoundTemplate`).
        self.trail = trail

    def add(self, key: str, schema: TableSchema) -> None:
        if any(k == key for k, _ in self.entries):
            raise SqlError(
                f"duplicate table name or alias {key!r} in FROM/JOIN; "
                "alias one of the occurrences differently"
            )
        self.entries.append((key, schema))

    @property
    def schemas(self) -> Tuple[TableSchema, ...]:
        return tuple(s for _, s in self.entries)

    def resolve(self, ref: ColumnRef) -> ColumnRef:
        """Validate ``ref`` and return it with the qualifier stripped."""
        if ref.qualifier is not None:
            matches = [s for k, s in self.entries if k == ref.qualifier]
            if not matches:
                known = ", ".join(repr(k) for k, _ in self.entries)
                raise SqlError(
                    f"unknown table alias {ref.qualifier!r} "
                    f"(in scope: {known})"
                )
            if not matches[0].has_column(ref.name):
                raise SqlError(
                    f"table {ref.qualifier!r} has no column {ref.name!r}"
                )
            holders = [k for k, s in self.entries if s.has_column(ref.name)]
            if len(holders) > 1:
                raise SqlError(
                    f"column {ref.name!r} exists in multiple joined tables "
                    f"({', '.join(repr(h) for h in holders)}); this dialect "
                    "executes joins over a flat column namespace and needs "
                    "distinct column names"
                )
            return ColumnRef(name=ref.name)
        holders = [k for k, s in self.entries if s.has_column(ref.name)]
        if not holders:
            raise SqlError(f"unknown column {ref.name!r}")
        if len(holders) > 1:
            raise SqlError(
                f"ambiguous column {ref.name!r}: present in "
                f"{', '.join(repr(h) for h in holders)} — qualify it"
            )
        return ColumnRef(name=ref.name) if ref.qualifier else ref


def bind(stmt: SelectStmt, catalog: Catalog) -> BoundQuery:
    """Validate ``stmt`` against ``catalog`` and return a bound query.

    A statement instantiated by the shape memo reuses its shape's
    :class:`BoundTemplate`; the result equals a fresh bind.
    """
    if stmt.template is not None and not stmt.template[0].has_subquery:
        template, inputs = stmt.template
        record = template.bound
        tables = None if record is None else record.current_tables(catalog)
        if tables is None and not (
            isinstance(record, _Unbindable) and record.unchanged(catalog)
        ):
            try:
                record = template.bound = BoundTemplate(template, catalog)
            except ReproError:  # the fresh bind below raises it
                template.bound = _Unbindable(template.stmt, catalog)
            else:
                tables = record.current_tables(catalog)
        if tables is not None:
            return record.instantiate(inputs, tables)
    return _bind_select(stmt, catalog)


def _table_in(catalog: Catalog, name: str) -> Optional[Table]:
    return catalog.table(name) if catalog.has_table(name) else None


class _Unbindable:
    """A shape whose template failed to bind, with the table each of its
    names resolved to then (None: no such table). While the catalog still
    resolves them so, the bind fails again: its statements bind fresh
    (and raise) without building the template once more."""

    def __init__(self, stmt: SelectStmt, catalog: Catalog):
        self.tables = tuple(
            (name, None if table is None else weakref.ref(table))
            for name in (stmt.table, *(c.table for c in stmt.joins))
            for table in (_table_in(catalog, name),)
        )

    def current_tables(self, catalog: Catalog) -> None:
        return None

    def unchanged(self, catalog: Catalog) -> bool:
        return all(
            _table_in(catalog, name) is (None if ref is None else ref())
            for name, ref in self.tables
        )


class BoundTemplate:
    """A shape's bound form: the bind of its template statement, with the
    places each literal slot landed in (and its CHAR padding width).

    Tables are held weakly and checked on every reuse: DROP + CREATE
    makes a new :class:`Table`, and the old bind would read the dropped
    one.
    """

    def __init__(self, template: Template, catalog: Catalog):
        trail: Dict[int, Tuple[Expr, Optional[int]]] = {}
        bound = _bind_select(template.stmt, catalog, trail)
        # Where each slot landed: the padded copy of its literal or IN
        # list when the binder made one, else the parsed node itself.
        slots = []
        for slot in template.slots:
            node, width = trail.get(id(slot.node), (slot.node, None))
            slots.append(_BoundSlot(node, slot.member, width))
        #: CHAR padding width per slot (None: the value binds as parsed).
        self.widths = tuple(s.width for s in slots)
        self.members = tuple(s.member is not None for s in slots)
        self.recipe = Recipe.of(
            (bound.outputs, bound.where, bound.where_conjuncts, bound.order_by,
             bound.having, bound.where_main, bound.where_post),
            slots,
        )
        if self.recipe is None:
            raise SqlError("a literal slot is missing from the bound form")
        # Everything else of the bound form is literal-free; tables are
        # held weakly and looked up again on every reuse.
        self.query = replace(
            bound,
            table=None,
            joins=tuple(replace(j, table=None) for j in bound.joins),
        )
        self.tables = tuple(
            (t.schema.name, weakref.ref(t))
            for t in (bound.table, *(j.table for j in bound.joins))
        )

    def current_tables(self, catalog: Catalog) -> Optional[Tuple[Table, ...]]:
        """The tables this form binds, if each is still the catalog's
        table of its name; None otherwise."""
        out = []
        for name, ref in self.tables:
            table = ref()
            if table is None or _table_in(catalog, name) is not table:
                return None
            out.append(table)
        return tuple(out)

    def instantiate(self, inputs, tables: Tuple[Table, ...]) -> BoundQuery:
        """The bound form with a statement's slot ``inputs`` (see
        :meth:`repro.db.sql.shapes.Template.instantiate`): equal to a
        fresh bind of that statement."""
        (outputs, where, where_conjuncts, order_by, having, where_main,
         where_post) = self.recipe.run([
            x if width is None
            else _pad(x, width) if member
            else Literal(_pad(x.value, width))
            for x, width, member in zip(inputs, self.widths, self.members)
        ])
        return replace(
            self.query,
            table=tables[0],
            joins=tuple(
                replace(j, table=t) for t, j in zip(tables[1:], self.query.joins)
            ),
            outputs=outputs,
            where=where,
            where_conjuncts=where_conjuncts,
            order_by=order_by,
            having=having,
            where_main=where_main,
            where_post=where_post,
        )


@dataclass(frozen=True)
class _BoundSlot:
    """Where one literal slot sits in a bound form (see :class:`Recipe`)."""

    node: Any
    member: Optional[int]
    width: Optional[int]


def _bind_select(
    stmt: SelectStmt,
    catalog: Catalog,
    trail: Optional[Dict[int, Tuple[Expr, Optional[int]]]] = None,
) -> BoundQuery:
    table = catalog.table(stmt.table)
    schema = table.schema

    # Build the scope first (every table + alias), then validate join
    # keys against it: a key may come from the main table or any table
    # already joined in (left-deep chaining).
    scope = _Scope(trail)
    scope.add(stmt.alias or stmt.table, schema)
    joins: List[BoundJoin] = []
    prior_schemas: List[TableSchema] = [schema]
    prior_keys: List[str] = [stmt.alias or stmt.table]
    for clause in stmt.joins:
        join_table = catalog.table(clause.table)
        join_schema = join_table.schema
        join_key = clause.alias or clause.table
        scope.add(join_key, join_schema)

        def _in_prior(qual: Optional[str], col: str) -> bool:
            if qual is not None:
                return qual in prior_keys and any(
                    s.has_column(col)
                    for k, s in zip(prior_keys, prior_schemas)
                    if k == qual
                )
            return any(s.has_column(col) for s in prior_schemas)

        def _in_joined(qual: Optional[str], col: str) -> bool:
            if qual is not None:
                return qual == join_key and join_schema.has_column(col)
            return join_schema.has_column(col)

        left_qual, left_col = clause.left_qual, clause.left_col
        right_qual, right_col = clause.right_qual, clause.right_col
        if _in_prior(left_qual, left_col) and _in_joined(right_qual, right_col):
            pass  # canonical orientation
        elif _in_joined(left_qual, left_col) and _in_prior(right_qual, right_col):
            left_qual, left_col, right_qual, right_col = (
                right_qual, right_col, left_qual, left_col,
            )
        else:
            raise SqlError(
                f"join keys {clause.left_col!r} = {clause.right_col!r} must "
                f"pair one column of {join_key!r} with one column of the "
                f"tables already in scope"
            )
        joins.append(
            BoundJoin(table=join_table, left_col=left_col, right_col=right_col)
        )
        prior_schemas.append(join_schema)
        prior_keys.append(join_key)
    schemas = scope.schemas

    def resolve(expr: Expr) -> Expr:
        return _bind_expr(expr, scope)

    items = stmt.items
    from repro.db.sql.nodes import SelectItem, Star

    if len(items) == 1 and isinstance(items[0].expr, Star):
        items = tuple(
            SelectItem(expr=ColumnRef(name)) for name in schema.column_names
        )

    outputs: List[BoundOutput] = []
    for pos, item in enumerate(items):
        if item.is_aggregate:
            agg: Aggregate = item.expr
            bound_arg = resolve(agg.arg) if agg.arg is not None else None
            if agg.func != "count" and bound_arg is not None:
                culprit = _non_numeric(bound_arg, schemas)
                if culprit is not None:
                    raise SqlError(
                        f"{agg.func.upper()} needs a numeric argument, "
                        f"got {culprit}"
                    )
            name = item.alias or f"{agg.func}_{pos}"
            outputs.append(BoundOutput(name=name, kind=agg.func, expr=bound_arg))
        else:
            bound = resolve(item.expr)
            name = item.alias or (
                bound.name if isinstance(bound, ColumnRef) else f"col{pos}"
            )
            outputs.append(BoundOutput(name=name, kind="expr", expr=bound))

    if stmt.group_by:
        for name in stmt.group_by:
            scope.resolve(ColumnRef(name=name))
        non_agg = [o for o in outputs if o.kind == "expr"]
        for o in non_agg:
            if not isinstance(o.expr, ColumnRef) or o.expr.name not in stmt.group_by:
                raise SqlError(
                    f"output {o.name!r} is neither aggregated nor in GROUP BY"
                )
    elif any(o.kind != "expr" for o in outputs) and any(
        o.kind == "expr" for o in outputs
    ):
        raise SqlError("mixing aggregates and plain columns needs GROUP BY")

    where = resolve(stmt.where) if stmt.where is not None else None
    # Split the WHERE into a pre-join mask (conjuncts over main-table
    # columns only) and a post-join residue. When nothing references a
    # joined column the original expression is reused verbatim so plans,
    # signatures, and cost recipes are unchanged.
    where_main: Optional[Expr] = where
    where_post: Optional[Expr] = None
    if where is not None and joins:
        main_parts: List[Expr] = []
        post_parts: List[Expr] = []
        for part in conjuncts(where):
            if all(schema.has_column(c) for c in part.columns()):
                main_parts.append(part)
            else:
                post_parts.append(part)
        if post_parts:
            where_main = _recombine(main_parts)
            where_post = _recombine(post_parts)
    # ORDER BY may reference output aliases (SQL scoping): leave those
    # unresolved against the schema — they bind to the result columns.
    output_names = {o.name for o in outputs}

    def resolve_order(expr: Expr) -> Expr:
        if isinstance(expr, ColumnRef) and expr.qualifier is None \
                and expr.name in output_names:
            return expr
        return resolve(expr)

    order_by = tuple(
        OrderItem(expr=resolve_order(o.expr), descending=o.descending)
        for o in stmt.order_by
    )
    # HAVING sees the output names (bound to their expressions, so a
    # CHAR key's alias pads like the key) and the group keys.
    having = None
    if stmt.having is not None:
        aliases = {o.name: o.expr if o.kind == "expr" else None for o in outputs}
        having = _bind_expr(stmt.having, scope, aliases)

    sel_cols = _columns_of(where, schema) if where is not None else []
    proj_cols: List[str] = []
    for o in outputs:
        if o.expr is not None:
            proj_cols.extend(_columns_of(o.expr, schema))
    proj_cols.extend(c for c in stmt.group_by)
    for o in order_by:
        proj_cols.extend(_columns_of(o.expr, schema))
    if having is not None:
        proj_cols.extend(_columns_of(having, schema))
    for bj in joins:
        # Main-table probe keys are touched for every row (keys living in
        # a previously joined table ride along as join outputs instead).
        if schema.has_column(bj.left_col):
            proj_cols.append(bj.left_col)

    referenced = _in_schema_order(schema, set(sel_cols) | set(proj_cols))
    if not referenced:
        # COUNT(*)-only queries still need to see row existence; touch the
        # narrowest column.
        narrowest = min(schema.user_columns, key=lambda c: c.dtype.width)
        referenced = (narrowest.name,)

    return BoundQuery(
        table=table,
        outputs=tuple(outputs),
        where=where,
        where_conjuncts=conjuncts(where) if where is not None else (),
        group_by=stmt.group_by,
        order_by=order_by,
        limit=stmt.limit,
        joins=tuple(joins),
        having=having,
        distinct=stmt.distinct,
        referenced_columns=referenced,
        selection_columns=_in_schema_order(schema, set(sel_cols)),
        projection_columns=_in_schema_order(schema, set(proj_cols)),
        where_main=where_main,
        where_post=where_post,
        offset=stmt.offset,
    )


# ----------------------------------------------------------------------
# DML binding.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BoundInsert:
    """Constant rows ready to insert, keyed by column name."""

    table: Table
    rows: Tuple[Dict[str, Any], ...]


@dataclass(frozen=True)
class BoundUpdate:
    """SET expressions (bound against the table) plus an optional filter;
    ``reads`` names the columns the SET expressions read."""

    table: Table
    assignments: Tuple[Tuple[str, Expr], ...]
    where: Optional[Expr]
    reads: Tuple[str, ...] = ()


@dataclass(frozen=True)
class BoundDelete:
    table: Table
    where: Optional[Expr]


def _dml_scope(table_name: str, alias: Optional[str], schema) -> _Scope:
    scope = _Scope()
    scope.add(alias or table_name, schema)
    return scope


def bind_insert(stmt: InsertStmt, catalog: Catalog) -> BoundInsert:
    table = catalog.table(stmt.table)
    schema = table.schema
    columns = stmt.columns or tuple(c.name for c in schema.user_columns)
    seen = set()
    for name in columns:
        _require_column(schema, name)
        if name in seen:
            raise SqlError(f"column {name!r} named twice in INSERT")
        seen.add(name)
    missing = [c.name for c in schema.user_columns if c.name not in seen]
    if missing:
        raise SqlError(
            f"INSERT must provide every column of {schema.name!r} "
            f"(missing {', '.join(repr(m) for m in missing)}); this "
            "dialect has no column defaults"
        )
    rows: List[Dict[str, Any]] = []
    for row in stmt.rows:
        if len(row) != len(columns):
            raise SqlError(
                f"INSERT row has {len(row)} values for {len(columns)} columns"
            )
        values: Dict[str, Any] = {}
        for name, expr in zip(columns, row):
            if expr.columns():
                raise SqlError(
                    f"INSERT value for {name!r} must be a constant expression"
                )
            value = _coerce_constant(expr, schema, name)
            _check_insert_value(value, schema, name)
            values[name] = value
        rows.append(values)
    return BoundInsert(table=table, rows=tuple(rows))


def _check_insert_value(value: Any, schema: TableSchema, name: str) -> None:
    """Refuse, before any row is written, a constant that column ``name``
    cannot store: text for a number or a number for text, a number
    outside the column's range, or a fraction for a whole-number column."""
    dtype = schema.column(name).dtype
    if isinstance(value, (str, bytes)) != (dtype.np_dtype is None):
        raise SqlError(f"INSERT value for {name!r} is not of type {dtype.name}")
    if not dtype.fits((value,)):
        raise SqlError(f"INSERT value for {name!r} out of range for {dtype.name}")
    if not dtype.whole((value,)):
        raise SqlError(f"INSERT value for {name!r} is not a whole number for {dtype.name}")


def bind_update(stmt: UpdateStmt, catalog: Catalog) -> BoundUpdate:
    table = catalog.table(stmt.table)
    schema = table.schema
    scope = _dml_scope(stmt.table, stmt.alias, schema)
    seen = set()
    assignments: List[Tuple[str, Expr]] = []
    for name, expr in stmt.assignments:
        _require_column(schema, name)
        if name in seen:
            raise SqlError(f"column {name!r} assigned twice in UPDATE")
        seen.add(name)
        assignments.append((name, _bind_expr(expr, scope)))
    where = _bind_expr(stmt.where, scope) if stmt.where is not None else None
    reads = sorted(set().union(*(expr.columns() for _, expr in assignments)))
    return BoundUpdate(table, tuple(assignments), where, tuple(reads))


def bind_delete(stmt: DeleteStmt, catalog: Catalog) -> BoundDelete:
    table = catalog.table(stmt.table)
    scope = _dml_scope(stmt.table, stmt.alias, table.schema)
    where = _bind_expr(stmt.where, scope) if stmt.where is not None else None
    return BoundDelete(table=table, where=where)


def _coerce_constant(expr: Expr, schema: TableSchema, name: str) -> Any:
    try:
        value = expr.eval_vector({})
    except SqlError:
        raise
    except Exception as exc:  # noqa: BLE001 — surface as a bind error
        raise SqlError(f"cannot evaluate INSERT value for {name!r}: {exc}")
    return value


def _recombine(parts: List[Expr]) -> Optional[Expr]:
    """Re-AND a conjunct subset (None / single term / And)."""
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return And(terms=tuple(parts))


def _in_schema_order(schema: TableSchema, names: set) -> Tuple[str, ...]:
    return tuple(c.name for c in schema.user_columns if c.name in names)


def _require_column(schema: TableSchema, name: str) -> None:
    if not schema.has_column(name):
        raise SqlError(f"table {schema.name!r} has no column {name!r}")


def _columns_of(expr: Expr, schema: TableSchema) -> List[str]:
    return [c for c in expr.columns() if schema.has_column(c)]


def _bind_expr(
    expr: Expr, scope: _Scope, aliases: Mapping[str, Optional[Expr]] = {}
) -> Expr:
    """Validate references and pad CHAR literals in comparisons.

    ``scope`` lists the tables the statement can see: the main table
    first, then each joined table in join order, addressed by alias.
    ``aliases`` maps the output names an unqualified reference may also
    name (HAVING's scope) to their bound expressions, None for an
    aggregate. Such a reference stays as written, and a literal compared
    with it is padded as one compared with its expression would be.
    """

    def width(term: Expr) -> Optional[int]:
        if isinstance(term, ColumnRef) and term.name in aliases:
            term = aliases[term.name]
        return _char_width(term, scope.schemas)

    def padded(literal: Expr, side: Expr) -> Expr:
        """``literal`` padded to ``side``'s CHAR width when it is a str."""
        if not (isinstance(literal, Literal) and isinstance(literal.value, str)):
            return literal
        w = width(side)
        if w is None:
            return literal
        out = Literal(_pad(literal.value, w))
        if scope.trail is not None:
            scope.trail[id(literal)] = (out, w)
        return out

    def rule(node: Expr) -> Optional[Expr]:
        if isinstance(node, ColumnRef):
            if node.qualifier is None and node.name in aliases:
                return node
            return scope.resolve(node)
        if isinstance(node, Compare):
            left, right = rewrite(node.left, rule), rewrite(node.right, rule)
            right = padded(right, left)
            left = padded(left, right)
            return Compare(op=node.op, left=left, right=right)
        if isinstance(node, InList):
            term = rewrite(node.term, rule)
            w = width(term)
            bound = InList(term=term, values=tuple(_pad(v, w) for v in node.values))
            if scope.trail is not None:
                scope.trail[id(node)] = (bound, w)
            return bound
        if isinstance(node, (ScalarSubquery, InSubquery)):
            raise SqlError(
                "subqueries are only supported through the statement pipeline "
                "(repro.db.sql.pipeline.Session), which folds them before "
                "binding"
            )
        return None

    return rewrite(expr, rule)


def _non_numeric(expr: Expr, schemas: Tuple[TableSchema, ...]) -> Optional[str]:
    """The CHAR column or string literal that makes ``expr``'s value
    non-numeric, described for an error message, or None."""
    if isinstance(expr, ColumnRef) and _char_width(expr, schemas) is not None:
        return f"CHAR column {expr.name!r}"
    if isinstance(expr, Literal) and isinstance(expr.value, (str, bytes)):
        return f"string literal {expr.value!r}"
    if isinstance(expr, BinOp):
        return _non_numeric(expr.left, schemas) or _non_numeric(expr.right, schemas)
    return None


def _char_width(term: Expr, schemas: Tuple[TableSchema, ...]) -> Optional[int]:
    """The width of ``term`` if it is a CHAR column, else None."""
    if not isinstance(term, ColumnRef):
        return None
    for sch in schemas:
        if sch.has_column(term.name):
            dtype = sch.column(term.name).dtype
            return dtype.width if dtype.np_dtype is None else None
    return None


def _pad(value: Any, width: Optional[int]) -> Any:
    """A str compared with a CHAR column of ``width``: NUL-padded bytes."""
    if width is None or not isinstance(value, str):
        return value
    return value.encode().ljust(width, b"\x00")
