"""Recursive-descent parser for the supported SQL subset.

Grammar (roughly)::

    statement := select | insert | update | delete | create | drop
               | begin | commit | rollback | explain            [';']
    select   := SELECT [DISTINCT] item (',' item)* FROM tableref join*
                [WHERE pred] [GROUP BY name (',' name)*] [HAVING pred]
                [ORDER BY order (',' order)*] [LIMIT number] [OFFSET number]
    tableref := ident [[AS] ident]
    join     := JOIN tableref ON ref '=' ref
    ref      := ident ['.' ident]
    item     := expr [AS ident] | agg '(' (expr | '*') ')' [AS ident]
    insert   := INSERT INTO ident ['(' ident (',' ident)* ')']
                VALUES tuple (',' tuple)*
    update   := UPDATE tableref SET ident '=' expr (',' ...)* [WHERE pred]
    delete   := DELETE FROM tableref [WHERE pred]
    create   := CREATE TABLE ident '(' ident type (',' ident type)* ')'
    explain  := EXPLAIN [ANALYZE] statement
    pred     := or_expr
    or_expr  := and_expr (OR and_expr)*
    and_expr := not_expr (AND not_expr)*
    not_expr := NOT not_expr | cmp
    cmp      := add ((cmpop add) | BETWEEN add AND add
                | [NOT] IN '(' (values | select) ')')?
    add      := mul (('+'|'-') mul)*
    mul      := atom (('*'|'/') atom)*
    atom     := number | string | date | interval | ref | '-' atom
              | '(' (pred | select) ')'

``DATE 'YYYY-MM-DD'`` folds to its day number and ``INTERVAL 'n' DAY``
folds to ``n``, so date arithmetic works over plain integers — matching
how DATE columns are stored. ``(SELECT ...)`` in expression position
produces a :class:`ScalarSubquery`/:class:`InSubquery` placeholder the
statement pipeline folds to a constant before binding.

Every error is a :class:`SqlError` with the offending token's line/column
and a caret-annotated snippet of the statement text.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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
from repro.db.sql.lexer import Token, TokenKind, error_at, scan_shape, tokenize
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
    JoinClause,
    OrderItem,
    RollbackStmt,
    ScalarSubquery,
    SelectItem,
    SelectStmt,
    Star,
    UpdateStmt,
)
from repro.db.sql.shapes import SHAPES, Slot, Template, literal_value
from repro.errors import SqlError

_CMP_OPS = ("=", "<>", "<", "<=", ">", ">=")

#: Keywords that terminate a table reference (so a bare identifier after
#: a table name can safely be taken as its alias).
_TABLE_STOP = {
    "join", "on", "where", "group", "having", "order", "limit", "offset",
    "set",
}


class Parser:
    """One-token-lookahead parser over a token list.

    ``Parser(sql).parse_statement()`` parses without the shape memo: the
    referee for :func:`parse_statement`.
    """

    def __init__(self, sql: str):
        self._sql = sql
        self._tokens = tokenize(sql)
        self._pos = 0
        #: Every value literal, in token order: the slots a shape
        #: template refills (:mod:`repro.db.sql.shapes`).
        self.slots: List[Slot] = []
        #: Subqueries parsed; a shape with none skips subquery folding.
        self.subqueries = 0

    # ------------------------------------------------------------------
    # Token plumbing.
    # ------------------------------------------------------------------
    @property
    def _cur(self) -> Token:
        return self._tokens[self._pos]

    def _peek(self, ahead: int = 1) -> Token:
        return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]

    def _advance(self) -> Token:
        tok = self._cur
        self._pos += 1
        return tok

    def _error(self, message: str, tok: Optional[Token] = None) -> SqlError:
        tok = tok or self._cur
        return error_at(message, self._sql, tok.position)

    def _expect_symbol(self, sym: str) -> None:
        if self._cur.kind is not TokenKind.SYMBOL or self._cur.text != sym:
            raise self._error(f"expected {sym!r}, found {self._cur}")
        self._advance()

    def _expect_keyword(self, word: str) -> None:
        if not self._cur.is_keyword(word):
            raise self._error(f"expected {word.upper()}, found {self._cur}")
        self._advance()

    def _expect_ident(self, what: str = "identifier") -> str:
        if self._cur.kind is not TokenKind.IDENT:
            raise self._error(f"expected {what}, found {self._cur}")
        return self._advance().text

    def _expect_number(self, what: str) -> int:
        if self._cur.kind is not TokenKind.NUMBER:
            raise self._error(f"expected number after {what}, found {self._cur}")
        return int(self._advance().text)

    def _match_symbol(self, sym: str) -> bool:
        if self._cur.kind is TokenKind.SYMBOL and self._cur.text == sym:
            self._advance()
            return True
        return False

    def _match_keyword(self, word: str) -> bool:
        if self._cur.is_keyword(word):
            self._advance()
            return True
        return False

    # ------------------------------------------------------------------
    # Statements.
    # ------------------------------------------------------------------
    def parse_statement(self):
        """Parse one statement of any kind (optionally ``;``-terminated)."""
        stmt = self._statement()
        self._match_symbol(";")
        if self._cur.kind is not TokenKind.EOF:
            raise self._error(f"trailing input at {self._cur}")
        return stmt

    def _statement(self):
        tok = self._cur
        if tok.is_keyword("select"):
            return self._select_body()
        if tok.is_keyword("insert"):
            return self._insert()
        if tok.is_keyword("update"):
            return self._update()
        if tok.is_keyword("delete"):
            return self._delete()
        if tok.is_keyword("create"):
            return self._create_table()
        if tok.is_keyword("drop"):
            self._advance()
            self._expect_keyword("table")
            return DropTableStmt(name=self._expect_ident("table name"))
        if tok.is_keyword("begin"):
            self._advance()
            return BeginStmt()
        if tok.is_keyword("commit"):
            self._advance()
            return CommitStmt()
        if tok.is_keyword("rollback") or tok.is_keyword("abort"):
            self._advance()
            return RollbackStmt()
        if tok.is_keyword("explain"):
            self._advance()
            analyze = self._match_keyword("analyze")
            if self._cur.is_keyword("explain"):
                raise self._error("EXPLAIN cannot nest")
            return ExplainStmt(target=self._statement(), analyze=analyze)
        raise self._error(f"expected a statement, found {self._cur}")

    def parse_select(self) -> SelectStmt:
        self._expect_keyword("select")
        stmt = self._select_tail()
        self._match_symbol(";")
        if self._cur.kind is not TokenKind.EOF:
            raise self._error(f"trailing input at {self._cur}")
        return stmt

    def _select_body(self) -> SelectStmt:
        self._expect_keyword("select")
        return self._select_tail()

    def _select_tail(self) -> SelectStmt:
        distinct = self._match_keyword("distinct")
        if self._cur.kind is TokenKind.SYMBOL and self._cur.text == "*":
            self._advance()
            items = [SelectItem(expr=Star())]
        else:
            items = [self._select_item()]
            while self._match_symbol(","):
                items.append(self._select_item())
        self._expect_keyword("from")
        table, alias = self._table_ref()
        joins: List[JoinClause] = []
        while self._match_keyword("join"):
            joins.append(self._join_clause())
        where = None
        if self._match_keyword("where"):
            where = self._predicate()
        group_by: Tuple[str, ...] = ()
        if self._match_keyword("group"):
            self._expect_keyword("by")
            names = [self._group_name()]
            while self._match_symbol(","):
                names.append(self._group_name())
            group_by = tuple(names)
        having = None
        if self._match_keyword("having"):
            if not group_by:
                raise self._error("HAVING requires GROUP BY in this dialect")
            having = self._predicate()
        order_by: Tuple[OrderItem, ...] = ()
        if self._match_keyword("order"):
            self._expect_keyword("by")
            orders = [self._order_item()]
            while self._match_symbol(","):
                orders.append(self._order_item())
            order_by = tuple(orders)
        limit = None
        if self._match_keyword("limit"):
            limit = self._expect_number("LIMIT")
        offset = None
        if self._match_keyword("offset"):
            offset = self._expect_number("OFFSET")
        return SelectStmt(
            items=tuple(items),
            table=table,
            joins=tuple(joins),
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
            offset=offset,
            alias=alias,
        )

    def _table_ref(self) -> Tuple[str, Optional[str]]:
        name = self._expect_ident("table name")
        alias = None
        if self._match_keyword("as"):
            alias = self._expect_ident("table alias")
        elif (
            self._cur.kind is TokenKind.IDENT
            and self._cur.text not in _TABLE_STOP
        ):
            alias = self._advance().text
        return name, alias

    def _group_name(self) -> str:
        # Accept an optional qualifier; grouping keys are bare column
        # names downstream (bound columns are unambiguous by then).
        name = self._expect_ident("GROUP BY column")
        if self._match_symbol("."):
            name = self._expect_ident("column name")
        return name

    def _join_clause(self) -> JoinClause:
        table, alias = self._table_ref()
        self._expect_keyword("on")
        left = self._qualified_ref()
        self._expect_symbol("=")
        right = self._qualified_ref()
        return JoinClause(
            table=table,
            left_col=left.name,
            right_col=right.name,
            alias=alias,
            left_qual=left.qualifier,
            right_qual=right.qualifier,
        )

    def _qualified_ref(self) -> ColumnRef:
        first = self._expect_ident("column reference")
        if self._match_symbol("."):
            return ColumnRef(name=self._expect_ident("column name"), qualifier=first)
        return ColumnRef(name=first)

    def _order_item(self) -> OrderItem:
        expr = self._add()
        descending = False
        if self._match_keyword("desc"):
            descending = True
        else:
            self._match_keyword("asc")
        return OrderItem(expr=expr, descending=descending)

    def _select_item(self) -> SelectItem:
        if self._cur.kind is TokenKind.KEYWORD and self._cur.text in Aggregate.FUNCS:
            func = self._advance().text
            self._expect_symbol("(")
            arg: Optional[Expr]
            if func == "count" and self._match_symbol("*"):
                arg = None
            else:
                arg = self._add()
            self._expect_symbol(")")
            expr: object = Aggregate(func=func, arg=arg)
        else:
            expr = self._add()
        alias = None
        if self._match_keyword("as"):
            alias = self._expect_ident("output alias")
        return SelectItem(expr=expr, alias=alias)

    # ------------------------------------------------------------------
    # DML / DDL.
    # ------------------------------------------------------------------
    def _insert(self) -> InsertStmt:
        self._expect_keyword("insert")
        self._expect_keyword("into")
        table = self._expect_ident("table name")
        columns: Optional[Tuple[str, ...]] = None
        if self._match_symbol("("):
            names = [self._expect_ident("column name")]
            while self._match_symbol(","):
                names.append(self._expect_ident("column name"))
            self._expect_symbol(")")
            columns = tuple(names)
        self._expect_keyword("values")
        rows = [self._value_tuple()]
        while self._match_symbol(","):
            rows.append(self._value_tuple())
        return InsertStmt(table=table, columns=columns, rows=tuple(rows))

    def _value_tuple(self) -> Tuple[Expr, ...]:
        self._expect_symbol("(")
        values = [self._add()]
        while self._match_symbol(","):
            values.append(self._add())
        self._expect_symbol(")")
        return tuple(values)

    def _update(self) -> UpdateStmt:
        self._expect_keyword("update")
        table, alias = self._table_ref()
        self._expect_keyword("set")
        assignments = [self._assignment()]
        while self._match_symbol(","):
            assignments.append(self._assignment())
        where = None
        if self._match_keyword("where"):
            where = self._predicate()
        return UpdateStmt(
            table=table, assignments=tuple(assignments), where=where, alias=alias
        )

    def _assignment(self) -> Tuple[str, Expr]:
        name = self._expect_ident("column name")
        if self._match_symbol("."):
            name = self._expect_ident("column name")
        self._expect_symbol("=")
        return name, self._add()

    def _delete(self) -> DeleteStmt:
        self._expect_keyword("delete")
        self._expect_keyword("from")
        table, alias = self._table_ref()
        where = None
        if self._match_keyword("where"):
            where = self._predicate()
        return DeleteStmt(table=table, where=where, alias=alias)

    def _create_table(self) -> CreateTableStmt:
        self._expect_keyword("create")
        self._expect_keyword("table")
        name = self._expect_ident("table name")
        self._expect_symbol("(")
        columns = [self._column_def()]
        while self._match_symbol(","):
            columns.append(self._column_def())
        self._expect_symbol(")")
        return CreateTableStmt(name=name, columns=tuple(columns))

    def _column_def(self) -> Tuple[str, str]:
        name = self._expect_ident("column name")
        tok = self._cur
        if tok.kind not in (TokenKind.IDENT, TokenKind.KEYWORD):
            raise self._error(f"expected a type name, found {tok}")
        type_text = self._advance().text
        if self._match_symbol("("):
            width = self._expect_number(type_text.upper())
            self._expect_symbol(")")
            type_text = f"{type_text}({width})"
        return name, type_text

    # ------------------------------------------------------------------
    # Predicates and expressions.
    # ------------------------------------------------------------------
    def _predicate(self) -> Expr:
        return self._or_expr()

    def _or_expr(self) -> Expr:
        terms = [self._and_expr()]
        while self._match_keyword("or"):
            terms.append(self._and_expr())
        return terms[0] if len(terms) == 1 else Or(terms=tuple(terms))

    def _and_expr(self) -> Expr:
        terms = [self._not_expr()]
        while self._match_keyword("and"):
            terms.append(self._not_expr())
        return terms[0] if len(terms) == 1 else And(terms=tuple(terms))

    def _not_expr(self) -> Expr:
        if self._cur.is_keyword("not") and not self._peek().is_keyword("in"):
            self._advance()
            return Not(term=self._not_expr())
        return self._comparison()

    def _comparison(self) -> Expr:
        left = self._add()
        if self._cur.kind is TokenKind.SYMBOL and self._cur.text in _CMP_OPS:
            op = self._advance().text
            right = self._add()
            return Compare(op=op, left=left, right=right)
        if self._match_keyword("between"):
            low = self._add()
            self._expect_keyword("and")
            high = self._add()
            return Between(term=left, low=low, high=high)
        if self._cur.is_keyword("not") and self._peek().is_keyword("in"):
            self._advance()
            self._advance()
            return Not(term=self._in_rest(left))
        if self._match_keyword("in"):
            return self._in_rest(left)
        return left

    def _in_rest(self, term: Expr) -> Expr:
        self._expect_symbol("(")
        if self._cur.is_keyword("select"):
            select = self._select_body()
            self._expect_symbol(")")
            self.subqueries += 1
            return InSubquery(term=term, select=select)
        first = len(self.slots)
        values = [self._in_member()]
        while self._match_symbol(","):
            values.append(self._in_member())
        self._expect_symbol(")")
        node = InList(term=term, values=tuple(values))
        members = self.slots[first:]
        if len(members) == len(values):  # one literal per member
            for index, slot in enumerate(members):
                slot.node, slot.member = node, index
        return node

    def _in_member(self):
        tok = self._cur
        expr = self._add()
        if not isinstance(expr, Literal):
            raise self._error("IN list members must be literals", tok)
        return expr.value

    def _add(self) -> Expr:
        left = self._mul()
        while self._cur.kind is TokenKind.SYMBOL and self._cur.text in ("+", "-"):
            op = self._advance().text
            left = BinOp(op=op, left=left, right=self._mul())
        return left

    def _mul(self) -> Expr:
        left = self._atom()
        while self._cur.kind is TokenKind.SYMBOL and self._cur.text in ("*", "/"):
            op = self._advance().text
            left = BinOp(op=op, left=left, right=self._atom())
        return left

    def _atom(self) -> Expr:
        tok = self._cur
        if tok.kind is TokenKind.SYMBOL and tok.text == "-":
            self._advance()
            inner = self._atom()
            if isinstance(inner, Literal) and isinstance(inner.value, (int, float)):
                negated = Literal(-inner.value)
                slot = self.slots[-1]
                if slot.node is inner:
                    slot.node, slot.negations = negated, slot.negations + 1
                return negated
            return BinOp(op="-", left=Literal(0), right=inner)
        if tok.kind is TokenKind.NUMBER:
            return self._literal("float" if "." in tok.text else "int")
        if tok.kind is TokenKind.STRING:
            return self._literal("string")
        if tok.is_keyword("date"):
            self._advance()
            if self._cur.kind is not TokenKind.STRING:
                raise self._error(
                    f"expected date string after DATE, found {self._cur}"
                )
            try:
                return self._literal("date")
            except ValueError as exc:
                raw = self._tokens[self._pos].text
                raise self._error(f"bad date literal {raw!r}: {exc}", tok)
        if tok.is_keyword("interval"):
            self._advance()
            if self._cur.kind is not TokenKind.STRING:
                raise self._error(
                    f"expected quantity after INTERVAL, found {self._cur}"
                )
            qty = self._literal("interval")
            self._expect_keyword("day")
            return qty
        if tok.kind is TokenKind.KEYWORD and tok.text in Aggregate.FUNCS:
            raise self._error(
                f"aggregate {tok.text}() is only allowed in the select "
                "list; filter aggregated values in HAVING via the output "
                "alias"
            )
        if tok.kind is TokenKind.IDENT:
            self._advance()
            if self._match_symbol("."):
                return ColumnRef(
                    name=self._expect_ident("column name"), qualifier=tok.text
                )
            return ColumnRef(name=tok.text)
        if self._match_symbol("("):
            if self._cur.is_keyword("select"):
                select = self._select_body()
                self._expect_symbol(")")
                self.subqueries += 1
                return ScalarSubquery(select=select)
            inner = self._predicate()
            self._expect_symbol(")")
            return inner
        raise self._error(f"unexpected token {tok}")

    def _literal(self, kind: str) -> Literal:
        """The current token as a value literal of slot ``kind``."""
        node = Literal(literal_value(kind, self._cur.text))
        self.slots.append(Slot(self._cur.position, kind, node))
        self._advance()
        return node


def parse(sql: str) -> SelectStmt:
    """Parse one ``SELECT`` statement (memoized by shape, as
    :func:`parse_statement`)."""
    return _parse_memoized(sql, select_only=True)


def parse_statement(sql: str):
    """Parse one statement of any supported kind (the pipeline entry).

    Memoized by shape (:mod:`repro.db.sql.shapes`): a statement whose
    shape was parsed before is only tokenized, and its literal values are
    copied into the shape's template. Results and errors equal
    ``Parser(sql).parse_statement()``.
    """
    return _parse_memoized(sql, select_only=False)


def _parse_memoized(sql: str, select_only: bool):
    shape = scan_shape(sql)
    template = None
    if shape is not None:
        key, literals, positions = shape
        template = SHAPES.get(key)
        if template is not None and (
            not select_only or isinstance(template.stmt, SelectStmt)
        ):
            stmt = template.instantiate(literals)
            if stmt is not None:
                return stmt
    # A miss, or a statement the parser must reject: parse it fresh.
    parser = Parser(sql)
    stmt = parser.parse_select() if select_only else parser.parse_statement()
    # The key blanked exactly the tokens the parser read as values, so
    # every statement of this shape parses the same up to those values.
    if template is None and shape is not None and positions == [
        slot.position for slot in parser.slots
    ]:
        SHAPES.put(key, Template(stmt, parser.slots, parser.subqueries > 0))
    return stmt
