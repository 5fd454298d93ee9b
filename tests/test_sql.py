"""Tests for the SQL lexer and parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.expr import And, Between, BinOp, ColumnRef, Compare, Literal, Not, Or
from repro.db.sql import Aggregate, parse, tokenize
from repro.db.sql.lexer import TokenKind
from repro.errors import SqlError


class TestLexer:
    def test_basic_tokens(self):
        toks = tokenize("SELECT a, 1.5 FROM t")
        kinds = [t.kind for t in toks]
        assert kinds == [
            TokenKind.KEYWORD,
            TokenKind.IDENT,
            TokenKind.SYMBOL,
            TokenKind.NUMBER,
            TokenKind.KEYWORD,
            TokenKind.IDENT,
            TokenKind.EOF,
        ]

    def test_case_insensitive_keywords(self):
        toks = tokenize("SeLeCt A_b")
        assert toks[0].is_keyword("select")
        assert toks[1].text == "a_b"

    def test_two_char_operators(self):
        toks = tokenize("a <= b >= c <> d != e")
        symbols = [t.text for t in toks if t.kind is TokenKind.SYMBOL]
        assert symbols == ["<=", ">=", "<>", "<>"]

    def test_string_literal(self):
        toks = tokenize("select 'hello world'")
        assert toks[1].kind is TokenKind.STRING
        assert toks[1].text == "hello world"

    def test_unterminated_string(self):
        with pytest.raises(SqlError):
            tokenize("select 'oops")

    def test_comments_skipped(self):
        toks = tokenize("select a -- trailing comment\nfrom t")
        texts = [t.text for t in toks if t.kind is not TokenKind.EOF]
        assert texts == ["select", "a", "from", "t"]

    def test_garbage_rejected(self):
        with pytest.raises(SqlError):
            tokenize("select #")

    @pytest.mark.parametrize(
        "sql,tokens",
        [
            ("a.b 1.2.3 .5 x1", [("a", 0), (".", 1), ("b", 2), ("1.2", 4),
                                 (".3", 7), (".5", 10), ("x1", 13)]),
            ("a--c\n<>1. 'it''s'", [("a", 0), ("<>", 5), ("1.", 7), ("it's", 10)]),
            ("b !=2", [("b", 0), ("<>", 2), ("2", 4)]),
        ],
    )
    def test_token_texts_and_offsets(self, sql, tokens):
        toks = tokenize(sql)
        assert [(t.text, t.position) for t in toks[:-1]] == tokens
        assert toks[-1].kind is TokenKind.EOF and toks[-1].position == len(sql)

    @pytest.mark.parametrize(
        "sql,message,line,column",
        [
            ("select 'a''", "unterminated string literal", 1, 8),
            ("select a,\n  b # c", "unexpected character '#'", 2, 5),
            ("x \u00bd", "unexpected character '\u00bd'", 1, 3),
        ],
    )
    def test_errors_point_at_the_offending_character(self, sql, message, line, column):
        with pytest.raises(SqlError) as err:
            tokenize(sql)
        assert str(err.value).startswith(f"{message} (line {line}, column {column})")
        assert (err.value.line, err.value.column) == (line, column)

    def test_non_decimal_digits_lex_as_numbers(self):
        # ``str.isdigit`` digits, as the lexer has always read them.
        assert [t.text for t in tokenize("a \u00b2 1\u00b3")[:-1]] == [
            "a", "\u00b2", "1\u00b3",
        ]

    @given(st.lists(st.sampled_from(
        list("ab_19 .,;()*+-/=<>!'\n") + ["select", "limit", "--", "''"]
    )).map("".join))
    @settings(max_examples=300, deadline=None)
    def test_shape_scan_finds_the_literal_tokens(self, sql):
        from repro.db.sql.lexer import scan_shape

        key, literals, positions = scan_shape(sql)
        # The key is the text with literal kinds in place of literals.
        rest = iter(literals)
        assert "".join(
            next(rest) if i % 2 and part in ("'", "#", "#.") else part
            for i, part in enumerate(key)
        ) == sql
        try:
            tokens = tokenize(sql)
        except SqlError:
            return
        if "--" not in sql:  # the scan does not know comments
            values = {
                t.position for t in tokens
                if t.kind in (TokenKind.NUMBER, TokenKind.STRING)
            }
            assert set(positions) <= values


class TestParser:
    def test_simple_select(self):
        stmt = parse("SELECT a, b FROM t")
        assert stmt.table == "t"
        assert [i.expr.name for i in stmt.items] == ["a", "b"]

    def test_aliases(self):
        stmt = parse("SELECT a AS x, sum(b) AS total FROM t")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "total"
        assert isinstance(stmt.items[1].expr, Aggregate)

    def test_count_star(self):
        stmt = parse("SELECT count(*) FROM t")
        agg = stmt.items[0].expr
        assert agg.func == "count" and agg.arg is None

    def test_arithmetic_precedence(self):
        stmt = parse("SELECT a + b * 2 FROM t")
        expr = stmt.items[0].expr
        assert isinstance(expr, BinOp) and expr.op == "+"
        assert isinstance(expr.right, BinOp) and expr.right.op == "*"

    def test_parentheses_override(self):
        expr = parse("SELECT (a + b) * 2 FROM t").items[0].expr
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_where_and_or_precedence(self):
        stmt = parse("SELECT a FROM t WHERE a < 1 AND b > 2 OR c = 3")
        assert isinstance(stmt.where, Or)
        assert isinstance(stmt.where.terms[0], And)

    def test_not(self):
        stmt = parse("SELECT a FROM t WHERE NOT a = 1")
        assert isinstance(stmt.where, Not)

    def test_between(self):
        stmt = parse("SELECT a FROM t WHERE a BETWEEN 1 AND 3")
        assert isinstance(stmt.where, Between)

    def test_date_literal_folds_to_days(self):
        stmt = parse("SELECT a FROM t WHERE d >= date '1970-01-11'")
        assert stmt.where.right == Literal(10)

    def test_date_arithmetic_with_interval(self):
        stmt = parse(
            "SELECT a FROM t WHERE d <= date '1970-02-01' - interval '10' day"
        )
        expr = stmt.where.right
        assert isinstance(expr, BinOp) and expr.op == "-"
        assert expr.left == Literal(31) and expr.right == Literal(10)

    def test_bad_date_rejected(self):
        with pytest.raises(SqlError):
            parse("SELECT a FROM t WHERE d > date '99-99-99'")

    def test_group_order_limit(self):
        stmt = parse(
            "SELECT g, sum(a) AS s FROM t GROUP BY g ORDER BY g DESC, s LIMIT 5"
        )
        assert stmt.group_by == ("g",)
        assert stmt.order_by[0].descending is True
        assert stmt.order_by[1].descending is False
        assert stmt.limit == 5

    def test_join(self):
        stmt = parse("SELECT a FROM t JOIN u ON k = k2 WHERE a > 0")
        (join,) = stmt.joins
        assert join.table == "u"
        assert (join.left_col, join.right_col) == ("k", "k2")

    def test_string_comparison(self):
        stmt = parse("SELECT a FROM t WHERE flag = 'N'")
        assert stmt.where.right == Literal("N")

    def test_trailing_garbage_rejected(self):
        # "banana" alone would be a table alias now; two trailing idents
        # can never parse.
        with pytest.raises(SqlError):
            parse("SELECT a FROM t banana split")

    def test_table_alias(self):
        stmt = parse("SELECT t.a FROM things t")
        assert stmt.table == "things"
        assert stmt.alias == "t"
        assert stmt.items[0].expr.qualifier == "t"

    def test_missing_from_rejected(self):
        with pytest.raises(SqlError):
            parse("SELECT a")

    def test_limit_requires_number(self):
        with pytest.raises(SqlError):
            parse("SELECT a FROM t LIMIT x")

    def test_negative_handling_via_subtraction(self):
        expr = parse("SELECT 0 - a FROM t").items[0].expr
        assert expr.op == "-" and expr.left == Literal(0)
