"""Binder edge cases: scoping, ambiguity, CHAR padding, aggregate misuse.

The binder is the statement pipeline's gatekeeper — every confusing
reference must die here with a message that names the fix, because past
it the executors assume a flat, unambiguous column namespace.
"""

import pytest

from repro.db.catalog import Catalog
from repro.db.expr import Compare, InList, Literal
from repro.db.plan.binder import bind
from repro.db.schema import Column, TableSchema
from repro.db.sql.parser import parse
from repro.db.sql.pipeline import Session
from repro.db.types import CHAR, INT32
from repro.errors import SchemaError, SqlError
from tests.conftest import assert_matches_oracle


@pytest.fixture
def session():
    s = Session()
    s.execute("CREATE TABLE a (k INT32, x INT32, tag CHAR(6))")
    s.execute("CREATE TABLE b (bk INT32, x INT32, btag CHAR(6))")
    s.execute(
        "INSERT INTO a (k, x, tag) VALUES (1, 5, 'oak'), (2, 7, 'elm')"
    )
    s.execute("INSERT INTO b (bk, x, btag) VALUES (1, 9, 'fir')")
    yield s
    s.close()


# ----------------------------------------------------------------------
# Ambiguity and scoping.
# ----------------------------------------------------------------------
def test_unqualified_column_in_two_tables_is_ambiguous(session):
    with pytest.raises(SqlError, match="ambiguous column 'x'"):
        session.execute("SELECT x AS c0 FROM a JOIN b ON k = bk")


def test_qualifying_cannot_rescue_a_flat_namespace_clash(session):
    # The executors key batches by bare name, so a join between tables
    # sharing a referenced column name is rejected even when qualified.
    with pytest.raises(SqlError, match="multiple joined tables"):
        session.execute("SELECT a.x AS c0 FROM a JOIN b ON k = bk")


def test_unknown_column_names_itself(session):
    with pytest.raises(SqlError, match="unknown column 'v'"):
        session.execute("SELECT v FROM a")


def test_alias_shadows_the_table_name(session):
    # Once aliased, the base table name leaves scope entirely.
    with pytest.raises(SqlError, match="unknown table alias 'a'"):
        session.execute("SELECT z.k FROM a z WHERE a.k = 1")
    result = session.execute("SELECT z.k AS c0 FROM a z WHERE z.k = 1")
    assert result.rows == [(1,)]


def test_duplicate_alias_in_join_is_rejected(session):
    with pytest.raises(SqlError, match="duplicate table name or alias"):
        session.execute("SELECT k AS c0 FROM a JOIN b a ON k = bk")


# ----------------------------------------------------------------------
# CHAR padding: both comparison orientations, IN lists, and inequality.
# ----------------------------------------------------------------------
def _bound_where(sql: str) -> object:
    catalog = Catalog()
    catalog.create_table(
        TableSchema("a", [Column("k", INT32), Column("tag", CHAR(6))])
    )
    return bind(parse(sql), catalog).where


def test_char_literal_padded_column_on_left():
    where = _bound_where("SELECT k FROM a WHERE tag = 'oak'")
    assert isinstance(where, Compare)
    assert where.right == Literal(b"oak\x00\x00\x00")


def test_char_literal_padded_column_on_right():
    where = _bound_where("SELECT k FROM a WHERE 'oak' = tag")
    assert isinstance(where, Compare)
    assert where.left == Literal(b"oak\x00\x00\x00")


def test_char_in_list_values_padded():
    where = _bound_where("SELECT k FROM a WHERE tag IN ('oak', 'fir')")
    assert isinstance(where, InList)
    assert where.values == (b"oak\x00\x00\x00", b"fir\x00\x00\x00")


def test_char_padding_preserves_comparison_results(session):
    # Equality and ordering agree between padded bytes and bare strings
    # (NUL sorts below every ASCII character), in both orientations.
    assert session.execute(
        "SELECT k AS c0 FROM a WHERE tag = 'oak'"
    ).rows == [(1,)]
    assert session.execute(
        "SELECT k AS c0 FROM a WHERE 'oak' = tag"
    ).rows == [(1,)]
    assert session.execute(
        "SELECT k AS c0 FROM a WHERE tag < 'fir'"
    ).rows == [(2,)]


def test_char_value_too_wide_is_rejected(session):
    # Width enforcement happens at the storage layer, past the binder.
    with pytest.raises(SchemaError, match="too long"):
        session.execute("INSERT INTO a (k, x, tag) VALUES (3, 1, 'overlong')")


# ----------------------------------------------------------------------
# Aggregate placement.
# ----------------------------------------------------------------------
def test_aggregate_in_where_is_rejected_with_having_hint(session):
    with pytest.raises(SqlError, match="HAVING"):
        session.execute("SELECT k FROM a WHERE sum(x) > 1")


def test_plain_column_next_to_aggregate_needs_group_by(session):
    with pytest.raises(SqlError, match="GROUP BY"):
        session.execute("SELECT k, sum(x) FROM a")


def test_non_group_key_output_is_rejected(session):
    with pytest.raises(SqlError, match="neither aggregated nor in GROUP BY"):
        session.execute("SELECT x, sum(k) FROM a GROUP BY tag")


def test_having_resolves_output_aliases(session):
    result = session.execute(
        "SELECT tag AS t, sum(x) AS total FROM a GROUP BY tag "
        "HAVING total > 6"
    )
    assert result.rows == [("elm", 7.0)]


# ----------------------------------------------------------------------
# HAVING binds through the WHERE walker: a string literal compared with
# a CHAR group key (by column name or by alias) is padded like one in
# WHERE, and an aggregate's alias never is.
# ----------------------------------------------------------------------
@pytest.fixture
def grouped():
    s = Session()
    s.execute("CREATE TABLE t (k INT32, c CHAR(4), v INT32)")
    s.execute("INSERT INTO t (k, c, v) VALUES (1, 'ab', 10), (2, 'ab', 20), (3, 'cd', 5)")
    yield s
    s.close()


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT c, sum(v) AS s FROM t GROUP BY c HAVING c = 'ab'",
        "SELECT c AS g, sum(v) AS s FROM t GROUP BY c HAVING g = 'ab'",
        "SELECT c AS g, sum(v) AS s FROM t GROUP BY c HAVING g IN ('cd')",
        "SELECT c, sum(v) AS s FROM t GROUP BY c HAVING c = 'ab' AND s > 1",
        "SELECT c, sum(v) AS s FROM t GROUP BY c HAVING c <> 'ab'",
        "SELECT c AS g, count(c) AS c FROM t GROUP BY c HAVING c <> 'ab'",
    ],
)
def test_having_on_char_keys_matches_the_oracle(grouped, sql):
    assert_matches_oracle(grouped.execute(sql).result, grouped.catalog, sql)


def test_having_pads_a_char_key_alias_but_not_an_aggregate_alias(grouped):
    having = bind(
        parse("SELECT c AS g, count(c) AS c FROM t GROUP BY c HAVING g = 'ab' AND c <> 'ab'"),
        grouped.catalog,
    ).having
    key, agg = having.terms
    assert key.right == Literal(b"ab\x00\x00")
    assert agg.right == Literal("ab")
