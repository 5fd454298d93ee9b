"""The unified statement pipeline: Session end to end.

One front door — ``sql.parse -> plan.bind -> exec`` for SELECTs, MVCC
transactions over the WAL for DML, the optimizer for EXPLAIN SELECT —
plus the observability contract: spans, ``sql_*`` metrics, and
EXPLAIN / EXPLAIN ANALYZE.
"""

import math
import re

import pytest

from repro.db import Catalog
from repro.db.engines.colstore import ColumnStoreEngine
from repro.db.engines.rmstore import RelationalMemoryEngine
from repro.db.engines.rowstore import RowStoreEngine
from repro.db.sql.oracle import Answer, SqlOracle, mismatch
from repro.db.sql.pipeline import Session, scan_statements, split_statements
from repro.db.wal import WalRecordType, WriteAheadLog, recover
from repro.errors import SqlError
from repro.obs import MetricsRegistry, Tracer
from repro.storage.ssd import SsdLog
from tests.conftest import assert_matches_oracle


def _seed(s: Session) -> None:
    s.execute("CREATE TABLE t (id INT32, v INT32, tag CHAR(4))")
    s.execute(
        "INSERT INTO t (id, v, tag) VALUES "
        "(1, 10, 'oak'), (2, 20, 'elm'), (3, 30, 'oak')"
    )


@pytest.fixture
def session():
    s = Session()
    _seed(s)
    yield s
    s.close()


# ----------------------------------------------------------------------
# SELECT through the full pipeline.
# ----------------------------------------------------------------------
def test_select_returns_rows_and_names(session):
    result = session.execute(
        "SELECT tag AS t, sum(v) AS total FROM t GROUP BY tag"
    )
    assert result.kind == "select"
    assert result.names == ("t", "total")
    assert result.rows == [("elm", 20.0), ("oak", 40.0)]
    assert result.cycles > 0


def test_projection_with_order_by_desc(session):
    r = session.execute("SELECT id AS c0, v * 2 AS c1 FROM t ORDER BY c0 DESC")
    assert (r.names, r.rows) == (("c0", "c1"), [(3, 60), (2, 40), (1, 20)])


def test_scalar_subquery_folds_and_counts(session):
    result = session.execute(
        "SELECT id AS c0 FROM t WHERE v > (SELECT avg(v) FROM t) ORDER BY c0"
    )
    assert result.rows == [(3,)]
    assert session.stats.subqueries_folded == 1


def test_scalar_subquery_must_return_one_row(session):
    with pytest.raises(SqlError, match="exactly one row"):
        session.execute("SELECT id FROM t WHERE v > (SELECT v FROM t)")


# ----------------------------------------------------------------------
# DML: autocommit and explicit transactions.
# ----------------------------------------------------------------------
def test_autocommit_dml_reports_rows_affected(session):
    assert session.execute("UPDATE t SET v = v + 1 WHERE tag = 'oak'").rows_affected == 2
    assert session.execute("DELETE FROM t WHERE id = 2").rows_affected == 1
    rows = session.execute("SELECT id AS c0, v AS c1 FROM t ORDER BY c0").rows
    assert rows == [(1, 11), (3, 31)]


def test_rollback_discards_and_commit_publishes(session):
    session.execute("BEGIN")
    assert session.in_transaction
    session.execute("DELETE FROM t WHERE id = 1")
    session.execute("ROLLBACK")
    assert not session.in_transaction
    assert len(session.execute("SELECT id AS c0 FROM t").rows) == 3

    session.execute("BEGIN")
    session.execute("DELETE FROM t WHERE id = 1")
    session.execute("COMMIT")
    assert len(session.execute("SELECT id AS c0 FROM t").rows) == 2


def test_transaction_control_misuse_is_rejected(session):
    with pytest.raises(SqlError, match="no open transaction"):
        session.execute("COMMIT")
    session.execute("BEGIN")
    with pytest.raises(SqlError, match="already open"):
        session.execute("BEGIN")
    session.execute("ROLLBACK")


def test_update_set_fault_is_a_typed_error(session):
    # Autocommit: the statement's transaction rolls back.
    with pytest.raises(SqlError, match="cannot evaluate UPDATE value for 'v'"):
        session.execute("UPDATE t SET v = v / 0")
    assert not session.in_transaction
    rows = session.execute("SELECT id AS c0, v AS c1 FROM t ORDER BY c0").rows
    assert rows == [(1, 10), (2, 20), (3, 30)]

    # Explicit transaction: the failed statement writes nothing, and the
    # transaction stays open and usable.
    session.execute("BEGIN")
    session.execute("UPDATE t SET v = v + 1 WHERE id = 1")
    with pytest.raises(SqlError, match="cannot evaluate UPDATE value"):
        session.execute("UPDATE t SET v = 100 / (v - 20)")
    assert session.in_transaction
    session.execute("UPDATE t SET v = v + 1 WHERE id = 3")
    session.execute("COMMIT")
    rows = session.execute("SELECT id AS c0, v AS c1 FROM t ORDER BY c0").rows
    assert rows == [(1, 11), (2, 20), (3, 31)]


# NOT over a constant must be false for every row, not ``~True`` (-2).
CONSTANT_NOT = (
    "SELECT count(*) AS n FROM t WHERE NOT (1 = 1)",
    "SELECT k FROM t WHERE NOT (2 > 1) OR k = 1",
    "SELECT k, count(*) AS n FROM t GROUP BY k HAVING NOT (1 = 1)",
)


@pytest.mark.parametrize("sql", CONSTANT_NOT)
@pytest.mark.parametrize(
    "engine_cls", [RowStoreEngine, ColumnStoreEngine, RelationalMemoryEngine]
)
def test_not_over_a_constant_matches_the_oracle(engine_cls, sql):
    catalog = Catalog()
    s = Session(catalog, engine_cls(catalog))
    s.execute("CREATE TABLE t (k INT32, v INT32)")
    s.execute("INSERT INTO t (k, v) VALUES (1, 10), (2, 20)")
    assert_matches_oracle(s.execute(sql).result, s.catalog, sql, s.manager.now)


def test_update_matching_no_row_evaluates_nothing(session):
    assert session.execute("UPDATE t SET v = 1 / 0 WHERE id = 99").rows_affected == 0


def test_dml_where_not_over_a_constant_touches_no_row(session):
    assert session.execute("UPDATE t SET v = 0 WHERE NOT (1 = 1)").rows_affected == 0
    assert session.execute("DELETE FROM t WHERE NOT (1 = 1) OR id = 2").rows_affected == 1


def _session_and_oracle(ddl: str, insert: str):
    """A session and an oracle loaded with its committed state."""
    s = Session()
    s.execute(ddl)
    s.execute(insert)
    oracle = SqlOracle()
    for table in s.catalog.tables():
        oracle.load_table(table, s.manager.now)
    return s, oracle


def test_update_date_plus_days_matches_the_oracle():
    # SET sees DATE as day numbers, as WHERE and SELECT do.
    s, oracle = _session_and_oracle(
        "CREATE TABLE t (k INT32, d DATE)",
        "INSERT INTO t (k, d) VALUES (1, DATE '2020-01-31'), (2, DATE '2020-02-28')",
    )
    for sql in ("UPDATE t SET d = d + 1", "UPDATE t SET d = d + 1 WHERE k = 2"):
        assert s.execute(sql).rows_affected == oracle.execute(sql)
    query = "SELECT k, d FROM t ORDER BY k"
    assert_matches_oracle(s.execute(query).result, s.catalog, query, s.manager.now)
    assert oracle.execute(query).rows == [(1, 18293), (2, 18322)]


def test_update_overflow_is_typed_and_writes_nothing():
    s, oracle = _session_and_oracle(
        "CREATE TABLE t (k INT32, v INT32)",
        "INSERT INTO t (k, v) VALUES (1, 100000), (2, 3)",
    )
    # 10**10 does not fit INT32: no wrap-around to 1410065408, no row moved.
    with pytest.raises(SqlError, match="out of range for INT32"):
        s.execute("UPDATE t SET v = v * 100000")
    with pytest.raises(SqlError, match="out of range for INT32"):
        s.execute("UPDATE t SET v = 2147483648 WHERE k = 2")
    query = "SELECT k, v FROM t ORDER BY k"
    assert_matches_oracle(s.execute(query).result, s.catalog, query, s.manager.now)
    assert s.execute("SELECT count(*) AS n FROM t").rows == [(2,)]
    # The edges of the range still fit.
    s.execute("UPDATE t SET v = 2147483647 WHERE k = 1")
    s.execute("UPDATE t SET v = -2147483648 WHERE k = 2")
    assert s.execute(query).rows == [(1, 2147483647), (2, -2147483648)]


@pytest.mark.parametrize("ddl", ["v INT64", "v TIMESTAMP"])
def test_update_overflow_of_a_64_bit_column_is_typed(ddl):
    # Python numbers, like the oracle's: 2**32 * 2**32 is 2**64, not a
    # wrapped 0, and it does not fit.
    s, oracle = _session_and_oracle(
        f"CREATE TABLE t (k INT32, {ddl})",
        "INSERT INTO t (k, v) VALUES (1, 4294967296), (2, 3)",
    )
    with pytest.raises(SqlError, match="out of range for"):
        s.execute("UPDATE t SET v = v * v")
    query = "SELECT k, v FROM t ORDER BY k"
    assert s.execute(query).rows == [(1, 4294967296), (2, 3)]
    sql = "UPDATE t SET v = v * v - 1 WHERE k = 2"
    assert s.execute(sql).rows_affected == oracle.execute(sql) == 1
    assert_matches_oracle(s.execute(query).result, s.catalog, query, s.manager.now)


def test_update_decimal_overflow_is_typed():
    s, _ = _session_and_oracle(
        "CREATE TABLE t (k INT32, m DECIMAL(2))",
        "INSERT INTO t (k, m) VALUES (1, 1.5)",
    )
    # The float nearest DECIMAL(2)'s top scales one past 2**63 - 1.
    with pytest.raises(SqlError, match=r"out of range for DECIMAL\(2\)"):
        s.execute("UPDATE t SET m = 92233720368547758.07")
    s.execute("UPDATE t SET m = m * 2")
    assert s.execute("SELECT m FROM t").rows == [(3.0,)]


@pytest.mark.parametrize(
    "ddl, fits, overflows",
    [
        ("INT32", ["2147483647", "-2147483648"], ["2147483648", "-2147483649", "10000000000"]),
        (
            "INT64",
            ["9223372036854775807", "-9223372036854775808"],
            ["9223372036854775808", "-9223372036854775809"],
        ),
        ("DATE", ["DATE '2020-02-29'", "2147483647"], ["2147483648", "-2147483649"]),
        # DECIMAL(2) stores the value times 100 in an int64.
        ("DECIMAL(2)", ["1000000.25", "-92233720368547.75"], ["92233720368547758.07"]),
    ],
)
def test_insert_overflow_is_typed_at_the_bounds(ddl, fits, overflows):
    s = Session()
    s.execute(f"CREATE TABLE t (k INT32, v {ddl})")
    for i, value in enumerate(fits):
        s.execute(f"INSERT INTO t (k, v) VALUES ({i}, {value})")
    for value in overflows:
        with pytest.raises(SqlError, match="out of range for " + re.escape(ddl)):
            s.execute(f"INSERT INTO t (k, v) VALUES (9, {value})")
    assert s.execute("SELECT count(*) AS n FROM t").rows == [(len(fits),)]


def test_insert_of_the_wrong_kind_is_typed():
    s = Session()
    s.execute("CREATE TABLE t (k INT32, tag CHAR(4))")
    with pytest.raises(SqlError, match="'k' is not of type INT32"):
        s.execute("INSERT INTO t (k, tag) VALUES ('oak', 'oak')")
    with pytest.raises(SqlError, match=r"'tag' is not of type CHAR\(4\)"):
        s.execute("INSERT INTO t (k, tag) VALUES (1, 2)")
    assert s.execute("SELECT count(*) AS n FROM t").rows == [(0,)]


@pytest.mark.parametrize("in_txn", [False, True])
def test_insert_whose_last_row_overflows_writes_nothing(in_txn):
    wal = WriteAheadLog(device=SsdLog())
    s = Session(wal=wal)
    s.execute("CREATE TABLE t (k INT32, v INT32)")
    s.execute("INSERT INTO t (k, v) VALUES (1, 10)")
    if in_txn:
        s.execute("BEGIN")
        s.execute("INSERT INTO t (k, v) VALUES (2, 20)")
    writes = wal.stats.writes_logged
    with pytest.raises(SqlError, match="out of range for INT32"):
        s.execute("INSERT INTO t (k, v) VALUES (3, 30), (4, 40), (5, 10000000000)")
    assert wal.stats.writes_logged == writes
    if in_txn:
        s.execute("COMMIT")
    query = "SELECT k, v FROM t ORDER BY k"
    want = [(1, 10), (2, 20)] if in_txn else [(1, 10)]
    assert s.execute(query).rows == want
    logged = [r for r in wal.records() if r.type is WalRecordType.WRITE]
    assert len(logged) == len(want)
    assert_matches_oracle(s.execute(query).result, s.catalog, query, s.manager.now)


def _outcome(run, sql):
    """Whether running ``sql`` was "ok" or "refused" with a SqlError."""
    try:
        run(sql)
    except SqlError:
        return "refused"
    return "ok"


@pytest.mark.parametrize("in_txn", [False, True])
def test_fraction_for_a_whole_number_column_is_refused(in_txn):
    wal = WriteAheadLog(device=SsdLog())
    s = Session(wal=wal)
    oracle = SqlOracle()
    for sql in (
        "CREATE TABLE t (k INT32, v INT32, d DATE)",
        "INSERT INTO t (k, v, d) VALUES (1, 10, 5), (2, 20, 6)",
    ):
        s.execute(sql)
        oracle.execute(sql)
    if in_txn:
        s.execute("BEGIN")
        oracle.execute("BEGIN")
    writes = wal.stats.writes_logged
    for sql in (
        "INSERT INTO t (k, v, d) VALUES (1, 1.7, 7)",
        "INSERT INTO t (k, v, d) VALUES (3, 30, 7), (4, 40, 7.5)",
        "UPDATE t SET v = 3.9 WHERE k = 2",
        "UPDATE t SET v = v / 3",
    ):
        with pytest.raises(SqlError, match="not a whole number for"):
            s.execute(sql)
        with pytest.raises(SqlError, match="not a whole number"):
            oracle.execute(sql)
    assert wal.stats.writes_logged == writes
    # A whole float is kept, as the integer.
    sql = "UPDATE t SET v = v / 2 WHERE k = 2"
    assert s.execute(sql).rows_affected == 1
    oracle.execute(sql)
    if in_txn:
        s.execute("COMMIT")
        oracle.execute("COMMIT")
    query = "SELECT k, v, d FROM t ORDER BY k"
    assert s.execute(query).rows == [(1, 10, 5), (2, 10, 6)]
    assert mismatch(Answer.of(s.execute(query).result), oracle.execute(query)) is None
    assert_matches_oracle(s.execute(query).result, s.catalog, query, s.manager.now)


def _session_and_oracle_from_sql(*statements):
    """A session and an oracle that both ran ``statements``."""
    s, oracle = Session(), SqlOracle()
    for sql in statements:
        s.execute(sql)
        oracle.execute(sql)
    return s, oracle


_RANGE_SEED = (
    "CREATE TABLE t (k INT32, v INT32, m DECIMAL(2))",
    "INSERT INTO t (k, v, m) VALUES (1, 100, 1.5), (2, -3, 2.25)",
)
_RANGE_REFUSED = (
    "INSERT INTO t (k, v, m) VALUES (3, 10000000000, 0)",
    "INSERT INTO t (k, v, m) VALUES (3, 2147483647, 0), (4, 2147483648, 0)",
    "INSERT INTO t (k, v, m) VALUES (3, -2147483649, 0)",
    "INSERT INTO t (k, v, m) VALUES (3, 1, 92233720368547758.07)",
    "UPDATE t SET m = 92233720368547758.07 WHERE k = 1",
)


def test_oracle_refuses_what_the_session_refuses():
    s, oracle = _session_and_oracle_from_sql(*_RANGE_SEED)
    query = "SELECT k, v, m FROM t ORDER BY k"
    # v grows tenfold per statement until 100 * 10**8 passes INT32's top.
    statements = [*_RANGE_REFUSED, *["UPDATE t SET v = v * 10"] * 9]
    outcomes = []
    for sql in statements:
        got = _outcome(s.execute, sql)
        assert got == _outcome(oracle.execute, sql), sql
        outcomes.append(got)
        diff = mismatch(Answer.of(s.execute(query).result), oracle.execute(query))
        assert diff is None, f"after {sql!r}: {diff}"
    assert outcomes == ["refused"] * 5 + ["ok"] * 7 + ["refused"] * 2
    assert s.execute(query).rows == [(1, 1000000000, 1.5), (2, -30000000, 2.25)]


def test_oracle_refuses_inside_a_transaction_when_issued():
    s, oracle = _session_and_oracle_from_sql(*_RANGE_SEED, "BEGIN")
    for sql in (*_RANGE_REFUSED, "UPDATE t SET v = v * 100000000"):
        assert _outcome(s.execute, sql) == _outcome(oracle.execute, sql) == "refused", sql
    sql = "INSERT INTO t (k, v, m) VALUES (3, 2147483647, 0)"
    assert _outcome(s.execute, sql) == _outcome(oracle.execute, sql) == "ok"
    s.execute("COMMIT")
    oracle.execute("COMMIT")
    query = "SELECT k, v, m FROM t ORDER BY k"
    assert s.execute(query).rows == [(1, 100, 1.5), (2, -3, 2.25), (3, 2147483647, 0.0)]
    assert mismatch(Answer.of(s.execute(query).result), oracle.execute(query)) is None


def test_dml_needs_an_mvcc_table():
    from repro.db.catalog import Catalog
    from repro.db.schema import Column, TableSchema
    from repro.db.types import INT32

    catalog = Catalog()
    catalog.create_table(TableSchema("plain", [Column("k", INT32)]))
    s = Session(catalog)
    with pytest.raises(SqlError, match="not MVCC-enabled"):
        s.execute("INSERT INTO plain (k) VALUES (1)")
    s.close()


# ----------------------------------------------------------------------
# Durability: SQL DML flows through the WAL and survives recovery.
# ----------------------------------------------------------------------
def test_sql_dml_recovers_from_the_wal():
    wal = WriteAheadLog(device=SsdLog())
    s = Session(wal=wal)
    _seed(s)
    s.execute("UPDATE t SET v = 99 WHERE id = 2")
    s.execute("DELETE FROM t WHERE id = 3")
    # A dangling transaction must vanish on recovery.
    s.execute("BEGIN")
    s.execute("INSERT INTO t (id, v, tag) VALUES (9, 9, 'ash')")
    wal.flush()

    schema = s.catalog.table("t").schema
    res = recover(wal, schemas={"t": schema})
    rec = res.tables["t"]
    from repro.chaos import table_visible_rows

    assert table_visible_rows(rec, res.manager.now) == [
        (("id", 1), ("tag", "oak"), ("v", 10)),
        (("id", 2), ("tag", "elm"), ("v", 99)),
    ]
    s.close()


# ----------------------------------------------------------------------
# EXPLAIN and EXPLAIN ANALYZE.
# ----------------------------------------------------------------------
def test_explain_select_shows_access_path(session):
    result = session.execute("SELECT id FROM t WHERE v > 15")
    plan = session.execute("EXPLAIN SELECT id FROM t WHERE v > 15").plan
    assert result.rows == [(2,), (3,)]
    assert plan and "Scan" in plan


def test_only_explain_select_runs_the_optimizer(session, monkeypatch):
    from repro.db.plan.optimizer import Optimizer

    def refuse(self, query):
        raise RuntimeError("optimizer called")

    monkeypatch.setattr(Optimizer, "choose", refuse)
    assert session.execute("SELECT id FROM t WHERE v > 15").rows == [(2,), (3,)]
    insert = "INSERT INTO t (id, v, tag) VALUES (4, 40, 'ash')"
    assert session.execute(insert).rows_affected == 1
    assert session.execute("UPDATE t SET v = 0 WHERE id = 4").rows_affected == 1
    with pytest.raises(RuntimeError, match="optimizer called"):
        session.execute("EXPLAIN SELECT id FROM t")


def test_explain_analyze_requires_a_tracer(session):
    with pytest.raises(SqlError, match="tracer-enabled"):
        session.execute("EXPLAIN ANALYZE SELECT id FROM t")


def test_explain_analyze_renders_the_span_tree():
    s = Session(tracer=Tracer())
    _seed(s)
    out = s.execute("EXPLAIN ANALYZE SELECT tag FROM t GROUP BY tag")
    assert out.kind == "explain"
    for name in ("sql.bind", "sql.exec"):
        assert name in out.plan
    assert "sql.plan" not in out.plan  # only EXPLAIN SELECT plans
    dml = s.execute("EXPLAIN ANALYZE UPDATE t SET v = 0 WHERE id = 1")
    assert dml.rows_affected == 1
    assert "sql.exec" in dml.plan
    s.close()


def test_statement_spans_carry_the_sql_layer():
    s = Session(tracer=Tracer())
    _seed(s)
    s.execute("SELECT count(*) FROM t")
    spans = list(s.last_trace.root.walk())
    names = {sp.name for sp in spans}
    assert {"sql.statement", "sql.parse", "sql.bind", "sql.exec"} <= names
    assert all(
        sp.attrs.get("layer") == "sql"
        for sp in spans
        if sp.name.startswith("sql.")
    )
    s.close()


# ----------------------------------------------------------------------
# Stats and metrics.
# ----------------------------------------------------------------------
def test_stats_count_by_statement_kind(session):
    session.execute("SELECT id FROM t")
    session.execute("INSERT INTO t (id, v, tag) VALUES (4, 40, 'fir')")
    session.execute("UPDATE t SET v = 0 WHERE id = 4")
    session.execute("DELETE FROM t WHERE id = 4")
    with pytest.raises(SqlError):
        session.execute("SELECT nope FROM t")
    st = session.stats
    assert (st.selects, st.inserts, st.updates, st.deletes) == (1, 2, 1, 1)
    assert st.ddl == 1 and st.errors == 1
    assert st.rows_written == 3 + 1 + 1 + 1


def test_sql_metrics_series_track_the_session():
    registry = MetricsRegistry()
    s = Session(metrics=registry)
    _seed(s)
    s.execute("SELECT id FROM t")
    s.execute("BEGIN")
    sample = registry.collect()
    assert sample["sql_statements_total"] == 4.0
    assert sample["sql_selects_total"] == 1.0
    assert sample["sql_dml_total"] == 1.0
    assert sample["sql_txn_open"] == 1.0
    s.execute("ROLLBACK")
    assert registry.collect()["sql_txn_open"] == 0.0
    s.close()


# ----------------------------------------------------------------------
# Scripts.
# ----------------------------------------------------------------------
def test_split_statements_respects_literals_and_comments():
    script = (
        "SELECT 'a;b' FROM t; -- trailing; comment\n"
        "INSERT INTO t (id) VALUES (1);\n"
        ";\n"
    )
    assert split_statements(script) == [
        "SELECT 'a;b' FROM t",
        "-- trailing; comment\nINSERT INTO t (id) VALUES (1)",
    ]


def test_run_script_returns_one_result_per_statement(session):
    results = session.run_script(
        "INSERT INTO t (id, v, tag) VALUES (7, 70, 'fir');"
        "SELECT count(*) AS c0 FROM t"
    )
    assert [r.kind for r in results] == ["insert", "select"]
    assert results[1].rows == [(4,)]


# ----------------------------------------------------------------------
# The shape memo behind the front door.
# ----------------------------------------------------------------------
def test_a_memo_hit_explains_its_own_literals(session):
    for cut in (15, 25):  # the second statement is a shape-memo hit
        result = session.execute(f"SELECT id FROM t WHERE v > {cut}")
        assert f"(v > {cut})" in result.plan
        plan = session.execute(f"EXPLAIN SELECT id FROM t WHERE v > {cut}").plan
        assert f"(v > {cut})" in plan
    assert result.rows == [(3,)]


def test_an_invalid_date_on_a_memo_hit_raises_the_parsers_error(session):
    from repro.db.sql.parser import Parser

    session.execute("SELECT id FROM t WHERE v < DATE '1970-01-05'")
    session.execute("SELECT id FROM t WHERE v < DATE '1970-01-06'")
    bad = "SELECT id FROM t WHERE v < DATE '1994-13-45'"
    with pytest.raises(SqlError) as hit:
        session.execute(bad)
    with pytest.raises(SqlError) as referee:
        Parser(bad).parse_statement()
    assert str(hit.value) == str(referee.value)
    assert (hit.value.line, hit.value.column) == (1, 28)


def test_memo_residency_stays_bounded():
    from repro.db.sql.parser import parse_statement
    from repro.db.sql.shapes import MEMO_CAPACITY, SHAPES

    for i in range(10_000):  # 10 000 distinct shapes
        parse_statement(f"SELECT c{i} FROM t WHERE c{i} > 1")
    assert len(SHAPES) == MEMO_CAPACITY


def test_scan_statements_returns_the_unterminated_rest():
    assert scan_statements("SELECT 1; SELECT 'x;' -- a; b\n") == (
        ["SELECT 1"],
        "SELECT 'x;' -- a; b",
    )
    # Pieces that are only comments and whitespace are dropped.
    assert scan_statements("-- don't; forget\n;  -- c") == ([], "")
    assert split_statements("SELECT 1; -- done; really") == ["SELECT 1"]
