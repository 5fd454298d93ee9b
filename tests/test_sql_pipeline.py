"""The unified statement pipeline: Session end to end.

One front door — ``sql.parse -> plan.bind -> exec`` for SELECTs, MVCC
transactions over the WAL for DML, the optimizer for EXPLAIN SELECT —
plus the observability contract: spans, ``sql_*`` metrics, and
EXPLAIN / EXPLAIN ANALYZE.
"""

import math

import pytest

from repro.db.sql.pipeline import Session, scan_statements, split_statements
from repro.db.wal import WriteAheadLog, recover
from repro.errors import SqlError
from repro.obs import MetricsRegistry, Tracer
from repro.storage.ssd import SsdLog


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
