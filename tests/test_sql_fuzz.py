"""Differential SQL fuzzing through the statement pipeline.

Hypothesis draws seeds; each seed drives a random statement stream
(DML, transactions, joins, grouping, subqueries) through the engine, a
determinism twin, the scatter-gather cluster (where the statement fits
its dialect), and the brute-force dict-row oracle — every answer must
carry the oracle's names, dtypes and exact values. ``python -m
repro.chaos --mode sql-fuzz`` runs the same harness with WAL crash
points in CI.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Catalog, Column, TableSchema
from repro.db.engines import all_engines
from repro.db.exec import vector
from repro.db.mvcc import TransactionManager
from repro.db.sql.fuzz import StatementGen, run_sql_fuzz
from repro.db.sql.nodes import UpdateStmt
from repro.db.sql.oracle import Answer, SqlOracle, _promote, mismatch
from repro.db.sql.pipeline import Session
from repro.db.sql.shapes import Template
from repro.db.types import CHAR, INT32
from repro.errors import SqlError


def _assert_clean(report):
    assert report.passed, "\n".join(report.violations[:10])


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_differential_fuzz(seed):
    report = run_sql_fuzz(seed, steps=40)
    _assert_clean(report)
    assert report.selects > 0
    assert report.dml_statements > 0


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_differential_fuzz_with_crash_points(seed):
    report = run_sql_fuzz(seed, steps=30, crash_points=8)
    _assert_clean(report)
    assert report.crash_boundary_points > 0
    assert report.crash_torn_points > 0


@pytest.mark.parametrize("seed", range(4))
def test_ci_seeds_stay_green(seed):
    """The exact configuration the chaos CI job runs (spot check)."""
    report = run_sql_fuzz(seed, steps=60, crash_points=12)
    _assert_clean(report)


def test_consecutive_seeds_reach_every_engine():
    """The seed picks the engine (``seed % 4``), so the CI seeds cover
    the row, column and RM access paths, with and without pushdown."""
    reports = [run_sql_fuzz(seed, steps=20) for seed in range(4)]
    assert [r.engine for r in reports] == ["row", "column", "rm", "rm-pushdown"]
    for report in reports:
        _assert_clean(report)
        assert f"engine={report.engine}:" in report.summary()


def test_fuzz_checks_dtypes():
    """The summary CI uploads shows that the dtype check ran."""
    report = run_sql_fuzz(0, steps=20)
    _assert_clean(report)
    assert report.types_checked > 0
    assert f"{report.types_checked} dtypes" in report.summary()


# ----------------------------------------------------------------------
# Seeded faults the oracle-only fuzzer must catch.
# ----------------------------------------------------------------------
def test_catches_a_stale_literal_in_an_update_template(monkeypatch):
    """A shape memo that refills UPDATE templates with the first
    statement's literals reaches the engines only: the oracle parses
    without the memo, so the next SELECT tells them apart."""
    instantiate = Template.instantiate

    def stale(self, literals):
        if isinstance(self.stmt, UpdateStmt):
            return self.stmt
        return instantiate(self, literals)

    monkeypatch.setattr(Template, "instantiate", stale)
    reports = [run_sql_fuzz(seed, steps=60) for seed in range(4)]
    assert any(not r.passed for r in reports)


def test_catches_an_int32_count(monkeypatch):
    compute = vector._compute_aggregate

    def int32_count(output, *args):
        out = compute(output, *args)
        return out.astype(np.int32) if output.kind == "count" else out

    monkeypatch.setattr(vector, "_compute_aggregate", int32_count)
    report = run_sql_fuzz(0, steps=60)
    assert any("is <i4, expected <i8" in v for v in report.violations)


def test_fuzz_exercises_every_statement_family():
    """Across a handful of seeds the stream must cover selects, DML,
    explicit transactions, rollbacks, subqueries, and dist routing —
    a generator regression (e.g. a branch that stops firing) would
    silently gut the differential coverage."""
    totals = {
        "selects": 0,
        "dml_statements": 0,
        "txn_blocks": 0,
        "rollbacks": 0,
        "subquery_selects": 0,
        "dist_checked": 0,
        "rows_checked": 0,
        "types_checked": 0,
    }
    for seed in range(8):
        report = run_sql_fuzz(seed, steps=60)
        _assert_clean(report)
        for key in totals:
            totals[key] += getattr(report, key)
    for key, count in totals.items():
        assert count > 0, f"fuzz stream never exercised {key}"


# ----------------------------------------------------------------------
# The oracle itself: spot-check its semantics against hand-computed
# answers so a bug in the referee can't silently excuse both engines.
# ----------------------------------------------------------------------
def _fresh_oracle():
    oracle = SqlOracle()
    oracle.execute("CREATE TABLE t (id INT32, v INT32, w INT32, tag CHAR(8))")
    oracle.execute(
        "INSERT INTO t (id, v, w, tag) VALUES "
        "(1, 10, 5, 'oak'), (2, 20, 5, 'elm'), (3, 30, 7, 'oak')"
    )
    return oracle


def test_oracle_group_by_matches_hand_computation():
    answer = _fresh_oracle().execute(
        "SELECT tag AS c0, sum(v) AS c1, count(*) AS c2 FROM t GROUP BY tag"
    )
    assert answer.names == ("c0", "c1", "c2")
    assert answer.types == ("|S8", "<f8", "<i8")
    assert answer.rows == [("elm", 20.0, 1), ("oak", 40.0, 2)]


def test_oracle_global_aggregate_over_empty_input():
    oracle = _fresh_oracle()
    answer = oracle.execute(
        "SELECT count(*) AS c0, sum(v) AS c1, min(v) AS c2, "
        "max(v) AS c3, avg(v) AS c4 FROM t WHERE v > 1000"
    )
    assert answer.types == ("<i8", "<f8", "<f8", "<f8", "<f8")
    (count, total, lo, hi, mean), = answer.rows
    assert (count, total, lo, hi) == (0, 0.0, float("inf"), float("-inf"))
    assert math.isnan(mean)


def test_oracle_update_moves_rows_to_end_of_scan_order():
    oracle = _fresh_oracle()
    assert oracle.execute("UPDATE t SET v = v + 1 WHERE tag = 'oak'") == 2
    # MVCC slot discipline: updated versions land after untouched rows.
    assert [r["id"] for r in oracle.tables["t"].rows] == [2, 1, 3]


def test_oracle_txn_rollback_discards_staged_dml():
    oracle = _fresh_oracle()
    oracle.execute("BEGIN")
    oracle.execute("DELETE FROM t WHERE id = 1")
    oracle.execute("ROLLBACK")
    assert len(oracle.tables["t"].rows) == 3
    oracle.execute("BEGIN")
    oracle.execute("DELETE FROM t WHERE id = 1")
    oracle.execute("COMMIT")
    assert len(oracle.tables["t"].rows) == 2


def test_oracle_scalar_and_in_subqueries():
    oracle = _fresh_oracle()
    answer = oracle.execute(
        "SELECT id AS c0 FROM t WHERE v >= (SELECT avg(v) FROM t) ORDER BY c0"
    )
    assert answer.rows == [(2,), (3,)]
    answer = oracle.execute(
        "SELECT id AS c0 FROM t WHERE w IN (SELECT w FROM t WHERE tag = 'elm') "
        "ORDER BY c0"
    )
    assert answer.rows == [(1,), (2,)]


def test_oracle_runs_each_subquery_once_per_statement():
    """An uncorrelated subquery runs once for the whole statement, not
    once per outer row, and the answers stay what per-row evaluation
    gave."""
    oracle = SqlOracle()
    oracle.execute("CREATE TABLE t (id INT32, v INT32, w INT32, tag CHAR(8))")
    oracle.execute(
        "INSERT INTO t (id, v, w, tag) VALUES "
        + ", ".join(f"({i}, {i % 37}, {i % 11}, 'k{i % 5}')" for i in range(400))
    )
    calls = []
    select = oracle.select

    def counting_select(stmt):
        calls.append(stmt)
        return select(stmt)

    oracle.select = counting_select
    answer = oracle.execute(
        "SELECT id AS c0 FROM t WHERE w IN (SELECT w FROM t WHERE tag = 'k1') "
        "AND v > (SELECT avg(v) FROM t) ORDER BY c0"
    )
    assert len(calls) == 3  # the outer SELECT and each subquery once
    rows = [(i, i % 37, i % 11) for i in range(400)]
    k1_w = {w for i, _, w in rows if i % 5 == 1}
    mean = sum(v for _, v, _ in rows) / len(rows)
    assert answer.rows == [(i,) for i, v, w in rows if w in k1_w and v > mean]
    # A later statement sees the table as it is then, not a stale answer.
    oracle.execute("DELETE FROM t WHERE tag = 'k1'")
    calls.clear()
    assert oracle.execute(
        "SELECT count(*) AS c0 FROM t WHERE w IN (SELECT w FROM t WHERE tag = 'k1')"
    ).rows == [(0,)]
    assert len(calls) == 2


def test_oracle_update_computes_every_set_value_before_moving_rows():
    """SET values are computed against the table before any matched row
    moves to its new version, as the session's DML path computes them: a
    scalar subquery in SET counts every row, the updated ones included."""
    oracle = SqlOracle()
    oracle.execute("CREATE TABLE t (k INT32, v INT32)")
    oracle.execute("INSERT INTO t (k, v) VALUES (0, 0), (1, 0), (2, 0), (3, 0)")
    assert oracle.execute("UPDATE t SET v = (SELECT count(*) FROM t) WHERE k < 2") == 2
    answer = oracle.execute("SELECT k, v FROM t ORDER BY k")
    assert answer.rows == [(0, 4), (1, 4), (2, 0), (3, 0)]


def test_oracle_rounds_decimal_writes_to_the_column_scale():
    """A DECIMAL SET from an expression stores the value rounded to the
    column's scale, in the oracle as in every engine: d = 0.2 + 0.1 reads
    0.3, not 0.30000000000000004, and later arithmetic starts from it."""
    ddl = "CREATE TABLE t (id INT32, d DECIMAL(2), e DECIMAL)"
    statements = (
        "INSERT INTO t (id, d, e) VALUES (1, 0.2, 0.125), (2, 1.005, 7)",
        "UPDATE t SET d = d + 0.1, e = e * 3 WHERE id = 1",
        "UPDATE t SET d = d + 0.1 WHERE id = 1",
    )
    select = "SELECT id, d, e FROM t ORDER BY id"
    oracle = SqlOracle()
    oracle.execute(ddl)
    for sql in statements:
        oracle.execute(sql)
    want = oracle.execute(select)
    assert want.rows == [(1, 0.4, 0.36), (2, 1.0, 7.0)]
    catalog = Catalog()
    engines = all_engines(catalog)
    seed = Session(catalog, engines["row"])
    seed.execute(ddl)
    for sql in statements:
        seed.execute(sql)
    for engine in engines.values():
        session = Session(catalog, engine, manager=seed.manager)
        assert mismatch(Answer.of(session.execute(select).result), want) is None
    loaded = SqlOracle()
    loaded.load_table(catalog.table("t"), seed.manager.now)
    loaded.execute("UPDATE t SET d = d + 0.1")
    assert loaded.execute("SELECT d FROM t ORDER BY id").rows == [(0.5,), (1.1,)]


@pytest.mark.parametrize("func", ["sum", "avg", "min", "max"])
def test_numeric_aggregate_of_char_column_is_a_sql_error(func):
    """SUM/AVG/MIN/MAX over a CHAR column is a SqlError naming the column
    on every engine and in the oracle; COUNT over it stays legal."""
    catalog = Catalog()
    engines = all_engines(catalog)
    seed = Session(catalog, engines["row"])
    seed.execute("CREATE TABLE t (id INT32, v INT32, tag CHAR(4))")
    seed.execute("INSERT INTO t (id, v, tag) VALUES (1, 10, 'oak'), (2, 20, 'elm')")
    oracle = SqlOracle()
    oracle.load_table(catalog.table("t"))
    for sql in (
        f"SELECT {func}(tag) AS c0 FROM t",
        f"SELECT id AS c0, {func}(v + tag) AS c1 FROM t GROUP BY id",
    ):
        for engine in engines.values():
            session = Session(catalog, engine, manager=seed.manager)
            with pytest.raises(SqlError, match="CHAR column 'tag'"):
                session.execute(sql)
        with pytest.raises(SqlError, match="CHAR column 'tag'"):
            oracle.execute(sql)
    for engine in engines.values():
        session = Session(catalog, engine, manager=seed.manager)
        assert session.execute("SELECT count(tag) AS c0 FROM t").rows == [(2,)]
    assert oracle.execute("SELECT count(tag) AS c0 FROM t").rows == [(2,)]


def test_oracle_orders_by_a_column_it_does_not_output():
    oracle = _fresh_oracle()
    oracle.execute("INSERT INTO t (id, v, w, tag) VALUES (4, 40, 5, 'elm')")
    answer = oracle.execute("SELECT id FROM t ORDER BY w DESC, tag")
    # w = 7 first; the w = 5 tie orders by tag, and (2, elm) and
    # (4, elm) keep their table order.
    assert answer.rows == [(3,), (2,), (4,), (1,)]
    answer = oracle.execute("SELECT tag FROM t ORDER BY v DESC LIMIT 2 OFFSET 1")
    assert answer.rows == [("oak",), ("elm",)]


def test_oracle_join_emits_nested_loop_order():
    """Left rows in order, and per left row its matches in table order,
    also when the right key repeats."""
    oracle = _fresh_oracle()
    oracle.execute("CREATE TABLE u (uk INT32, uv INT32)")
    oracle.execute("INSERT INTO u (uk, uv) VALUES (5, 1), (7, 2), (5, 3), (9, 4)")
    answer = oracle.execute("SELECT id, uv FROM t JOIN u ON uk = w")
    assert answer.rows == [(1, 1), (1, 3), (2, 1), (2, 3), (3, 2)]
    assert answer.types == ("<i4", "<i4")


def test_oracle_load_table_at_a_snapshot():
    """Only committed versions current at the snapshot load: neither an
    uncommitted insert nor the version an update superseded."""
    schema = TableSchema("t", [Column("k", INT32), Column("tag", CHAR(4))], mvcc=True)
    table = Catalog().create_table(schema)
    manager = TransactionManager()
    txn = manager.begin()
    first = txn.insert(table, {"k": 1, "tag": "a"})
    txn.insert(table, {"k": 2, "tag": "b"})
    manager.commit(txn)
    before = manager.now
    txn = manager.begin()
    txn.update(table, first, {"tag": "c"})
    manager.commit(txn)
    manager.begin().insert(table, {"k": 3, "tag": "d"})

    def loaded(snapshot_ts):
        oracle = SqlOracle()
        oracle.load_table(table, snapshot_ts)
        return oracle.execute("SELECT k, tag FROM t")

    assert loaded(before).rows == [(1, "a"), (2, "b")]
    assert loaded(manager.now).rows == [(2, "b"), (1, "c")]
    assert len(loaded(None).rows) == 4  # every slot
    assert loaded(before).types == ("<i4", "|S4")


def test_oracle_types_match_every_engine():
    """The declared output types are the engines' dtypes."""
    ddl = "CREATE TABLE t (v INT32, w INT32, tag CHAR(8), p DECIMAL(2), d DATE, big INT64)"
    rows = "INSERT INTO t VALUES (1, 2, 'oak', 1.25, 3, 7), (3, 4, 'elm', 2.5, 4, 8)"
    queries = (
        "SELECT count(*) AS c, sum(v) AS s, avg(v) AS a, min(v) AS lo, max(p) AS hi FROM t",
        "SELECT v, tag, p, d, big FROM t WHERE v > 1",
        "SELECT v + 5 AS a, v * w AS b, v - w AS c, v / w AS e, v / 2 AS f, "
        "v + 1.5 AS g, 1 - p AS h, v * big AS i, d + 1 AS j, -v AS k FROM t",
        "SELECT (SELECT count(*) FROM t) AS a, (SELECT max(v) FROM t) AS b, "
        "v + (SELECT min(v) FROM t) AS c FROM t WHERE v > 1000",
    )
    oracle = SqlOracle()
    oracle.execute(ddl)
    oracle.execute(rows)
    for name in ("row", "column", "rm"):
        catalog = Catalog()
        session = Session(catalog, all_engines(catalog)[name])
        session.execute(ddl)
        session.execute(rows)
        for sql in queries:
            got = Answer.of(session.execute(sql).result)
            assert mismatch(got, oracle.execute(sql)) is None, (name, sql)
        session.close()


#: Every numeric column type's answer dtype, and the two Python scalars.
_NUMERIC = ("|i1", "<i2", "<i4", "<i8", "<f4", "<f8")
_SCALARS = {"int": 3, "float": 1.5}


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_oracle_promotion_matches_numpy(op):
    """The oracle spells out numpy's promotion without importing numpy;
    this pins each rule to the numpy the tests run under."""
    apply = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.true_divide}[op]
    operands = {t: np.ones(2, dtype=t) for t in _NUMERIC}
    operands.update(_SCALARS)
    for a, x in operands.items():
        for b, y in operands.items():
            if a in _SCALARS and b in _SCALARS:
                continue  # Python arithmetic: no array to promote
            assert _promote(op, a, b) == apply(x, y).dtype.str, (a, op, b)


def test_mismatch_checks_names_then_types_then_exact_values():
    want = Answer(("a", "b"), ("<i8", "<f8"), [(1, float("nan")), (2, 0.5)])
    assert mismatch(want, want) is None  # NaN equals NaN
    assert "names" in mismatch(Answer(("a", "c"), want.types, want.rows), want)
    assert "is <i4, expected <i8" in mismatch(Answer(want.names, ("<i4", "<f8"), want.rows), want)
    assert "1 rows, expected 2" in mismatch(Answer(want.names, want.types, want.rows[:1]), want)
    close = [(1, float("nan")), (2, 0.5 + 2**-52)]
    assert "row 1" in mismatch(Answer(want.names, want.types, close), want)


def test_generator_emits_only_valid_sql():
    """Every generated statement must parse (and the harness runs them
    all anyway — this pins the contract at the generator boundary)."""
    import random

    from repro.db.sql.parser import parse_statement

    gen = StatementGen(random.Random(7))
    for _ in range(200):
        stmt = gen.select()
        parse_statement(stmt.sql)
        parse_statement(gen.insert())
        parse_statement(gen.update())
        parse_statement(gen.delete())
