"""Differential SQL fuzzing through the statement pipeline.

Hypothesis draws seeds; each seed drives a random statement stream
(DML, transactions, joins, grouping, subqueries) through the engine, a
determinism twin, the bound-level Volcano reference, the scatter-gather
cluster (where the statement fits its dialect), and the brute-force
dict-row oracle — every answer must agree, byte-identically with the
reference. ``python -m repro.chaos --mode sql-fuzz`` runs the same
harness with WAL crash points in CI.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.sql.fuzz import StatementGen, run_sql_fuzz
from repro.db.sql.oracle import SqlOracle


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
    names, rows = _fresh_oracle().execute(
        "SELECT tag AS c0, sum(v) AS c1, count(*) AS c2 FROM t GROUP BY tag"
    )
    assert names == ("c0", "c1", "c2")
    assert rows == [("elm", 20.0, 1), ("oak", 40.0, 2)]


def test_oracle_global_aggregate_over_empty_input():
    oracle = _fresh_oracle()
    names, rows = oracle.execute(
        "SELECT count(*) AS c0, sum(v) AS c1, min(v) AS c2, "
        "max(v) AS c3, avg(v) AS c4 FROM t WHERE v > 1000"
    )
    (count, total, lo, hi, mean), = rows
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
    _, rows = oracle.execute(
        "SELECT id AS c0 FROM t WHERE v >= (SELECT avg(v) FROM t) ORDER BY c0"
    )
    assert rows == [(2,), (3,)]
    _, rows = oracle.execute(
        "SELECT id AS c0 FROM t WHERE w IN (SELECT w FROM t WHERE tag = 'elm') "
        "ORDER BY c0"
    )
    assert rows == [(1,), (2,)]


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
