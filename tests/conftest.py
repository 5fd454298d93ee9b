"""Shared fixtures: small platforms and tables every suite reuses."""

import statistics

import numpy as np
import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite golden transcript files instead of comparing",
    )

from repro.bench.timing import paired_timing
from repro.db import Catalog, Column, TableSchema
from repro.db.sql.oracle import Answer, SqlOracle, mismatch
from repro.db.types import CHAR, DECIMAL, INT32, INT64
from repro.hw.config import TEST_PLATFORM, ZYNQ_ULTRASCALE


@pytest.fixture
def platform():
    """The paper's evaluation platform."""
    return ZYNQ_ULTRASCALE


@pytest.fixture
def small_platform():
    """Tiny caches so cache effects show with kilobyte tables."""
    return TEST_PLATFORM


@pytest.fixture
def wide_catalog():
    """The Figure 5 table: 16 INT32 columns in 64-byte rows, 5k rows."""
    from repro.workloads.synthetic import make_wide_table

    catalog, table = make_wide_table(nrows=5_000, ncols=16, row_bytes=64, seed=11)
    return catalog, table


@pytest.fixture
def mixed_catalog():
    """A table mixing ints, decimals and chars, hand-loaded."""
    schema = TableSchema(
        "mixed",
        [
            Column("id", INT64),
            Column("grp", CHAR(2)),
            Column("price", DECIMAL(2)),
            Column("qty", INT32),
        ],
    )
    catalog = Catalog()
    table = catalog.create_table(schema)
    rng = np.random.default_rng(5)
    n = 500
    table.append_arrays(
        {
            "id": np.arange(n, dtype=np.int64),
            "grp": rng.choice(np.array([b"aa", b"bb", b"cc"], dtype="S2"), n),
            "price": rng.integers(100, 99999, n),  # cents
            "qty": rng.integers(1, 50, n, dtype=np.int32),
        }
    )
    return catalog, table


@pytest.fixture
def mvcc_catalog():
    """An MVCC-enabled two-column table."""
    schema = TableSchema(
        "accounts",
        [Column("id", INT64), Column("balance", INT64)],
        mvcc=True,
    )
    catalog = Catalog()
    return catalog, catalog.create_table(schema)


def assert_overhead_below_five_percent(base, gated, what):
    """Assert the ``gated`` arm costs < 5% more than the ``base`` arm.

    Each arm is a :func:`repro.bench.timing.paired_timing` factory:
    called with the pair's index, it builds one trial's set-up untimed
    and returns the thunk that runs the trial, and only that call is
    timed (``process_time``, collector off). Trials run in alternating
    pairs, so drift in machine load (the rest of the suite, CI
    neighbours) hits both arms alike, and the overhead is the median of
    the per-pair ratios, which one lucky or unlucky trial cannot move. A
    noisy round adds its pairs to the next one, up to three rounds: the
    median of more pairs settles on the true ratio, so jitter passes
    and a real hot-path cost keeps failing.
    """
    gated(0)(), base(0)()  # warm-up
    ratios: list = []
    for _round in range(3):
        slow, fast = paired_timing(gated, base).seconds
        ratios += [s / f for s, f in zip(slow, fast)]
        overhead = statistics.median(ratios)
        if overhead < 1.05:
            return
    raise AssertionError(f"{what} overhead {overhead - 1:.1%}")


def assert_matches_oracle(result, catalog, sql, snapshot_ts=None):
    """Assert ``result`` (a :class:`~repro.db.exec.result.QueryResult`)
    carries the names, dtypes and exact values the
    :class:`~repro.db.sql.oracle.SqlOracle` gives ``sql`` over every
    table of ``catalog`` as visible at ``snapshot_ts``."""
    oracle = SqlOracle()
    for table in catalog.tables():
        oracle.load_table(table, snapshot_ts)
    diff = mismatch(Answer.of(result), oracle.execute(sql))
    assert diff is None, f"{sql}: {diff}"
