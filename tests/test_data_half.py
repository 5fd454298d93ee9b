"""The engines' shared data half (``Engine._fetch``).

Every engine evaluates the WHERE clause over its own columns at the
candidate rows and copies the other referenced columns at the qualifying
rows only. These tests pin the edges of that design: a constant WHERE
reads no column at all, an index probe or a snapshot can leave no
candidate, and the answer must still be the SQL oracle's over the
visible rows it loads on its own.
"""

import numpy as np
import pytest

from repro.core.mvcc_filter import visible_mask
from repro.db import Catalog, Column, TableSchema
from repro.db.engines.colstore import ColumnStoreEngine
from repro.db.engines.rmstore import RelationalMemoryEngine
from repro.db.engines.rowstore import RowStoreEngine
from repro.db.index import build_index
from repro.db.mvcc import TransactionManager
from repro.db.table import Table
from repro.db.types import CHAR, DECIMAL, INT64
from tests.conftest import assert_matches_oracle

#: (name, factory): every access path the shared data half serves.
CONFIGS = (
    ("row", lambda c: RowStoreEngine(c)),
    ("row-index", lambda c: RowStoreEngine(c, use_indexes=True)),
    ("column", lambda c: ColumnStoreEngine(c)),
    ("rm", lambda c: RelationalMemoryEngine(c)),
    ("rm-pushdown", lambda c: RelationalMemoryEngine(c, pushdown=True)),
)

#: (WHERE clause, key of its ``k = key`` conjunct or None, row predicate).
WHERES = (
    ("1 = 1", None, lambda k: np.ones(len(k), dtype=bool)),
    ("1 = 0", None, lambda k: np.zeros(len(k), dtype=bool)),
    ("1 = 1 AND k = 3", 3, lambda k: k == 3),
    ("k = 12345", 12345, lambda k: k == 12345),  # matches no row
)

SHAPES = (
    "SELECT k, v, tag FROM t WHERE {w} ORDER BY v, tag",
    "SELECT count(*) AS n, sum(v) AS s FROM t WHERE {w}",
)


@pytest.fixture(scope="module")
def store():
    """An indexed MVCC table and its snapshots: before any commit (no
    row visible), after the last commit, and None (every slot)."""
    schema = TableSchema(
        "t", [Column("k", INT64), Column("v", DECIMAL(2)), Column("tag", CHAR(4))],
        mvcc=True,
    )
    catalog = Catalog()
    table = catalog.create_table(schema)
    manager = TransactionManager()
    empty = manager.now
    rng = np.random.default_rng(11)
    for _ in range(3):
        txn = manager.begin()
        for _ in range(20):
            txn.insert(table, {
                "k": int(rng.integers(0, 8)),
                "v": int(rng.integers(0, 10_000)) / 100,
                "tag": str(rng.choice(["ab", "cde", "f"])),
            })
        manager.commit(txn)
    txn = manager.begin()
    for slot in range(0, 60, 4):
        txn.delete(table, slot)
    manager.commit(txn)
    catalog.add_index("t", "k", build_index(table, "k"))
    return catalog, table, (empty, manager.now, None)


def _visible(table, snapshot_ts):
    if snapshot_ts is None:
        return np.ones(table.nrows, dtype=bool)
    return visible_mask(table.begin_ts, table.end_ts, snapshot_ts)


@pytest.mark.parametrize("where,key,passes", WHERES, ids=[w[0] for w in WHERES])
@pytest.mark.parametrize("config,make", CONFIGS, ids=[c[0] for c in CONFIGS])
@pytest.mark.parametrize("snapshot", [0, 1, 2], ids=["no-rows", "latest", "all"])
def test_constant_and_empty_where_match_reference(
    store, config, make, where, key, passes, snapshot
):
    catalog, table, snapshots = store
    snapshot_ts = snapshots[snapshot]
    engine = make(catalog)
    vis = _visible(table, snapshot_ts)
    keys = table.column_values("k")
    n_visible = int(vis.sum())
    n_qualifying = int((vis & passes(keys)).sum())
    if key is not None and config in ("row-index", "rm-pushdown"):
        # The probe (or the fabric's comparator) narrows the candidates.
        n_visible = int((vis & (keys == key)).sum())
    if snapshot == 0:
        assert n_visible == 0
    for shape in SHAPES:
        sql = shape.format(w=where)
        got = engine.execute(sql, snapshot_ts=snapshot_ts)
        assert_matches_oracle(got.result, catalog, sql, snapshot_ts)
        assert (got.visible_rows, got.qualifying_rows) == (n_visible, n_qualifying), sql
    if config == "row-index" and key is not None:
        assert engine.access_path == "index-probe"


#: The access paths that read the row image (the column store indexes
#: its replica instead).
GATHERING = tuple(c for c in CONFIGS if c[0] != "column")


@pytest.mark.parametrize("config,make", GATHERING, ids=[c[0] for c in GATHERING])
def test_other_columns_are_read_at_qualifying_rows_only(store, monkeypatch, config, make):
    """The WHERE clause reads its own column at the candidate rows; the
    other columns are copied at the rows that passed, in one read."""
    catalog, table, (_, latest, _) = store
    reads = []
    read = Table.read

    def recording(self, names, rows=None):
        out = read(self, names, rows)
        reads.append((tuple(names), len(out[names[0]])))
        return out

    monkeypatch.setattr(Table, "read", recording)
    res = make(catalog).execute(
        "SELECT k, v, tag FROM t WHERE k = 3", snapshot_ts=latest
    )
    assert reads == [(("k",), res.visible_rows), (("v", "tag"), res.qualifying_rows)]
    assert res.qualifying_rows < res.visible_rows or config in ("row-index", "rm-pushdown")


def test_no_engine_overrides_the_data_half():
    for cls in (RowStoreEngine, ColumnStoreEngine, RelationalMemoryEngine):
        assert "_fetch" not in vars(cls), cls.__name__
