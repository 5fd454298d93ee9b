"""Property tests for the vectorized execution path.

The contract under test: for every query shape, layout, engine and
MVCC snapshot, the vectorized fused-kernel path (the engines' only answer
path) gives the SQL oracle's answer — its names, dtypes and exact
values — and its join routes and code-cache runs are bit-identical to
each other.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.mvcc_filter import visible_mask, visible_mask_batched
from repro.db import Catalog, Column, TableSchema
from repro.db.engines.base import Engine
from repro.db.engines.colstore import ColumnStoreEngine
from repro.db.engines.rmstore import RelationalMemoryEngine
from repro.db.engines.rowstore import RowStoreEngine
from repro.db.exec.vector import (
    FusedKernel,
    factorize,
    join_indices,
    run_vector,
)
from repro.db.mvcc import TransactionManager
from repro.db.plan import bind
from repro.db.plan.codecache import CodeFragmentCache
from repro.db.sql import parse
from repro.db.sql.pipeline import Session
from repro.db.types import CHAR, DECIMAL, INT32, INT64
from repro.core.ledger import CostLedger
from repro.hw.config import TEST_PLATFORM
from tests.conftest import assert_matches_oracle

ENGINES = (RowStoreEngine, ColumnStoreEngine, RelationalMemoryEngine)


def assert_same_result(a, b, context=""):
    """Bit-identical comparison (dataclass ``==`` chokes on arrays)."""
    assert a.names == b.names, f"{context}: {a.names} != {b.names}"
    for n in a.names:
        x, y = a.columns[n], b.columns[n]
        assert x.dtype == y.dtype, f"{context}: column {n} {x.dtype} != {y.dtype}"
        assert x.tobytes() == y.tobytes(), f"{context}: column {n}"


# ----------------------------------------------------------------------
# A small star schema the random queries run over.
# ----------------------------------------------------------------------
def make_star(seed=7, n_fact=400, n_dim1=40, n_dim2=12):
    catalog = Catalog()
    fact = catalog.create_table(
        TableSchema(
            "fact",
            [
                Column("k1", INT64),
                Column("k2", INT64),
                Column("val", DECIMAL(2)),
                Column("qty", INT32),
                Column("cat", CHAR(4)),
            ],
        )
    )
    dim1 = catalog.create_table(
        TableSchema(
            "dim1",
            [
                Column("d1_key", INT64),
                Column("d1_ref", INT64),
                Column("d1_w", INT32),
                Column("d1_cat", CHAR(4)),
            ],
        )
    )
    dim2 = catalog.create_table(
        TableSchema("dim2", [Column("d2_key", INT64), Column("d2_w", INT32)])
    )
    rng = np.random.default_rng(seed)
    fact.append_arrays(
        {
            "k1": rng.integers(0, n_dim1 + 5, n_fact, dtype=np.int64),
            "k2": rng.integers(0, n_dim2 + 3, n_fact, dtype=np.int64),
            "val": rng.integers(100, 50_000, n_fact),
            "qty": rng.integers(1, 40, n_fact, dtype=np.int32),
            "cat": rng.choice(np.array([b"aa", b"bb", b"cc", b"dddd"], "S4"), n_fact),
        }
    )
    dim1.append_arrays(
        {
            # Duplicate keys: the join must fan out.
            "d1_key": rng.integers(0, n_dim1, n_dim1 * 2, dtype=np.int64),
            "d1_ref": rng.integers(0, n_dim2 + 3, n_dim1 * 2, dtype=np.int64),
            "d1_w": rng.integers(1, 9, n_dim1 * 2, dtype=np.int32),
            "d1_cat": rng.choice(np.array([b"xx", b"yy"], "S4"), n_dim1 * 2),
        }
    )
    dim2.append_arrays(
        {
            "d2_key": rng.integers(0, n_dim2, n_dim2, dtype=np.int64),
            "d2_w": rng.integers(1, 5, n_dim2, dtype=np.int32),
        }
    )
    return catalog, fact


STAR_CATALOG, STAR_FACT = make_star()

_JOINS = [
    "",
    " JOIN dim1 ON k1 = d1_key",
    " JOIN dim1 ON k1 = d1_key JOIN dim2 ON k2 = d2_key",
    # Chained probe key: the second join's left column lives in dim1.
    " JOIN dim1 ON k1 = d1_key JOIN dim2 ON d1_ref = d2_key",
]
_WHERES = [
    "",
    " WHERE qty > 12",
    " WHERE cat = 'aa' OR qty < 5",
    " WHERE val BETWEEN 20 AND 300",
    " WHERE qty > 45",  # empty qualifying set
]
#: Predicates over joined columns (post-join filters); only valid with a
#: join clause that brings the column in.
_POST_WHERES = {
    1: " WHERE qty > 10 AND d1_cat = 'xx'",
    2: " WHERE d1_w > 2 AND d2_w < 4",
    3: " WHERE val > 50 AND d2_w > 1",
}


@st.composite
def star_queries(draw):
    join_i = draw(st.integers(0, len(_JOINS) - 1))
    join = _JOINS[join_i]
    if join_i and draw(st.booleans()):
        where = _POST_WHERES[join_i]
    else:
        where = draw(st.sampled_from(_WHERES))
    shape = draw(st.integers(0, 2))
    if shape == 0:  # grouped aggregation
        key = draw(st.sampled_from(["cat", "k2"] + (["d1_cat"] if join_i else [])))
        sql = (
            f"SELECT {key}, sum(val) AS s, count(*) AS n, min(qty) AS lo, "
            f"max(qty * 2) AS hi, avg(val) AS m FROM fact{join}{where} "
            f"GROUP BY {key} ORDER BY {key}"
        )
    elif shape == 1:  # global aggregates
        sql = (
            f"SELECT sum(val * qty) AS s, count(*) AS n, avg(qty) AS m "
            f"FROM fact{join}{where}"
        )
    else:  # projection with ordering
        distinct = "DISTINCT " if draw(st.booleans()) else ""
        limit = draw(st.sampled_from(["", " LIMIT 7"]))
        order = "" if distinct else " ORDER BY val DESC, k1"
        sql = f"SELECT {distinct}k1, val, qty FROM fact{join}{where}{order}{limit}"
    return sql


class TestVectorVsOracleProperty:
    @given(star_queries())
    @settings(max_examples=60, deadline=None)
    def test_random_queries_match_oracle(self, sql):
        bound = bind(parse(sql), STAR_CATALOG)
        cols = {n: STAR_FACT.column_values(n) for n in bound.referenced_columns}
        assert_matches_oracle(run_vector(bound, cols), STAR_CATALOG, sql)

    @given(star_queries(), st.sampled_from(["probe", "merge"]))
    @settings(max_examples=30, deadline=None)
    def test_join_strategies_bit_identical(self, sql, strategy):
        bound = bind(parse(sql), STAR_CATALOG)
        cols = {n: STAR_FACT.column_values(n) for n in bound.referenced_columns}
        forced = FusedKernel(bound, join_strategy=strategy)(cols)
        auto = run_vector(bound, cols)
        assert_same_result(forced, auto, context=f"{strategy}: {sql}")


#: Join key kinds: dtype and a value strategy. With at most 60 rows a
#: side, ``dense`` and ``negative`` build sides take the dense route,
#: ``sparse`` ones the sort route; ``extremes`` (where ``max - min``
#: overflows int64), ``int16`` and ``int32`` mix both, with probes far
#: outside a narrow build range (an offset there would wrap the dtype).
_JOIN_KEY_KINDS = {
    "dense": (np.int64, st.integers(0, 8)),
    "negative": (np.int64, st.integers(-12, -1) | st.integers(-3, 3)),
    "sparse": (np.int64, st.integers(-(10**6), 10**6) | st.integers(0, 3)),
    "extremes": (
        np.int64,
        st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 2**63 - 2, 2**63 - 1]),
    ),
    "int16": (np.int16, st.sampled_from([-(2**15), 2**15 - 1]) | st.integers(-3, 3)),
    "int32": (np.int32, st.sampled_from([-(2**31), 2**31 - 1]) | st.integers(-3, 3)),
    "uint8": (np.uint8, st.sampled_from([0, 1, 2, 254, 255])),
}


@st.composite
def join_key_pairs(draw):
    """``(left, right)`` key arrays, each of its own kind (mixed dtypes
    promote), either side possibly empty."""
    sides = []
    for _ in range(2):
        dtype, values = _JOIN_KEY_KINDS[draw(st.sampled_from(sorted(_JOIN_KEY_KINDS)))]
        sides.append(np.array(draw(st.lists(values, max_size=60)), dtype=dtype))
    return tuple(sides)


def brute_force_join(left, right):
    """Nested-loop referee: every matching (left, right) pair, in order."""
    return [
        (i, j)
        for i, lv in enumerate(left)
        for j, rv in enumerate(right)
        if lv == rv
    ]


def assert_join_pairs(li, ri, expect, context):
    """Both index arrays equal the referee's pairs, each on its own, so
    a length mismatch between them fails too."""
    assert li.tolist() == [i for i, _ in expect], context
    assert ri.tolist() == [j for _, j in expect], context


class TestJoinIndices:
    @given(join_key_pairs())
    @example((np.arange(5, dtype=np.int64), np.array([3, 1, 3, 9], dtype=np.int64)))
    @example((np.array([-(2**63)], dtype=np.int64), np.array([2**63 - 1], dtype=np.int64)))
    @example((np.array([-(2**31), 7], dtype=np.int32), np.array([2**31 - 1], dtype=np.int64)))
    @settings(max_examples=300, deadline=None)
    def test_probe_merge_and_reference_agree(self, pair):
        left, right = pair
        expect = brute_force_join(left.tolist(), right.tolist())
        for strategy in ("probe", "merge", "auto"):
            li, ri = join_indices([left], [right], strategy=strategy)
            assert_join_pairs(li, ri, expect, strategy)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32])
    def test_dense_offsets_do_not_wrap_narrow_dtypes(self, dtype):
        # Build keys spanning 40,000 values, taken in int16 an offset
        # would pass 32,767 and wrap; probes sit at both ends of the
        # range and past them, out to the dtype's extremes.
        info = np.iinfo(dtype)
        right = np.arange(-20_000, 20_000, dtype=dtype)[::-1].copy()
        left = np.array(
            [info.min, -20_001, -20_000, -1, 0, 19_999, 20_000, info.max, 5, 5],
            dtype=dtype,
        )
        where = {v: j for j, v in enumerate(right.tolist())}
        expect = [(i, where[v]) for i, v in enumerate(left.tolist()) if v in where]
        for strategy in ("auto", "probe"):
            li, ri = join_indices([left], [right], strategy=strategy)
            assert_join_pairs(li, ri, expect, strategy)

    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=40),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_multi_key(self, left, right):
        la = np.asarray([t[0] for t in left], dtype=np.int64)
        lb = np.asarray([t[1] for t in left], dtype=np.int64)
        ra = np.asarray([t[0] for t in right], dtype=np.int64)
        rb = np.asarray([t[1] for t in right], dtype=np.int64)
        expect = brute_force_join(left, right)
        for strategy in ("probe", "merge", "auto"):
            li, ri = join_indices([la, lb], [ra, rb], strategy=strategy)
            assert_join_pairs(li, ri, expect, strategy)

    def test_routes_follow_from_the_keys(self, monkeypatch):
        # No knob selects a route: spy on the kernels instead. Q3's two
        # key joins take the slot table (dense, no match expansion), a
        # dense build side with duplicates falls back to the sort route,
        # and a build side spanning more than the factor times the rows
        # sorts without trying the slot table.
        from repro.db.exec import vector
        from repro.db.engines import RelationalMemoryEngine
        from repro.workloads.tpch_analytics import Q3, generate_tpch_analytics

        calls = []

        def spy(name):
            real = getattr(vector, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(vector, name, wrapper)

        for name in ("_dense_join", "_sort_join", "_expand_matches"):
            spy(name)

        catalog, *_ = generate_tpch_analytics(300_000)
        assert RelationalMemoryEngine(catalog).execute(Q3).result.nrows == 10
        assert calls == ["_dense_join", "_dense_join"]

        calls.clear()
        dup = np.array([4, 2, 4, 7], dtype=np.int64)
        li, ri = join_indices([np.arange(9, dtype=np.int64)], [dup])
        assert calls == ["_dense_join", "_sort_join", "_expand_matches"]
        assert_join_pairs(li, ri, brute_force_join(range(9), dup.tolist()), "dup")

        calls.clear()
        # Span 4 * factor + 1 over 2 + 2 rows: one past the dense bound.
        wide = np.array([0, 4 * vector.DENSE_SPAN_FACTOR], dtype=np.int64)
        join_indices([wide], [wide])
        assert calls == ["_sort_join", "_expand_matches"]

    def test_mixed_dtype_keys_promote(self):
        l = np.asarray([1, 2, 3], dtype=np.int32)
        r = np.asarray([2, 2, 3], dtype=np.int64)
        li, ri = join_indices([l], [r])
        assert list(zip(li.tolist(), ri.tolist())) == [(1, 0), (1, 1), (2, 2)]

    def test_merge_picked_for_high_fanout(self):
        from repro.db.exec.vector import _join_codes, _pick_strategy

        l = np.arange(100, dtype=np.int64)  # all-unique: fanout 1
        r = np.zeros(200, dtype=np.int64)  # fanout 200 >> threshold
        lc, rc = _join_codes([l], [r])
        assert _pick_strategy(np.sort(rc), len(lc)) == "merge"
        assert _pick_strategy(np.sort(lc), len(rc)) == "probe"


#: Key column kinds for the factorize property: dtype and a value
#: strategy with enough repeats to form groups. ``S1``, ``uint8``,
#: ``int8`` and ``bool`` take the counting path; integers whose range is
#: no larger than the row count the presence map; wider ``S`` kinds are
#: ranked as ``uint64`` words (``S17`` spans three, with values that
#: differ only past a word boundary); the rest sort.
_KEY_KINDS = {
    "S1": ("S1", st.sampled_from([b"", b"A", b"N", b"R", b"\x80", b"\xff"])),
    "S4": ("S4", st.sampled_from([b"", b"a", b"ab", b"abcd", b"b", b"\xffz"])),
    "S10": (
        "S10",
        st.sampled_from(
            [b"", b"\x00", b"BUILDING", b"AUTOMOBILE", b"A\x00B", b"A",
             b"\xff" * 10, b"\xff", b"BUILDING\x00\x01"]
        ),
    ),
    "S17": (
        "S17",
        st.sampled_from(
            [b"", b"\x00", b"abcdefgh", b"abcdefgh\x00\x00", b"abcdefghi",
             b"abcdefgh\xff", b"abcdefghijklmnopq", b"abcdefghijklmnop",
             b"abcdefghijklmnop\xff", b"\xff" * 17, b"zz"]
        ),
    ),
    "int16": (np.int16, st.integers(-5, 5) | st.sampled_from([-(2**15), 2**15 - 1])),
    "int64": (
        np.int64,
        st.sampled_from([-(2**63), -(2**62), -1, 0, 1, 2**63 - 1])
        | st.integers(-3, 3),
    ),
    "int32": (np.int32, st.integers(-2, 2)),
    "int8": (np.int8, st.sampled_from([-128, -1, 0, 1, 127])),
    "uint8": (np.uint8, st.sampled_from([0, 1, 200, 255])),
    "bool": (np.bool_, st.booleans()),
    "float64": (np.float64, st.sampled_from([-0.0, 0.0, 1.5, -1.5, 2.0])),
}


@st.composite
def key_columns(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_KEY_KINDS)), min_size=1, max_size=4))
    n = draw(st.integers(0, 40))
    cols = []
    for kind in kinds:
        dtype, values = _KEY_KINDS[kind]
        cols.append(np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype))
    return cols


def reference_factorize(cols):
    """Numpy-free referee: sorted distinct key tuples, each as its first
    row has it (a dict keeps the first of equal keys, so ``-0.0`` vs
    ``0.0`` resolves to the earlier row), and each row's group index."""
    rows = list(zip(*(c.tolist() for c in cols)))
    uniq = sorted(dict.fromkeys(rows))
    index = {key: g for g, key in enumerate(uniq)}
    return uniq, [index[row] for row in rows]


def assert_factorize_matches_reference(cols):
    uniq, codes = factorize(cols)
    expect_uniq, expect_codes = reference_factorize(cols)
    assert [u.dtype for u in uniq] == [c.dtype for c in cols]
    assert codes.dtype == np.int64
    assert codes.tolist() == expect_codes
    # repr() tells -0.0 from 0.0, so representatives are pinned bit-wise.
    assert repr(list(zip(*(u.tolist() for u in uniq)))) == repr(expect_uniq)


class TestFactorize:
    @given(key_columns())
    @example([np.zeros(0, dtype="S1"), np.zeros(0, dtype=np.int64)])
    @example([np.array([-0.0, 1.0, 0.0]), np.array([3, 3, 3])])
    @example([np.array([0.0, 1.0, -0.0]), np.array([3, 3, 3])])
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_free_reference(self, cols):
        assert_factorize_matches_reference(cols)

    @given(
        st.lists(st.sampled_from(["S1", "uint8", "int8"]), min_size=1, max_size=2),
        st.integers(1, 60),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_byte_keys_equal_ranked_route(self, kinds, n, data):
        """One or two one-byte key columns take one 16-bit code and a
        bincount; uniques and codes equal the ranked route's, dtype and
        bytes (NUL bytes and signed order included)."""
        from repro.db.exec import vector

        values = {
            "S1": ("S1", st.sampled_from([b"", b"\x00", b"A", b"N", b"\x7f", b"\x80", b"\xff"])),
            "uint8": (np.uint8, st.sampled_from([0, 1, 127, 128, 255])),
            "int8": (np.int8, st.sampled_from([-128, -1, 0, 1, 127])),
        }
        cols = []
        for kind in kinds:
            dtype, strategy = values[kind]
            drawn = data.draw(st.lists(strategy, min_size=n, max_size=n))
            cols.append(np.array(drawn, dtype=dtype))
        uniq, codes = factorize(cols)
        # The ranked route: per-column ranks, mixed radix, first rows.
        want_codes, space = vector._mixed_radix(vector._rank_column(c) for c in cols)
        first = np.full(space, n, dtype=np.int64)
        np.minimum.at(first, want_codes, np.arange(n, dtype=np.int64))
        want_uniq = [c[first] for c in cols]
        assert codes.dtype == want_codes.dtype
        assert codes.tobytes() == want_codes.tobytes()
        for got, want in zip(uniq, want_uniq):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert_factorize_matches_reference(cols)

    def test_byte_keys_skip_the_ranks(self, monkeypatch):
        from repro.db.exec import vector

        def fail(*_):
            raise AssertionError("ranked route taken")

        monkeypatch.setattr(vector, "_mixed_radix", fail)
        flags = np.array([b"N", b"R", b"A", b"N"], dtype="S1")
        status = np.array([b"O", b"F", b"F", b"O"], dtype="S1")
        uniq, codes = factorize([flags, status])
        assert [u.tolist() for u in uniq] == [[b"A", b"N", b"R"], [b"F", b"O", b"F"]]
        assert codes.tolist() == [1, 2, 0, 1]

    def test_radix_overflow_redensifies(self, monkeypatch):
        # Four columns of 2**16 distinct values: the mixed-radix product
        # (2**64) passes 2**62, so the running code is re-densified before
        # the last column and the final codes take the sort path.
        from repro.db.exec import vector

        calls = []
        real = vector._densify

        def spy(codes, space):
            calls.append(space)
            return real(codes, space)

        monkeypatch.setattr(vector, "_densify", spy)
        rng = np.random.default_rng(5)
        n = 2**16
        cols = [rng.permutation(n).astype(np.int64) - 2**15 for _ in range(4)]
        assert_factorize_matches_reference(cols)
        assert calls[0] == 2**48  # the mid-way re-densify
        assert len(calls) == 2


class TestEmptyAggregates:
    """Empty-input semantics, pinned to the oracle's."""

    def _run_checked(self, sql):
        bound = bind(parse(sql), STAR_CATALOG)
        cols = {n: STAR_FACT.column_values(n) for n in bound.referenced_columns}
        vec = run_vector(bound, cols)
        assert_matches_oracle(vec, STAR_CATALOG, sql)
        return vec

    def test_global_aggregates_over_zero_rows(self):
        res = self._run_checked(
            "SELECT count(*) AS n, sum(val) AS s, avg(val) AS m, "
            "min(val) AS lo, max(val) AS hi FROM fact WHERE qty > 1000"
        )
        assert res.nrows == 1
        row = dict(zip(res.names, res.rows()[0]))
        assert row["n"] == 0
        assert row["s"] == 0.0
        assert np.isnan(row["m"])
        assert row["lo"] == np.inf
        assert row["hi"] == -np.inf

    def test_grouped_aggregate_over_zero_rows_is_empty(self):
        res = self._run_checked(
            "SELECT cat, sum(val) AS s FROM fact WHERE qty > 1000 GROUP BY cat"
        )
        assert res.nrows == 0

    def test_empty_probe_side_join(self):
        res = self._run_checked(
            "SELECT count(*) AS n, sum(d1_w) AS s FROM fact "
            "JOIN dim1 ON k1 = d1_key WHERE qty > 1000"
        )
        assert res.rows() == [(0, 0.0)]


class TestEngineTraceOracle:
    """Every engine's answer in trace mode is the oracle's, which reads
    the catalog's tables on its own."""

    SQL = (
        "SELECT cat, sum(val * qty) AS rev, count(*) AS n FROM fact "
        "JOIN dim1 ON k1 = d1_key WHERE qty > 8 AND d1_w > 1 "
        "GROUP BY cat ORDER BY rev DESC"
    )

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_modes_identical(self, engine_cls):
        engine = engine_cls(STAR_CATALOG, TEST_PLATFORM, memory_model="trace")
        res = engine.execute(self.SQL)
        assert_matches_oracle(res.result, STAR_CATALOG, self.SQL)

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_modes_identical_under_mvcc_snapshot(self, engine_cls):
        schema = TableSchema(
            "ledger_t",
            [Column("acct", INT64), Column("amount", INT64), Column("tag", CHAR(2))],
            mvcc=True,
        )
        catalog = Catalog()
        table = catalog.create_table(schema)
        manager = TransactionManager()
        rng = np.random.default_rng(3)
        snapshots = []
        for batch in range(4):
            txn = manager.begin()
            for _ in range(25):
                txn.insert(
                    table,
                    {
                        "acct": int(rng.integers(0, 10)),
                        "amount": int(rng.integers(1, 1000)),
                        "tag": rng.choice(["aa", "bb"]),
                    },
                )
            manager.commit(txn)
            snapshots.append(manager.now)
        # One uncommitted transaction: invisible to every snapshot below.
        pending = manager.begin()
        pending.insert(table, {"acct": 1, "amount": 10_000, "tag": "aa"})

        sql = (
            "SELECT acct, sum(amount) AS s, count(*) AS n FROM ledger_t "
            "WHERE tag = 'aa' GROUP BY acct ORDER BY acct"
        )
        engine = engine_cls(catalog, TEST_PLATFORM, memory_model="trace")
        for snapshot_ts in snapshots:
            res = engine.execute(sql, snapshot_ts=snapshot_ts)
            assert_matches_oracle(res.result, catalog, sql, snapshot_ts)
        # Later snapshots see strictly more rows.
        engine = engine_cls(catalog, TEST_PLATFORM)
        counts = [
            engine.execute(
                "SELECT count(*) AS n FROM ledger_t", snapshot_ts=ts
            ).result.scalar()
            for ts in snapshots
        ]
        assert counts == sorted(counts) and counts[0] < counts[-1]


class TestMvccJoinVisibility:
    """A joined MVCC table contributes only the rows visible to the
    statement's snapshot, on every engine, with or without a code cache,
    whether or not the main table is MVCC too."""

    SQL = "SELECT k, w FROM a JOIN b ON k = bk ORDER BY k"

    def _session(self, engine_cls, plain_main, codecache):
        catalog = Catalog()
        engine = engine_cls(catalog, TEST_PLATFORM, codecache=codecache)
        session = Session(catalog, engine)
        if plain_main:
            a = catalog.create_table(
                TableSchema("a", [Column("k", INT64), Column("v", INT64)])
            )
            a.append_rows([{"k": 1, "v": 10}, {"k": 2, "v": 20}])
        else:
            session.execute("CREATE TABLE a (k INT64, v INT64)")
            session.execute("INSERT INTO a VALUES (1, 10), (2, 20)")
        session.execute("CREATE TABLE b (bk INT64, w INT64)")
        session.execute("INSERT INTO b VALUES (1, 100), (2, 200)")
        return session

    @pytest.mark.parametrize("plain_main", [False, True])
    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_superseded_and_deleted_versions_are_not_joined(
        self, engine_cls, plain_main
    ):
        for codecache in (None, CodeFragmentCache()):
            session = self._session(engine_cls, plain_main, codecache)
            before = session.manager.now
            session.execute("UPDATE b SET w = 999 WHERE bk = 1")
            session.execute("DELETE FROM b WHERE bk = 2")
            now = session.execute(self.SQL).result
            assert now.rows() == [(1, 999)]
            # An older snapshot still sees the rows as they were.
            old = session.engine.execute(self.SQL, snapshot_ts=before).result
            assert old.rows() == [(1, 100), (2, 200)]
            # The oracle reads the joined table at each snapshot too.
            catalog = session.catalog
            assert_matches_oracle(now, catalog, self.SQL, session.manager.now)
            assert_matches_oracle(old, catalog, self.SQL, before)


class TestCodeCache:
    SQL = (
        "SELECT cat, sum(val) AS s FROM fact JOIN dim1 ON k1 = d1_key "
        "WHERE qty > 10 GROUP BY cat ORDER BY cat"
    )

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_warm_hit_skips_compile(self, engine_cls):
        cache = CodeFragmentCache()
        engine = engine_cls(STAR_CATALOG, TEST_PLATFORM, codecache=cache)
        cold = engine.execute(self.SQL)
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        assert cold.ledger.get(CostLedger.PLAN_COMPILE) == cache.compile_cycles
        warm = engine.execute(self.SQL)
        assert cache.stats.hits == 1
        assert warm.ledger.get(CostLedger.PLAN_COMPILE) == 0.0
        assert_same_result(cold.result, warm.result, context="cold vs warm")
        assert warm.cycles < cold.cycles

    def test_shape_reuse_with_different_literals(self):
        # Same fragment signature (literals are parameters), different
        # constants: the cached kernel must be re-bound, not replayed.
        cache = CodeFragmentCache()
        engine = RowStoreEngine(STAR_CATALOG, TEST_PLATFORM, codecache=cache)
        plain = RowStoreEngine(STAR_CATALOG, TEST_PLATFORM)
        for cut in (5, 20, 35):
            sql = f"SELECT sum(val) AS s, count(*) AS n FROM fact WHERE qty > {cut}"
            cached = engine.execute(sql)
            reference = plain.execute(sql)
            assert_same_result(cached.result, reference.result, context=sql)
        assert cache.stats.misses == 1 and cache.stats.hits == 2

    def test_recreated_table_is_rebound(self):
        # The bind memo is keyed by statement shape: after DROP + CREATE
        # a memoized bind must not keep answering from the dropped table.
        catalog = Catalog()
        schema = TableSchema("t", [Column("id", INT64)])
        sql = "SELECT count(*) AS n FROM t WHERE id < {}"
        engine = RowStoreEngine(catalog, TEST_PLATFORM, codecache=CodeFragmentCache())
        catalog.create_table(schema).append_arrays({"id": np.arange(5)})
        assert engine.execute(sql.format(9)).result.scalar() == 5
        assert engine.execute(sql.format(8)).result.scalar() == 5  # a memo hit
        catalog.drop_table("t")
        catalog.create_table(schema).append_arrays({"id": np.arange(2)})
        assert engine.execute(sql.format(9)).result.scalar() == 2
        # The same through the Session door, with DDL run as SQL.
        from repro.db.sql.pipeline import Session

        session = Session(catalog, engine)
        session.execute("CREATE TABLE u (id INT32)")
        session.execute("INSERT INTO u VALUES (1), (2), (3)")
        count = "SELECT count(*) AS n FROM u WHERE id < {}"
        assert session.execute(count.format(9)).rows == [(3,)]
        assert session.execute(count.format(8)).rows == [(3,)]  # a memo hit
        session.execute("DROP TABLE u")
        session.execute("CREATE TABLE u (id INT32)")
        session.execute("INSERT INTO u VALUES (1)")
        assert session.execute(count.format(9)).rows == [(1,)]

    def test_plan_text_shows_its_own_literals(self):
        # Fragments are shared across literal values; the EXPLAIN text of
        # a code-cache hit must still render this statement's constants.
        engine = RowStoreEngine(
            STAR_CATALOG, TEST_PLATFORM, codecache=CodeFragmentCache()
        )
        for cut in (5, 7):
            res = engine.execute(f"SELECT sum(val) AS s FROM fact WHERE qty < {cut}")
            assert f"Filter: (qty < {cut})" in res.plan

    def test_codecache_metrics_collector(self):
        from repro.obs import MetricsRegistry

        cache = CodeFragmentCache()
        registry = MetricsRegistry()
        engine = RowStoreEngine(
            STAR_CATALOG, TEST_PLATFORM, codecache=cache, metrics=registry
        )
        engine.execute(self.SQL)
        engine.execute(self.SQL)
        sample = registry.collect()
        assert sample['codecache_hits_total{engine="row"}'] == 1
        assert sample['codecache_misses_total{engine="row"}'] == 1
        assert sample['codecache_hit_rate{engine="row"}'] == 0.5
        assert sample['codecache_resident{engine="row"}'] == 1

    def test_layouts_key_fragments_differently(self):
        # One shared cache across engines: the row layout bakes offsets,
        # the column/fabric layouts key on positional types, so the same
        # SQL compiles one fragment per layout.
        cache = CodeFragmentCache()
        for engine_cls in ENGINES:
            engine_cls(STAR_CATALOG, TEST_PLATFORM, codecache=cache).execute(self.SQL)
        assert cache.stats.misses == 3 and cache.resident == 3


class TestMvccBatchRead:
    def _seeded(self):
        catalog = Catalog()
        table = catalog.create_table(
            TableSchema(
                "t", [Column("id", INT64), Column("v", INT64)], mvcc=True
            )
        )
        manager = TransactionManager()
        txn = manager.begin()
        for i in range(20):
            txn.insert(table, {"id": i, "v": i * 10})
        manager.commit(txn)
        return catalog, table, manager

    @given(
        st.lists(st.integers(0, 2**40), min_size=0, max_size=200),
        st.integers(0, 2**40),
        st.integers(1, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_mask_bit_identical(self, begins, snapshot, batch):
        begin_ts = np.asarray(begins, dtype=np.int64)
        rng = np.random.default_rng(len(begins))
        end_ts = begin_ts + rng.integers(0, 2**20, len(begins))
        assert np.array_equal(
            visible_mask(begin_ts, end_ts, snapshot),
            visible_mask_batched(begin_ts, end_ts, snapshot, batch_rows=batch),
        )

    def test_read_columns_matches_row_loop(self):
        _, table, manager = self._seeded()
        txn = manager.begin()
        # Mix in this transaction's own intents: one insert, one update,
        # one delete — read_columns must see exactly what read_row sees.
        txn.insert(table, {"id": 99, "v": 990})
        txn.update(table, 3, {"v": -1})
        txn.delete(table, 5)
        batch = txn.read_columns(table)
        slots = txn.visible_slots(table)
        rows = [txn.read_row(table, int(s)) for s in slots]
        assert set(batch) == {"id", "v"}
        assert batch["id"].tolist() == [r["id"] for r in rows]
        assert batch["v"].tolist() == [r["v"] for r in rows]
        assert 99 in batch["id"].tolist()  # own pending insert visible
        assert 5 not in slots.tolist() or table.row(5)["id"] != 5

    def test_read_columns_subset_and_isolation(self):
        _, table, manager = self._seeded()
        reader = manager.begin()
        writer = manager.begin()
        writer.insert(table, {"id": 50, "v": 500})
        manager.commit(writer)
        # Snapshot isolation: the earlier reader never sees the new row.
        batch = reader.read_columns(table, names=("v",))
        assert set(batch) == {"v"}
        assert len(batch["v"]) == 20
        fresh = manager.begin()
        assert len(fresh.read_columns(table)["v"]) == 21
