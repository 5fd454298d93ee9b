"""The literal-free facts a bound query shares with its shape.

A statement whose shape the memo has seen shares its template's
:class:`~repro.db.plan.binder.QueryShape`: op counts, column sets, the
fabric's scan geometry and the compiled kernel are derived once per
shape. These tests pin that each fact equals the one a fresh, uncached
bind derives, for every SELECT of the SQL fuzzer's CI seeds and across
DROP + CREATE, and that a memo hit builds none of them again.
"""

import pytest

from repro.core.geometry import DataGeometry
from repro.db import Catalog
from repro.db.engines import ColumnStoreEngine, RelationalMemoryEngine, RowStoreEngine
from repro.db.exec import vector
from repro.db.plan import binder, codecache, logical
from repro.db.sql import fuzz
from repro.db.sql.parser import Parser, parse_statement
from repro.db.sql.pipeline import Session
from repro.errors import PlanError

#: Every fact a shape holds, read off a bound query.
FACTS = (
    "has_aggregates",
    "aggregate_count",
    "where_op_count",
    "output_op_count",
    "where_main_columns",
    "projection_only_columns",
    "answer_columns",
    "late_columns",
    "scan_geometry",
)

ENGINES = (RowStoreEngine, ColumnStoreEngine, RelationalMemoryEngine)
#: Every code-fragment layout (the engines' ``fragment_layout``s).
LAYOUTS = ("row", "column", "ephemeral")


def shape_facts(query):
    """A shape's facts as plain values (the kernel by its compile products)."""
    facts = {name: getattr(query, name) for name in FACTS}
    kernel = query.kernel
    facts["kernel"] = (kernel.joins, kernel.hidden, kernel.names)
    return facts


def assert_shape_of_fresh_bind(sql, catalog, snapshot_ts=None):
    """The memo's bind of ``sql`` shares its template's shape, whose facts
    equal those of a fresh bind of the uncached parse, and every engine
    renders the same plan for both."""
    stmt = parse_statement(sql)
    assert stmt.template is not None, f"not a memo hit: {sql}"
    hit = binder.bind(stmt, catalog)
    assert hit.shape is stmt.template[0].bound.query.shape
    fresh = binder._bind_select(Parser(sql).parse_statement(), catalog)
    assert fresh.shape is not hit.shape
    assert shape_facts(hit) == shape_facts(fresh), sql
    assert_cache_keys_of_fresh_bind(hit, fresh)
    for make in ENGINES:
        engine = make(catalog)
        got = engine.execute(hit, snapshot_ts).plan
        assert got == engine.execute(fresh, snapshot_ts).plan, (make.name, sql)


def assert_cache_keys_of_fresh_bind(hit, fresh):
    """Under each layout, a code cache looks ``hit`` up by the signature a
    fresh ``fragment_signature`` gives ``fresh``, or both raise."""
    for layout in LAYOUTS:
        cache = codecache.CodeFragmentCache()
        try:
            want = codecache.fragment_signature(fresh, layout)
        except PlanError:
            with pytest.raises(PlanError):
                cache.lookup(hit, layout)
            continue
        cache.lookup(hit, layout)
        assert list(cache._signatures) == [want], layout
        assert hit.fragment_signatures[layout] == want


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_selects_share_the_facts_of_a_fresh_bind(seed, monkeypatch):
    """Every SELECT without subqueries that a CI seed's stream runs (the
    WAL crash probes the CI cell adds come after the stream and do not
    change it)."""
    checked = []
    check_select = fuzz._Harness.check_select

    def checking(harness, gen):
        check_select(harness, gen)
        if not gen.has_subquery:
            assert_shape_of_fresh_bind(gen.sql, harness.catalog, harness.manager.now)
            checked.append(gen.sql)

    monkeypatch.setattr(fuzz._Harness, "check_select", checking)
    report = fuzz.run_sql_fuzz(seed, steps=80)
    assert report.passed, "\n".join(report.violations[:10])
    assert checked


def _load(session, ddl, rows):
    session.execute(ddl)
    session.execute("INSERT INTO t VALUES " + ", ".join(rows))


@pytest.mark.parametrize("make", ENGINES, ids=[e.name for e in ENGINES])
def test_drop_and_create_reordered_gets_the_new_geometry(make):
    catalog = Catalog()
    session = Session(catalog, make(catalog))
    _load(session, "CREATE TABLE t (a INT32, b INT64, c CHAR(4))",
          ["(1, 10, 'x')", "(2, 20, 'y')", "(3, 30, 'z')"])
    sql = "SELECT b, c FROM t WHERE a > {}"
    for cut in (0, 1, 2):
        session.execute(sql.format(cut))
    before = binder.bind(parse_statement(sql.format(1)), session.catalog)
    session.execute("DROP TABLE t")
    _load(session, "CREATE TABLE t (c CHAR(4), b INT64, a INT32)",
          ["('x', 10, 1)", "('y', 20, 2)", "('z', 30, 3)"])
    out = session.execute(sql.format(1))
    assert out.rows == [(20, "y"), (30, "z")]
    assert_shape_of_fresh_bind(sql.format(1), session.catalog, session.manager.now)
    after = binder.bind(parse_statement(sql.format(1)), session.catalog)
    assert after.shape is not before.shape
    assert after.scan_geometry != before.scan_geometry
    assert after.scan_geometry == after.table.schema.geometry(("c", "b", "a"))


@pytest.fixture
def constructions(monkeypatch):
    """Counts of the geometries, kernels and plan renderings built."""
    counts = {"geometry": 0, "kernel": 0, "plan": 0}

    def counting(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(DataGeometry, "__init__",
                        counting("geometry", DataGeometry.__init__))
    monkeypatch.setattr(vector.FusedKernel, "__init__",
                        counting("kernel", vector.FusedKernel.__init__))
    monkeypatch.setattr(logical, "build_plan", counting("plan", logical.build_plan))
    return counts


SHAPES = (
    "SELECT b, c FROM t WHERE a > {} ORDER BY b",
    "SELECT count(*) AS n FROM t WHERE a = {}",
    "SELECT c, sum(b) AS s FROM t WHERE b > {} GROUP BY c ORDER BY c",
    "SELECT a, uv FROM t JOIN u ON a = uk WHERE uv < {} ORDER BY a, uv",
)


@pytest.mark.parametrize("make", ENGINES, ids=[e.name for e in ENGINES])
def test_a_memo_hit_rebuilds_nothing(make, constructions):
    catalog = Catalog()
    session = Session(catalog, make(catalog))
    _load(session, "CREATE TABLE t (a INT32, b INT64, c CHAR(4))",
          [f"({i}, {i * 10}, '{'xyz'[i % 3]}')" for i in range(12)])
    session.execute("CREATE TABLE u (uk INT32, uv INT32)")
    session.execute("INSERT INTO u VALUES (1, 5), (2, 50), (3, 7), (3, 70)")
    for sql in SHAPES:
        for cut in (1, 2, 3):  # fresh, then the template's first use
            session.execute(sql.format(cut))
    for key in constructions:
        constructions[key] = 0
    results = [session.execute(sql.format(cut)) for sql in SHAPES for cut in (4, 5, 40)]
    assert [r.rows for r in results] and constructions == {
        "geometry": 0, "kernel": 0, "plan": 0,
    }
    # The plan still renders, on read, with the statement's own literal.
    assert "(a > 40)" in results[2].plan
    assert constructions["plan"] == 1


@pytest.mark.parametrize("make", ENGINES, ids=[e.name for e in ENGINES])
def test_a_memo_hit_computes_no_fragment_signature(make, monkeypatch):
    """With a code cache attached, a statement of a shape the cache has
    looked up reads its signature off the shape: every one is a hit, and
    none calls ``fragment_signature``."""
    calls = []
    sign = codecache.fragment_signature

    def counting(bound, layout):
        calls.append(layout)
        return sign(bound, layout)

    monkeypatch.setattr(codecache, "fragment_signature", counting)
    catalog = Catalog()
    cache = codecache.CodeFragmentCache()
    session = Session(catalog, make(catalog, codecache=cache))
    _load(session, "CREATE TABLE t (a INT32, b INT64, c CHAR(4))",
          [f"({i}, {i * 10}, '{'xyz'[i % 3]}')" for i in range(12)])
    session.execute("CREATE TABLE u (uk INT32, uv INT32)")
    session.execute("INSERT INTO u VALUES (1, 5), (2, 50), (3, 7), (3, 70)")
    for sql in SHAPES:
        for cut in (1, 2, 3):  # fresh, then the template's first use
            session.execute(sql.format(cut))
    assert calls and set(calls) == {make.fragment_layout}
    del calls[:]
    hits = cache.stats.hits
    for sql in SHAPES:
        for cut in (4, 5, 40):
            session.execute(sql.format(cut))
    assert calls == []
    assert cache.stats.hits == hits + 3 * len(SHAPES)
