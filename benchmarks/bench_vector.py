"""Macrobenchmark: the fused vector kernels on the Q3 join chain.

The fused vector kernels (:mod:`repro.db.exec.vector`) are the engines'
only answer path; they must make the trace-accurate engines
*benchmark-viable* on multi-way joins. Three measurements:

1. **Headline**: TPC-H Q3 (lineitem ⋈ orders ⋈ customer + group-by +
   order-by) through the RM engine in trace mode: host seconds,
   simulated cycles, result rows and memory-hierarchy counters.
2. **Cross-check**: Q3 through all three engines at a reduced row count.
   Every engine's names, dtypes and exact rows must equal the answer of
   the :class:`~repro.db.sql.oracle.SqlOracle` loaded from the same
   catalog.
3. **Code cache**: the same query twice through an engine with a
   :class:`~repro.db.plan.codecache.CodeFragmentCache` — the warm run
   must skip plan compilation (plan_compile bucket = 0) and answer the
   same rows.
4. **Front half**: parse + bind through the shape memo
   (:mod:`repro.db.sql.shapes`) against the uncached referee
   ``bind(Parser(sql).parse_statement())`` on the same statements, timed
   in one process: ``frontend_hit_host_ratio`` for statements whose
   shape was seen (fresh literals), ``frontend_miss_host_ratio`` for
   statements of distinct shapes (what a miss costs on top).
5. **Data half**: ``fetch_host_ratio``, the host time of a 4-column
   point lookup on ``orders`` (the sql-short workload's ``point``
   statement) over that of ``SELECT count(*)`` with the same key, both
   through a RM-engine session. The engines read the WHERE clause's
   column at every row and the other columns at the qualifying rows
   only, so the three extra columns of one row cost next to nothing; a
   data half that copies every referenced column over every row shows
   up as a ratio well above 1.
6. **Join kernel**: ``join_host_ratio``, the host time of
   :func:`~repro.db.exec.vector.join_indices` on Q3's two join key
   pairs at the headline rows with its own route choice (``"auto"``)
   over that with the sort route forced (``"probe"``). Both of Q3's
   joins are key joins over a dense integer range, which ``auto``
   addresses directly; a kernel that sorts them reads about 1.
7. **Grouping kernel**: ``rank_host_ratio``, the host time of
   :func:`~repro.db.exec.vector.factorize` on ``c_mktsegment`` (a
   ``CHAR(10)`` key) over that of a 1-D ``np.unique`` on the same
   column, which sorts the byte strings; ``factorize`` ranks them as
   ``uint64`` words.

Run as a script (writes the artifact consumed by CI)::

    PYTHONPATH=src python benchmarks/bench_vector.py \
        --rows 1000000 --json BENCH_vector.json

or under pytest-benchmark (reduced rows)::

    pytest benchmarks/bench_vector.py --benchmark-only
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from dataclasses import asdict
from typing import Dict, List, Tuple

from repro.bench.timing import PAIRS, PairedTiming, paired_timing
from repro.core.ledger import CostLedger
import numpy as np

from repro.db.engines import RelationalMemoryEngine, all_engines
from repro.db.exec.vector import apply_where, factorize, join_indices
from repro.db.plan import bind
from repro.db.plan.codecache import CodeFragmentCache
from repro.db.sql import parse
from repro.db.sql.oracle import Answer, SqlOracle, mismatch
from repro.db.sql.parser import Parser, parse_statement
from repro.db.sql.pipeline import Session
from repro.workloads.tpch_analytics import Q3, generate_tpch_analytics

ENGINES = ("row", "column", "rm")

#: Short statements with literal slots (a Q6, a point lookup, a group-by
#: and a Q3 join), formatted with per-statement literals.
FRONTEND_SHAPES = (
    "SELECT sum(l_extendedprice * l_discount) AS revenue FROM lineitem "
    "WHERE l_shipdate >= date '{y}-01-01' AND l_shipdate < date '{y}-12-31' "
    "AND l_discount BETWEEN 0.0{d} AND 0.0{d} + 0.02 AND l_quantity < {q}",
    "SELECT o_orderkey, o_custkey, o_totalprice FROM orders "
    "WHERE o_orderkey = {k}",
    "SELECT c_mktsegment, count(*) AS n, sum(c_acctbal) AS balance "
    "FROM customer WHERE c_acctbal > {b} GROUP BY c_mktsegment "
    "ORDER BY c_mktsegment",
    "SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue "
    "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
    "JOIN customer ON o_custkey = c_custkey WHERE c_mktsegment = 'BUILDING' "
    "AND o_orderdate < date '{y}-03-15' AND l_shipdate > date '{y}-03-15' "
    "GROUP BY l_orderkey ORDER BY revenue DESC LIMIT 10",
)


def _hierarchy_snapshot(hierarchy) -> Dict[str, object]:
    return {
        "access": asdict(hierarchy.stats),
        "l1": asdict(hierarchy.l1.stats),
        "l2": asdict(hierarchy.l2.stats),
        "dram": asdict(hierarchy.dram.stats),
        "prefetch_covered": hierarchy.prefetcher.covered,
        "prefetch_uncovered": hierarchy.prefetcher.uncovered,
    }


def _run_one(catalog, name: str) -> Dict[str, object]:
    engine = all_engines(catalog, memory_model="trace")[name]
    t0 = time.perf_counter()
    result = engine.execute(Q3)
    return {
        "seconds": time.perf_counter() - t0,
        "cycles": result.cycles,
        "answer": Answer.of(result.result),
        "hierarchy": _hierarchy_snapshot(engine.memory.hierarchy),
    }


def run_headline(catalog, engine: str = "rm") -> Dict[str, object]:
    """Q3 at full size through one trace-mode engine."""
    run = _run_one(catalog, engine)
    return {
        "rows": catalog.table("lineitem").nrows,
        "engine": engine,
        "seconds": run["seconds"],
        "cycles": run["cycles"],
        "result_rows": len(run["answer"].rows),
        "hierarchy": run["hierarchy"],
    }


def run_cross_check(nrows: int) -> Dict[str, object]:
    """Q3 through all three engines, each against the SQL oracle."""
    catalog, *_ = generate_tpch_analytics(nrows)
    oracle = SqlOracle()
    for table in catalog.tables():
        oracle.load_table(table)
    expected = oracle.execute(Q3)
    out: Dict[str, object] = {"rows": nrows, "engines": {}, "mismatches": []}
    for name in ENGINES:
        run = _run_one(catalog, name)
        diff = mismatch(run["answer"], expected)
        if diff is not None:
            out["mismatches"].append(f"{name}: Q3 differs from the oracle: {diff}")
        out["engines"][name] = {"seconds": run["seconds"], "cycles": run["cycles"]}
    out["bit_identical"] = not out["mismatches"]
    return out


def run_codecache(nrows: int, engine: str = "rm") -> Dict[str, object]:
    """Cold vs warm execution through a shared fragment cache."""
    catalog, *_ = generate_tpch_analytics(nrows)
    cache = CodeFragmentCache()
    eng = all_engines(catalog, codecache=cache)[engine]
    t0 = time.perf_counter()
    cold = eng.execute(Q3)
    cold_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = eng.execute(Q3)
    warm_seconds = time.perf_counter() - t0
    cold_compile = cold.ledger.get(CostLedger.PLAN_COMPILE)
    warm_compile = warm.ledger.get(CostLedger.PLAN_COMPILE)
    return {
        "rows": nrows,
        "engine": engine,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "warm_speedup": cold_seconds / warm_seconds,
        "codecache_cold_compile_cycles": cold_compile,
        "codecache_warm_compile_cycles": warm_compile,
        "codecache_hits": cache.stats.hits,
        "codecache_misses": cache.stats.misses,
        "warm_skips_compile": warm_compile == 0.0 and cold_compile > 0,
        "answers_match": cold.result.rows() == warm.result.rows(),
    }


def _frontend_statements(n: int, tag: str = "") -> List[str]:
    """``n`` statements per shape with seeded literals; a non-empty
    ``tag`` makes every statement its own shape (a distinct table alias)."""
    rng = random.Random(7)
    out = []
    for i in range(n):
        for shape in FRONTEND_SHAPES:
            sql = shape.format(
                y=rng.randrange(1993, 1998), d=rng.randrange(2, 8),
                q=rng.randrange(20, 30), k=rng.randrange(1, 5000),
                b=rng.randrange(-1000, 9000),
            )
            if tag:
                table = sql.split(" FROM ", 1)[1].split(" ", 1)[0]
                sql = sql.replace(f" FROM {table} ", f" FROM {table} {tag}{i} ", 1)
            out.append(sql)
    return out


def run_frontend(nrows: int, n: int = 100) -> Tuple[Dict[str, object], Dict[str, PairedTiming]]:
    """Host time of the SQL front half, memo over uncached referee, on
    ``n`` statements per shape of shapes already seen (fresh literals)
    and of shapes never seen (:func:`paired_timing`)."""
    catalog, *_ = generate_tpch_analytics(nrows)

    def memo(sql):
        return bind(parse_statement(sql), catalog)

    def referee(sql):
        return bind(Parser(sql).parse_statement(), catalog)

    def side(front, statements):
        def setup(pair):
            batch = statements(pair)
            return lambda: [front(sql) for sql in batch]

        return setup

    seen = _frontend_statements(n)
    for sql in seen[: 2 * len(FRONTEND_SHAPES)]:
        memo(sql)  # each shape seen twice: parse and bind memoized
    hit = paired_timing(side(memo, lambda _: seen), side(referee, lambda _: seen))

    def distinct(pair):
        # Shapes fresh in every pair, so each memo call misses.
        return _frontend_statements(n, tag=f"miss{pair}_")

    miss = paired_timing(side(memo, distinct), side(referee, distinct))
    return {
        "statements": len(seen),
        "hit_seconds": statistics.median(hit.seconds[0]),
        "hit_referee_seconds": statistics.median(hit.seconds[1]),
        "miss_seconds": statistics.median(miss.seconds[0]),
        "miss_referee_seconds": statistics.median(miss.seconds[1]),
    }, {"frontend_hit_host_ratio": hit, "frontend_miss_host_ratio": miss}


#: The sql-short ``point`` statement and its one-column counterpart.
FETCH_POINT = (
    "SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate FROM orders "
    "WHERE o_orderkey = {k}"
)
FETCH_COUNT = "SELECT count(*) AS n FROM orders WHERE o_orderkey = {k}"


def run_fetch(catalog, n: int = 400) -> Tuple[Dict[str, object], PairedTiming]:
    """Host time of the point lookup over ``count(*)`` on its key, through
    one RM-engine session, the ``n`` keys split over the pairs
    (:func:`paired_timing`)."""
    session = Session(catalog, RelationalMemoryEngine(catalog))
    keys = catalog.table("orders").column("o_orderkey")
    rng = random.Random(7)
    statements = [
        (FETCH_POINT.format(k=k), FETCH_COUNT.format(k=k))
        for k in (int(keys[rng.randrange(len(keys))]) for _ in range(n))
    ]
    for point, count in statements[:4]:
        session.execute(point)  # warm the shape memo
        session.execute(count)
    chunks = [statements[i::PAIRS] for i in range(PAIRS)]

    def side(k):
        return lambda pair: lambda: [session.execute(sql[k]).result for sql in chunks[pair]]

    timing = paired_timing(side(0), side(1))
    session.close()
    mismatches = [
        f"fetch: {point!r} rows != count(*)"
        for chunk, points, counts in zip(chunks, *timing.outputs)
        for (point, _), rows, count in zip(chunk, points, counts)
        if rows.nrows != count.scalar()
    ]
    return {
        "statements": n,
        "point_seconds": statistics.median(timing.seconds[0]),
        "count_seconds": statistics.median(timing.seconds[1]),
        "mismatches": mismatches,
    }, timing


def q3_join_keys(catalog) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Q3's ``(probe keys, build keys)`` for each of its two joins, as
    the answer path sees them: lineitem rows passing the WHERE clause's
    lineitem conjunct probe ``orders``, and the matched orders' custkeys
    probe ``customer``."""
    bound = bind(parse(Q3), catalog)
    table = bound.table
    columns = table.read(bound.where_main_columns)
    mask = apply_where(bound, columns, table.nrows)
    probe = table.column_values(bound.joins[0].left_col)[mask]
    pairs = []
    for i, join in enumerate(bound.joins):
        build = join.table.column_values(join.right_col)
        pairs.append((probe, build))
        if i + 1 < len(bound.joins):
            _, ri = join_indices([probe], [build], strategy="probe")
            probe = join.table.column_values(bound.joins[i + 1].left_col)[ri]
    return pairs


def _same_arrays(timing: PairedTiming) -> bool:
    """Both sides' thunks returned the same arrays in every pair."""
    return all(
        len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
        for a, b in zip(*timing.outputs)
    )


def run_join(catalog) -> Tuple[Dict[str, object], PairedTiming]:
    """Host time of Q3's two joins, route chosen by the kernel over the
    sort route forced (:func:`paired_timing`)."""
    joins = q3_join_keys(catalog)

    def side(**strategy):
        return lambda _: lambda: tuple(
            index
            for probe, build in joins
            for index in join_indices([probe], [build], **strategy)
        )

    timing = paired_timing(side(), side(strategy="probe"))
    return {
        "rows": catalog.table("lineitem").nrows,
        "auto_seconds": statistics.median(timing.seconds[0]),
        "probe_seconds": statistics.median(timing.seconds[1]),
        "mismatches": [] if _same_arrays(timing) else ["join: auto pairs != probe pairs"],
    }, timing


def run_rank(catalog) -> Tuple[Dict[str, object], PairedTiming]:
    """Host time of grouping on ``c_mktsegment``: ``factorize`` over a
    1-D ``np.unique`` (:func:`paired_timing`)."""
    segment = catalog.table("customer").column_values("c_mktsegment")

    def factorized():
        (uniq,), codes = factorize([segment])
        return uniq, codes

    timing = paired_timing(
        lambda _: factorized, lambda _: lambda: np.unique(segment, return_inverse=True)
    )
    return {
        "rows": len(segment),
        "factorize_seconds": statistics.median(timing.seconds[0]),
        "unique_seconds": statistics.median(timing.seconds[1]),
        "mismatches": [] if _same_arrays(timing) else ["rank: factorize != np.unique"],
    }, timing


def compare(rows: int, check_rows: int) -> Tuple[Dict[str, object], Dict[str, PairedTiming]]:
    """The report, and the timing behind each of its host ratios."""
    catalog, *_ = generate_tpch_analytics(rows)
    headline = run_headline(catalog)
    cross = run_cross_check(check_rows)
    cache = run_codecache(check_rows)
    frontend, timings = run_frontend(check_rows)
    fetch, timings["fetch_host_ratio"] = run_fetch(catalog)
    join, timings["join_host_ratio"] = run_join(catalog)
    rank, timings["rank_host_ratio"] = run_rank(catalog)
    return {
        "headline": headline,
        "cross_check": cross,
        "codecache": cache,
        "frontend": frontend,
        "fetch": fetch,
        "join": join,
        "rank": rank,
        **{key: timing.ratio for key, timing in timings.items()},
        "bit_identical": (
            cross["bit_identical"]
            and cache["warm_skips_compile"]
            and cache["answers_match"]
            and not fetch["mismatches"]
            and not join["mismatches"]
            and not rank["mismatches"]
        ),
        "mismatches": (
            cross["mismatches"] + fetch["mismatches"]
            + join["mismatches"] + rank["mismatches"]
        ),
    }, timings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Q3 through the vectorized engines, checked against the SQL oracle"
    )
    parser.add_argument(
        "--rows", type=int, default=1_000_000, help="headline lineitem rows"
    )
    parser.add_argument(
        "--check-rows",
        type=int,
        default=60_000,
        help="rows for the three-engine cross-check and codecache runs",
    )
    parser.add_argument("--json", type=str, default="", help="write report here")
    args = parser.parse_args(argv)

    report, timings = compare(args.rows, args.check_rows)
    h = report["headline"]
    print(
        f"Q3 {h['engine']}, {h['rows']} lineitem rows: {h['seconds']:.3f}s   "
        f"{h['cycles']:.0f} cycles   {h['result_rows']} result rows"
    )
    print(f"Q3 cross-check, {report['cross_check']['rows']} rows:")
    for name, e in report["cross_check"]["engines"].items():
        print(f"  {name:>6}: {e['seconds']:8.3f}s   {e['cycles']:.0f} cycles")
    c = report["codecache"]
    print(
        f"codecache: cold {c['cold_seconds']:.3f}s "
        f"(compile {c['codecache_cold_compile_cycles']:.0f} cyc)   "
        f"warm {c['warm_seconds']:.3f}s "
        f"(compile {c['codecache_warm_compile_cycles']:.0f} cyc)"
    )
    print("host ratios, median [q1–q3] of the pairs:")
    print(
        f"  front half, {report['frontend']['statements']} statements: memo hit "
        f"{timings['frontend_hit_host_ratio']} and miss "
        f"{timings['frontend_miss_host_ratio']} x the uncached referee"
    )
    print(
        f"  data half, {report['fetch']['statements']} keys: point lookup "
        f"{timings['fetch_host_ratio']} x count(*) on the same key"
    )
    print(
        f"  join kernel, Q3's two joins at {report['join']['rows']} rows: "
        f"auto {timings['join_host_ratio']} x the forced sort route"
    )
    print(
        f"  grouping kernel, c_mktsegment at {report['rank']['rows']} rows: "
        f"factorize {timings['rank_host_ratio']} x np.unique"
    )
    print(f"every answer check passed: {report['bit_identical']}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=2)
        print(f"wrote {args.json}")
    if not report["bit_identical"]:
        print("FAIL: engine answers diverged from the reference", file=sys.stderr)
        for m in report["mismatches"]:
            print(f"  {m}", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# pytest-benchmark entry point (reduced rows for CI bench runs).
# ----------------------------------------------------------------------
def test_vector_q3(benchmark, save_result):
    report, _ = benchmark.pedantic(compare, args=(60_000, 20_000), rounds=1, iterations=1)
    h = report["headline"]
    lines = [
        "vector-exec-q3",
        "==============",
        f"headline rows: {h['rows']}",
        f"seconds: {h['seconds']:.3f}",
        f"cycles: {h['cycles']:.0f}",
        f"bit_identical: {report['bit_identical']}",
    ]
    save_result("vector_exec", "\n".join(lines))
    assert report["bit_identical"], report["mismatches"]
    assert report["codecache"]["warm_skips_compile"]


if __name__ == "__main__":
    sys.exit(main())
