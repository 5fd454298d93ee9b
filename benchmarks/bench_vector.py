"""Macrobenchmark: the fused vector kernels on the Q3 join chain.

The fused vector kernels (:mod:`repro.db.exec.vector`) are the engines'
only answer path; they must make the trace-accurate engines
*benchmark-viable* on multi-way joins. Three measurements:

1. **Headline**: TPC-H Q3 (lineitem ⋈ orders ⋈ customer + group-by +
   order-by) through the RM engine in trace mode: host seconds,
   simulated cycles, result rows and memory-hierarchy counters.
2. **Cross-check**: Q3 through all three engines at a reduced row count.
   Every engine's rows must equal the bound-level Volcano reference's
   (:func:`repro.db.exec.run_volcano`) over the full tables.
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
import sys
import time
from dataclasses import asdict
from typing import Dict, List, Tuple

from repro.core.ledger import CostLedger
from repro.db.engines import RelationalMemoryEngine, all_engines
from repro.db.exec import run_volcano
from repro.db.plan import bind
from repro.db.plan.codecache import CodeFragmentCache
from repro.db.sql import parse
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


def _rows(result) -> list:
    return [tuple(map(float, r)) for r in result.rows()]


def _run_one(catalog, name: str) -> Dict[str, object]:
    engine = all_engines(catalog, memory_model="trace")[name]
    t0 = time.perf_counter()
    result = engine.execute(Q3)
    return {
        "seconds": time.perf_counter() - t0,
        "cycles": result.cycles,
        "rows": _rows(result.result),
        "hierarchy": _hierarchy_snapshot(engine.memory.hierarchy),
    }


def run_headline(nrows: int, engine: str = "rm") -> Dict[str, object]:
    """Q3 at full size through one trace-mode engine."""
    catalog, *_ = generate_tpch_analytics(nrows)
    run = _run_one(catalog, engine)
    return {
        "rows": nrows,
        "engine": engine,
        "seconds": run["seconds"],
        "cycles": run["cycles"],
        "result_rows": len(run["rows"]),
        "hierarchy": run["hierarchy"],
    }


def run_cross_check(nrows: int) -> Dict[str, object]:
    """Q3 through all three engines, each against the Volcano reference."""
    catalog, *_ = generate_tpch_analytics(nrows)
    bound = bind(parse(Q3), catalog)
    columns = {n: bound.table.column_values(n) for n in bound.referenced_columns}
    reference = _rows(run_volcano(bound, columns))
    out: Dict[str, object] = {"rows": nrows, "engines": {}, "mismatches": []}
    for name in ENGINES:
        run = _run_one(catalog, name)
        if run["rows"] != reference:
            out["mismatches"].append(f"{name}.rows: engine != volcano reference")
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


def run_frontend(nrows: int, n: int = 100, repeats: int = 3) -> Dict[str, object]:
    """Host time of the SQL front half, memo against uncached referee.

    Each statement runs through both, back to back and in alternating
    order, so a change in host speed during the run hits both sides alike.
    """
    catalog, *_ = generate_tpch_analytics(nrows)

    def memo(sql):
        return bind(parse_statement(sql), catalog)

    def referee(sql):
        return bind(Parser(sql).parse_statement(), catalog)

    def paired(statements) -> Tuple[float, float]:
        spent = {memo: 0.0, referee: 0.0}
        for i, sql in enumerate(statements):
            for side in (memo, referee) if i % 2 else (referee, memo):
                t0 = time.perf_counter()
                side(sql)
                spent[side] += time.perf_counter() - t0
        return spent[memo], spent[referee]

    seen = _frontend_statements(n)
    for sql in seen[: 2 * len(FRONTEND_SHAPES)]:
        memo(sql)  # each shape seen twice: parse and bind memoized
    totals = [0.0] * 4
    for r in range(repeats):
        # Distinct shapes, fresh on every repeat, so each memo call misses.
        distinct = _frontend_statements(n, tag=f"miss{r}_")
        for k, seconds in enumerate((*paired(seen), *paired(distinct))):
            totals[k] += seconds
    hit, hit_ref, miss, miss_ref = totals
    return {
        "statements": len(seen),
        "hit_seconds": hit,
        "hit_referee_seconds": hit_ref,
        "miss_seconds": miss,
        "miss_referee_seconds": miss_ref,
    }


#: The sql-short ``point`` statement and its one-column counterpart.
FETCH_POINT = (
    "SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate FROM orders "
    "WHERE o_orderkey = {k}"
)
FETCH_COUNT = "SELECT count(*) AS n FROM orders WHERE o_orderkey = {k}"


def run_fetch(nrows: int, n: int = 400) -> Dict[str, object]:
    """Host time of the point lookup against ``count(*)`` on its key.

    Both statements of a key run back to back, in alternating order (as
    in :func:`run_frontend`), through one RM-engine session.
    """
    catalog, _, orders, *_ = generate_tpch_analytics(nrows)
    session = Session(catalog, RelationalMemoryEngine(catalog))
    keys = orders.column("o_orderkey")
    rng = random.Random(7)
    pairs = [
        (FETCH_POINT.format(k=k), FETCH_COUNT.format(k=k))
        for k in (int(keys[rng.randrange(len(keys))]) for _ in range(n))
    ]
    for point, count in pairs[:4]:
        session.execute(point)  # warm the shape memo
        session.execute(count)
    spent = [0.0, 0.0]
    mismatches = []
    for i, pair in enumerate(pairs):
        answers = [None, None]
        for side in (0, 1) if i % 2 else (1, 0):
            t0 = time.perf_counter()
            answers[side] = session.execute(pair[side]).result
            spent[side] += time.perf_counter() - t0
        if answers[0].nrows != answers[1].scalar():
            mismatches.append(f"fetch: {pair[0]!r} rows != count(*)")
    session.close()
    return {
        "statements": n,
        "point_seconds": spent[0],
        "count_seconds": spent[1],
        "mismatches": mismatches,
    }


def compare(rows: int, check_rows: int) -> Dict[str, object]:
    headline = run_headline(rows)
    cross = run_cross_check(check_rows)
    cache = run_codecache(check_rows)
    frontend = run_frontend(check_rows)
    fetch = run_fetch(rows)
    return {
        "headline": headline,
        "cross_check": cross,
        "codecache": cache,
        "frontend": frontend,
        "frontend_hit_host_ratio": (
            frontend["hit_seconds"] / frontend["hit_referee_seconds"]
        ),
        "frontend_miss_host_ratio": (
            frontend["miss_seconds"] / frontend["miss_referee_seconds"]
        ),
        "fetch": fetch,
        "fetch_host_ratio": fetch["point_seconds"] / fetch["count_seconds"],
        "bit_identical": (
            cross["bit_identical"]
            and cache["warm_skips_compile"]
            and cache["answers_match"]
            and not fetch["mismatches"]
        ),
        "mismatches": cross["mismatches"] + fetch["mismatches"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Q3 through the vectorized engines, checked against Volcano"
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

    report = compare(args.rows, args.check_rows)
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
    f = report["frontend"]
    print(
        f"front half, {f['statements']} statements: memo hit "
        f"{report['frontend_hit_host_ratio']:.2f}x and miss "
        f"{report['frontend_miss_host_ratio']:.2f}x the uncached referee"
    )
    print(
        f"data half, {report['fetch']['statements']} keys: point lookup "
        f"{report['fetch_host_ratio']:.2f}x count(*) on the same key"
    )
    print(f"bit-identical to the Volcano reference: {report['bit_identical']}")
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
    report = benchmark.pedantic(compare, args=(60_000, 20_000), rounds=1, iterations=1)
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
