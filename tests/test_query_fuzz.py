"""Query fuzzing: randomly generated SQL must produce the SQL oracle's
answer — names, dtypes and exact values — from all three engines.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Catalog, Column, TableSchema
from repro.db.engines import all_engines
from repro.db.types import CHAR, DECIMAL, INT64
from tests.conftest import assert_matches_oracle

N_ROWS = 300
COLUMNS = ("a", "b", "c", "d")
#: The DECIMAL(2) column: values 0.00–49.99, compared against literals
#: with up to three fractional digits.
DEC = "p"


def build_catalog(seed: int):
    schema = TableSchema(
        "fuzz",
        [Column(name, INT64) for name in COLUMNS]
        + [Column(DEC, DECIMAL(2)), Column("g", CHAR(1))],
    )
    catalog = Catalog()
    table = catalog.create_table(schema)
    rng = np.random.default_rng(seed)
    table.append_arrays(
        {
            **{name: rng.integers(0, 50, N_ROWS) for name in COLUMNS},
            DEC: rng.integers(0, 5000, N_ROWS),
            "g": rng.choice(np.array([b"x", b"y", b"z"], dtype="S1"), N_ROWS),
        }
    )
    return catalog, table


@st.composite
def arith_term(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        if draw(st.booleans()):
            return draw(st.sampled_from(COLUMNS + (DEC,)))
        return str(draw(st.integers(min_value=0, max_value=60)))
    op = draw(st.sampled_from(["+", "-", "*"]))
    left = draw(arith_term(depth + 1))
    right = draw(arith_term(depth + 1))
    return f"({left} {op} {right})"


@st.composite
def predicates(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    terms = []
    for _ in range(n):
        kind = draw(st.sampled_from(["cmp", "dec", "between", "or"]))
        col = draw(st.sampled_from(COLUMNS))
        if kind == "cmp":
            op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "<>"]))
            terms.append(f"{col} {op} {draw(st.integers(0, 55))}")
        elif kind == "dec":
            op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "<>"]))
            terms.append(f"{DEC} {op} {draw(st.integers(0, 55_000)) / 1000:g}")
        elif kind == "between":
            lo = draw(st.integers(0, 50))
            terms.append(f"{col} BETWEEN {lo} AND {lo + draw(st.integers(0, 20))}")
        else:
            terms.append(
                f"({col} < {draw(st.integers(0, 30))} OR "
                f"{draw(st.sampled_from(COLUMNS))} > {draw(st.integers(20, 55))})"
            )
    return " AND ".join(terms)


@st.composite
def queries(draw):
    shape = draw(st.sampled_from(["project", "agg", "group", "distinct"]))
    where = f" WHERE {draw(predicates())}" if draw(st.booleans()) else ""
    if shape == "project":
        cols = draw(
            st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=3, unique=True)
        )
        order = f" ORDER BY {cols[0]} DESC, {', '.join(COLUMNS)}"
        limit = f" LIMIT {draw(st.integers(1, 40))}"
        return f"SELECT {', '.join(cols)} FROM fuzz{where}{order}{limit}"
    if shape == "agg":
        expr = draw(arith_term())
        funcs = draw(
            st.lists(
                st.sampled_from(["sum", "min", "max", "count", "avg"]),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        items = ", ".join(
            f"{f}({'*' if f == 'count' and draw(st.booleans()) else expr}) AS {f}_v"
            for f in funcs
        )
        return f"SELECT {items} FROM fuzz{where}"
    if shape == "group":
        expr = draw(arith_term())
        return (
            f"SELECT g, sum({expr}) AS s, count(*) AS n FROM fuzz{where} "
            f"GROUP BY g ORDER BY g"
        )
    cols = draw(
        st.lists(st.sampled_from(COLUMNS + ("g",)), min_size=1, max_size=2, unique=True)
    )
    return f"SELECT DISTINCT {', '.join(cols)} FROM fuzz{where}"


class TestQueryFuzz:
    @given(sql=queries(), seed=st.integers(min_value=0, max_value=20))
    @settings(max_examples=60, deadline=None)
    def test_all_paths_agree(self, sql, seed):
        catalog, _ = build_catalog(seed)
        for engine in all_engines(catalog).values():
            assert_matches_oracle(engine.execute(sql).result, catalog, sql)

    @given(sql=queries())
    @settings(max_examples=40, deadline=None)
    def test_rm_variants_agree(self, sql):
        from repro.db.engines import RelationalMemoryEngine

        catalog, _ = build_catalog(3)
        base = RelationalMemoryEngine(catalog).execute(sql).result
        for kwargs in (
            {"consumption": "vector"},
            {"consumption": "auto"},
            {"pushdown": True},
            {"pushdown": True, "aggregate_pushdown": True},
        ):
            # Every variant answers through the same executor: exactly.
            variant = RelationalMemoryEngine(catalog, **kwargs).execute(sql).result
            assert variant.names == base.names, (sql, kwargs)
            for name in base.names:
                got, want = variant.columns[name], base.columns[name]
                assert got.dtype == want.dtype, (sql, kwargs, name)
                assert got.tobytes() == want.tobytes(), (sql, kwargs, name)
