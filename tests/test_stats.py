"""Tests for table statistics and statistics-backed selectivity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Catalog, Column, TableSchema
from repro.db.expr import And, Between, ColumnRef, Compare, Literal, Not, Or
from repro.db.stats import TableStats, selectivity_with_stats
from repro.db.types import CHAR, INT64


@pytest.fixture
def stats_table():
    schema = TableSchema(
        "s", [Column("u", INT64), Column("g", CHAR(1)), Column("k", INT64)]
    )
    catalog = Catalog()
    table = catalog.create_table(schema)
    rng = np.random.default_rng(6)
    n = 10_000
    table.append_arrays(
        {
            "u": rng.integers(0, 1000, n),  # uniform 0..999
            "g": rng.choice(np.array([b"a", b"b"], dtype="S1"), n),
            "k": np.arange(n, dtype=np.int64),  # unique key
        }
    )
    return catalog, table


class TestCollection:
    def test_basic_stats(self, stats_table):
        _, table = stats_table
        stats = TableStats.collect(table)
        assert stats.nrows == 10_000
        u = stats.column("u")
        assert u.min_value == pytest.approx(table.column_values("u").min())
        assert u.max_value == pytest.approx(table.column_values("u").max())
        assert 900 <= u.ndv <= 1000
        assert stats.column("k").ndv == 10_000

    def test_char_column_has_ndv_only(self, stats_table):
        _, table = stats_table
        stats = TableStats.collect(table)
        g = stats.column("g")
        assert g.ndv == 2
        assert g.min_value is None

    def test_empty_table(self):
        schema = TableSchema("e", [Column("a", INT64)])
        table = Catalog().create_table(schema)
        stats = TableStats.collect(table)
        assert stats.nrows == 0
        assert stats.column("a").ndv == 0

    def test_missing_column(self, stats_table):
        _, table = stats_table
        assert TableStats.collect(table).column("zz") is None


class TestSelectivity:
    def estimate(self, expr, table):
        return selectivity_with_stats(expr, TableStats.collect(table))

    def test_equality_uses_ndv(self, stats_table):
        _, table = stats_table
        sel = self.estimate(Compare("=", ColumnRef("k"), Literal(5)), table)
        assert sel == pytest.approx(1 / 10_000)

    def test_range_interpolates(self, stats_table):
        _, table = stats_table
        sel = self.estimate(Compare("<", ColumnRef("u"), Literal(250)), table)
        assert sel == pytest.approx(0.25, abs=0.03)

    def test_flipped_comparison(self, stats_table):
        _, table = stats_table
        # 250 > u  ==  u < 250
        sel = self.estimate(Compare(">", Literal(250), ColumnRef("u")), table)
        assert sel == pytest.approx(0.25, abs=0.03)

    def test_between(self, stats_table):
        _, table = stats_table
        sel = self.estimate(
            Between(ColumnRef("u"), Literal(100), Literal(300)), table
        )
        assert sel == pytest.approx(0.2, abs=0.03)

    def test_out_of_range_clamps(self, stats_table):
        _, table = stats_table
        assert self.estimate(Compare("<", ColumnRef("u"), Literal(-5)), table) == 0.0
        assert self.estimate(Compare("<", ColumnRef("u"), Literal(10**9)), table) == 1.0

    def test_conjunction_multiplies(self, stats_table):
        _, table = stats_table
        expr = And(
            terms=(
                Compare("<", ColumnRef("u"), Literal(500)),
                Compare("=", ColumnRef("g"), Literal(b"a")),
            )
        )
        # g is CHAR: no range stats, falls back to NDV? CHAR literal is
        # not numeric, so the rule constant applies for that conjunct.
        sel = self.estimate(expr, table)
        assert 0.0 < sel < 0.5

    def test_not_inverts(self, stats_table):
        _, table = stats_table
        sel = self.estimate(
            Not(Compare("<", ColumnRef("u"), Literal(250))), table
        )
        assert sel == pytest.approx(0.75, abs=0.03)

    def test_none_is_one(self, stats_table):
        _, table = stats_table
        assert self.estimate(None, table) == 1.0

    @given(threshold=st.integers(min_value=0, max_value=999))
    @settings(max_examples=25, deadline=None)
    def test_matches_true_fraction_on_uniform_data(self, threshold):
        rng = np.random.default_rng(9)
        schema = TableSchema("p", [Column("x", INT64)])
        table = Catalog().create_table(schema)
        values = rng.integers(0, 1000, 5000)
        table.append_arrays({"x": values})
        sel = selectivity_with_stats(
            Compare("<", ColumnRef("x"), Literal(threshold)),
            TableStats.collect(table),
        )
        true_frac = float((values < threshold).mean())
        assert sel == pytest.approx(true_frac, abs=0.05)


class TestCatalogIntegration:
    def test_analyze_and_staleness(self, stats_table):
        catalog, table = stats_table
        assert catalog.stats_of("s") is None
        stats = catalog.analyze("s")
        assert catalog.stats_of("s") is stats
        table.append_row({"u": 1, "g": "a", "k": 10_001})
        assert catalog.stats_of("s") is None  # stale after mutation

    def test_optimizer_uses_stats(self, stats_table):
        """With statistics, a highly selective range query's estimates
        shrink relative to the rule-based default."""
        from repro.db.plan.optimizer import Optimizer

        catalog, table = stats_table
        sql = "SELECT k FROM s WHERE u < 10"
        without = Optimizer(catalog).choose(sql).estimates["scan"].cycles
        catalog.analyze("s")
        with_stats = Optimizer(catalog).choose(sql).estimates["scan"].cycles
        assert with_stats < without  # fewer qualifying rows estimated
