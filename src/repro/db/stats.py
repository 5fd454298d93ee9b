"""Table statistics: the optimizer's data-dependent selectivity source.

``ANALYZE``-style collection over the row image: per-column minimum,
maximum and number of distinct values, plus row count. The cost model
(§III-B "revise existing cost models considering Relational Fabric")
uses these for equality (1/NDV) and range (uniform-interpolation)
selectivities, falling back to the System-R constants when a column was
never analyzed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.selection import CompareOp
from repro.db.expr import Between, ColumnRef, Compare, Literal, column_vs_literal
from repro.db.table import Table
from repro.distinct import distinct


@dataclass(frozen=True)
class ColumnStats:
    """Summary of one column's value distribution."""

    name: str
    ndv: int
    min_value: Optional[float]
    max_value: Optional[float]

    @property
    def span(self) -> float:
        if self.min_value is None or self.max_value is None:
            return 0.0
        return float(self.max_value - self.min_value)


@dataclass
class TableStats:
    """Row count plus per-column statistics."""

    nrows: int
    columns: Dict[str, ColumnStats]

    @classmethod
    def collect(cls, table: Table) -> "TableStats":
        """One ANALYZE pass over every user column."""
        columns: Dict[str, ColumnStats] = {}
        for col in table.schema.user_columns:
            values = table.column_values(col.name)
            if table.nrows == 0:
                columns[col.name] = ColumnStats(col.name, 0, None, None)
                continue
            ndv = distinct(values).size
            if col.dtype.np_dtype is None:
                columns[col.name] = ColumnStats(col.name, ndv, None, None)
            else:
                columns[col.name] = ColumnStats(
                    col.name, ndv, float(values.min()), float(values.max())
                )
        return cls(nrows=table.nrows, columns=columns)

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name)

    def compare_fraction(self, expr: Compare, equal_default: float) -> Optional[float]:
        """Estimated share of rows passing ``column <op> literal``: 1/NDV
        for ``=`` and its complement for ``<>``, on any column type
        (``equal_default`` stands in for 1/NDV when the column had no
        rows), uniform interpolation for a numeric range; None when the
        statistics cannot tell."""
        term = column_vs_literal(expr)
        if term is None:
            return None
        col, op, const = term
        cstats = self.column(col)
        if cstats is None:
            return None
        if op in (CompareOp.EQ, CompareOp.NE):
            equal = 1.0 / cstats.ndv if cstats.ndv else equal_default
            return equal if op is CompareOp.EQ else 1.0 - equal
        if not isinstance(const, (int, float)):
            return None
        return _range_fraction(cstats, op, float(const))

    def between_fraction(self, expr: Between) -> Optional[float]:
        """Uniform-interpolation share of rows in ``column BETWEEN lo AND
        hi``; None when the statistics cannot tell."""
        if not (
            isinstance(expr.term, ColumnRef)
            and isinstance(expr.low, Literal)
            and isinstance(expr.high, Literal)
        ):
            return None
        cstats = self.column(expr.term.name)
        if cstats is None or cstats.span <= 0:
            return None
        lo = _clamp((float(expr.low.value) - cstats.min_value) / cstats.span)
        hi = _clamp((float(expr.high.value) - cstats.min_value) / cstats.span)
        return max(0.0, hi - lo)


def _clamp(x: float) -> float:
    return min(1.0, max(0.0, x))


def _range_fraction(
    stats: ColumnStats, op: CompareOp, constant: float
) -> Optional[float]:
    """Uniform-distribution estimate of ``column <op> constant``."""
    if stats.min_value is None or stats.span <= 0:
        return None
    frac_below = _clamp((constant - stats.min_value) / stats.span)
    if op in (CompareOp.LT, CompareOp.LE):
        return frac_below
    if op in (CompareOp.GT, CompareOp.GE):
        return 1.0 - frac_below
    return None
