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

import numpy as np

from repro.core.selection import CompareOp
from repro.db.expr import (
    And,
    Between,
    ColumnRef,
    Compare,
    Expr,
    Literal,
    Not,
    Or,
    column_vs_literal,
)
from repro.db.table import Table


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
            ndv = int(len(np.unique(values)))
            if col.dtype.np_dtype is None:
                columns[col.name] = ColumnStats(col.name, ndv, None, None)
            else:
                columns[col.name] = ColumnStats(
                    col.name, ndv, float(values.min()), float(values.max())
                )
        return cls(nrows=table.nrows, columns=columns)

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name)


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


def selectivity_with_stats(expr: Optional[Expr], stats: TableStats) -> float:
    """Statistics-backed selectivity; falls back to the rule constants
    (imported lazily to avoid a cycle) for anything not estimable."""
    from repro.db.plan.cost import (
        SELECTIVITY_BETWEEN,
        SELECTIVITY_EQ,
        SELECTIVITY_OTHER,
        SELECTIVITY_RANGE,
        estimate_selectivity,
    )

    if expr is None:
        return 1.0
    if isinstance(expr, And):
        out = 1.0
        for t in expr.terms:
            out *= selectivity_with_stats(t, stats)
        return out
    if isinstance(expr, Or):
        out = 1.0
        for t in expr.terms:
            out *= 1.0 - selectivity_with_stats(t, stats)
        return 1.0 - out
    if isinstance(expr, Not):
        return 1.0 - selectivity_with_stats(expr.term, stats)
    if isinstance(expr, Compare):
        term = column_vs_literal(expr)
        if term is not None and isinstance(term[2], (int, float)):
            col, op, const = term
            cstats = stats.column(col)
            if cstats is not None:
                if op is CompareOp.EQ:
                    return 1.0 / cstats.ndv if cstats.ndv else SELECTIVITY_EQ
                if op is CompareOp.NE:
                    return 1.0 - (1.0 / cstats.ndv if cstats.ndv else SELECTIVITY_EQ)
                frac = _range_fraction(cstats, op, float(const))
                if frac is not None:
                    return frac
        return estimate_selectivity(expr)
    if isinstance(expr, Between):
        if isinstance(expr.term, ColumnRef) and isinstance(expr.low, Literal) and isinstance(expr.high, Literal):
            cstats = stats.column(expr.term.name)
            if cstats is not None and cstats.span > 0:
                lo = _clamp((float(expr.low.value) - cstats.min_value) / cstats.span)
                hi = _clamp((float(expr.high.value) - cstats.min_value) / cstats.span)
                return max(0.0, hi - lo)
        return SELECTIVITY_BETWEEN
    return estimate_selectivity(expr)

