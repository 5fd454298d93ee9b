"""Cardinality estimation for access-path selection.

The optimizer (§III-B) estimates how many rows a query's predicate lets
through, from catalog statistics when the table has them and from rule
constants otherwise, and prices each access path by running the
engine's own cost recipe on those counts
(:meth:`repro.db.engines.base.Engine.price`). No recipe is copied here,
so an estimate at the true counts is the engine's charge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.db.expr import Between, Compare, Expr

#: Textbook default selectivities (System R heritage).
SELECTIVITY_EQ = 0.05
SELECTIVITY_RANGE = 0.33
SELECTIVITY_BETWEEN = 0.25
SELECTIVITY_OTHER = 0.5


def estimate_selectivity(expr: Optional[Expr]) -> float:
    """Rule-based selectivity of a predicate (no data statistics)."""
    if expr is None:
        return 1.0
    from repro.db.expr import And, Not, Or

    if isinstance(expr, And):
        out = 1.0
        for t in expr.terms:
            out *= estimate_selectivity(t)
        return out
    if isinstance(expr, Or):
        out = 1.0
        for t in expr.terms:
            out *= 1.0 - estimate_selectivity(t)
        return 1.0 - out
    if isinstance(expr, Not):
        return 1.0 - estimate_selectivity(expr.term)
    if isinstance(expr, Compare):
        return SELECTIVITY_EQ if expr.op == "=" else SELECTIVITY_RANGE
    if isinstance(expr, Between):
        return SELECTIVITY_BETWEEN
    return SELECTIVITY_OTHER


@dataclass(frozen=True)
class CostEstimate:
    """Estimated cycles of one access path for one query."""

    access_path: str
    cycles: float


def selectivity(expr: Optional[Expr], stats=None) -> float:
    """Selectivity of a predicate: from the table's statistics
    (:func:`repro.db.stats.selectivity_with_stats`) when it has them,
    else the rule constants."""
    if stats is None:
        return estimate_selectivity(expr)
    from repro.db.stats import selectivity_with_stats

    return selectivity_with_stats(expr, stats)
