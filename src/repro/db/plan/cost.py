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

from repro.db.expr import And, Between, Compare, Expr, Not, Or
from repro.db.stats import TableStats

#: Textbook default selectivities (System R heritage).
SELECTIVITY_EQ = 0.05
SELECTIVITY_RANGE = 0.33
SELECTIVITY_BETWEEN = 0.25
SELECTIVITY_OTHER = 0.5


@dataclass(frozen=True)
class CostEstimate:
    """Estimated cycles of one access path for one query."""

    access_path: str
    cycles: float


def selectivity(expr: Optional[Expr], stats: Optional[TableStats] = None) -> float:
    """Selectivity of a predicate: a compare's or a BETWEEN's from the
    table's statistics when it has them and they can tell
    (:meth:`~repro.db.stats.TableStats.compare_fraction`,
    :meth:`~repro.db.stats.TableStats.between_fraction`), else the rule
    constants."""
    if expr is None:
        return 1.0
    if isinstance(expr, And):
        out = 1.0
        for t in expr.terms:
            out *= selectivity(t, stats)
        return out
    if isinstance(expr, Or):
        out = 1.0
        for t in expr.terms:
            out *= 1.0 - selectivity(t, stats)
        return 1.0 - out
    if isinstance(expr, Not):
        return 1.0 - selectivity(expr.term, stats)
    if isinstance(expr, Compare):
        frac = None if stats is None else stats.compare_fraction(expr, SELECTIVITY_EQ)
        if frac is not None:
            return frac
        return SELECTIVITY_EQ if expr.op == "=" else SELECTIVITY_RANGE
    if isinstance(expr, Between):
        frac = None if stats is None else stats.between_fraction(expr)
        return SELECTIVITY_BETWEEN if frac is None else frac
    return SELECTIVITY_OTHER
