"""Access-path selection: "construct the fastest solution" (§III-B).

The paper's point: with the fabric available, the optimizer no longer
searches a combinatorial space of materialized layouts — every column
group is reachable, so it *constructs* the cheapest access path directly
from the query's referenced columns. This optimizer compares the row
scan, the column scan, the ephemeral scan, and (for point queries) an
index probe, and returns the ranked decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.db.catalog import Catalog
from repro.db.plan.binder import BoundQuery, bind
from repro.db.plan.cost import CostEstimate, CostModel
from repro.db.plan.logical import explain
from repro.db.sql.parser import parse
from repro.hw.config import PlatformConfig


@dataclass
class AccessDecision:
    """The optimizer's ranked choice of access path for one query."""

    winner: str
    estimates: Dict[str, CostEstimate]
    #: The query the decision is for; :attr:`plan` renders from it.
    query: BoundQuery

    @property
    def plan(self) -> str:
        """EXPLAIN text of the query under the winning access path."""
        winner = self.estimates[self.winner]
        return explain(self.query, access_path=winner.access_path)

    def ranked(self) -> List[Tuple[str, float]]:
        return sorted(
            ((name, est.cycles) for name, est in self.estimates.items()),
            key=lambda kv: kv[1],
        )

    @property
    def speedup_vs_worst(self) -> float:
        ranked = self.ranked()
        return ranked[-1][1] / ranked[0][1] if ranked[0][1] else float("inf")


class Optimizer:
    """Chooses the cheapest access path for each query."""

    def __init__(
        self,
        catalog: Catalog,
        platform: Optional[PlatformConfig] = None,
        fabric_available: bool = True,
    ):
        self.catalog = catalog
        self.cost_model = CostModel(platform)
        self.fabric_available = fabric_available

    def choose(self, query) -> AccessDecision:
        """``query`` is SQL text or a :class:`BoundQuery`.

        Without statistics the estimates read only the query's shape, the
        table's row count and its indexes, so a query bound through the
        shape memo reuses its shape's estimates while those are unchanged.
        """
        bound = (
            bind(parse(query), self.catalog) if isinstance(query, str) else query
        )
        name = bound.table.schema.name
        stats = self.catalog.stats_of(name)
        indexed = tuple(
            self.catalog.index_on(name, col) is not None
            for col in bound.selection_columns
        )
        memo = bound.template if stats is None else None
        key = (self.cost_model, self.fabric_available, bound.table.nrows, indexed)
        if memo is not None and memo.estimates is not None \
                and memo.estimates[0] == key:
            estimates = dict(memo.estimates[1])
        else:
            estimates = self._estimate(bound, stats, indexed)
            if memo is not None:
                memo.estimates = (key, dict(estimates))
        winner = min(estimates, key=lambda k: estimates[k].cycles)
        return AccessDecision(winner=winner, estimates=estimates, query=bound)

    def _estimate(self, bound, stats, indexed) -> Dict[str, CostEstimate]:
        estimates: Dict[str, CostEstimate] = {
            "scan": self.cost_model.estimate_row_scan(bound, stats),
            "column-scan": self.cost_model.estimate_column_scan(bound, stats),
        }
        if self.fabric_available:
            estimates["ephemeral-scan"] = self.cost_model.estimate_ephemeral_scan(
                bound, stats
            )
        for col, has_index in zip(bound.selection_columns, indexed):
            if not has_index:
                continue
            est = self.cost_model.estimate_index_probe(bound, col)
            if est is not None:
                estimates[f"index({col})"] = est
        return estimates
