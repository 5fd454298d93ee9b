"""Access-path selection: "construct the fastest solution" (§III-B).

The paper's point: with the fabric available, the optimizer no longer
searches a combinatorial space of materialized layouts — every column
group is reachable, so it *constructs* the cheapest access path directly
from the query's referenced columns. This optimizer compares the row
scan, the column scan, the ephemeral scan, and (for point queries) an
index probe, and returns the ranked decision.

Each path is priced by the engine that executes it: :meth:`choose` runs
:meth:`repro.db.engines.base.Engine.price` on estimated row counts, on
engines of its own (analytic memory model; no tracer, metrics, fault
injector or code cache), so estimating never touches an executing
engine's counters or memory-model state. MVCC tables are priced as
:class:`repro.db.sql.pipeline.Session` reads them, at a snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.db.catalog import Catalog
from repro.db.engines import (
    ColumnStoreEngine,
    Engine,
    RelationalMemoryEngine,
    RowStoreEngine,
)
from repro.db.plan.binder import BoundQuery, bind
from repro.db.plan.cost import CostEstimate, selectivity
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
        self.fabric_available = fabric_available
        #: The engine pricing each scan path, by access-path name.
        self.pricers: Dict[str, Engine] = {
            "scan": RowStoreEngine(catalog, platform),
            "column-scan": ColumnStoreEngine(catalog, platform),
        }
        if fabric_available:
            self.pricers["ephemeral-scan"] = RelationalMemoryEngine(
                catalog, platform
            )
        self._probe = RowStoreEngine(catalog, platform, use_indexes=True)

    def choose(self, query) -> AccessDecision:
        """``query`` is SQL text or a :class:`BoundQuery`."""
        bound = (
            bind(parse(query), self.catalog) if isinstance(query, str) else query
        )
        table = bound.table
        stats = self.catalog.stats_of(table.schema.name)
        n, mvcc = table.nrows, table.schema.mvcc
        qualifying = round(n * selectivity(bound.where, stats))
        estimates = {
            path: CostEstimate(
                path, engine.price(bound, n, qualifying, mvcc).total_cycles
            )
            for path, engine in self.pricers.items()
        }
        # The index probe the row engine would take: the first equality
        # conjunct over an indexed column, fetching its matches.
        probe = self._probe._indexed_equality(bound)
        if probe is not None:
            _, column, _, conjunct = probe
            matches = round(n * selectivity(conjunct, stats))
            ledger = self._probe.price(bound, matches, qualifying, mvcc)
            estimates[f"index({column})"] = CostEstimate(
                "index", ledger.total_cycles
            )
        winner = min(estimates, key=lambda k: estimates[k].cycles)
        return AccessDecision(winner=winner, estimates=estimates, query=bound)
