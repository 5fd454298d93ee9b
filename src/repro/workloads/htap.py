"""HTAP driver: interleaved OLTP transactions and analytic snapshots.

The paper's headline scenario — fresh transactional data, analyzed
in place, with no duplicated layouts. The driver runs an order-ledger
style write mix through the MVCC manager while periodically firing an
analytic query at each engine, measuring:

* **freshness lag** — rows the column-store replica has not converted
  yet (zero for the row engine and the fabric, which read base data);
* **conversion cost** — cycles the column engine burns re-materializing
  its copy;
* **abort rate** — write-write conflicts under snapshot isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.db.catalog import Catalog
from repro.db.engines import ColumnStoreEngine, RelationalMemoryEngine, RowStoreEngine
from repro.db.mvcc import TransactionManager
from repro.db.schema import Column, TableSchema
from repro.db.table import Table
from repro.db.types import DECIMAL, INT64
from repro.errors import WriteConflictError
from repro.hw.config import PlatformConfig
from repro.obs import MetricsRegistry


def orders_schema(name: str = "orders") -> TableSchema:
    """A slim order ledger with MVCC bookkeeping."""
    return TableSchema(
        name,
        [
            Column("o_id", INT64),
            Column("o_customer", INT64),
            Column("o_amount", DECIMAL(2)),
            Column("o_status", INT64),  # 0=open, 1=paid, 2=shipped
        ],
        mvcc=True,
    )


@dataclass
class HtapStats:
    inserts: int = 0
    updates: int = 0
    commits: int = 0
    aborts: int = 0
    analytic_runs: int = 0
    #: Per analytic round: rows the COL replica was missing at query time.
    freshness_lag: List[int] = field(default_factory=list)
    conversion_cycles: float = 0.0
    engine_cycles: Dict[str, float] = field(default_factory=dict)

    @property
    def mean_freshness_lag(self) -> float:
        return (
            sum(self.freshness_lag) / len(self.freshness_lag)
            if self.freshness_lag
            else 0.0
        )


class HtapDriver:
    """Runs the mixed workload against all three engines."""

    ANALYTIC_SQL = (
        "SELECT o_status, sum(o_amount) AS revenue, count(*) AS n "
        "FROM orders WHERE o_amount > 50 GROUP BY o_status ORDER BY o_status"
    )

    def __init__(
        self,
        platform: Optional[PlatformConfig] = None,
        seed: int = 7,
        initial_rows: int = 2000,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.catalog = Catalog()
        self.platform = platform
        self.table: Table = self.catalog.create_table(orders_schema())
        #: One shared registry across the manager and all three engines,
        #: so the whole HTAP run lands in a single time series. The clock
        #: is driven by the analytic query ledgers plus the column
        #: store's conversion ledger (the in-memory OLTP path charges no
        #: cycles of its own).
        self.metrics = metrics
        self.manager = TransactionManager(metrics=metrics)
        self.rng = np.random.default_rng(seed)
        self.stats = HtapStats()
        self.engines = {
            "row": RowStoreEngine(self.catalog, platform, metrics=metrics),
            "column": ColumnStoreEngine(self.catalog, platform, metrics=metrics),
            "rm": RelationalMemoryEngine(self.catalog, platform, metrics=metrics),
        }
        if self.metrics is not None:
            from repro.obs.collectors import register_version_chains

            register_version_chains(self.metrics, self.table, "o_id")
        self._next_order = 0
        self._seed_rows(initial_rows)

    def _seed_rows(self, n: int) -> None:
        txn = self.manager.begin()
        for _ in range(n):
            txn.insert(self.table, self._new_order())
        self.manager.commit(txn)
        self.stats.inserts += n
        self.stats.commits += 1

    def _new_order(self) -> dict:
        self._next_order += 1
        return {
            "o_id": self._next_order,
            "o_customer": int(self.rng.integers(1, 500)),
            "o_amount": float(self.rng.uniform(1, 200)),
            "o_status": 0,
        }

    # ------------------------------------------------------------------
    # Workload steps.
    # ------------------------------------------------------------------
    def run_oltp_burst(self, n_txns: int, updates_per_txn: int = 2) -> None:
        """Each transaction inserts one order and advances a few others."""
        for _ in range(n_txns):
            txn = self.manager.begin()
            try:
                new_slot = txn.insert(self.table, self._new_order())
                self.stats.inserts += 1
                # visible_slots includes our own pending insert, which
                # update() refuses to touch (it has no committed version
                # to supersede) — advance only pre-existing orders.
                live = txn.visible_slots(self.table)
                live = live[live != new_slot]
                if len(live):
                    picks = self.rng.choice(live, size=min(updates_per_txn, len(live)), replace=False)
                    for slot in picks.tolist():
                        status = self.table.value(slot, "o_status")
                        txn.update(self.table, slot, {"o_status": min(status + 1, 2)})
                        self.stats.updates += 1
                self.manager.commit(txn)
                self.stats.commits += 1
            except WriteConflictError:
                self.stats.aborts += 1

    def run_analytics(self) -> Dict[str, object]:
        """Fire the analytic query at every engine on a fresh snapshot."""
        snapshot = self.manager.now
        results = {}
        col_engine: ColumnStoreEngine = self.engines["column"]
        replica = col_engine.replica_of(self.table)
        self.stats.freshness_lag.append(replica.stale_rows)
        before = col_engine.conversion_ledger.total_cycles
        for name, engine in self.engines.items():
            res = engine.execute(self.ANALYTIC_SQL, snapshot_ts=snapshot)
            results[name] = res
            self.stats.engine_cycles[name] = (
                self.stats.engine_cycles.get(name, 0.0) + res.cycles
            )
        self.stats.conversion_cycles += (
            col_engine.conversion_ledger.total_cycles - before
        )
        self.stats.analytic_runs += 1
        return results

    def run_mixed(self, rounds: int = 5, txns_per_round: int = 50) -> HtapStats:
        """The full HTAP loop: OLTP burst, then analytics, repeated."""
        for _ in range(rounds):
            self.run_oltp_burst(txns_per_round)
            self.run_analytics()
        return self.stats

    # ------------------------------------------------------------------
    # The served front door (repro.serve).
    # ------------------------------------------------------------------
    #: Cycles the serving cost model charges one OLTP transaction: the
    #: in-memory MVCC path is not priced by the engines, so the front
    #: door prices it per statement (insert + each update).
    OLTP_STATEMENT_CYCLES = 2_500.0

    @property
    def serve_engine(self):
        """The engine the served OLAP lane executes on.

        Built lazily with ``metrics=None``: the serve scheduler already
        advances the shared registry's clock for every cycle of service
        time, so the engine's own ledger must not advance it again. It
        *does* share the driver's tracer hook via the scheduler's
        ``serve.execute`` span, under which its spans nest.
        """
        if not hasattr(self, "_serve_engine"):
            self._serve_engine = RowStoreEngine(
                self.catalog, self.platform, metrics=None
            )
        return self._serve_engine

    def serve_executor(self, tracer=None):
        """An :data:`repro.serve.scheduler.Executor` over this driver.

        OLTP requests run one real transaction (insert + two updates)
        through the MVCC manager; OLAP requests run the analytic query on
        :attr:`serve_engine` against a fresh snapshot. A degraded OLAP
        dispatch models a sampled scan: the answer is computed but only
        ``olap_degraded_fraction``-style cost is charged by the caller's
        config — here the executor scales the engine's priced cycles.
        """
        from repro.serve.request import OLAP_LANE
        from repro.serve.scheduler import ExecOutcome

        if tracer is not None:
            self.serve_engine.tracer = tracer

        def execute(request, degrade):
            if request.lane == OLAP_LANE:
                res = self.serve_engine.execute(
                    self.ANALYTIC_SQL, snapshot_ts=self.manager.now
                )
                cycles = res.cycles
                if degrade:
                    cycles *= float(request.payload or 0.125)
                return ExecOutcome(cycles=cycles, degraded=degrade, payload=res)
            before = self.stats.updates
            self.run_oltp_burst(1)
            statements = 1 + (self.stats.updates - before)
            return ExecOutcome(cycles=self.OLTP_STATEMENT_CYCLES * statements)

        return execute
