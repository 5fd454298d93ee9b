"""The Relational Memory engine: queries over ephemeral column groups.

The access path of the paper's RM (Section V): the fabric packs exactly
the referenced columns into dense lines; the CPU runs the scalar kernel
of Figure 3 over the ephemeral struct (default ``consumption="scalar"``),
a vectorized loop over the packed stream (``consumption="vector"``), or
picks whichever the cost model prefers per query
(``consumption="auto"`` — the Section III-B "hybrid query engine that
can alternate between row-at-a-time and column-at-a-time while working
on the same base data").

Optional fabric pushdown (Section IV-B, off by default to match the
prototype): simple ``column <op> constant`` conjuncts are evaluated by
comparators in the fabric so only qualifying rows are emitted, and with
``aggregate_pushdown=True`` a qualifying single-aggregate query takes the
``fabric-aggregate`` access path — the ephemeral variable then contains
"only the required data or the aggregation result". That path differs
from the ephemeral scan only in its price (the fabric reduces, the CPU
reads one value); its answer is the shared executor's over the rows the
fabric selects, like every other path's. MVCC visibility (Section III-C)
is always evaluated in the fabric when a snapshot is given.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Tuple

import numpy as np

from repro.core.fabric import RelationalMemory
from repro.core.ledger import CostLedger
from repro.core.selection import FabricFilter, select_rows
from repro.db.engines.base import Candidates, Engine
from repro.db.catalog import Catalog
from repro.db.expr import ColumnRef, fabric_comparators, op_count
from repro.db.plan.binder import BoundQuery
from repro.errors import ExecutionError, FaultError
from repro.faults import CircuitBreaker, FaultInjector, RetryPolicy
from repro.hw.config import PlatformConfig
from repro.hw.engine import RmTransformReport
from repro.obs import Span, Trace, maybe_span


class RelationalMemoryEngine(Engine):
    """Scans through ephemeral column groups served by the fabric."""

    name = "rm"
    #: The fabric delivers densely packed groups: fragments key on the
    #: accessed types in positional order, not physical offsets.
    fragment_layout = "ephemeral"

    #: Flat detour cost of noticing the fabric is unusable and dispatching
    #: the query to the software path (breaker check + plan switch).
    FALLBACK_DISPATCH_CYCLES = 200.0

    def __init__(
        self,
        catalog: Catalog,
        platform: Optional[PlatformConfig] = None,
        consumption: str = "scalar",
        pushdown: bool = False,
        aggregate_pushdown: bool = False,
        fault_injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        fallback: bool = True,
        **kw,
    ):
        super().__init__(catalog, platform, **kw)
        if consumption not in ("scalar", "vector", "auto"):
            raise ExecutionError(f"unknown consumption mode {consumption!r}")
        self.consumption = consumption
        self.pushdown = pushdown
        self.aggregate_pushdown = aggregate_pushdown
        self.fabric = RelationalMemory(
            self.platform, fault_injector=fault_injector, tracer=self.tracer
        )
        self.retry_policy = retry_policy or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        #: When True (the default), a query whose fabric path faults past
        #: the retry budget transparently re-executes on the rowstore scan
        #: path over the same base data — the paper's transparency claim.
        self.fallback = fallback
        #: Queries the fabric reduced to one accumulator (``fabric-aggregate``).
        self.fabric_answered = 0
        #: Fabric faults observed (each faulted attempt counts once).
        self.faults_seen = 0
        #: Queries answered by the degraded software path.
        self.fallbacks = 0
        self._last_access_path = "ephemeral-scan"
        self._fallback_engine = None
        if self.metrics is not None:
            from repro.obs.collectors import (
                register_breaker,
                register_fault_injector,
                register_rm_engine,
            )

            register_rm_engine(self.metrics, self.fabric.engine, engine=self.name)
            register_breaker(self.metrics, self.breaker, engine=self.name)
            if fault_injector is not None:
                register_fault_injector(
                    self.metrics, fault_injector, engine=self.name
                )

    @property
    def access_path(self) -> str:
        return self._last_access_path

    # ------------------------------------------------------------------
    # Resilient dispatch: retry, breaker, software fallback.
    # ------------------------------------------------------------------
    def execute(self, query, snapshot_ts=None):
        """Run one query; on fabric faults, retry with backoff and —
        past the retry budget or with the breaker open — re-execute on
        the rowstore scan path over the same base data.

        The whole dispatch (every attempt, the retry penalties, a
        possible degraded re-execution) runs under one ``dispatch`` span,
        so a traced degraded query shows the faulted attempts next to the
        answer that replaced them. ``result.trace`` is that dispatch
        tree; on the fault-free path it has a single ``query`` child.
        """
        bound = self.bind(query) if isinstance(query, str) else query
        with maybe_span(
            self.tracer, "dispatch", engine=self.name, layer="engine"
        ) as dispatch:
            result = self._dispatch(bound, snapshot_ts)
            dispatch.set_attrs(
                mode=self._last_access_path, degraded=result.degraded
            )
        if isinstance(dispatch, Span):
            result.trace = Trace(dispatch)
        return result

    def _dispatch(self, bound, snapshot_ts):
        policy = self.retry_policy
        penalty = 0.0
        last_fault: Optional[FaultError] = None
        for attempt in range(policy.retries + 1):
            if not self.breaker.allow():
                break
            try:
                result = self._execute_rm(bound, snapshot_ts)
            except FaultError as exc:
                self.faults_seen += 1
                self.breaker.record_failure()
                last_fault = exc
                # The geometry programming of the failed attempt is lost;
                # waiting out the backoff before re-arming costs cycles.
                penalty += self.platform.rm.configure_cycles
                if attempt < policy.retries:
                    penalty += policy.backoff(attempt)
                continue
            self.breaker.record_success()
            if penalty:
                result.ledger.charge(CostLedger.RETRY, penalty)
            return result
        if not self.fallback:
            raise last_fault if last_fault is not None else ExecutionError(
                "fabric unavailable (circuit breaker open) and fallback disabled"
            )
        return self._execute_degraded(bound, snapshot_ts, penalty)

    def _execute_degraded(self, bound, snapshot_ts, penalty: float):
        """The transparency guarantee: same base data, software scan."""
        from repro.db.engines.rowstore import RowStoreEngine

        if self._fallback_engine is None:
            self._fallback_engine = RowStoreEngine(
                self.catalog, self.platform, threads=self.threads,
                tracer=self.tracer, metrics=self.metrics,
            )
        self.fallbacks += 1
        self._last_access_path = "degraded-rowstore-scan"
        fb = self._fallback_engine.execute(bound, snapshot_ts)
        fb.ledger.charge(
            CostLedger.DEGRADED, penalty + self.FALLBACK_DISPATCH_CYCLES
        )
        return replace(fb, engine=self.name, degraded=True)

    def _execute_rm(self, bound: BoundQuery, snapshot_ts):
        """One attempt on the fabric path."""
        aggregate = self._fabric_aggregates(bound)
        self._last_access_path = "fabric-aggregate" if aggregate else "ephemeral-scan"
        result = super().execute(bound, snapshot_ts)
        self.fabric_answered += aggregate
        return result

    # ------------------------------------------------------------------
    # Pushdown analysis.
    # ------------------------------------------------------------------
    _FABRIC_AGGS = ("sum", "min", "max", "count")

    def _fabric_aggregates(self, bound: BoundQuery) -> bool:
        """Whether the fabric reduces ``bound`` to one accumulator (§IV-B):
        a single sum/min/max/count over a numeric column, or count(*), with
        no grouping or join and every WHERE conjunct pushed. The query's
        shape alone decides, so :meth:`price` follows the execution."""
        if not self.aggregate_pushdown or bound.group_by or bound.joins:
            return False
        if len(bound.outputs) != 1 or bound.outputs[0].kind not in self._FABRIC_AGGS:
            return False
        kind, expr = bound.outputs[0].kind, bound.outputs[0].expr
        if expr is None:
            reducible = kind == "count"
        else:
            reducible = isinstance(expr, ColumnRef) and (
                bound.table.schema.column(expr.name).dtype.np_dtype is not None
            )
        return reducible and not fabric_comparators(
            bound.where_conjuncts, bound.table.schema
        )[1]

    def _pushdown(self, bound: BoundQuery) -> Tuple[Optional[FabricFilter], int]:
        """The fabric filter this engine pushes for ``bound`` (None: no
        pushdown) and the WHERE operations left to the CPU."""
        if self.pushdown and bound.where is not None:
            pushed, residual = fabric_comparators(
                bound.where_conjuncts, bound.table.schema
            )
            if pushed:
                return (
                    FabricFilter(predicates=tuple(pushed)),
                    sum(op_count(r) for r in residual),
                )
        return None, bound.where_op_count

    # ------------------------------------------------------------------
    # Access path.
    # ------------------------------------------------------------------
    def _candidates(self, bound: BoundQuery, snapshot_ts: Optional[int]) -> Candidates:
        table = bound.table
        schema = table.schema
        if not schema.mvcc:
            snapshot_ts = None
        if self._fabric_aggregates(bound):
            # The fabric selects the rows and reduces them, emitting only
            # the accumulator; the executor answers over the same rows.
            pushed, _ = fabric_comparators(bound.where_conjuncts, schema)
            rows = select_rows(
                table.records, snapshot_ts,
                FabricFilter(predicates=tuple(pushed)) if pushed else None,
            )
            visible = table.nrows if rows is None else int(np.count_nonzero(rows))
            return rows, visible, table.read, lambda qualifying, ledger: (
                self._charge_fabric_aggregate(bound, snapshot_ts is not None, ledger)
            )

        fabric_filter, residual_ops = self._pushdown(bound)

        with self._span(
            "fabric.transform",
            table=schema.name,
            layer="fabric",
            rows_in=table.nrows,
            pushed_predicates=0 if fabric_filter is None else len(fabric_filter),
        ) as fspan:
            group = self.fabric.configure(
                table.frame,
                bound.scan_geometry,
                base_geometry=schema.full_geometry(),
                fabric_filter=fabric_filter,
                snapshot_ts=snapshot_ts,
                records=table.records,
            )
            group.refresh()
            report = group.report
            emitted = group.length
            fspan.set_attrs(rows_out=emitted)
            fspan.add_counters(
                {
                    "fabric_dram_bytes": report.dram_bytes_touched,
                    "out_bytes": report.out_bytes,
                    "refills": report.refills,
                }
            )

        # The group's values are the frame's fields at its emitted rows;
        # this refresh's report prices the scan (another transform call
        # would consult the fault injector again).
        pushed = fabric_filter is not None
        return (
            group.rows, emitted, table.read,
            lambda qualifying, ledger: self._charge_ephemeral_scan(
                bound, report, emitted, qualifying, residual_ops, pushed, ledger
            ),
        )

    def _charge_access(
        self,
        bound: BoundQuery,
        visible: int,
        qualifying: int,
        mvcc: bool,
        ledger: CostLedger,
    ) -> None:
        """Price the access path when the fabric emits ``visible`` rows,
        with the fabric's price of producing them as a refresh would have
        it (a fabric aggregate's price depends on no row count)."""
        if self._fabric_aggregates(bound):
            return self._charge_fabric_aggregate(bound, mvcc, ledger)
        fabric_filter, residual_ops = self._pushdown(bound)
        pushed = fabric_filter is not None
        geometry = bound.scan_geometry
        report = self.fabric.engine.transform(
            nrows=bound.table.nrows,
            row_stride=geometry.row_stride,
            out_bytes_per_row=geometry.packed_width,
            qualifying_rows=visible if mvcc or pushed else None,
            mvcc_filter=mvcc,
            fabric_predicates=len(fabric_filter) if pushed else 0,
        )
        self._charge_ephemeral_scan(
            bound, report, visible, qualifying, residual_ops, pushed, ledger
        )

    def _charge_fabric_aggregate(
        self, bound: BoundQuery, mvcc: bool, ledger: CostLedger
    ) -> None:
        """Price the fabric reducing the table: it scans the referenced
        fields of every row and emits only the accumulator, which the CPU
        reads."""
        schema = bound.table.schema
        report = self.fabric.engine.transform(
            nrows=bound.table.nrows,
            row_stride=schema.row_stride,
            out_bytes_per_row=max(1, schema.bytes_of(bound.referenced_columns)),
            qualifying_rows=0,
            mvcc_filter=mvcc,
            fabric_predicates=len(bound.where_conjuncts),
        )
        with self._span(
            "fabric.aggregate",
            table=schema.name,
            layer="fabric",
            rows_in=bound.table.nrows,
            rows_out=1,
            predicate=bound.outputs[0].kind,
        ) as span:
            ledger.charge(CostLedger.CONFIGURE, report.configure_cycles)
            ledger.charge(CostLedger.FABRIC, report.produce_cycles)
            ledger.charge(CostLedger.CPU, 2 * self.platform.cpu.volcano_tuple_cycles)
            ledger.charge_traffic(report.dram_bytes_touched)
            span.add_counters(
                {"fabric_dram_bytes": report.dram_bytes_touched, "refills": report.refills}
            )

    def _charge_post_scan(
        self, bound: BoundQuery, visible: int, qualifying: int, ledger: CostLedger
    ) -> None:
        # A fabric aggregate leaves the CPU no rows to aggregate.
        if not self._fabric_aggregates(bound):
            super()._charge_post_scan(bound, visible, qualifying, ledger)

    def _charge_ephemeral_scan(
        self,
        bound: BoundQuery,
        report: RmTransformReport,
        emitted: int,
        qualifying: int,
        residual_ops: int,
        pushed: bool,
        ledger: CostLedger,
    ) -> None:
        """Price consuming ``emitted`` packed rows, ``qualifying`` of them
        passing the WHERE clause, overlapped with the fabric producing
        them (``report``)."""
        # The packed stream arrives through the fabric's ephemeral buffer
        # window — one stable region per (table, column-group), reused
        # across refreshes, not a fresh allocation per query.
        packed_bytes = report.out_bytes
        window = self.memory.region(
            ("ephemeral", bound.table.schema.name, bound.referenced_columns),
            packed_bytes,
        )
        mem = self.memory.sequential(packed_bytes, base_addr=window)
        cpu_cycles = self._consume_cpu(
            bound, emitted, qualifying, residual_ops, pushed
        )

        # The packed stream is prefetch-covered and overlaps the kernel;
        # the fabric's production pipeline overlaps the whole consume side.
        # (The fabric engine itself is a single shared unit: its produce
        # rate does not scale with CPU threads.)
        with self._span(
            "consume", mode=self.consumption, rows_in=emitted
        ) as cspan:
            consume = self._charge_scan(ledger, mem, cpu=cpu_cycles)
            cspan.set_attrs(mode=self.last_consumption)
        exposed_fabric = max(0.0, report.produce_cycles - consume)

        with self._span("fabric.produce", layer="fabric"):
            ledger.charge(CostLedger.FABRIC, exposed_fabric)
            ledger.charge(CostLedger.STALL, report.refill_stall_cycles)
        with self._span("fabric.configure", layer="fabric"):
            ledger.charge(CostLedger.CONFIGURE, report.configure_cycles)
        ledger.charge_traffic(report.dram_bytes_touched)

    def _consume_cpu(
        self,
        bound: BoundQuery,
        emitted: int,
        qualifying: int,
        residual_ops: int,
        pushed: bool,
    ) -> float:
        if self.consumption == "auto":
            # The hybrid engine of §III-B: run whichever consumption style
            # the cost model says is cheaper for this query.
            scalar = self._consume_cpu_mode(
                "scalar", bound, emitted, qualifying, residual_ops, pushed
            )
            vector = self._consume_cpu_mode(
                "vector", bound, emitted, qualifying, residual_ops, pushed
            )
            self.last_consumption = "scalar" if scalar <= vector else "vector"
            return min(scalar, vector)
        self.last_consumption = self.consumption
        return self._consume_cpu_mode(
            self.consumption, bound, emitted, qualifying, residual_ops, pushed
        )

    #: Consumption style picked by the most recent query ("auto" mode).
    last_consumption: str = "scalar"

    def _consume_cpu_mode(
        self,
        mode: str,
        bound: BoundQuery,
        emitted: int,
        qualifying: int,
        residual_ops: int,
        pushed: bool,
    ) -> float:
        cpu = self.cpu
        cfg = self.platform.cpu
        n_sel = len(bound.selection_columns)
        n_proj_only = len(bound.projection_only_columns)
        if mode == "scalar":
            cycles = emitted * cfg.ephemeral_tuple_cycles
            cycles += emitted * n_sel * cfg.packed_field_cycles
            cycles += qualifying * n_proj_only * cfg.packed_field_cycles
            if residual_ops:
                sel = qualifying / emitted if emitted else 0.0
                cycles += cpu.predicates(emitted * residual_ops)
                cycles += cpu.branch_misses(emitted, sel)
            cycles += qualifying * bound.output_op_count * cfg.scalar_op_cycles
            return cycles
        # Vectorized consumption over the packed stream: no per-tuple
        # interpretation, no reconstruction (values arrive side by side),
        # intermediates as in the column engine.
        cycles = cpu.vector_ops(emitted * residual_ops)
        cycles += cpu.vector_ops(qualifying * bound.output_op_count)
        n_conjuncts = len(bound.where_conjuncts) if not pushed else 1
        if residual_ops:
            cycles += cpu.intermediates(emitted * n_conjuncts)
        if bound.output_op_count > 1:
            cycles += cpu.intermediates(qualifying * (bound.output_op_count - 1))
        return cycles

