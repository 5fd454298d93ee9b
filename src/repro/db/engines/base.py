"""Engine framework: one shared data half + per-engine cost recipes.

Every engine answers queries through the same vectorized evaluator, the
fused kernels of :mod:`repro.db.exec.vector` (so results are identical by
construction; the SQL oracle is the tests' and the fuzzer's referee), but
*accounts cycles* according to its execution model:

* :class:`~repro.db.engines.rowstore.RowStoreEngine` — Volcano
  tuple-at-a-time over the row image (full rows stream through caches);
* :class:`~repro.db.engines.colstore.ColumnStoreEngine` —
  column-at-a-time over a materialized columnar replica (one stream per
  column, intermediates, tuple reconstruction);
* :class:`~repro.db.engines.rmstore.RelationalMemoryEngine` — a scalar
  kernel over an ephemeral column group packed by the fabric, or, for a
  single aggregate the fabric can reduce, its ``fabric-aggregate`` path.

Each engine's access path has two halves. The data half
(:meth:`Engine._fetch`) is shared: it reads the WHERE clause's columns
at the candidate rows, evaluates the clause once, and copies the other
referenced columns at the qualifying rows only, so the answer path gets
filtered columns and no mask. An engine supplies just what differs
(:meth:`Engine._candidates`): where the candidate rows come from (MVCC
visibility, an index probe, the fabric's emitted rows), how a column set
is read at a row set (:meth:`~repro.db.table.Table.read` of the row
image, or the columnar replica), and its pricing call. The pricing half
(``_charge_access`` and the per-path ``_charge_*`` methods) charges the
ledger from row counts alone. Common post-scan work (joins, grouping,
sorting) is charged identically here, because those costs do not depend
on the access path (a fabric aggregate leaves none to the CPU).
:meth:`Engine.price` runs the two pricing parts on given counts: the
optimizer estimates with it, so it prices every path with the recipe
the engine executes.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.core.ledger import CostLedger
from repro.db.catalog import Catalog
from repro.db.plan.binder import BoundQuery, bind
from repro.db.plan.codecache import CodeFragmentCache
from repro.db.plan.logical import explain
from repro.db.exec.result import QueryResult
from repro.db.exec.vector import apply_where, run_vector
from repro.db.sql.parser import parse
from repro.errors import ExecutionError
from repro.hw.analytic import AnalyticMemoryModel, MemoryModel, TraceMemoryModel
from repro.hw.config import PlatformConfig, default_platform
from repro.hw.cpu import CpuCostModel
from repro.obs import (
    MetricsRegistry,
    Span,
    Trace,
    Tracer,
    maybe_span,
)


@dataclass
class ExecutionResult:
    """A query answer plus the full simulated cost picture."""

    engine: str
    result: QueryResult
    ledger: CostLedger
    plan: str
    #: Rows visible to the query (post-MVCC), rows qualifying the WHERE.
    visible_rows: int = 0
    qualifying_rows: int = 0
    #: True when the engine's native access path faulted and the answer
    #: was produced by the software fallback (rowstore scan) instead.
    degraded: bool = False
    #: Hierarchical cost attribution (present when the engine carries a
    #: :class:`repro.obs.Tracer`). ``trace.to_ledger()`` folds
    #: back to ``ledger`` bit-identically.
    trace: Optional[Trace] = None
    #: The engine's :class:`repro.obs.MetricsRegistry` (None when metrics
    #: are off): export ``metrics.to_prometheus()`` after the run, or
    #: read the sampled time series from ``metrics.sampler.series``.
    metrics: Optional[MetricsRegistry] = None

    @property
    def cycles(self) -> float:
        return self.ledger.total_cycles

    def seconds(self, cpu: CpuCostModel) -> float:
        return cpu.seconds(self.cycles)


#: An engine's access path as the shared data half uses it; see
#: :meth:`Engine._candidates`.
Candidates = Tuple[
    Optional[np.ndarray], int, Callable[..., Dict[str, np.ndarray]],
    Callable[[int, CostLedger], None],
]


class Engine(ABC):
    """Base engine: parse/bind, fetch columns, charge costs, evaluate."""

    name: str = "abstract"
    #: Physical layout the code cache keys fragments by; engines with a
    #: different delivery path (column streams, fabric lines) override.
    fragment_layout: str = "row"

    def __init__(
        self,
        catalog: Catalog,
        platform: Optional[PlatformConfig] = None,
        memory_model: str = "analytic",
        threads: int = 1,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        codecache: Optional["CodeFragmentCache"] = None,
    ):
        self.catalog = catalog
        self.platform = platform or default_platform()
        self.cpu = CpuCostModel(self.platform.cpu)
        if threads < 1:
            raise ExecutionError(f"threads must be >= 1, got {threads}")
        #: Intra-query parallelism (the testbed has four cores). Compute
        #: and exposed-latency work scale with threads; prefetch-covered
        #: streaming saturates the DDR channel at
        #: ``dram.bandwidth_saturation_cores``.
        self.threads = threads
        if memory_model == "analytic":
            self.memory: MemoryModel = AnalyticMemoryModel(self.platform)
        elif memory_model == "trace":
            self.memory = TraceMemoryModel(self.platform)
        else:
            raise ExecutionError(f"unknown memory model {memory_model!r}")
        #: Optional :class:`repro.db.plan.codecache.CodeFragmentCache`.
        #: When attached, a query shape whose fragment signature is
        #: resident pays no compilation; misses charge ``PLAN_COMPILE``
        #: cycles.
        self.codecache = codecache
        #: Observability hook: when set, every execute() builds a span
        #: tree and returns it as ``ExecutionResult.trace``.
        self.tracer = tracer
        #: Metrics hook: query ledgers drive this registry's simulated
        #: clock, and the engine registers its PMU-style collectors on
        #: it (the shared None fast path when metrics are off).
        self.metrics = metrics
        if self.metrics is not None:
            self._register_metrics()

    def _register_metrics(self) -> None:
        """Create this engine's instruments and collectors (metrics on)."""
        from repro.obs.collectors import register_hierarchy
        from repro.obs.metrics import fmt_name

        reg = self.metrics
        self._m_queries = reg.counter(
            fmt_name("engine_queries", engine=self.name),
            help="Queries executed by this engine",
        )
        self._m_rows_scanned = reg.counter(
            fmt_name("engine_rows_scanned", engine=self.name),
            help="Rows visible to (and scanned by) the access path",
        )
        self._m_rows_filtered = reg.counter(
            fmt_name("engine_rows_filtered", engine=self.name),
            help="Scanned rows eliminated by the WHERE clause",
        )
        if isinstance(self.memory, TraceMemoryModel):
            register_hierarchy(reg, self.memory.hierarchy, engine=self.name)
        if self.codecache is not None:
            from repro.obs.collectors import register_codecache

            register_codecache(reg, self.codecache, engine=self.name)

    # ------------------------------------------------------------------
    # Observability plumbing.
    # ------------------------------------------------------------------
    def _span(self, name: str, probe=None, **attrs):
        """A span under this engine's tracer (the shared no-op when
        tracing is off — the only cost then is this predicate)."""
        return maybe_span(self.tracer, name, probe=probe, **attrs)

    def _hw_probe(self):
        """Hardware-counter probe for spans: cache/DRAM deltas in trace
        mode, nothing in analytic mode (it has no event counters)."""
        if isinstance(self.memory, TraceMemoryModel):
            return self.memory.hierarchy.counters
        return None

    # ------------------------------------------------------------------
    # Parallel scan charging, shared by every engine's access path.
    # ------------------------------------------------------------------
    def _charge_scan(self, ledger: CostLedger, mem, **cpu_buckets: float) -> float:
        """Charge one scan stage: named CPU components plus a MemCost.

        Per-thread: CPU work and exposed misses divide by ``threads``
        (independent across cores); covered streaming divides only until
        the channel saturates. The covered stream overlaps with compute:
        the stage costs ``max(covered, cpu) + exposed``. Returns the
        stage's total cycles.
        """
        n = self.threads
        sat = min(n, self.platform.dram.bandwidth_saturation_cores)
        cpu_total = 0.0
        for bucket, cycles in cpu_buckets.items():
            scaled = cycles / n
            ledger.charge(bucket, scaled)
            cpu_total += scaled
        covered = mem.covered / sat
        exposed = mem.exposed / n
        mem_charge = exposed + max(0.0, covered - cpu_total)
        ledger.charge(CostLedger.MEMORY, mem_charge)
        return cpu_total + mem_charge

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------
    def execute(
        self,
        query: Union[str, BoundQuery],
        snapshot_ts: Optional[int] = None,
    ) -> ExecutionResult:
        """Run one query and return its answer and cost ledger.

        ``snapshot_ts`` enables MVCC visibility on every table of the
        query that carries timestamp columns, the joined ones included;
        it is ignored (with all rows visible) on plain tables.
        """
        bound = self.bind(query) if isinstance(query, str) else query
        ledger = CostLedger(tracer=self.tracer, metrics=self.metrics)
        with self._span(
            "query",
            engine=self.name,
            table=bound.table.schema.name,
            layer="engine",
        ) as root:
            self._charge_compile(bound, ledger)
            with self._span(
                "scan",
                probe=self._hw_probe(),
                table=bound.table.schema.name,
                mode=self.access_path,
            ) as scan:
                columns, visible, qualifying = self._fetch(
                    bound, snapshot_ts, ledger
                )
                scan.set_attrs(
                    rows_in=bound.table.nrows,
                    rows_out=qualifying,
                    mode=self.access_path,
                )
            if self.metrics is not None:
                self._m_queries.inc()
                self._m_rows_scanned.inc(visible)
                self._m_rows_filtered.inc(visible - qualifying)
            self._charge_post_scan(bound, visible, qualifying, ledger)
            # The answer path (repro.db.exec) is shared and uncosted —
            # its cycles were charged per-operator above — but it still
            # appears in the trace so the tree shows where answers form.
            with self._span("answer", layer="exec") as ans:
                result = run_vector(
                    bound, columns, mask=None, snapshot_ts=snapshot_ts
                )
                ans.set_attrs(rows_out=result.nrows)
            root.set_attrs(
                rows_out=result.nrows,
                visible_rows=visible,
                qualifying_rows=qualifying,
            )
        return ExecutionResult(
            engine=self.name,
            result=result,
            ledger=ledger,
            plan=explain(bound, access_path=self.access_path),
            visible_rows=visible,
            qualifying_rows=qualifying,
            trace=Trace(root) if isinstance(root, Span) else None,
            metrics=self.metrics,
        )

    def bind(self, sql: str) -> BoundQuery:
        """Parse + bind ``sql`` against this engine's catalog.

        Both steps go through the process-wide shape memo
        (:mod:`repro.db.sql.shapes`): a statement whose shape was seen
        before skips parsing and binding, with or without a code cache.
        (Fragments themselves are keyed by the binding signature —
        structure + layout, literals blanked — which is what lets the
        fabric share compiled code across literal values and, under the
        ephemeral layout, across column subsets.)
        """
        return bind(parse(sql), self.catalog)

    def _charge_compile(self, bound: BoundQuery, ledger: CostLedger) -> None:
        """Code-cache lookup: a miss charges ``PLAN_COMPILE`` cycles for
        compiling this shape's fragment, a hit charges nothing. Without a
        cache (the default) there is no lookup and no charge — default
        cycle totals are untouched."""
        if self.codecache is None:
            return
        with self._span("plan", layer="plan", layout=self.fragment_layout) as span:
            hit, cycles = self.codecache.lookup(bound, self.fragment_layout)
            if cycles:
                ledger.charge(CostLedger.PLAN_COMPILE, cycles)
            span.set_attrs(hit=hit, compile_cycles=cycles)

    def price(
        self, bound: BoundQuery, visible: int, qualifying: int, mvcc: bool
    ) -> CostLedger:
        """The ledger :meth:`execute` charges ``bound`` when the access
        path delivers ``visible`` rows (after MVCC visibility, fabric
        pushdown or an index probe) and ``qualifying`` of them pass the
        WHERE clause; ``mvcc``: an MVCC table read at a snapshot. Reads
        no data: at an execution's ``visible_rows``/``qualifying_rows``
        it equals that execution's ledger."""
        ledger = CostLedger()
        self._charge_access(bound, visible, qualifying, mvcc, ledger)
        self._charge_post_scan(bound, visible, qualifying, ledger)
        return ledger

    @property
    def access_path(self) -> str:
        return "scan"

    # ------------------------------------------------------------------
    # The data half, shared by every engine.
    # ------------------------------------------------------------------
    def _fetch(
        self,
        bound: BoundQuery,
        snapshot_ts: Optional[int],
        ledger: CostLedger,
    ) -> Tuple[Dict[str, np.ndarray], int, int]:
        """Deliver the referenced base columns at the qualifying rows,
        charging the access-path costs. Returns ``(columns,
        visible_row_count, qualifying_row_count)``.

        The WHERE clause is evaluated over its own columns at the
        candidate rows; the remaining columns are then read at the rows
        that passed, in one pass.
        """
        rows, visible, read, charge = self._candidates(bound, snapshot_ts)
        first = bound.where_main_columns
        columns = read(first, rows) if first else {}
        mask = apply_where(bound, columns, visible)
        qualifying = visible if mask is None else int(np.count_nonzero(mask))
        if qualifying < visible:
            columns = {name: values[mask] for name, values in columns.items()}
            rows = _narrow(rows, mask)
        with self._span("filter", rows_in=visible, rows_out=qualifying) as span:
            if bound.where is not None:
                span.set_attrs(
                    selectivity=(qualifying / visible if visible else 0.0)
                )
        rest = [name for name in bound.referenced_columns if name not in columns]
        if rest:
            columns.update(read(rest, rows))
        charge(qualifying, ledger)
        return {n: columns[n] for n in bound.referenced_columns}, visible, qualifying

    # ------------------------------------------------------------------
    # Engine-specific access path.
    # ------------------------------------------------------------------
    @abstractmethod
    def _candidates(self, bound: BoundQuery, snapshot_ts: Optional[int]) -> Candidates:
        """``(rows, visible, read, charge)`` for ``bound``'s table: the
        candidate rows (None: every row; a boolean mask over the rows; or
        ascending row positions) and their count, ``read(names, rows)``
        returning query-facing columns at a row set of those forms, and
        ``charge(qualifying, ledger)``, the engine's pricing call."""

    @abstractmethod
    def _charge_access(
        self,
        bound: BoundQuery,
        visible: int,
        qualifying: int,
        mvcc: bool,
        ledger: CostLedger,
    ) -> None:
        """The pricing half of the access path (see :meth:`price`)."""

    # ------------------------------------------------------------------
    # Shared helpers.
    # ------------------------------------------------------------------
    def _visibility(
        self, bound: BoundQuery, snapshot_ts: Optional[int]
    ) -> Optional[np.ndarray]:
        table = bound.table
        if snapshot_ts is None or not table.schema.mvcc:
            return None
        return table.visible_mask(snapshot_ts)

    def _visible_rows(
        self, bound: BoundQuery, snapshot_ts: Optional[int]
    ) -> Tuple[Optional[np.ndarray], int]:
        """A scan's candidate rows: the MVCC visibility mask (None: every
        row) and its row count, recorded as the ``visibility`` span."""
        table = bound.table
        vis = self._visibility(bound, snapshot_ts)
        visible = table.nrows if vis is None else int(np.count_nonzero(vis))
        with self._span("visibility", rows_in=table.nrows, rows_out=visible):
            pass
        return vis, visible

    def _charge_post_scan(
        self, bound: BoundQuery, visible: int, qualifying: int, ledger: CostLedger
    ) -> None:
        """Join/group/sort costs, identical across access paths.

        These parallelize across threads (partitioned hash tables, local
        accumulators merged at the end).
        """
        cpu = self.cpu
        n = self.threads
        for join in bound.joins:
            # Left-deep chain: each step builds on its right table and
            # probes with the qualifying rows (intermediate fan-out is
            # not modeled — probes per step stay the scan's output).
            build_n = join.table.nrows
            with self._span(
                "join", rows_in=qualifying, build_rows=build_n
            ):
                ledger.charge(
                    CostLedger.CPU, cpu.hash_probes(build_n + qualifying) / n
                )
                probe = self.memory.random(
                    qualifying, build_n * 16  # key + payload pointer per entry
                )
                ledger.charge(CostLedger.MEMORY, probe.total / n)
        if bound.group_by or bound.has_aggregates:
            with self._span(
                "aggregate",
                rows_in=qualifying,
                aggregates=bound.aggregate_count,
            ):
                ledger.charge(CostLedger.CPU, cpu.hash_probes(qualifying) / n)
                ledger.charge(
                    CostLedger.CPU,
                    cpu.aggregate_updates(qualifying * bound.aggregate_count) / n,
                )
        n_out = qualifying if not (bound.group_by or bound.has_aggregates) else 0
        if bound.distinct and n_out > 0:
            with self._span("distinct", rows_in=n_out):
                ledger.charge(CostLedger.CPU, cpu.hash_probes(n_out) / n)
        if bound.order_by and n_out > 1:
            with self._span(
                "sort", rows_in=n_out, keys=len(bound.order_by)
            ):
                comparisons = n_out * math.log2(n_out) * len(bound.order_by)
                ledger.charge(CostLedger.CPU, cpu.predicates(int(comparisons)) / n)


def _narrow(rows: Optional[np.ndarray], mask: np.ndarray) -> np.ndarray:
    """The candidate rows ``rows`` where ``mask`` is set, in their form."""
    if rows is None:
        return mask
    if rows.dtype != bool:
        return rows[mask]
    kept = rows.copy()
    kept[rows] = mask
    return kept
