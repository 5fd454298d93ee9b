"""The column-store baseline: column-at-a-time over a materialized copy.

This is the paper's COL comparator (Section V: "an in-memory column-store
following the column-at-at-time processing model"). It keeps a **second
copy** of the data in columnar layout — exactly the duplication the
fabric removes — so it also carries the HTAP burdens the paper lists:
conversion cost on every sync and staleness between syncs.

Execution model (MonetDB-style column-at-a-time with late
materialization):

* the first predicate streams its column(s) sequentially and materializes
  a candidate list;
* every further predicate *gathers* candidate positions from its column —
  irregular accesses the prefetcher cannot cover (exposed latency), the
  price of late materialization;
* projection columns are likewise gathered when a selection exists;
* each operator materializes its intermediate (full vectors);
* concurrent column streams beyond the prefetcher's capacity degrade to
  demand misses — the Figure 5 crossover mechanism.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.ledger import CostLedger
from repro.db.engines.base import Candidates, Engine
from repro.db.catalog import Catalog
from repro.db.plan.binder import BoundQuery
from repro.db.table import Table
from repro.errors import ExecutionError
from repro.hw.analytic import MemCost, ZERO_COST
from repro.hw.config import PlatformConfig


class ColumnarReplica:
    """The columnar copy of one table, with staleness tracking."""

    def __init__(self, table: Table):
        self.table = table
        self._columns: Dict[str, np.ndarray] = {}
        self._synced_version: int = -1
        self.synced_rows: int = 0
        self.sync_count: int = 0

    @property
    def is_stale(self) -> bool:
        return self._synced_version != self.table.version

    @property
    def stale_rows(self) -> int:
        """Rows ingested since the last sync — invisible to analytics
        until the next conversion (the data-freshness gap)."""
        return self.table.nrows - self.synced_rows

    def sync(self) -> None:
        """Rebuild the columnar copy from the row image."""
        table = self.table
        # column_values returns arrays the replica owns: no frame aliasing.
        self._columns = {
            c.name: table.column_values(c.name) for c in table.schema.columns
        }
        self._synced_version = table.version
        self.synced_rows = table.nrows
        self.sync_count += 1

    def column(self, name: str) -> np.ndarray:
        if self.is_stale:
            raise ExecutionError(
                f"columnar replica of {self.table.schema.name!r} is stale; "
                "sync() first (the engine does this automatically)"
            )
        return self._columns[name]

    def conversion_cost_cycles(self, engine: "ColumnStoreEngine") -> float:
        """Simulated cost of one full layout conversion: read the row
        image, write every column array."""
        table = self.table
        nbytes = table.nrows * table.schema.row_stride
        read = engine.memory.sequential(nbytes)
        write = engine.memory.sequential(nbytes, write=True)
        n_values = table.nrows * len(table.schema.columns)
        return read.total + write.total + engine.cpu.vector_ops(n_values)


class ColumnStoreEngine(Engine):
    """Column-at-a-time scans over per-table columnar replicas."""

    name = "column"
    #: One stream per referenced column: fragments key on the stream set
    #: (types in positional order), not row offsets.
    fragment_layout = "column"

    def __init__(self, catalog: Catalog, platform: Optional[PlatformConfig] = None, **kw):
        super().__init__(catalog, platform, **kw)
        self._replicas: Dict[str, ColumnarReplica] = {}
        #: Cycles spent converting layouts (outside queries) — the HTAP
        #: bookkeeping cost the fabric eliminates. Conversion work still
        #: advances the metrics clock: it is simulated time the system
        #: spends, even though no query ledger carries it.
        self.conversion_ledger = CostLedger(metrics=self.metrics)

    @property
    def access_path(self) -> str:
        return "column-scan"

    def replica_of(self, table: Table) -> ColumnarReplica:
        name = table.schema.name
        if name not in self._replicas:
            self._replicas[name] = ColumnarReplica(table)
        return self._replicas[name]

    def _synced_replica(self, table: Table) -> ColumnarReplica:
        replica = self.replica_of(table)
        if replica.is_stale:
            # Conversion is HTAP bookkeeping, priced on its own ledger —
            # the span carries its extent on the timeline but no query
            # charges (the query ledger never included conversion).
            with self._span(
                "replica.sync",
                table=table.schema.name,
                rows_in=table.nrows,
                stale_rows=replica.stale_rows,
                layer="replica",
            ) as span:
                cost = replica.conversion_cost_cycles(self)
                self.conversion_ledger.charge("layout_conversion", cost)
                replica.sync()
                span.set_duration(cost)
        return replica

    def _candidates(self, bound: BoundQuery, snapshot_ts: Optional[int]) -> Candidates:
        replica = self._synced_replica(bound.table)
        vis, visible = self._visible_rows(bound, snapshot_ts)
        return (
            vis, visible,
            lambda names, rows: {
                n: replica.column(n) if rows is None else replica.column(n)[rows]
                for n in names
            },
            lambda qualifying, ledger: self._charge_access(
                bound, visible, qualifying, vis is not None, ledger
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
        """Price column streams over every slot (``mvcc``: plus the two
        timestamp streams) in which ``visible`` rows reach the WHERE
        clause and ``qualifying`` rows pass it."""
        table = bound.table
        cpu = self.cpu
        n_slots = table.nrows
        width_of = {
            c: table.schema.column(c).dtype.width for c in bound.referenced_columns
        }

        cpu_cycles = 0.0
        mem = ZERO_COST
        # Lockstep column streams, keyed so each column keeps a stable
        # address region across queries (trace mode then sees warm cache
        # state on repeated scans instead of fresh allocations).
        tname = table.schema.name
        full_streams: List[int] = []
        stream_keys: List[tuple] = []

        def add_stream(column: str, size: int) -> None:
            full_streams.append(size)
            stream_keys.append(("col", tname, column))

        if mvcc:
            # Visibility: two timestamp column streams, a vectorized
            # compare pair, one mask intermediate.
            add_stream("__begin_ts", n_slots * 8)
            add_stream("__end_ts", n_slots * 8)
            cpu_cycles += cpu.vector_ops(2 * n_slots)
            cpu_cycles += cpu.intermediates(n_slots)
            mem = mem + self.memory.sequential(
                n_slots,
                base_addr=self.memory.region(("mask", tname), n_slots),
                write=True,
            )

        # Per-row consumption loop over the lockstep column streams (the
        # paper's COL kernel: values of k separate arrays stitched back
        # into tuples row by row).
        reconstruct_cycles = 0.0
        cpu_cycles += cpu.vector_ops(2 * visible)  # loop control per row

        proj_only = bound.projection_only_columns
        if bound.where is not None:
            sel = qualifying / visible if visible else 0.0
            for c in bound.selection_columns:
                add_stream(c, n_slots * width_of[c])
            reconstruct_cycles += cpu.reconstructions(
                visible * len(bound.selection_columns)
            )
            cpu_cycles += cpu.predicates(visible * bound.where_op_count)
            cpu_cycles += cpu.branch_misses(visible, sel)
            # Projection columns are touched lazily, only on qualifying
            # rows: dense survivors behave like one more concurrent stream
            # (and count against the prefetcher's capacity), sparse ones
            # pay demand latency per touched line.
            density = qualifying / visible if visible else 0.0
            for c in proj_only:
                w = width_of[c]
                per_line = max(1, 64 // w)
                occupancy = 1.0 - (1.0 - density) ** per_line
                if occupancy >= 0.5:
                    add_stream(c, int(occupancy * n_slots * w))
                else:
                    mem = mem + self.memory.gather(qualifying, n_slots, w)
            reconstruct_cycles += cpu.reconstructions(qualifying * len(proj_only))
        else:
            for c in proj_only:
                add_stream(c, n_slots * width_of[c])
            reconstruct_cycles += cpu.reconstructions(visible * len(proj_only))

        cpu_cycles += (
            qualifying * bound.output_op_count * self.platform.cpu.scalar_op_cycles
        )

        # A stream over a prefix of a column (lazy projection) reuses the
        # column's region: `region` keeps one base per key and only grows.
        full_bytes = {c: n_slots * width_of[c] for c in width_of}
        base_addrs = [
            self.memory.region(k, full_bytes.get(k[2], s))
            for k, s in zip(stream_keys, full_streams)
        ]
        mem = mem + self.memory.multi_stream(full_streams, base_addrs=base_addrs)
        ledger.charge_traffic(sum(full_streams))

        # Covered streams overlap with the per-row work (including the
        # stitching); exposed latency does not.
        self._charge_scan(
            ledger, mem, cpu=cpu_cycles, tuple_reconstruction=reconstruct_cycles
        )
