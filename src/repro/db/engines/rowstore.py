"""The row-store baseline: Volcano-style tuple-at-a-time processing.

This is the paper's ROW comparator (Section V: "an in-memory row-store
following the volcano-style processing model (tuple-at-a-time)"). Every
row streams through the cache hierarchy in full — the legacy fetch path
of Figure 1 — and each tuple pays the interpreted ``next()`` chain.

The full-row stream is prefetch-covered, so it overlaps with the
interpretation work: the scan stage costs ``max(stream, cpu)``. For wide
rows and narrow queries the stream dominates (data movement bound); for
compute-heavy queries (TPC-H Q1) the interpreter dominates and all
engines converge — both regimes the paper discusses.

With ``use_indexes=True`` the engine also executes the index role the
paper leaves to B+-trees (§III-A: "indexes will mostly be useful for
workloads with point queries and updates"): an equality conjunct on an
indexed column probes the tree and fetches only the matching rows.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.ledger import CostLedger
from repro.core.selection import CompareOp
from repro.db.engines.base import Candidates, Engine
from repro.db.expr import column_vs_literal
from repro.db.plan.binder import BoundQuery


class RowStoreEngine(Engine):
    """Tuple-at-a-time scans over the row-major base image."""

    name = "row"

    def __init__(self, catalog, platform=None, use_indexes: bool = False, **kw):
        super().__init__(catalog, platform, **kw)
        self.use_indexes = use_indexes
        #: Queries answered through an index probe instead of a scan.
        self.index_answered = 0
        self._last_access_path = "scan"

    @property
    def access_path(self) -> str:
        return self._last_access_path

    # ------------------------------------------------------------------
    # Index probe path (§III-A point queries).
    # ------------------------------------------------------------------
    def _indexed_equality(self, bound: BoundQuery):
        """Return ``(index, column, constant, conjunct)`` for the first
        equality conjunct over an indexed column, or None (always None
        without ``use_indexes``)."""
        if not self.use_indexes:
            return None
        table_name = bound.table.schema.name
        for conj in bound.where_conjuncts:
            term = column_vs_literal(conj)
            if term is None or term[1] is not CompareOp.EQ:
                continue
            col, _, key = term
            index = self.catalog.index_on(table_name, col)
            if index is not None:
                return index, col, key, conj
        return None

    def _charge_index_probe(
        self, bound: BoundQuery, index, matches: int, ledger: CostLedger
    ) -> None:
        """Price descending ``index`` and fetching ``matches`` rows."""
        table = bound.table
        cpu = self.cpu
        # Tree descent: one random access per level, plus the leaf walk.
        levels = max(1, getattr(index, "height", 1))
        ledger.charge(
            CostLedger.MEMORY,
            self.memory.random(levels, table.nrows * 16).total,
        )
        ledger.charge(CostLedger.CPU, cpu.function_calls(levels * 8))
        # Fetch the full row of every match (point reads).
        fetch = self.memory.random(
            max(1, matches), table.nrows * table.schema.row_stride
        )
        ledger.charge(CostLedger.MEMORY, fetch.total)
        ledger.charge_traffic(matches * 64)
        ledger.charge(CostLedger.CPU, cpu.volcano_tuples(matches))
        # Residual predicate evaluation on the fetched tuples only.
        ledger.charge(
            CostLedger.CPU, cpu.predicates(matches * bound.where_op_count)
        )

    def _candidates(self, bound: BoundQuery, snapshot_ts: Optional[int]) -> Candidates:
        probe = self._indexed_equality(bound)
        if probe is None:
            self._last_access_path = "scan"
            rows, visible = self._visible_rows(bound, snapshot_ts)
        else:
            index, _, key, _ = probe
            rows = np.asarray(sorted(index.search(key)), dtype=np.int64)
            vis = self._visibility(bound, snapshot_ts)
            if vis is not None and len(rows):
                rows = rows[vis[rows]]
            visible = len(rows)
            self._last_access_path = "index-probe"
            self.index_answered += 1
        mvcc = snapshot_ts is not None and bound.table.schema.mvcc
        return (
            rows, visible, bound.table.read,
            lambda qualifying, ledger: self._charge_access(
                bound, visible, qualifying, mvcc, ledger
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
        probe = self._indexed_equality(bound)
        if probe is not None:
            self._charge_index_probe(bound, probe[0], visible, ledger)
        else:
            self._charge_row_scan(bound, visible, qualifying, mvcc, ledger)

    def _charge_row_scan(
        self,
        bound: BoundQuery,
        visible: int,
        qualifying: int,
        mvcc: bool,
        ledger: CostLedger,
    ) -> None:
        """Price a Volcano scan of every slot (``mvcc``: with the CPU
        visibility check) in which ``visible`` rows reach the WHERE clause
        and ``qualifying`` rows pass it."""
        table = bound.table
        n_slots = table.nrows
        cpu = self.cpu

        # Memory: the full row image streams through the caches — the
        # projectivity of the query does not reduce traffic one byte. The
        # image lives at a stable region so repeated scans in trace mode
        # revisit the same lines (warm caches) instead of fresh ones.
        nbytes = n_slots * table.schema.row_stride
        base = self.memory.region(("rows", table.schema.name), nbytes)
        mem = self.memory.sequential(nbytes, base_addr=base)
        ledger.charge_traffic(nbytes)

        # CPU: the Volcano interpretation loop over every slot.
        cpu_cycles = cpu.volcano_tuples(n_slots)
        if mvcc:
            # Timestamp visibility is evaluated on the CPU: two extracted
            # fields and two comparisons per slot.
            cpu_cycles += cpu.field_extracts(2 * n_slots)
            cpu_cycles += cpu.predicates(2 * n_slots)

        # Selection: extract the predicate's fields and evaluate it for
        # every visible tuple; one data-dependent branch per tuple.
        n_sel = len(bound.selection_columns)
        if bound.where is not None:
            sel = qualifying / visible if visible else 0.0
            cpu_cycles += cpu.field_extracts(visible * n_sel)
            cpu_cycles += cpu.predicates(visible * bound.where_op_count)
            cpu_cycles += cpu.branch_misses(visible, sel)

        # Projection arithmetic only runs for qualifying tuples.
        cpu_cycles += cpu.field_extracts(
            qualifying * len(bound.projection_only_columns)
        )
        cpu_cycles += (
            qualifying * bound.output_op_count * self.platform.cpu.scalar_op_cycles
        )

        # The covered stream overlaps with interpretation; exposed latency
        # (none for a pure row scan) would not.
        self._charge_scan(ledger, mem, cpu=cpu_cycles)
