"""Distributed query plans and the shard-local fragment executor.

The scatter-gather layer pushes *operators*, not rows, to the shards —
Farview-style offloading (PAPERS.md) over the fabric's ranged
column-group API: a :class:`DistPlan` names the key range, the
selections, and either a partial-aggregation shape or a projection, and
:func:`execute_fragment` evaluates it over one shard's base table. The
coordinator merges the resulting :class:`ShardPartial` objects with
:func:`merge_partials` in shard order.

**Bit-identity contract.** A plan's answer and its cost accounting must
not depend on how the relation is sharded:

* All arithmetic is integer: DECIMAL columns stay in their scaled-int
  raw form, aggregate values are products of affine integer terms
  (:class:`AggTerm`), and partial states merge with exact Python-int
  addition — associative and order-independent, unlike float sums.
* Every ledger charge is an integer number of cycles proportional only
  to *data* (rows scanned, terms evaluated, bytes shipped) — never to
  shard count, retries, or hedges — so the ``dist_*`` buckets sum to the
  same totals across 1-, 2-, and 8-shard runs (property-tested in
  ``tests/test_dist.py``).
* Merge order is shard order (key order), and grouped results are
  emitted in sorted group-key order, so :meth:`DistResult.to_bytes` is a
  canonical form: byte equality means the answers are identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ledger import CostLedger
from repro.core.packer import gather, record_view
from repro.core.selection import CompareOp, FabricFilter, FabricPredicate, select_rows
from repro.db.exec.vector import factorize
from repro.db.table import Table
from repro.errors import PlanError
from repro.obs import maybe_span

__all__ = [
    "AggTerm",
    "AggSpec",
    "DistPlan",
    "ShardPartial",
    "DistQueryStats",
    "DistResult",
    "execute_fragment",
    "merge_partials",
    "execute_plan",
]

#: Cycles charged per predicate term per candidate row (compare + mask).
FILTER_CYCLES_PER_TERM = 2
#: Cycles charged per affine term of an aggregate per qualifying row
#: (multiply + add), plus this flat accumulate cost per aggregate.
AGG_CYCLES_PER_TERM = 2
AGG_CYCLES_ACCUMULATE = 2
#: Cycles per group-by column per qualifying row (hash/code assignment).
GROUP_CYCLES_PER_KEY = 4
#: Coordinator merge: cycles per output cell (group key or aggregate).
MERGE_CYCLES_PER_CELL = 8
#: Coordinator merge: cycles per gathered output row.
MERGE_CYCLES_PER_ROW = 2
#: MVCC begin/end stamps read per row during the visibility scan.
MVCC_STAMP_BYTES = 16

_AGG_KINDS = ("sum", "count", "min", "max")


@dataclass(frozen=True)
class AggTerm:
    """One affine factor of an aggregate's per-row value:
    ``const + coeff * column``. TPC-H's ``(1 - l_discount)`` over a
    DECIMAL(2) column becomes ``AggTerm("l_discount", coeff=-1,
    const=100)`` — exact scaled-int arithmetic, no floats."""

    column: str
    coeff: int = 1
    const: int = 0


@dataclass(frozen=True)
class AggSpec:
    """One aggregate: ``kind`` over the product of ``terms``.

    ``count`` ignores its terms. The per-row value is the integer
    product of every term's affine value, so sums of DECIMAL products
    come back at the product of the operand scales (the caller rescales
    for display; the tests compare raw integers).
    """

    name: str
    kind: str
    terms: Tuple[AggTerm, ...] = ()

    def __post_init__(self):
        if self.kind not in _AGG_KINDS:
            raise PlanError(
                f"aggregate kind {self.kind!r} not in {_AGG_KINDS}"
            )
        if self.kind != "count" and not self.terms:
            raise PlanError(f"aggregate {self.name!r} ({self.kind}) needs terms")


@dataclass(frozen=True)
class DistPlan:
    """A scatter-gather query over one sharded relation.

    Exactly one output shape: ``aggregates`` (with optional
    ``group_by``) for partial aggregation, or ``columns`` for a
    projection gather. ``key_low``/``key_high`` bound the shard key
    inclusively (``None`` = open) and drive shard pruning via
    :meth:`~repro.db.sharding.ShardedTable.shards_for_range`.
    """

    table: str
    key_column: str
    key_low: Optional[int] = None
    key_high: Optional[int] = None
    predicates: Tuple[FabricPredicate, ...] = ()
    group_by: Tuple[str, ...] = ()
    aggregates: Tuple[AggSpec, ...] = ()
    columns: Tuple[str, ...] = ()

    def __post_init__(self):
        if bool(self.aggregates) == bool(self.columns):
            raise PlanError(
                "a DistPlan needs exactly one of aggregates=... (partial "
                "aggregation) or columns=... (projection gather)"
            )
        if self.group_by and not self.aggregates:
            raise PlanError("group_by requires aggregates")

    @property
    def fabric_filter(self) -> FabricFilter:
        """The plan's selection as one comparator conjunction: the key
        bounds, then the pushed-down predicates. Every shard evaluates
        both key bounds, so the filter charge does not depend on the
        sharding."""
        bounds = (CompareOp.GE, self.key_low), (CompareOp.LE, self.key_high)
        return FabricFilter(tuple(
            FabricPredicate(self.key_column, op, bound)
            for op, bound in bounds
            if bound is not None
        ) + self.predicates)


@dataclass
class ShardPartial:
    """One shard's contribution: partial state plus its cost buckets.

    Picklable — this is the worker→coordinator wire format. ``buckets``
    holds integer cycle counts the coordinator charges into the query
    ledger in shard order.
    """

    shard_index: int
    rows_scanned: int = 0
    rows_qualifying: int = 0
    buckets: Dict[str, int] = field(default_factory=dict)
    #: Aggregation mode: group-key tuple → one partial value per AggSpec.
    groups: Optional[Dict[Tuple, List[int]]] = None
    #: Gather mode: projected raw column arrays over qualifying rows.
    arrays: Optional[Dict[str, np.ndarray]] = None
    #: Replica LSN the fragment executed at (durable clusters).
    applied_lsn: int = 0
    #: Wire-encoded worker span tree (:func:`repro.obs.span_to_wire`),
    #: shipped back when the exec carried a TraceContext. Grafted by the
    #: coordinator under its awaiting ``dist.shard_exec`` span.
    spans: Optional[Dict] = None


@dataclass
class DistQueryStats:
    """Fault-handling telemetry for one scatter-gather query. Excluded
    from the bit-identity contract: hedges and timeouts are wall-clock
    phenomena."""

    shards_planned: int = 0
    shards_answered: int = 0
    attempts: int = 0
    timeouts: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    restarts: int = 0
    recoveries: int = 0
    stale_fences: int = 0


@dataclass
class DistResult:
    """A merged scatter-gather answer.

    ``groups`` (aggregation) is sorted by group key; ``arrays``
    (gather) concatenates shard outputs in shard order. ``degraded``
    marks a partial answer whose ``missing_ranges`` name the silent
    shard-key ranges (inclusive bounds, ``None`` = open end).
    """

    plan: DistPlan
    rows_scanned: int = 0
    rows_qualifying: int = 0
    groups: Optional[List[Tuple[Tuple, List[int]]]] = None
    arrays: Optional[Dict[str, np.ndarray]] = None
    ledger: CostLedger = field(default_factory=CostLedger)
    stats: DistQueryStats = field(default_factory=DistQueryStats)
    missing_ranges: Tuple[Tuple[Optional[int], Optional[int]], ...] = ()
    degraded: bool = False

    def to_bytes(self) -> bytes:
        """Canonical payload encoding: byte equality ⇔ identical answers.

        Covers the data payload and row counts — not the ledger (compare
        ``ledger.buckets`` directly) and not the wall-clock ``stats``.
        """
        parts: List[bytes] = [
            b"rows=%d/%d" % (self.rows_qualifying, self.rows_scanned)
        ]
        if self.groups is not None:
            for key, values in self.groups:
                parts.append(repr((key, values)).encode("utf-8"))
        if self.arrays is not None:
            for name in sorted(self.arrays):
                arr = self.arrays[name]
                parts.append(
                    b"%s:%s:" % (name.encode(), str(arr.dtype).encode())
                    + arr.tobytes()
                )
        if self.missing_ranges:
            parts.append(repr(self.missing_ranges).encode("utf-8"))
        return b"|".join(parts)


def execute_fragment(
    table: Table,
    plan: DistPlan,
    snapshot_ts: int = 0,
    shard_index: int = 0,
    tracer=None,
) -> ShardPartial:
    """Evaluate ``plan`` over one shard's base table.

    Pure function of ``(table contents, plan, snapshot_ts)`` — the same
    code runs inside shard workers and in the coordinator's serial
    reference path, which is what makes "byte-identical to serial"
    testable rather than aspirational.

    ``tracer`` is the *worker-local* tracer of a traced distributed
    statement: the fragment's stage spans (``frag.scan``/``frag.filter``/
    ``frag.agg``/``frag.project``) record the same integer bucket charges
    the coordinator will account through :func:`merge_partials`. The
    coordinator's own paths (:func:`execute_plan`,
    ``ShardCluster.run_serial``) must NOT pass their tracer here — the
    charges would then appear twice in a replayed trace.
    """
    schema = table.schema
    n = table.nrows
    partial = ShardPartial(shard_index=shard_index, rows_scanned=n)
    buckets = partial.buckets
    selection = plan.fabric_filter
    # Every column a stage after the filter reads, in first-use order.
    later = tuple(dict.fromkeys((
        *plan.group_by,
        *(t.column for a in plan.aggregates for t in a.terms),
        *plan.columns,
    )))

    with maybe_span(
        tracer, "frag.scan", layer="dist", table=schema.name, rows_in=n
    ):
        touched = dict.fromkeys((*selection.fields(), *later))
        # Every touched column is a zero-copy field of the row image in
        # stored form (scaled ints, day numbers, ``S<w>`` bytes); the only
        # copy is the masked one below, of the rows that qualify.
        fields = record_view(table.frame, schema.full_geometry())
        width = sum(schema.column(c).dtype.width for c in touched)
        if schema.mvcc:
            width += MVCC_STAMP_BYTES
        buckets[CostLedger.DIST_SCAN] = n * width
        if tracer is not None:
            tracer.record(CostLedger.DIST_SCAN, buckets[CostLedger.DIST_SCAN])

    with maybe_span(
        tracer, "frag.filter", layer="dist",
        rows_in=n, terms=len(selection),
    ) as fspan:
        mask = select_rows(fields, snapshot_ts if schema.mvcc else None, selection)
        buckets[CostLedger.DIST_FILTER] = n * FILTER_CYCLES_PER_TERM * len(selection)
        if tracer is not None:
            tracer.record(
                CostLedger.DIST_FILTER, buckets[CostLedger.DIST_FILTER]
            )
        qualifying = int(np.count_nonzero(mask))
        partial.rows_qualifying = qualifying
        fspan.set_attrs(rows_out=qualifying)
    # The qualifying rows of every column a later stage reads, copied in
    # one pass.
    selected = gather(fields, later, mask)

    if plan.aggregates:
        per_row = GROUP_CYCLES_PER_KEY * len(plan.group_by) + sum(
            AGG_CYCLES_PER_TERM * len(a.terms) + AGG_CYCLES_ACCUMULATE
            for a in plan.aggregates
        )
        buckets[CostLedger.DIST_AGG] = qualifying * per_row
        with maybe_span(
            tracer, "frag.agg", layer="dist",
            rows_in=qualifying,
            group_by=len(plan.group_by),
            aggregates=len(plan.aggregates),
        ):
            if tracer is not None:
                tracer.record(
                    CostLedger.DIST_AGG, buckets[CostLedger.DIST_AGG]
                )
        partial.groups = {}
        if qualifying:
            if plan.group_by:
                uniques, codes = factorize([selected[c] for c in plan.group_by])
                # Plain Python key tuples (bytes for CHAR, ints for
                # numerics): picklable and deterministically orderable.
                tuples = list(zip(*(u.tolist() for u in uniques)))
            else:
                tuples, codes = [()], np.zeros(qualifying, dtype=np.int64)
            ngroups = len(tuples)
            cols: List[np.ndarray] = []
            # Each distinct term is evaluated once, and an identity
            # coefficient or a zero constant costs no pass over the rows.
            factors: Dict[AggTerm, np.ndarray] = {}
            for agg in plan.aggregates:
                if agg.kind == "count":
                    cols.append(np.bincount(codes, minlength=ngroups))
                    continue
                vals = None
                for term in agg.terms:
                    col = schema.column(term.column)
                    if col.dtype.np_dtype is None:
                        raise PlanError(
                            f"aggregate {agg.name!r} references non-numeric "
                            f"column {term.column!r}"
                        )
                    factor = factors.get(term)
                    if factor is None:
                        factor = selected[term.column].astype(np.int64, copy=False)
                        if term.coeff != 1:
                            factor = term.coeff * factor
                        if term.const:
                            factor = term.const + factor
                        factors[term] = factor
                    vals = factor if vals is None else vals * factor
                if agg.kind == "sum":
                    acc = np.zeros(ngroups, dtype=np.int64)
                    np.add.at(acc, codes, vals)
                elif agg.kind == "min":
                    acc = np.full(ngroups, np.iinfo(np.int64).max)
                    np.minimum.at(acc, codes, vals)
                else:  # max
                    acc = np.full(ngroups, np.iinfo(np.int64).min)
                    np.maximum.at(acc, codes, vals)
                cols.append(acc)
            partial.groups = {
                tuples[g]: [int(c[g]) for c in cols] for g in range(ngroups)
            }
    else:
        out_bytes = sum(schema.column(c).dtype.width for c in plan.columns)
        buckets[CostLedger.DIST_AGG] = qualifying * out_bytes
        with maybe_span(
            tracer, "frag.project", layer="dist",
            rows_out=qualifying, columns=len(plan.columns),
        ):
            if tracer is not None:
                tracer.record(
                    CostLedger.DIST_AGG, buckets[CostLedger.DIST_AGG]
                )
        partial.arrays = {name: selected[name] for name in plan.columns}
    return partial


#: Bucket merge order at the coordinator — fixed so float accumulation
#: order is identical no matter which shard answered first.
_BUCKET_ORDER = (
    CostLedger.DIST_SCAN,
    CostLedger.DIST_FILTER,
    CostLedger.DIST_AGG,
)


def merge_partials(
    partials: Sequence[ShardPartial],
    plan: DistPlan,
    ledger: CostLedger,
) -> DistResult:
    """Merge shard partials (already in shard order) into one answer.

    Charges each partial's buckets into ``ledger`` in shard order, then
    the coordinator's own ``dist_gather`` merge cost. Aggregation
    partials combine with exact integer arithmetic; gather partials
    concatenate in shard order.
    """
    result = DistResult(plan=plan, ledger=ledger)
    for p in partials:
        result.rows_scanned += p.rows_scanned
        result.rows_qualifying += p.rows_qualifying
        for name in _BUCKET_ORDER:
            if name in p.buckets:
                ledger.charge(name, p.buckets[name])

    if plan.aggregates:
        acc: Dict[Tuple, List[Optional[int]]] = {}
        for p in partials:
            for key, values in (p.groups or {}).items():
                into = acc.get(key)
                if into is None:
                    acc[key] = list(values)
                    continue
                for j, agg in enumerate(plan.aggregates):
                    if agg.kind in ("sum", "count"):
                        into[j] += values[j]
                    elif agg.kind == "min":
                        into[j] = min(into[j], values[j])
                    else:
                        into[j] = max(into[j], values[j])
        result.groups = [(key, acc[key]) for key in sorted(acc)]
        cells = len(result.groups) * (len(plan.group_by) + len(plan.aggregates))
        ledger.charge(CostLedger.DIST_GATHER, MERGE_CYCLES_PER_CELL * cells)
    else:
        merged: Dict[str, np.ndarray] = {}
        for name in plan.columns:
            chunks = [p.arrays[name] for p in partials if p.arrays is not None]
            if chunks:
                merged[name] = np.concatenate(chunks)
            else:
                merged[name] = np.zeros(0, dtype=np.int64)
        result.arrays = merged
        ledger.charge(
            CostLedger.DIST_GATHER, MERGE_CYCLES_PER_ROW * result.rows_qualifying
        )
    return result


def execute_plan(
    table: Table,
    plan: DistPlan,
    snapshot_ts: int = 0,
    ledger: Optional[CostLedger] = None,
    tracer=None,
) -> DistResult:
    """The unsharded serial reference: one fragment, one merge.

    Because every fragment cost is data-proportional, this produces the
    same payload *and the same ledger buckets* as any sharded run over
    the same rows — the strongest form of "byte-identical to serial".
    """
    ledger = ledger if ledger is not None else CostLedger(tracer=tracer)
    with maybe_span(tracer, "dist.query", layer="dist", mode="serial"):
        partial = execute_fragment(table, plan, snapshot_ts, shard_index=0)
        result = merge_partials([partial], plan, ledger)
    result.stats.shards_planned = 1
    result.stats.shards_answered = 1
    return result
