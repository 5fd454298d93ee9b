"""A genuine Volcano (tuple-at-a-time) interpreter.

This is both the row engine's *execution model* (each tuple climbs an
iterator chain through ``next()`` calls — the per-tuple overhead the cost
model charges) and the independent **reference executor**: tests, the
SQL fuzzer and ``bench_vector`` run the same bound query through this
interpreter and through the vectorized evaluator and require identical
answers. No engine answers through it.

It is deliberately straightforward Python — clarity over speed — and is
only used on small inputs.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.db.expr import ColumnRef
from repro.db.plan.binder import BoundQuery
from repro.db.exec.result import QueryResult
from repro.errors import ExecutionError

Row = Dict[str, Any]


class VolcanoIterator:
    """Base iterator: ``open() / __iter__ / close()``."""

    def open(self) -> None:  # pragma: no cover - trivial
        pass

    def close(self) -> None:  # pragma: no cover - trivial
        pass

    def __iter__(self) -> Iterator[Row]:
        raise NotImplementedError


class ScanNode(VolcanoIterator):
    """Emit each base row as a dict of the referenced columns."""

    def __init__(self, columns: Dict[str, np.ndarray]):
        self._columns = {k: v for k, v in columns.items()}
        self._n = len(next(iter(columns.values()))) if columns else 0

    def __iter__(self) -> Iterator[Row]:
        names = list(self._columns)
        arrays = [self._columns[n] for n in names]
        for i in range(self._n):
            yield {name: arr[i] for name, arr in zip(names, arrays)}


class FilterNode(VolcanoIterator):
    def __init__(self, child: VolcanoIterator, predicate):
        self._child = child
        self._predicate = predicate

    def __iter__(self) -> Iterator[Row]:
        for row in self._child:
            if self._predicate.eval_row(row):
                yield row


class JoinNode(VolcanoIterator):
    """Hash join: build on the right child, probe with the left."""

    def __init__(self, left: VolcanoIterator, right: VolcanoIterator, left_col, right_col):
        self._left = left
        self._right = right
        self._left_col = left_col
        self._right_col = right_col

    def __iter__(self) -> Iterator[Row]:
        buckets: Dict[Any, List[Row]] = {}
        for row in self._right:
            buckets.setdefault(row[self._right_col], []).append(row)
        for row in self._left:
            for match in buckets.get(row[self._left_col], ()):
                merged = dict(row)
                merged.update(match)
                yield merged


class ProjectNode(VolcanoIterator):
    def __init__(self, child: VolcanoIterator, outputs, carry: Tuple[str, ...] = ()):
        self._child = child
        self._outputs = outputs
        #: Base columns carried through for downstream sorting (hidden
        #: ORDER BY keys that are not in the select list).
        self._carry = carry

    def __iter__(self) -> Iterator[Row]:
        for row in self._child:
            out = {o.name: o.expr.eval_row(row) for o in self._outputs}
            for name in self._carry:
                if name not in out:
                    out[name] = row[name]
            yield out


class AggregateNode(VolcanoIterator):
    """Blocking hash aggregation (grouped or global)."""

    def __init__(self, child: VolcanoIterator, outputs, group_by: Tuple[str, ...]):
        self._child = child
        self._outputs = outputs
        self._group_by = group_by

    def __iter__(self) -> Iterator[Row]:
        groups: Dict[Tuple, Dict[str, Any]] = {}
        order: List[Tuple] = []
        for row in self._child:
            key = tuple(row[g] for g in self._group_by)
            state = groups.get(key)
            if state is None:
                state = {}
                for o in self._outputs:
                    if o.kind == "expr":
                        continue
                    state[o.name] = {"sum": 0.0, "count": 0, "min": None, "max": None}
                groups[key] = state
                order.append(key)
            for o in self._outputs:
                if o.kind == "expr":
                    continue
                acc = state[o.name]
                acc["count"] += 1
                if o.expr is not None:
                    v = float(o.expr.eval_row(row))
                    acc["sum"] += v
                    acc["min"] = v if acc["min"] is None else min(acc["min"], v)
                    acc["max"] = v if acc["max"] is None else max(acc["max"], v)

        if not groups and not self._group_by:
            groups[()] = {
                o.name: {"sum": 0.0, "count": 0, "min": None, "max": None}
                for o in self._outputs
                if o.kind != "expr"
            }
            order.append(())

        # Deterministic group order: sorted by key (matches np.unique).
        for key in sorted(order):
            state = groups[key]
            out: Row = {}
            for o in self._outputs:
                if o.kind == "expr":
                    assert isinstance(o.expr, ColumnRef)
                    out[o.name] = key[self._group_by.index(o.expr.name)]
                    continue
                acc = state[o.name]
                if o.kind == "count":
                    out[o.name] = acc["count"]
                elif o.kind == "sum":
                    out[o.name] = acc["sum"]
                elif o.kind == "avg":
                    out[o.name] = acc["sum"] / acc["count"] if acc["count"] else float("nan")
                elif o.kind == "min":
                    out[o.name] = float("inf") if acc["min"] is None else acc["min"]
                elif o.kind == "max":
                    out[o.name] = float("-inf") if acc["max"] is None else acc["max"]
                else:
                    raise ExecutionError(f"unknown aggregate {o.kind!r}")
            yield out


class DistinctNode(VolcanoIterator):
    """Blocking duplicate elimination; emits rows in lexicographic order
    of the output columns to match the vectorized executor."""

    def __init__(self, child: VolcanoIterator, names: Tuple[str, ...]):
        self._child = child
        self._names = names

    def __iter__(self) -> Iterator[Row]:
        seen = {}
        for row in self._child:
            key = tuple(row[n] for n in self._names)
            seen.setdefault(key, row)
        for key in sorted(seen):
            yield seen[key]


class SortNode(VolcanoIterator):
    """Blocking sort with per-key direction (stable)."""

    def __init__(self, child: VolcanoIterator, order_by):
        self._child = child
        self._order_by = order_by

    def __iter__(self) -> Iterator[Row]:
        rows = list(self._child)
        for item in reversed(self._order_by):
            rows.sort(key=lambda r: item.expr.eval_row(r), reverse=item.descending)
        return iter(rows)


class LimitNode(VolcanoIterator):
    """OFFSET/LIMIT: skip ``offset`` rows, then emit at most ``limit``."""

    def __init__(self, child: VolcanoIterator, limit: "int | None", offset: int = 0):
        self._child = child
        self._limit = limit
        self._offset = offset

    def __iter__(self) -> Iterator[Row]:
        stop = None if self._limit is None else self._offset + self._limit
        for i, row in enumerate(self._child):
            if stop is not None and i >= stop:
                return
            if i >= self._offset:
                yield row


def run_volcano(
    query: BoundQuery,
    columns: Dict[str, np.ndarray],
    snapshot_ts: Optional[int] = None,
) -> QueryResult:
    """Execute ``query`` tuple-at-a-time over the given base columns.

    A joined MVCC table contributes the rows visible to ``snapshot_ts``
    (every row when None), as the main table's ``columns`` already do.
    """
    node: VolcanoIterator = ScanNode(columns)
    if query.where_main is not None:
        node = FilterNode(node, query.where_main)
    for join in query.joins:
        visible = slice(None)
        if snapshot_ts is not None and join.table.schema.mvcc:
            visible = join.table.visible_mask(snapshot_ts)
        right_cols = {
            name: join.table.column_values(name)[visible]
            for name in join.table.schema.column_names
        }
        node = JoinNode(node, ScanNode(right_cols), join.left_col, join.right_col)
    if query.where_post is not None:
        # WHERE conjuncts over joined columns run after the join chain.
        node = FilterNode(node, query.where_post)
    if query.has_aggregates or query.group_by:
        node = AggregateNode(node, query.outputs, query.group_by)
    else:
        from repro.db.exec.vector import _hidden_sort_columns

        hidden = _hidden_sort_columns(query, tuple(o.name for o in query.outputs))
        node = ProjectNode(node, query.outputs, carry=hidden)
    if query.having is not None:
        node = FilterNode(node, query.having)
    if query.distinct:
        node = DistinctNode(node, tuple(o.name for o in query.outputs))
    if query.order_by:
        node = SortNode(node, query.order_by)
    offset = getattr(query, "offset", None) or 0
    if query.limit is not None or offset:
        node = LimitNode(node, query.limit, offset)

    # Fixed-width CHAR columns: tuple extraction strips trailing NULs, so
    # re-inferring a dtype from collected scalars would shrink the width
    # (``S8`` base, ``b"oak"`` values → ``S3``). Record each base CHAR
    # width so output columns keep the exact dtype the vectorized path
    # produces.
    char_widths: Dict[str, int] = {
        name: arr.dtype.itemsize
        for name, arr in columns.items()
        if arr.dtype.kind == "S"
    }
    for join in query.joins:
        for cname in join.table.schema.column_names:
            width = join.table.schema.column(cname).dtype.width
            if join.table.schema.column(cname).dtype.np_dtype is None:
                char_widths[cname] = width

    names = tuple(o.name for o in query.outputs)
    collected: Dict[str, List[Any]] = {n: [] for n in names}
    for row in node:
        for n in names:
            collected[n].append(row[n])
    arrays: Dict[str, np.ndarray] = {}
    empty_ns: Optional[Dict[str, np.ndarray]] = None
    for n, v in collected.items():
        if v:
            arr = np.asarray(v)
            if arr.dtype.kind == "S":
                out = next(o for o in query.outputs if o.name == n)
                if isinstance(out.expr, ColumnRef):
                    width = char_widths.get(out.expr.name)
                    if width:
                        arr = arr.astype(f"S{width}")
            arrays[n] = arr
            continue
        # Zero result rows: ``np.asarray([])`` would default to float64,
        # so derive each dtype the way the vectorized path does — count
        # is int64, other aggregates accumulate in float64, and plain
        # expressions follow numpy promotion over zero-row inputs.
        out = next(o for o in query.outputs if o.name == n)
        if out.kind == "count":
            arrays[n] = np.empty(0, dtype=np.int64)
        elif out.kind != "expr":
            arrays[n] = np.empty(0, dtype=np.float64)
        else:
            if empty_ns is None:
                empty_ns = {name: arr[:0] for name, arr in columns.items()}
                for join in query.joins:
                    for name in join.table.schema.column_names:
                        empty_ns[name] = join.table.column_values(name)[:0]
            arr = np.asarray(out.expr.eval_vector(empty_ns))
            if arr.ndim == 0:
                # Constant outputs (e.g. folded scalar subqueries)
                # evaluate to a 0-d scalar; the result column is an
                # empty array of that scalar's dtype.
                arr = arr.reshape(1)[:0]
            arrays[n] = arr
    return QueryResult(names=names, columns=arrays)
