"""Vectorized plan evaluation shared by every engine's answer path.

Engines differ in *how data reaches the CPU* (full rows, column copies,
or packed ephemeral lines) and in their cost recipes, but all of them
produce answers through this evaluator so results are bit-identical by
construction. The Volcano interpreter in :mod:`repro.db.exec.volcano` is
the independent reference used by tests to validate this module.

Execution is organized as a :class:`FusedKernel`: the query shape is
compiled once into a chain of closures (filter -> join* -> post-join
filter -> aggregate/project -> having -> distinct -> sort -> limit) with
all per-shape decisions — join column sets, hidden sort keys, join
strategy — resolved at compile time. ``CodeFragmentCache`` stores these
kernels keyed by ``fragment_signature`` so repeated query shapes skip
compilation entirely.

Join kernels are pure numpy: the build side is factorized and stably
argsorted, probes run through ``searchsorted`` ranges, and matches are
expanded CSR-style with ``repeat``/``cumsum``. Both the hash-style probe
and the sort-merge fallback (chosen for high-collision keys) reproduce
the Volcano nested-bucket output order exactly: left rows ascending,
and within one left row the matching right rows in table order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.db.expr import ColumnRef
from repro.db.plan.binder import BoundJoin, BoundOutput, BoundQuery
from repro.db.exec.result import QueryResult
from repro.errors import ExecutionError

#: Average right-side duplication above which the sort-merge expansion
#: replaces the per-probe binary search (sorted probes walk the build
#: side with far better locality once buckets get long).
MERGE_FANOUT_THRESHOLD = 16


def apply_where(
    query: BoundQuery, columns: Dict[str, np.ndarray], nrows: Optional[int] = None
) -> Optional[np.ndarray]:
    """Evaluate the pre-join WHERE conjuncts; boolean mask or None.

    Conjuncts that reference joined-table columns are excluded here (the
    scan only has main-table columns) and applied after the join chain
    via ``query.where_post``. ``columns`` needs only the columns the
    conjuncts read; ``nrows`` (default: their length) sizes the mask of
    a constant clause such as ``1 = 1``, which reads none.
    """
    if query.where_main is None:
        return None
    return _as_mask(query.where_main.eval_vector(columns), columns, nrows)


_AUTO = object()


def run_vector(
    query: BoundQuery, columns: Dict[str, np.ndarray], mask: object = _AUTO
) -> QueryResult:
    """Execute ``query`` over the given base columns.

    ``columns`` holds one query-facing array per referenced column of the
    main table (already restricted to visible rows). Join-side columns
    are fetched from the bound join tables on demand. Engines that
    already evaluated the WHERE clause (to charge its cost) pass the
    boolean ``mask`` to avoid re-evaluation; ``None`` means "no
    filtering". One-shot path: compiles a :class:`FusedKernel` and runs
    it; engines with a code cache reuse compiled kernels instead.
    """
    return FusedKernel(query)(columns, mask=mask)


# ----------------------------------------------------------------------
# Fused kernel compilation.
# ----------------------------------------------------------------------
class _JoinSpec:
    """Per-join compile-time plan: which right columns to materialize."""

    __slots__ = ("left_col", "table", "right_col", "right_cols", "strategy")

    def __init__(self, join: BoundJoin, right_cols: Tuple[str, ...], strategy: str):
        self.left_col = join.left_col
        self.table = join.table
        self.right_col = join.right_col
        self.right_cols = right_cols
        self.strategy = strategy


class FusedKernel:
    """A query shape compiled to a chain of vectorized stages.

    Instances are pure functions of (columns, mask) — they hold no row
    data, only the bound query and per-stage decisions — so they are
    safe to cache and replay for every execution of the same shape.
    """

    __slots__ = ("query", "_joins", "_hidden", "_names")

    def __init__(self, query: BoundQuery, join_strategy: str = "auto"):
        self.query = query
        self._joins = _compile_joins(query, join_strategy)
        self._names = tuple(o.name for o in query.outputs)
        self._hidden = _hidden_sort_columns(query, self._names)

    def __call__(
        self, columns: Dict[str, np.ndarray], mask: object = _AUTO
    ) -> QueryResult:
        query = self.query
        if mask is _AUTO:
            mask = apply_where(query, columns)
        if mask is not None:
            columns = {name: arr[mask] for name, arr in columns.items()}

        for spec in self._joins:
            columns = _join_step(spec, columns)
        if query.where_post is not None:
            pmask = _as_mask(query.where_post.eval_vector(columns), columns)
            columns = {name: arr[pmask] for name, arr in columns.items()}

        names = self._names
        if query.has_aggregates or query.group_by:
            out = _aggregate(query, columns)
        else:
            out = _project(query, columns)
            # SQL permits ordering by base columns that are not selected;
            # carry them as hidden sort keys (projection is 1:1 with rows).
            for hidden in self._hidden:
                out[hidden] = columns[hidden]

        if query.having is not None:
            hmask = _as_mask(query.having.eval_vector(out), out)
            out = {name: arr[hmask] for name, arr in out.items()}

        if query.distinct:
            out = _distinct(names, out)

        if query.order_by:
            order = _sort_index(query, out)
            out = {name: arr[order] for name, arr in out.items()}
        skip = getattr(query, "offset", None) or 0
        if query.limit is not None or skip:
            stop = None if query.limit is None else skip + query.limit
            out = {name: arr[skip:stop] for name, arr in out.items()}
        out = {name: out[name] for name in names}  # drop hidden sort keys
        return QueryResult(names=names, columns=out)


def _as_mask(mask, columns: Dict[str, np.ndarray], nrows: Optional[int] = None):
    if np.isscalar(mask):
        if nrows is None:
            nrows = len(next(iter(columns.values()))) if columns else 0
        return np.full(nrows, bool(mask))
    return mask


def _compile_joins(query: BoundQuery, strategy: str) -> Tuple[_JoinSpec, ...]:
    specs: List[_JoinSpec] = []
    for i, join in enumerate(query.joins):
        right_cols = _right_columns_needed(query, i)
        specs.append(_JoinSpec(join, right_cols, strategy))
    return tuple(specs)


def _right_columns_needed(query: BoundQuery, index: int) -> Tuple[str, ...]:
    """Columns of join ``index``'s table that later stages consume."""
    right_schema = query.joins[index].table.schema
    wanted = set()
    for o in query.outputs:
        if o.expr is not None:
            wanted |= set(o.expr.columns())
    for o in query.order_by:
        wanted |= set(o.expr.columns())
    wanted |= set(query.group_by)
    if query.having is not None:
        wanted |= set(query.having.columns())
    if query.where_post is not None:
        wanted |= set(query.where_post.columns())
    # Probe keys of downstream joins may live in this table.
    for later in query.joins[index + 1 :]:
        wanted.add(later.left_col)
    return tuple(sorted(c for c in wanted if right_schema.has_column(c)))


# ----------------------------------------------------------------------
# Exact multi-key factorization (GROUP BY, multi-key joins, DISTINCT).
# ----------------------------------------------------------------------
#: Bound on the mixed-radix code space; a running composite code is
#: re-densified before the next multiply would pass it, so int64 codes
#: never overflow (after densifying, space and cardinality are both at
#: most the row count).
_CODE_SPACE_LIMIT = 1 << 62


def factorize(keys: Sequence[np.ndarray]) -> Tuple[List[np.ndarray], np.ndarray]:
    """Factorize key tuples: ``(unique key arrays, int64 codes)``.

    The unique keys come back one array per input column, in
    lexicographic tuple order (column 0 most significant, each column in
    numpy sort order), and ``codes[i]`` is row ``i``'s group number in
    that order. Each group's key values are copied from its *first* row
    — the representative the Volcano and SQL-oracle referees keep — so
    dtypes and bytes are the input's (``-0.0`` and ``0.0`` group
    together and report whichever came first).

    Every key column is ranked on its own: one-byte keys (``S1``,
    ``uint8``, ``int8``, ``bool``) by counting with a 256-slot presence
    map, wider keys by a 1-D ``np.unique``. The ranks combine by mixed
    radix into one int64 code, which a presence map densifies when its
    space is no larger than the row count and a sort densifies
    otherwise. Both choices follow from dtype and size alone; no path
    changes the answer.
    """
    n = len(keys[0])
    if n == 0:
        return [k[:0] for k in keys], np.zeros(0, dtype=np.int64)
    codes, space = _rank_column(keys[0])
    for col in keys[1:]:
        ranks, card = _rank_column(col)
        if space * card > _CODE_SPACE_LIMIT:
            codes, space = _densify(codes, space)
        codes = codes * card + ranks
        space *= card
    if len(keys) > 1:
        codes, space = _densify(codes, space)
    first = np.full(space, n, dtype=np.int64)
    np.minimum.at(first, codes, np.arange(n, dtype=np.int64))
    return [k[first] for k in keys], codes


def _rank_column(col: np.ndarray) -> Tuple[np.ndarray, int]:
    """Dense order-preserving ranks of one key column: (ranks, distinct)."""
    if col.dtype.itemsize == 1 and col.dtype.kind in "Subi":
        byte = col.view(np.uint8)
        if col.dtype.kind == "i":
            byte = byte ^ np.uint8(0x80)  # signed order as unsigned bytes
        present = np.bincount(byte, minlength=256) > 0
        lut = np.cumsum(present, dtype=np.int64) - 1
        return lut[byte], int(lut[-1]) + 1
    uniq, inverse = np.unique(col, return_inverse=True)
    return inverse.reshape(-1), len(uniq)


def _densify(codes: np.ndarray, space: int) -> Tuple[np.ndarray, int]:
    """Renumber int64 codes onto ``0..k-1`` keeping their order."""
    if space <= len(codes):
        present = np.zeros(space, dtype=bool)
        present[codes] = True
        lut = np.cumsum(present, dtype=np.int64) - 1
        return lut[codes], int(lut[-1]) + 1
    uniq, inverse = np.unique(codes, return_inverse=True)
    return inverse.reshape(-1), len(uniq)


# ----------------------------------------------------------------------
# Join kernels.
# ----------------------------------------------------------------------
def _join_step(spec: _JoinSpec, columns: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    left_keys = columns[spec.left_col]
    right_keys = spec.table.column_values(spec.right_col)
    li, ri = join_indices([left_keys], [right_keys], strategy=spec.strategy)
    out = {name: arr[li] for name, arr in columns.items()}
    for name in spec.right_cols:
        out[name] = spec.table.column_values(name)[ri]
    return out


def join_indices(
    left_keys: Sequence[np.ndarray],
    right_keys: Sequence[np.ndarray],
    strategy: str = "auto",
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized equi-join: return (left index, right index) match pairs.

    Accepts one array per key column (multi-key joins factorize the key
    tuples first). Output order is the Volcano reference order: pairs
    sorted by left index, and within one left index by right index —
    i.e. exactly what a dict-of-buckets build + in-order probe yields.

    ``strategy`` is ``"probe"`` (binary-search each probe key against
    the sorted build side), ``"merge"`` (sort the probe side too and
    expand run-against-run — wins when build keys repeat heavily), or
    ``"auto"`` to pick by the observed build-side fanout. Both
    strategies are bit-identical by construction.
    """
    lcodes, rcodes = _join_codes(left_keys, right_keys)
    order = np.argsort(rcodes, kind="stable")
    sorted_r = rcodes[order]
    if strategy == "auto":
        strategy = _pick_strategy(sorted_r, len(lcodes))
    if strategy == "probe":
        lo = np.searchsorted(sorted_r, lcodes, side="left")
        hi = np.searchsorted(sorted_r, lcodes, side="right")
        return _expand_matches(lo, hi, order)
    if strategy != "merge":
        raise ExecutionError(f"unknown join strategy {strategy!r}")
    # Sort-merge fallback: probe in sorted order, then un-permute. The
    # stable final argsort restores ascending-left / ascending-right
    # pair order, so the output matches the probe path bit for bit.
    lorder = np.argsort(lcodes, kind="stable")
    sorted_l = lcodes[lorder]
    lo = np.searchsorted(sorted_r, sorted_l, side="left")
    hi = np.searchsorted(sorted_r, sorted_l, side="right")
    li, ri = _expand_matches(lo, hi, order)
    li = lorder[li]
    restore = np.argsort(li, kind="stable")
    return li[restore], ri[restore]


def _join_codes(
    left_keys: Sequence[np.ndarray], right_keys: Sequence[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Reduce (possibly multi-column) join keys to one sortable code per
    row, consistent across both sides."""
    n_left = len(left_keys[0])
    if len(left_keys) == 1:
        left, right = left_keys[0], right_keys[0]
        if left.dtype == right.dtype:
            return left, right
        both = np.concatenate([left, right])  # promote to a common dtype
        return both[:n_left], both[n_left:]
    # Multi-key: factorize the key tuples over both sides at once so the
    # integer codes agree.
    _, codes = factorize(
        [np.concatenate([l, r]) for l, r in zip(left_keys, right_keys)]
    )
    return codes[:n_left], codes[n_left:]


def _pick_strategy(sorted_r: np.ndarray, n_left: int) -> str:
    if len(sorted_r) == 0 or n_left == 0:
        return "probe"
    uniques = 1 + int(np.count_nonzero(sorted_r[1:] != sorted_r[:-1]))
    fanout = len(sorted_r) / uniques
    return "merge" if fanout >= MERGE_FANOUT_THRESHOLD else "probe"


def _expand_matches(
    lo: np.ndarray, hi: np.ndarray, order: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR-style expansion of per-probe match ranges into index pairs."""
    counts = hi - lo
    total = int(counts.sum())
    li = np.repeat(np.arange(len(lo), dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    # Position of each output pair inside its probe's run, shifted to the
    # run's offset in the sorted build side.
    slot = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    slot += np.repeat(lo, counts)
    return li, order[slot]


# ----------------------------------------------------------------------
# Projection and aggregation.
# ----------------------------------------------------------------------
def _project(query: BoundQuery, columns: Dict[str, np.ndarray]):
    out: Dict[str, np.ndarray] = {}
    for o in query.outputs:
        value = o.expr.eval_vector(columns)
        if np.isscalar(value):
            n = len(next(iter(columns.values()))) if columns else 0
            value = np.full(n, value)
        out[o.name] = np.asarray(value)
    return out


def _aggregate(query: BoundQuery, columns: Dict[str, np.ndarray]):
    n = len(next(iter(columns.values()))) if columns else 0

    if query.group_by:
        key_arrays, inverse = factorize([columns[name] for name in query.group_by])
        n_groups = len(key_arrays[0])
        key_of = dict(zip(query.group_by, key_arrays))
    else:
        inverse = np.zeros(n, dtype=np.int64)
        n_groups = 1
        key_of = {}

    out: Dict[str, np.ndarray] = {}
    for o in query.outputs:
        if o.kind == "expr":
            assert isinstance(o.expr, ColumnRef)  # enforced by the binder
            out[o.name] = key_of[o.expr.name]
            continue
        out[o.name] = _compute_aggregate(o, columns, inverse, n_groups, n)
    # An empty input with no GROUP BY still yields one row (SQL semantics
    # for global aggregates).
    return out


def _compute_aggregate(
    output: BoundOutput,
    columns: Dict[str, np.ndarray],
    inverse: np.ndarray,
    n_groups: int,
    n: int,
) -> np.ndarray:
    """One aggregate column over factorized groups.

    Empty-input contract (pinned by tests against the Volcano reference):
    a global aggregate over zero rows yields COUNT=0, SUM=0.0, AVG=NaN,
    MIN=+inf, MAX=-inf — the accumulator identities. Empty *groups*
    cannot occur: factorization only emits groups with at least one row.
    """
    if output.kind == "count":
        return np.bincount(inverse, minlength=n_groups).astype(np.int64)
    values = np.asarray(output.expr.eval_vector(columns), dtype=np.float64)
    if values.ndim == 0:
        # Constant aggregate argument (e.g. sum(42)): broadcast per row.
        values = np.full(n, float(values))
    if n == 0:
        if output.kind == "sum":
            return np.zeros(n_groups)
        if output.kind == "avg":
            return np.full(n_groups, np.nan)
        if output.kind == "min":
            return np.full(n_groups, np.inf)
        if output.kind == "max":
            return np.full(n_groups, -np.inf)
    if output.kind == "sum":
        return np.bincount(inverse, weights=values, minlength=n_groups)
    if output.kind == "avg":
        sums = np.bincount(inverse, weights=values, minlength=n_groups)
        counts = np.bincount(inverse, minlength=n_groups)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    if output.kind in ("min", "max"):
        # Segment the values by group and reduce each run: reduceat is an
        # order-of-magnitude faster than ufunc.at, and min/max are
        # order-independent so the result is exact either way.
        order = np.argsort(inverse, kind="stable")
        boundaries = np.searchsorted(inverse[order], np.arange(n_groups), side="left")
        ufunc = np.minimum if output.kind == "min" else np.maximum
        return ufunc.reduceat(values[order], boundaries)
    raise ExecutionError(f"unknown aggregate {output.kind!r}")


def _hidden_sort_columns(query: BoundQuery, names) -> Tuple[str, ...]:
    """Base columns the ORDER BY needs that the SELECT list did not keep.

    With DISTINCT they cannot be carried (deduplication would change),
    which matches SQL: ``SELECT DISTINCT`` may only order by selected
    expressions. Availability spans the main table and every joined
    table — the join stages materialize any ORDER BY column they own.
    """
    if not query.order_by or query.distinct:
        return ()
    schemas = (query.table.schema, *(j.table.schema for j in query.joins))
    hidden = []
    name_set = set(names)
    for item in query.order_by:
        for col in item.expr.columns():
            if (
                col not in name_set
                and col not in hidden
                and any(s.has_column(col) for s in schemas)
            ):
                hidden.append(col)
    return tuple(hidden)


def _distinct(names, out: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Row-wise deduplication; rows come back in lexicographic order of
    the output columns, each distinct row as first seen (matched by the
    Volcano reference)."""
    if not names:
        return out
    uniq, _ = factorize([out[n] for n in names])
    return dict(zip(names, uniq))


# ----------------------------------------------------------------------
# Ordering.
# ----------------------------------------------------------------------
def _sort_index(query: BoundQuery, out: Dict[str, np.ndarray]) -> np.ndarray:
    """Stable multi-key sort honoring per-key direction."""
    keys = []
    for item in reversed(query.order_by):
        values = item.expr.eval_vector(out)
        values = np.asarray(values)
        if item.descending:
            # Rank-based negation works for any dtype, including bytes.
            values = -_rank_column(values)[0]
        keys.append(values)
    return np.lexsort(keys)
