"""Vectorized plan evaluation shared by every engine's answer path.

Engines differ in *how data reaches the CPU* (full rows, column copies,
or packed ephemeral lines) and in their cost recipes, but all of them
produce answers through this evaluator so results are bit-identical by
construction. The SQL oracle (:mod:`repro.db.sql.oracle`) is the
independent referee tests and the fuzzer check this module against.

Execution is organized as a :class:`FusedKernel`: the bound query is
compiled into a chain of stages (filter -> join* -> post-join filter ->
aggregate/project -> having -> distinct -> sort -> limit) with all
per-query decisions — join column sets, hidden sort keys, join strategy
— resolved up front. :func:`run_vector` is the one door every engine's
answer goes through; it builds the kernel per call, which is cheap next
to the stages. Compilation is priced, not cached, here:
``CodeFragmentCache`` charges simulated compile cycles by
``fragment_signature`` and holds no kernels.

Join and grouping kernels are pure numpy, and each picks its route from
the keys' dtype, value range and counts alone:

* **Dense domain.** Integer keys whose value range is within a small
  factor of the row count are addressed directly: offsets from the
  minimum index a table over ``[min, max]``. A join fills a slot table
  with the build rows; when no build key repeats (a key join), one
  gather maps every probe to its right row. Grouping ranks such a
  column through the presence-map LUT (:func:`_dense_ranks`), which
  also renumbers mixed-radix composite codes.
* **Sort.** Sparse keys, and dense build sides whose keys repeat,
  sort: the build side is stably argsorted and probes run through
  ``searchsorted`` ranges (or, for high-collision keys, a sort-merge),
  and grouping ranks by a 1-D ``np.unique``. A
  ``CHAR`` key wider than one byte is read as big-endian ``uint64``
  words, each word ranked on its own and the ranks combined by mixed
  radix, which keeps byte-string order.

Matches expand CSR-style with ``repeat``/``cumsum``. Every join route
reproduces the oracle's nested-loop output order exactly: left rows
ascending, and within one left row the matching right rows in table
order.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
    query: BoundQuery,
    columns: Dict[str, np.ndarray],
    mask: object = _AUTO,
    snapshot_ts: Optional[int] = None,
) -> QueryResult:
    """Execute ``query`` over the given base columns.

    ``columns`` holds one query-facing array per referenced column of the
    main table (already restricted to visible rows). Join-side columns
    are fetched from the bound join tables on demand, at the rows
    visible to ``snapshot_ts`` for an MVCC table (every row when None).
    Engines that already evaluated the WHERE clause (to charge its cost)
    pass the boolean ``mask`` to avoid re-evaluation; ``None`` means "no
    filtering". Every engine answer comes through here: it compiles a
    :class:`FusedKernel` and runs it.
    """
    return FusedKernel(query)(columns, mask=mask, snapshot_ts=snapshot_ts)


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

    Instances are pure functions of (columns, mask): they hold no row
    data, only the bound query and per-stage decisions. Tests build one
    directly to force a join strategy; engines go through
    :func:`run_vector`.
    """

    __slots__ = ("query", "_joins", "_hidden", "_names")

    def __init__(self, query: BoundQuery, join_strategy: str = "auto"):
        self.query = query
        self._joins = _compile_joins(query, join_strategy)
        self._names = tuple(o.name for o in query.outputs)
        self._hidden = _hidden_sort_columns(query, self._names)

    def __call__(
        self,
        columns: Dict[str, np.ndarray],
        mask: object = _AUTO,
        snapshot_ts: Optional[int] = None,
    ) -> QueryResult:
        query = self.query
        if mask is _AUTO:
            mask = apply_where(query, columns)
        if mask is not None:
            columns = {name: arr[mask] for name, arr in columns.items()}

        for spec in self._joins:
            columns = _join_step(spec, columns, snapshot_ts)
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

#: A join takes the dense route when its build keys span at most this
#: many times the rows of both sides; its int64 slot table then costs
#: about ``8 * DENSE_SPAN_FACTOR`` bytes per row.
DENSE_SPAN_FACTOR = 4


def factorize(keys: Sequence[np.ndarray]) -> Tuple[List[np.ndarray], np.ndarray]:
    """Factorize key tuples: ``(unique key arrays, int64 codes)``.

    The unique keys come back one array per input column, in
    lexicographic tuple order (column 0 most significant, each column in
    numpy sort order), and ``codes[i]`` is row ``i``'s group number in
    that order. Each group's key values are copied from its *first* row
    — the representative the SQL oracle keeps — so
    dtypes and bytes are the input's (``-0.0`` and ``0.0`` group
    together and report whichever came first).

    Every key column is ranked on its own (:func:`_rank_column`):

    * one-byte keys (``S1``, ``uint8``, ``int8``, ``bool``) through a
      256-slot presence map;
    * integer keys whose value range is no larger than the row count
      through a presence map over ``[min, max]``;
    * ``CHAR`` keys wider than one byte as big-endian ``uint64`` words,
      each word ranked on its own and the ranks combined as below;
    * any other key (floats, sparse integers) by a 1-D ``np.unique``.

    The ranks combine by mixed radix into one int64 code, which a
    presence map densifies when its space is no larger than the row
    count and a sort densifies otherwise. One or two one-byte key
    columns skip ranks and radix alike (:func:`_factorize_bytes`). Every
    choice follows from dtype, value range and size alone; no route
    changes the answer.
    """
    n = len(keys[0])
    if n == 0:
        return [k[:0] for k in keys], np.zeros(0, dtype=np.int64)
    if len(keys) <= 2 and all(_is_byte_key(col) for col in keys):
        return _factorize_bytes(keys)
    codes, space = _mixed_radix(_rank_column(col) for col in keys)
    first = np.full(space, n, dtype=np.int64)
    np.minimum.at(first, codes, np.arange(n, dtype=np.int64))
    return [k[first] for k in keys], codes


def _is_byte_key(col: np.ndarray) -> bool:
    return col.dtype.itemsize == 1 and col.dtype.kind in "Subi"


def _order_bytes(col: np.ndarray) -> np.ndarray:
    """A one-byte key column as uint8 in its numpy sort order."""
    byte = col.view(np.uint8)
    if col.dtype.kind == "i":
        byte = byte ^ np.uint8(0x80)  # signed order as unsigned bytes
    return byte


def _factorize_bytes(keys: Sequence[np.ndarray]) -> Tuple[List[np.ndarray], np.ndarray]:
    """:func:`factorize` of one or two one-byte key columns.

    The key bytes, in sort order, make one code of at most 16 bits per
    row; one ``bincount`` finds the codes present, their ranks are the
    group numbers, and each unique key is decoded from its code. Equal
    codes are equal bytes, so the uniques equal the first rows' keys.
    """
    code = _order_bytes(keys[0]).astype(np.uint16)
    if len(keys) == 2:
        code = (code << 8) | _order_bytes(keys[1])
    counts = np.bincount(code, minlength=1 << (8 * len(keys)))
    lut = np.cumsum(counts != 0, dtype=np.int64) - 1
    present = np.flatnonzero(counts)
    uniques = []
    for i, col in enumerate(keys):
        byte = (present >> (8 * (len(keys) - 1 - i))).astype(np.uint8)
        if col.dtype.kind == "i":
            byte ^= np.uint8(0x80)
        uniques.append(byte.view(col.dtype))
    return uniques, lut[code]


def _mixed_radix(ranked: Iterable[Tuple[np.ndarray, int]]) -> Tuple[np.ndarray, int]:
    """Combine per-column ``(ranks, distinct)`` pairs, column 0 most
    significant, into dense order-preserving int64 codes."""
    ranked = iter(ranked)
    codes, space = next(ranked)
    combined = False
    for ranks, card in ranked:
        if space * card > _CODE_SPACE_LIMIT:
            codes, space = _densify(codes, space)
        codes = codes * card + ranks
        space *= card
        combined = True
    if combined:
        codes, space = _densify(codes, space)
    return codes, space


def _rank_column(col: np.ndarray) -> Tuple[np.ndarray, int]:
    """Dense order-preserving ranks of one key column: (ranks, distinct)."""
    kind = col.dtype.kind
    if _is_byte_key(col):
        return _dense_ranks(_order_bytes(col), 256)
    if len(col) and kind in "iu":
        lo, span = _int_span(col)
        if span <= len(col):
            return _dense_ranks(_offsets(col, lo), span)
    elif len(col) and kind == "S":
        return _mixed_radix(_rank_column(word) for word in _char_words(col))
    uniq, inverse = np.unique(col, return_inverse=True)
    return inverse.reshape(-1), len(uniq)


def _char_words(col: np.ndarray) -> np.ndarray:
    """A byte-string column as rows of big-endian ``uint64`` words, most
    significant first. Zero padding keeps numpy's byte order: a value
    shorter than the width already compares as if NUL-padded."""
    n, width = len(col), col.dtype.itemsize
    padded = np.zeros((n, -(-width // 8) * 8), dtype=np.uint8)
    padded[:, :width] = np.ascontiguousarray(col).view(np.uint8).reshape(n, width)
    return np.ascontiguousarray(padded.view(">u8").astype(np.uint64).T)


def _int_span(col: np.ndarray) -> Tuple[int, int]:
    """``(min, max - min + 1)`` of a non-empty integer column, in Python
    ints so the span of extreme values cannot overflow."""
    lo = int(col.min())
    return lo, int(col.max()) - lo + 1


def _offsets(col: np.ndarray, lo: int) -> np.ndarray:
    """``col - lo`` modulo 2**64, as int64.

    Exact for the values at or above ``lo``: signed keys subtract after
    widening to int64 and unsigned ones in their own dtype, so a narrow
    dtype cannot wrap. Read as ``uint64``, a value below ``lo`` comes
    out larger than ``hi - lo`` for every ``hi`` the dtype holds, so one
    unsigned compare against a range ``[lo, hi]`` rejects the values on
    both sides of it.
    """
    if col.dtype.kind == "u":
        return (col - col.dtype.type(lo)).astype(np.int64, copy=False)
    return col.astype(np.int64, copy=False) - lo


def _dense_ranks(offsets: np.ndarray, space: int) -> Tuple[np.ndarray, int]:
    """Order-preserving ranks of integer offsets in ``0..space-1`` through
    a presence map: ``(ranks, distinct)``."""
    present = np.zeros(space, dtype=bool)
    present[offsets] = True
    lut = np.cumsum(present, dtype=np.int64) - 1
    return lut[offsets], int(lut[-1]) + 1


def _densify(codes: np.ndarray, space: int) -> Tuple[np.ndarray, int]:
    """Renumber int64 codes onto ``0..k-1`` keeping their order."""
    if space <= len(codes):
        return _dense_ranks(codes, space)
    uniq, inverse = np.unique(codes, return_inverse=True)
    return inverse.reshape(-1), len(uniq)


# ----------------------------------------------------------------------
# Join kernels.
# ----------------------------------------------------------------------
def _join_step(
    spec: _JoinSpec, columns: Dict[str, np.ndarray], snapshot_ts: Optional[int]
) -> Dict[str, np.ndarray]:
    table = spec.table
    rows = None
    if snapshot_ts is not None and table.schema.mvcc:
        rows = table.visible_mask(snapshot_ts)
    right = table.read(tuple(dict.fromkeys((spec.right_col, *spec.right_cols))), rows)
    li, ri = join_indices(
        [columns[spec.left_col]], [right[spec.right_col]], strategy=spec.strategy
    )
    out = {name: arr[li] for name, arr in columns.items()}
    for name in spec.right_cols:
        out[name] = right[name][ri]
    return out


def join_indices(
    left_keys: Sequence[np.ndarray],
    right_keys: Sequence[np.ndarray],
    strategy: str = "auto",
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized equi-join: return (left index, right index) match pairs.

    Accepts one array per key column (multi-key joins factorize the key
    tuples first). Output order is the oracle's nested-loop order: pairs
    sorted by left index, and within one left index by right index —
    i.e. exactly what a dict-of-buckets build + in-order probe yields.

    ``"auto"`` picks the route from the keys alone. Integer keys whose
    build side spans at most :data:`DENSE_SPAN_FACTOR` times the rows of
    both sides, with no build key repeated (a key join), go through a
    slot table over that range: one gather per probe. Other keys sort
    the build side and probe it by binary search, or sort-merge when
    build keys repeat :data:`MERGE_FANOUT_THRESHOLD` times on average.
    ``strategy="probe"`` or ``"merge"`` forces that sort route.
    Every route is bit-identical by construction.
    """
    lcodes, rcodes = _join_codes(left_keys, right_keys)
    if strategy == "auto":
        dense = _dense_span(lcodes, rcodes)
        if dense is not None:
            return _dense_join(lcodes, rcodes, *dense)
    return _sort_join(lcodes, rcodes, strategy)


def _dense_span(lcodes: np.ndarray, rcodes: np.ndarray) -> Optional[Tuple[int, int]]:
    """``(min, span)`` of the build keys when the dense route applies:
    both sides non-empty, integer codes (``_join_codes`` gives both
    sides one dtype), and a span within the factor of the row counts."""
    if not (len(lcodes) and len(rcodes)) or rcodes.dtype.kind not in "iu":
        return None
    lo, span = _int_span(rcodes)
    if span > DENSE_SPAN_FACTOR * (len(lcodes) + len(rcodes)):
        return None
    return lo, span


def _dense_join(
    lcodes: np.ndarray, rcodes: np.ndarray, lo: int, span: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Join by direct addressing over the build keys' range
    ``[lo, lo + span)``.

    A slot table maps each offset to its build row, with one extra slot
    at ``span`` that stays empty. Probe offsets are taken modulo 2**64
    and compared unsigned, so a probe outside the range — even one whose
    subtraction wraps — lands at or past ``span`` and is clamped onto the
    empty slot: it matches nothing. When the table holds every build row
    (no key repeats: a key join), one gather finishes the join;
    otherwise the join takes the sort route.
    """
    slot = np.full(span + 1, -1, dtype=np.int64)
    slot[_offsets(rcodes, lo)] = np.arange(len(rcodes), dtype=np.int64)
    if np.count_nonzero(slot >= 0) != len(rcodes):
        return _sort_join(lcodes, rcodes, "auto")
    loff = np.minimum(_offsets(lcodes, lo).view(np.uint64), np.uint64(span))
    ri = slot[loff.view(np.int64)]
    li = np.flatnonzero(ri >= 0)
    return li, ri[li]


def _sort_join(
    lcodes: np.ndarray, rcodes: np.ndarray, strategy: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Join through the stably sorted build side (probe or sort-merge)."""
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

    Empty-input contract (pinned by tests against the SQL oracle):
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
    SQL oracle)."""
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
