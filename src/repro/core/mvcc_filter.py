"""Hardware timestamp visibility filtering (paper Section III-C).

Every row of the base data carries two timestamp fields: ``begin_ts`` set
at insertion (start of validity) and ``end_ts`` set on deletion or
replacement (end of validity). "Every time the API is accessed, it
generates the column groups that contain the valid rows at the time of
the query" — the comparison happens *in the fabric*, so shipping only
valid versions costs the CPU nothing.

This module is the functional half (the masks); the timing half is the
``mvcc_filter=True`` path of :class:`repro.hw.engine.RelationalMemoryEngineModel`.
"""

from __future__ import annotations

import numpy as np

#: The stamp fields of an MVCC row image, by name in its geometry (the
#: fabric reads them in place: :func:`repro.core.selection.select_rows`).
MVCC_BEGIN = "__begin_ts"
MVCC_END = "__end_ts"

#: end_ts value meaning "still the live version".
LIVE_TS = np.iinfo(np.int64).max

#: begin_ts value of a slot that has never held a row.
NEVER_TS = np.iinfo(np.int64).max


def visible_mask(
    begin_ts: np.ndarray, end_ts: np.ndarray, snapshot_ts: int
) -> np.ndarray:
    """Rows valid at ``snapshot_ts``: ``begin_ts <= ts < end_ts``.

    Both timestamp arrays are int64, one entry per row slot; uncommitted
    rows carry ``begin_ts == NEVER_TS`` and are invisible to everyone.
    """
    return (begin_ts <= snapshot_ts) & (snapshot_ts < end_ts)


#: Rows per visibility batch: 64Ki slots keep both timestamp slices and
#: the mask inside L2 (64Ki * (8+8+1) bytes ≈ 1.1 MB).
DEFAULT_VISIBILITY_BATCH = 1 << 16


def visible_mask_batched(
    begin_ts: np.ndarray,
    end_ts: np.ndarray,
    snapshot_ts: int,
    batch_rows: int = DEFAULT_VISIBILITY_BATCH,
) -> np.ndarray:
    """:func:`visible_mask` computed in bounded row batches.

    Bit-identical output; the batching bounds the working set (two
    timestamp slices plus the mask slice stay cache-resident per batch)
    and writes each comparison straight into the output mask instead of
    materializing full-length temporaries. Engines use this so the
    visibility pass follows the same batch discipline as the trace-mode
    line kernel.
    """
    n = len(begin_ts)
    if batch_rows < 1:
        batch_rows = n or 1
    out = np.empty(n, dtype=bool)
    scratch = np.empty(min(batch_rows, n), dtype=bool)
    for start in range(0, n, batch_rows):
        stop = min(start + batch_rows, n)
        chunk = out[start:stop]
        np.less_equal(begin_ts[start:stop], snapshot_ts, out=chunk)
        s = scratch[: stop - start]
        np.greater(end_ts[start:stop], snapshot_ts, out=s)
        chunk &= s
    return out


def latest_mask(begin_ts: np.ndarray, end_ts: np.ndarray) -> np.ndarray:
    """Rows that are the current live version (read-committed latest)."""
    return (begin_ts != NEVER_TS) & (end_ts == LIVE_TS)


def version_count(begin_ts: np.ndarray, end_ts: np.ndarray) -> int:
    """How many row slots hold some committed version (live or dead)."""
    return int(np.count_nonzero(begin_ts != NEVER_TS))
