"""Hardware timestamp visibility filtering (paper Section III-C).

Every row of the base data carries two timestamp fields: ``begin_ts`` set
at insertion (start of validity) and ``end_ts`` set on deletion or
replacement (end of validity). "Every time the API is accessed, it
generates the column groups that contain the valid rows at the time of
the query" — the comparison happens *in the fabric*, so shipping only
valid versions costs the CPU nothing.

This module is the functional half (the stamps and the masks); the
timing half is the ``mvcc_filter=True`` path of
:class:`repro.hw.engine.RelationalMemoryEngineModel`. The fabric's own
visibility compare is :func:`repro.core.selection.select_rows`, which
evaluates it on the stamp fields with the comparators, in the same one
block walk over the row image; :func:`visible_mask` is the whole-array
form, kept for callers that hold the stamp arrays and for the referees.
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


def latest_mask(begin_ts: np.ndarray, end_ts: np.ndarray) -> np.ndarray:
    """Rows that are the current live version (read-committed latest)."""
    return (begin_ts != NEVER_TS) & (end_ts == LIVE_TS)


def version_count(begin_ts: np.ndarray, end_ts: np.ndarray) -> int:
    """How many row slots hold some committed version (live or dead)."""
    return int(np.count_nonzero(begin_ts != NEVER_TS))
