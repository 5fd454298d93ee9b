"""Exact distinct values: sort integers, leave the rest to ``np.unique``.

numpy 2 answers a plain ``np.unique`` of integers (no ``return_*``
keyword) through a hash table, which is several times slower than a sort
plus an adjacent compare. On byte strings the hash route is faster than
sorting, and on float64 the two tie, so only bool and integer arrays are
sorted here (DESIGN §7 has the timings). The ``return_inverse`` and
``return_counts`` forms of ``np.unique`` already sort and are called
directly.

Imports numpy alone, so :mod:`repro.hw`, :mod:`repro.db` and
:mod:`repro.workloads` can all use it.
"""

from __future__ import annotations

import numpy as np


def distinct(values) -> np.ndarray:
    """The sorted distinct values of ``values``, flattened: equal to
    ``np.unique(values)`` in values and dtype."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biu":  # bool, int, uint
        return np.unique(arr)
    ordered = np.sort(arr, axis=None)
    if ordered.size < 2:
        return ordered
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]
