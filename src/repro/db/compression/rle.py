"""Run-length encoding: (value, run length) pairs.

NOT fabric-compatible out of the box (§III-D: "the compression schemes
under the run-length encoding family cannot be used out of the box"):
the position of row *i* in the payload depends on every preceding run,
so an arbitrary row range forces a scan from the start — exactly what
:meth:`decode_range` does here, and what the compatibility test verifies
is expensive.
"""

from __future__ import annotations

import numpy as np

from repro.db.compression.base import Codec, CompressedColumn, as_int_array


class RleCodec(Codec):
    name = "rle"
    fabric_compatible = False

    def encode(self, values: np.ndarray) -> CompressedColumn:
        values = as_int_array(values)
        if len(values) == 0:
            return CompressedColumn(codec=self.name, payload=b"", n_values=0)
        change = np.flatnonzero(np.diff(values)) + 1
        starts = np.concatenate(([0], change))
        lengths = np.diff(np.concatenate((starts, [len(values)])))
        runs = np.empty((len(starts), 2), dtype=np.int64)
        runs[:, 0] = values[starts]
        runs[:, 1] = lengths
        return CompressedColumn(
            codec=self.name, payload=runs.tobytes(), n_values=len(values)
        )

    def _runs(self, column: CompressedColumn) -> np.ndarray:
        return np.frombuffer(column.payload, dtype=np.int64).reshape(-1, 2)

    def decode(self, column: CompressedColumn) -> np.ndarray:
        self._check(column)
        if not column.payload:
            return np.zeros(0, dtype=np.int64)
        runs = self._runs(column)
        return np.repeat(runs[:, 0], runs[:, 1])

    # decode_range deliberately inherits the full-decode fallback: RLE has
    # no positional index, which is the §III-D incompatibility.
