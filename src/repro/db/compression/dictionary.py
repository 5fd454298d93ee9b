"""Dictionary encoding: values → fixed-width codes into a sorted domain.

Fabric-compatible: the code array is fixed-width, so any row range
decodes by slicing codes and looking them up — no neighbouring data
needed (§III-D). Order-preserving (the dictionary is sorted), so range
predicates can run directly on codes.
"""

from __future__ import annotations

import numpy as np

from repro.db.compression.base import Codec, CompressedColumn, as_int_array


def _code_dtype(domain_size: int) -> str:
    if domain_size <= 1 << 8:
        return "<u1"
    if domain_size <= 1 << 16:
        return "<u2"
    if domain_size <= 1 << 32:
        return "<u4"
    return "<u8"


class DictionaryCodec(Codec):
    name = "dictionary"
    fabric_compatible = True

    def encode(self, values: np.ndarray) -> CompressedColumn:
        values = as_int_array(values)
        domain, codes = np.unique(values, return_inverse=True)
        dtype = _code_dtype(len(domain))
        payload = codes.astype(dtype).tobytes()
        return CompressedColumn(
            codec=self.name,
            payload=payload,
            meta={
                "domain": domain.tobytes(),
                "domain_size": int(len(domain)),
                "code_dtype": dtype,
            },
            n_values=len(values),
        )

    def _domain(self, column: CompressedColumn) -> np.ndarray:
        return np.frombuffer(column.meta["domain"], dtype=np.int64)

    def decode(self, column: CompressedColumn) -> np.ndarray:
        self._check(column)
        codes = np.frombuffer(column.payload, dtype=column.meta["code_dtype"])
        return self._domain(column)[codes]

    def decode_range(self, column: CompressedColumn, start: int, stop: int) -> np.ndarray:
        self._check(column)
        width = np.dtype(column.meta["code_dtype"]).itemsize
        chunk = column.payload[start * width : stop * width]
        codes = np.frombuffer(chunk, dtype=column.meta["code_dtype"])
        return self._domain(column)[codes]
