"""Relational type system with exact byte-level layouts.

Every type knows its width and (for scalars) its numpy dtype, so a table
schema can compute the byte geometry the fabric is programmed with.
DECIMAL is a scaled int64 (exact, like the fixed-point decimals TPC-H
needs); DATE is days since 1970-01-01 in an int32.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.errors import SchemaError

_EPOCH = datetime.date(1970, 1, 1)


@dataclass(frozen=True)
class DataType:
    """A fixed-width column type.

    ``np_dtype`` is None for opaque byte payloads (CHAR); scalar types
    carry a little-endian numpy dtype string matching ``width``.
    """

    name: str
    width: int
    np_dtype: Optional[str]
    #: Decimal scale (digits after the point) for DECIMAL types, else 0.
    scale: int = 0

    #: Python value → raw stored value (int/float/bytes). Picked once,
    #: when the type is built, from the type's kind.
    encode: Callable[[Any], Any] = field(init=False, repr=False, compare=False)
    #: Raw stored value → Python value; picked alongside ``encode``.
    decode: Callable[[Any], Any] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.width <= 0:
            raise SchemaError(f"type {self.name}: non-positive width")
        if self.np_dtype is not None and np.dtype(self.np_dtype).itemsize != self.width:
            raise SchemaError(
                f"type {self.name}: dtype {self.np_dtype} width mismatch"
            )
        if self.name.startswith("DECIMAL"):
            kind = "decimal"
        elif self.name == "DATE":
            kind = "date"
        elif self.np_dtype is None:
            kind = "char"
        else:
            kind = "scalar"
        object.__setattr__(self, "encode", getattr(self, f"_encode_{kind}"))
        object.__setattr__(self, "decode", getattr(self, f"_decode_{kind}"))

    def __reduce__(self):
        # Rebuild through __init__ so the codec is picked again.
        return (DataType, (self.name, self.width, self.np_dtype, self.scale))

    # ------------------------------------------------------------------
    # Python value ↔ stored representation, one pair per kind.
    # ------------------------------------------------------------------
    def _encode_decimal(self, value: Any) -> int:
        return int(round(float(value) * 10**self.scale))

    def _decode_decimal(self, raw: Any) -> float:
        return int(raw) / 10**self.scale

    def _encode_date(self, value: Any) -> int:
        if isinstance(value, datetime.date):
            return (value - _EPOCH).days
        return int(value)

    def _decode_date(self, raw: Any) -> datetime.date:
        return _EPOCH + datetime.timedelta(days=int(raw))

    def _encode_char(self, value: Any) -> bytes:
        data = value.encode() if isinstance(value, str) else bytes(value)
        if len(data) > self.width:
            raise SchemaError(
                f"CHAR({self.width}) value too long ({len(data)} bytes)"
            )
        return data.ljust(self.width, b"\x00")

    def _decode_char(self, raw: Any) -> str:
        return bytes(raw).rstrip(b"\x00").decode(errors="replace")

    def _encode_scalar(self, value: Any) -> Any:
        return value

    def _decode_scalar(self, raw: Any) -> Any:
        if isinstance(raw, np.integer):
            return int(raw)
        if isinstance(raw, np.floating):
            return float(raw)
        return raw

    def decode_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorized decode for numeric types (DECIMAL → float array)."""
        if self.name.startswith("DECIMAL"):
            return values / 10**self.scale
        return values


INT8 = DataType("INT8", 1, "<i1")
INT16 = DataType("INT16", 2, "<i2")
INT32 = DataType("INT32", 4, "<i4")
INT64 = DataType("INT64", 8, "<i8")
FLOAT32 = DataType("FLOAT32", 4, "<f4")
FLOAT64 = DataType("FLOAT64", 8, "<f8")
DATE = DataType("DATE", 4, "<i4")
BOOL = DataType("BOOL", 1, "<i1")
TIMESTAMP = DataType("TIMESTAMP", 8, "<i8")


def DECIMAL(scale: int = 2) -> DataType:
    """Exact fixed-point decimal stored as a scaled int64."""
    return DataType(f"DECIMAL({scale})", 8, "<i8", scale=scale)


def CHAR(n: int) -> DataType:
    """Fixed-width byte string of ``n`` bytes, NUL padded."""
    return DataType(f"CHAR({n})", n, None)


def parse_type(text: str) -> DataType:
    """Parse a type name as written in DDL (``INT64``, ``CHAR(12)`` ...)."""
    text = text.strip().upper()
    simple = {
        t.name: t
        for t in (INT8, INT16, INT32, INT64, FLOAT32, FLOAT64, DATE, BOOL, TIMESTAMP)
    }
    if text in simple:
        return simple[text]
    if text.startswith("CHAR(") and text.endswith(")"):
        return CHAR(int(text[5:-1]))
    if text.startswith("DECIMAL(") and text.endswith(")"):
        return DECIMAL(int(text[8:-1]))
    if text == "DECIMAL":
        return DECIMAL()
    raise SchemaError(f"unknown type {text!r}")
