"""Row-major table frames: the single copy of the base data.

The paper's design point is that base data lives in exactly one
row-oriented image (efficient to ingest and update) and every other
layout is ephemeral. :class:`Table` is that image: a ``(capacity,
row_stride)`` uint8 numpy array, with append fast paths both for Python
rows (OLTP style) and whole column arrays (bulk load).

When the schema carries MVCC columns the table also maintains the
begin/end timestamp stamps; the transaction manager in
:mod:`repro.db.mvcc` drives them.

Every write goes through one zero-copy record view of the frame, by
field name: an append writes one record, a new MVCC version is one
record copy plus its changed fields (:meth:`Table.append_version`), a
bulk load writes whole fields of a block of records, a stamp writes one
field, and a point read reads one record. No code here computes a byte
offset. Whole-column copies (:meth:`Table.column`,
the ``begin_ts``/``end_ts`` properties) are for callers that keep the
arrays; visibility compares on the stamp views and keeps only the mask.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.mvcc_filter import LIVE_TS, NEVER_TS
from repro.core.packer import blocks, gather, record_view
from repro.core.selection import select_rows
from repro.db.schema import MVCC_BEGIN, MVCC_END, Column, TableSchema
from repro.errors import SchemaError

_INITIAL_CAPACITY = 64


class Table:
    """A row-oriented relational table over one contiguous byte frame."""

    def __init__(self, schema: TableSchema, capacity: int = _INITIAL_CAPACITY):
        self.schema = schema
        self._set_frame(np.zeros((max(capacity, 1), schema.row_stride), dtype=np.uint8))
        self.nrows = 0
        #: Monotonic mutation counter; columnar replicas compare against it
        #: to detect staleness (the HTAP freshness story).
        self.version = 0

    # ------------------------------------------------------------------
    # Storage management.
    # ------------------------------------------------------------------
    @property
    def frame(self) -> np.ndarray:
        """The live row image, ``(nrows, row_stride)`` uint8."""
        return self._frame[: self.nrows]

    @property
    def nbytes(self) -> int:
        """Bytes of live row data (the paper's data-size axis)."""
        return self.nrows * self.schema.row_stride

    def _set_frame(self, frame: np.ndarray) -> None:
        """Install a new frame and the record view every point access
        goes through; the only place either is replaced."""
        self._frame = frame
        self._records = record_view(frame, self.schema.full_geometry())

    def _ensure_capacity(self, extra: int) -> None:
        needed = self.nrows + extra
        if needed <= self._frame.shape[0]:
            return
        new_cap = max(needed, self._frame.shape[0] * 2)
        grown = np.zeros((new_cap, self.schema.row_stride), dtype=np.uint8)
        grown[: self.nrows] = self._frame[: self.nrows]
        self._set_frame(grown)

    # ------------------------------------------------------------------
    # Ingestion.
    # ------------------------------------------------------------------
    def append_row(self, values: Mapping[str, Any]) -> int:
        """Append one row from a column→value mapping; returns its index.

        MVCC tables default the new row to (NEVER, LIVE): invisible until
        a transaction stamps its begin timestamp.
        """
        self._ensure_capacity(1)
        idx = self.nrows
        provided = dict(values)
        if self.schema.mvcc:
            provided.setdefault(MVCC_BEGIN, NEVER_TS)
            provided.setdefault(MVCC_END, LIVE_TS)
        try:
            # From a list, not a generator: tuple(generator) over-allocates
            # and shrinks, so each freed tuple lands on a free list that
            # path never draws from, and ~160 KB of them pile up.
            self._records[idx] = tuple(
                [col.dtype.encode(provided[col.name]) for col in self.schema.columns]
            )
            written = True
        except Exception:
            written = False
        if not written:
            # Encoding every value before the write would let a later
            # column's error win; writing field by field decides instead:
            # the first bad column in schema order raises.
            self._write_fields(idx, provided, self.schema.columns)
        self.nrows += 1
        self.version += 1
        return idx

    def append_version(self, slot: int, changes: Mapping[str, Any]) -> int:
        """Append a new version of row ``slot``; returns its index.

        The version is a copy of ``slot``'s record with only the columns
        named in ``changes`` re-encoded (other keys are ignored), stamped
        (NEVER, LIVE) on MVCC tables. Untouched fields keep their stored
        bytes exactly. A bad value raises what :meth:`append_row` raises
        for it, the first bad changed column in schema order deciding, and
        leaves ``nrows`` and ``version`` as they were.
        """
        if not 0 <= slot < self.nrows:
            raise IndexError(slot)
        self._ensure_capacity(1)
        idx = self.nrows
        self._records[idx] = self._records[slot]
        self._write_fields(
            idx, changes, [c for c in self.schema.user_columns if c.name in changes]
        )
        if self.schema.mvcc:
            self._records[idx][MVCC_BEGIN] = NEVER_TS
            self._records[idx][MVCC_END] = LIVE_TS
        self.nrows += 1
        self.version += 1
        return idx

    def _write_fields(
        self, idx: int, values: Mapping[str, Any], columns: Sequence[Column]
    ) -> None:
        """Encode ``values`` of ``columns`` (in schema order) into record
        ``idx``, one field at a time, so the first bad column raises."""
        record = self._records[idx]
        for col in columns:
            if col.name not in values:
                raise SchemaError(f"missing value for column {col.name!r}")
            record[col.name] = col.dtype.encode(values[col.name])

    def append_rows(self, rows: Iterable[Mapping[str, Any]]) -> List[int]:
        return [self.append_row(r) for r in rows]

    def append_arrays(self, columns: Mapping[str, np.ndarray]) -> None:
        """Bulk-append from whole column arrays (one per user column).

        Numeric arrays must already be in raw stored form (e.g. scaled
        ints for DECIMAL); CHAR columns take ``S<width>`` byte arrays.
        The new rows are written a cache-sized block of records at a time
        (:func:`~repro.core.packer.blocks`, as :func:`gather` reads them):
        every column of a block, and its MVCC stamps, while the block is
        resident, each converted a block at a time. A bad value raises
        and leaves ``nrows`` and ``version`` as they were.
        """
        names = set(columns)
        expected = set(c.name for c in self.schema.user_columns)
        if names != expected:
            raise SchemaError(
                f"bulk load columns {sorted(names)} != schema {sorted(expected)}"
            )
        lengths = {len(v) for v in columns.values()}
        if len(lengths) != 1:
            raise SchemaError(f"ragged bulk load: lengths {sorted(lengths)}")
        (n,) = lengths
        self._ensure_capacity(n)
        records = self._records[self.nrows : self.nrows + n]
        stored = [
            (col.name, col.dtype.np_dtype or f"S{col.dtype.width}")
            for col in self.schema.user_columns
        ]
        for part in blocks(n, self.schema.row_stride):
            block = records[part]
            for name, dtype in stored:
                block[name] = np.asarray(columns[name][part], dtype=dtype)
            if self.schema.mvcc:
                block[MVCC_BEGIN] = NEVER_TS
                block[MVCC_END] = LIVE_TS
        self.nrows += n
        self.version += 1

    # ------------------------------------------------------------------
    # Reads.
    # ------------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """Raw stored values of one column over live rows, as an array the
        caller owns (scaled ints for DECIMAL, day numbers for DATE,
        ``S<width>`` byte strings for CHAR)."""
        return gather(self._records[: self.nrows], (name,))[name]

    def column_values(self, name: str) -> np.ndarray:
        """Query-facing values: DECIMAL rescaled to floats, CHAR as fixed
        byte strings (``S<width>``), DATE as day numbers."""
        return self.read((name,))[name]

    def read(
        self, names: Sequence[str], rows: Optional[np.ndarray] = None
    ) -> Dict[str, np.ndarray]:
        """Query-facing values of the named columns at ``rows`` (a boolean
        mask over the live rows, ascending row positions, or None for
        every row), copied in one :func:`gather` pass over the image."""
        raw = gather(self._records[: self.nrows], names, rows)
        return {n: self.schema.column(n).dtype.decode_array(raw[n]) for n in names}

    def row(self, i: int) -> Dict[str, Any]:
        """One row decoded to Python values (user columns only)."""
        if not 0 <= i < self.nrows:
            raise IndexError(i)
        record = self._records[i]
        return {
            col.name: col.dtype.decode(record[col.name])
            for col in self.schema.user_columns
        }

    def value(self, i: int, name: str) -> Any:
        """One field of one row decoded to a Python value (any column,
        MVCC stamps included), read from that row's record alone."""
        if not 0 <= i < self.nrows:
            raise IndexError(i)
        return self.schema.column(name).dtype.decode(self._records[i][name])

    def rows(self) -> Iterator[Dict[str, Any]]:
        for i in range(self.nrows):
            yield self.row(i)

    # ------------------------------------------------------------------
    # In-place mutation (MVCC bookkeeping and point updates).
    # ------------------------------------------------------------------
    def set_value(self, i: int, name: str, value: Any) -> None:
        if not 0 <= i < self.nrows:
            raise IndexError(i)
        self._records[i][name] = self.schema.column(name).dtype.encode(value)
        self.version += 1

    def row_bytes(self, i: int) -> bytes:
        """The raw stored image of one row slot (all columns, stride wide).

        This is the redo payload the write-ahead log records: replaying it
        with :meth:`write_row_bytes` reproduces the slot exactly.
        """
        if not 0 <= i < self.nrows:
            raise IndexError(i)
        return bytes(self._frame[i])

    def write_row_bytes(self, i: int, data: bytes) -> None:
        """Overwrite (or append at) slot ``i`` with a raw row image.

        Idempotent by construction — writing the same bytes to the same
        slot twice leaves the table unchanged — which is exactly what WAL
        redo needs. Slots between ``nrows`` and ``i`` are padded invisible
        (MVCC tables stamp them NEVER/LIVE) so recovery can replay write
        intents at their original slot indices.
        """
        if len(data) != self.schema.row_stride:
            raise SchemaError(
                f"row image is {len(data)} bytes, stride is {self.schema.row_stride}"
            )
        if i < 0:
            raise IndexError(i)
        if i >= self.nrows:
            self.pad_to(i + 1)
        self._frame[i] = np.frombuffer(data, dtype=np.uint8)
        self.version += 1

    def pad_to(self, n: int) -> None:
        """Extend the table to ``n`` slots of invisible placeholder rows.

        MVCC tables stamp the padding ``(NEVER, LIVE)`` so no snapshot can
        ever see it; plain tables get zero rows. Used only by WAL recovery
        to keep replayed slot indices aligned with the runtime's.
        """
        if n <= self.nrows:
            return
        self._ensure_capacity(n - self.nrows)
        self._frame[self.nrows : n] = 0
        if self.schema.mvcc:
            padding = self._records[self.nrows : n]
            padding[MVCC_BEGIN] = NEVER_TS
            padding[MVCC_END] = LIVE_TS
        self.nrows = n
        self.version += 1

    @classmethod
    def restore(
        cls, schema: TableSchema, frame: bytes, nrows: int, version: int = 0
    ) -> "Table":
        """Rebuild a table from a checkpoint snapshot (schema + raw frame)."""
        if len(frame) != nrows * schema.row_stride:
            raise SchemaError(
                f"snapshot is {len(frame)} bytes, expected "
                f"{nrows} rows x {schema.row_stride}"
            )
        table = cls(schema, capacity=max(nrows, 1))
        if nrows:
            table._frame[:nrows] = np.frombuffer(frame, dtype=np.uint8).reshape(
                nrows, schema.row_stride
            )
        table.nrows = nrows
        table.version = version
        return table

    def retain(self, keep: np.ndarray) -> None:
        """Compact the table to the rows where ``keep`` is True (used by
        MVCC vacuum). Row slot indices change."""
        if keep.shape != (self.nrows,):
            raise SchemaError(
                f"retain mask shape {keep.shape} != ({self.nrows},)"
            )
        kept = self._frame[: self.nrows][keep]
        self._frame[: kept.shape[0]] = kept
        self._frame[kept.shape[0] : self.nrows] = 0
        self.nrows = kept.shape[0]
        self.version += 1

    # MVCC timestamp access -------------------------------------------------
    def _require_mvcc(self) -> None:
        if not self.schema.mvcc:
            raise SchemaError(f"table {self.schema.name!r} has no MVCC columns")

    @property
    def begin_ts(self) -> np.ndarray:
        self._require_mvcc()
        return self.column(MVCC_BEGIN)

    @property
    def end_ts(self) -> np.ndarray:
        self._require_mvcc()
        return self.column(MVCC_END)

    def visible_mask(self, snapshot_ts: int) -> np.ndarray:
        """Rows valid at ``snapshot_ts`` (``begin_ts <= ts < end_ts``): the
        fabric's row selection on the stamp fields; only the mask is kept."""
        self._require_mvcc()
        return select_rows(self._records[: self.nrows], snapshot_ts)

    def stamp_begin(self, i: int, ts: int) -> None:
        self._require_mvcc()
        self.set_value(i, MVCC_BEGIN, ts)

    def stamp_end(self, i: int, ts: int) -> None:
        self._require_mvcc()
        self.set_value(i, MVCC_END, ts)

    def __len__(self) -> int:
        return self.nrows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Table({self.schema.name!r}, rows={self.nrows}, "
            f"stride={self.schema.row_stride}, bytes={self.nbytes})"
        )
