"""Table schemas: named, typed columns with a concrete byte layout.

A schema is the bridge between the relational world and the fabric's
byte-exact world: it lays columns out back to back in declaration order
(optionally padding the row to an alignment) and can emit the
:class:`~repro.core.geometry.DataGeometry` for any column subset.

Schemas can carry the two hidden MVCC timestamp columns of paper Section
III-C (``__begin_ts``/``__end_ts``), appended after the user columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.core.geometry import DataGeometry, FieldSlice
from repro.core.mvcc_filter import MVCC_BEGIN, MVCC_END
from repro.db.types import DataType, TIMESTAMP
from repro.errors import SchemaError


@dataclass(frozen=True)
class Column:
    """One user-visible column: a name and a type."""

    name: str
    dtype: DataType

    def __post_init__(self):
        if not self.name or self.name.strip() != self.name:
            raise SchemaError(f"bad column name {self.name!r}")


class TableSchema:
    """An ordered set of columns with computed byte offsets.

    ``row_align`` pads the row stride up to a multiple (the synthetic
    workloads use 64 to match the paper's 64-byte rows exactly).
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        row_align: int = 1,
        mvcc: bool = False,
    ):
        if not columns:
            raise SchemaError(f"table {name!r} needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {name!r} has duplicate column names")
        for reserved in (MVCC_BEGIN, MVCC_END):
            if reserved in names:
                raise SchemaError(f"{reserved} is reserved for MVCC bookkeeping")
        self.name = name
        self.mvcc = mvcc
        self.columns: Tuple[Column, ...] = tuple(columns)
        if mvcc:
            self.columns = self.columns + (
                Column(MVCC_BEGIN, TIMESTAMP),
                Column(MVCC_END, TIMESTAMP),
            )
        self._offsets: Dict[str, int] = {}
        cursor = 0
        for col in self.columns:
            self._offsets[col.name] = cursor
            cursor += col.dtype.width
        if row_align > 1:
            cursor = (cursor + row_align - 1) // row_align * row_align
        self.row_stride = cursor
        self.row_align = row_align
        self._full_geometry: Optional[DataGeometry] = None

    # ------------------------------------------------------------------
    # Lookup.
    # ------------------------------------------------------------------
    @property
    def user_columns(self) -> Tuple[Column, ...]:
        """Columns excluding MVCC bookkeeping."""
        if not self.mvcc:
            return self.columns
        return self.columns[:-2]

    @property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.user_columns)

    def column(self, name: str) -> Column:
        for c in self.columns:
            if c.name == name:
                return c
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    def offset_of(self, name: str) -> int:
        if name not in self._offsets:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        return self._offsets[name]

    # ------------------------------------------------------------------
    # Geometry emission — the schema → fabric contract.
    # ------------------------------------------------------------------
    def field_slice(self, name: str) -> FieldSlice:
        col = self.column(name)
        return FieldSlice(
            name=col.name,
            offset=self.offset_of(name),
            width=col.dtype.width,
            dtype=col.dtype.np_dtype,
        )

    def geometry(self, names: Optional[Iterable[str]] = None) -> DataGeometry:
        """Geometry of the given column group (default: all user columns),
        in the requested order."""
        wanted = list(names) if names is not None else list(self.column_names)
        return DataGeometry(
            row_stride=self.row_stride,
            fields=tuple(self.field_slice(n) for n in wanted),
        )

    def full_geometry(self) -> DataGeometry:
        """Every column including MVCC bookkeeping (built once per schema)."""
        if self._full_geometry is None:
            self._full_geometry = self.geometry(c.name for c in self.columns)
        return self._full_geometry

    def bytes_of(self, names: Iterable[str]) -> int:
        """Packed width of a column group (data-movement accounting)."""
        return sum(self.column(n).dtype.width for n in names)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cols = ", ".join(f"{c.name}:{c.dtype.name}" for c in self.columns)
        return f"TableSchema({self.name!r}, [{cols}], stride={self.row_stride})"
