"""Horizontal partitioning and sharding with fabric integration (§III-A).

"Contrary to vertical partitioning that can happen on-the-fly using
Relational Fabric, horizontal partitioning decisions would still need to
be evaluated at physical design time. ... Another functionality that
Relational Fabric can integrate is to handle the communication with
storage devices while exposing its simple ephemeral columns API to the
query. That way, the data system can request the desired column group on
a sharding key range, and the Relational Fabric will directly return the
corresponding data to the query."

:class:`ShardedTable` range-partitions rows on a shard key across
independent :class:`~repro.db.table.Table` shards;
:meth:`ShardedTable.column_group` serves exactly that API — an ephemeral
column group restricted to a key range, touching only the shards that
overlap it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.ephemeral import EphemeralColumnGroup
from repro.core.fabric import RelationalMemory
from repro.core.selection import CompareOp, FabricFilter, FabricPredicate
from repro.db.schema import TableSchema
from repro.db.table import Table
from repro.errors import SchemaError
from repro.hw.config import PlatformConfig
from repro.hw.engine import RmTransformReport


@dataclass
class ShardScan:
    """One shard's contribution to a ranged column-group request."""

    shard_index: int
    group: EphemeralColumnGroup

    @property
    def report(self) -> RmTransformReport:
        return self.group.report


class ShardedTable:
    """A relation range-partitioned on one numeric key column.

    ``boundaries`` are the split points: shard *i* holds keys in
    ``[boundaries[i-1], boundaries[i])`` with open ends at both sides.
    """

    def __init__(
        self,
        schema: TableSchema,
        shard_key: str,
        boundaries: Sequence[int],
        platform: Optional[PlatformConfig] = None,
    ):
        column = schema.column(shard_key)
        if column.dtype.np_dtype is None:
            raise SchemaError(f"shard key {shard_key!r} must be numeric")
        if list(boundaries) != sorted(set(boundaries)):
            raise SchemaError("shard boundaries must be strictly increasing")
        self.schema = schema
        self.shard_key = shard_key
        self.boundaries = list(boundaries)
        self.shards: List[Table] = [
            Table(schema) for _ in range(len(self.boundaries) + 1)
        ]
        self.fabric = RelationalMemory(platform)

    @classmethod
    def split(cls, table: Table, key_column: str, nshards: int) -> "ShardedTable":
        """Range-shard a whole table at the quantiles of ``key_column``.

        Cut points that coincide (skewed keys) collapse into one, so the
        result may hold fewer than ``nshards`` shards. CHAR columns load
        as ``S<width>`` byte views, so every value round-trips exactly.
        """
        keys = table.column(key_column)
        qs = np.linspace(0, 1, nshards + 1)[1:-1]
        bounds = sorted({int(np.quantile(keys, q)) for q in qs})
        sharded = cls(table.schema, key_column, bounds)
        sharded.bulk_load(
            {
                c.name: (
                    table.column(c.name).view(f"S{c.dtype.width}").reshape(-1)
                    if c.dtype.np_dtype is None
                    else table.column(c.name)
                )
                for c in table.schema.user_columns
            }
        )
        return sharded

    # ------------------------------------------------------------------
    # Routing.
    # ------------------------------------------------------------------
    def shard_of(self, key: int) -> int:
        """Index of the shard holding ``key``."""
        return bisect.bisect_right(self.boundaries, key)

    def shards_for_range(
        self, low: Optional[int] = None, high: Optional[int] = None
    ) -> List[int]:
        """Shards overlapping the inclusive key range ``[low, high]``.

        ``None`` means an open end: ``shards_for_range()`` is every
        shard, ``shards_for_range(high=k)`` every shard up to ``k``'s. An
        empty range (``low > high``) overlaps nothing.
        """
        first = 0 if low is None else self.shard_of(low)
        last = len(self.boundaries) if high is None else self.shard_of(high)
        if low is not None and high is not None and low > high:
            return []
        return list(range(first, last + 1))

    def shard_bounds(self, index: int) -> Tuple[Optional[int], Optional[int]]:
        """Inclusive key bounds ``(low, high)`` of shard ``index``;
        ``None`` marks an open end. Shard *i* holds keys in
        ``[boundaries[i-1], boundaries[i])``, so the inclusive high bound
        is ``boundaries[i] - 1`` (integer keys)."""
        if not 0 <= index < len(self.shards):
            raise SchemaError(
                f"shard index {index} out of range [0, {len(self.shards)})"
            )
        low = self.boundaries[index - 1] if index > 0 else None
        high = (
            self.boundaries[index] - 1
            if index < len(self.boundaries)
            else None
        )
        return low, high

    # ------------------------------------------------------------------
    # Ingestion.
    # ------------------------------------------------------------------
    def insert(self, values: Mapping[str, object]) -> Tuple[int, int]:
        """Route one row; returns (shard index, slot within shard)."""
        key = values[self.shard_key]
        shard = self.shard_of(int(key))
        return shard, self.shards[shard].append_row(values)

    def bulk_load(self, columns: Mapping[str, np.ndarray]) -> None:
        """Split whole column arrays across shards in one pass."""
        keys = np.asarray(columns[self.shard_key])
        assignment = np.searchsorted(self.boundaries, keys, side="right")
        for shard_idx in range(len(self.shards)):
            mask = assignment == shard_idx
            if not mask.any():
                continue
            self.shards[shard_idx].append_arrays(
                {name: np.asarray(arr)[mask] for name, arr in columns.items()}
            )

    @property
    def nrows(self) -> int:
        return sum(shard.nrows for shard in self.shards)

    @property
    def nbytes(self) -> int:
        return sum(shard.nbytes for shard in self.shards)

    # ------------------------------------------------------------------
    # The fabric API over shards (§III-A).
    # ------------------------------------------------------------------
    def column_group(
        self,
        columns: Iterable[str],
        key_low: Optional[int] = None,
        key_high: Optional[int] = None,
    ) -> List[ShardScan]:
        """Ephemeral column groups for a shard-key range.

        Only shards overlapping the range are touched; within the
        boundary shards the fabric's comparators trim the partial range,
        interior shards ship unfiltered. Returns one scan per shard, in
        key order.
        """
        wanted = list(columns)
        geometry = self.schema.geometry(wanted)
        base = self.schema.full_geometry()
        indexes = [
            i
            for i in self.shards_for_range(key_low, key_high)
            if self.shards[i].nrows
        ]
        scans: List[ShardScan] = []
        for i in indexes:
            shard = self.shards[i]
            fabric_filter = self._boundary_filter(i, key_low, key_high)
            group = self.fabric.configure(
                shard.frame,
                geometry,
                base_geometry=base,
                fabric_filter=fabric_filter,
            )
            group.refresh()
            scans.append(ShardScan(shard_index=i, group=group))
        return scans

    def _boundary_filter(
        self, shard_index: int, key_low: Optional[int], key_high: Optional[int]
    ) -> Optional[FabricFilter]:
        """Range predicates needed on a boundary shard (None inside)."""
        predicates = []
        shard_lo, shard_hi = self.shard_bounds(shard_index)
        # A bound is needed only where it actually cuts into the shard:
        # keys on a shard's own (inclusive) bounds need no comparator, so
        # a range that exactly covers the shard — including a single-key
        # range on a single-row shard — ships unfiltered.
        if key_low is not None and (shard_lo is None or key_low > shard_lo):
            predicates.append(FabricPredicate(self.shard_key, CompareOp.GE, key_low))
        if key_high is not None and (shard_hi is None or key_high < shard_hi):
            predicates.append(FabricPredicate(self.shard_key, CompareOp.LE, key_high))
        if not predicates:
            return None
        return FabricFilter(predicates=tuple(predicates))

    def gather_column(
        self,
        name: str,
        key_low: Optional[int] = None,
        key_high: Optional[int] = None,
    ) -> np.ndarray:
        """Convenience: one decoded column concatenated across the
        qualifying shards."""
        scans = self.column_group([name], key_low, key_high)
        if not scans:
            # Match the column's real decoded dtype even when nothing
            # qualifies, so callers can concatenate without surprises.
            np_dtype = self.schema.column(name).dtype.np_dtype
            return np.zeros(0, dtype=np_dtype if np_dtype is not None else np.uint8)
        return np.concatenate([scan.group.column(name) for scan in scans])
