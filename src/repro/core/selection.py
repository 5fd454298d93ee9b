"""Selection (and aggregation) pushed into the fabric — paper Section IV-B.

"Pushing Other Relational Operators": beyond projection, the fabric can
evaluate simple comparisons per row and emit only qualifying rows, or even
reduce a column group to an aggregate, so the ephemeral variable contains
"only the required data or the aggregation result".

A :class:`FabricPredicate` is deliberately restricted to what cheap
comparator hardware can do: one field against one constant, or a
conjunction of such terms (:class:`FabricFilter`). Anything richer stays
on the CPU. Every unit reads its fields in place from a
:func:`~repro.core.packer.record_view` of the row image.

:func:`select_rows` is every fabric instance's one row selection: MVCC
visibility at a snapshot (Section III-C) ANDed with the comparators.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.core.mvcc_filter import MVCC_BEGIN, MVCC_END, visible_mask_batched
from repro.core.packer import gather
from repro.errors import GeometryError

Number = Union[int, float]


class CompareOp(enum.Enum):
    """Comparator operations realizable as single hardware comparators."""

    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "=="
    NE = "!="

    def apply(self, values: np.ndarray, constant: Number) -> np.ndarray:
        if self is CompareOp.LT:
            return values < constant
        if self is CompareOp.LE:
            return values <= constant
        if self is CompareOp.GT:
            return values > constant
        if self is CompareOp.GE:
            return values >= constant
        if self is CompareOp.EQ:
            return values == constant
        return values != constant

    @classmethod
    def from_sql(cls, op: str) -> "CompareOp":
        """The comparator for a SQL comparison operator (``=``, ``<>``, ...)."""
        return _FROM_SQL[op]

    @property
    def flipped(self) -> "CompareOp":
        """The comparator with its operands swapped: ``c < x`` is ``x > c``."""
        return _FLIPPED[self]


_FROM_SQL = {
    "<": CompareOp.LT,
    "<=": CompareOp.LE,
    ">": CompareOp.GT,
    ">=": CompareOp.GE,
    "=": CompareOp.EQ,
    "<>": CompareOp.NE,
}
_FLIPPED = {
    CompareOp.LT: CompareOp.GT,
    CompareOp.LE: CompareOp.GE,
    CompareOp.GT: CompareOp.LT,
    CompareOp.GE: CompareOp.LE,
    CompareOp.EQ: CompareOp.EQ,
    CompareOp.NE: CompareOp.NE,
}


@dataclass(frozen=True)
class FabricPredicate:
    """``field <op> constant`` evaluated by a fabric comparator."""

    field: str
    op: CompareOp
    constant: Number

    def evaluate(self, records: np.ndarray) -> np.ndarray:
        field = records.dtype.fields.get(self.field)
        if field is None or field[0].kind == "S":
            raise GeometryError(
                f"fabric predicates need scalar fields; {self.field!r} is absent or opaque"
            )
        # The comparator reads the field in place: no copy of the column.
        return self.op.apply(records[self.field], self.constant)


@dataclass(frozen=True)
class FabricFilter:
    """A conjunction of fabric predicates (ANDed comparator outputs)."""

    predicates: Tuple[FabricPredicate, ...]

    @classmethod
    def of(cls, *predicates: FabricPredicate) -> "FabricFilter":
        return cls(predicates=tuple(predicates))

    def __len__(self) -> int:
        return len(self.predicates)

    def evaluate(self, records: np.ndarray) -> np.ndarray:
        mask = np.ones(len(records), dtype=bool)
        for pred in self.predicates:
            mask &= pred.evaluate(records)
        return mask

    def fields(self) -> Tuple[str, ...]:
        return tuple(p.field for p in self.predicates)


def select_rows(
    records: np.ndarray,
    snapshot_ts: Optional[int] = None,
    fabric_filter: Optional[FabricFilter] = None,
) -> Optional[np.ndarray]:
    """The rows of a row image's ``records`` view the fabric emits: those
    valid at ``snapshot_ts`` (when given; compared on the stamp fields in
    place) and passing ``fabric_filter`` (when given). None: every row,
    with nothing allocated."""
    mask = None
    if snapshot_ts is not None:
        mask = visible_mask_batched(records[MVCC_BEGIN], records[MVCC_END], snapshot_ts)
    if fabric_filter is not None:
        fmask = fabric_filter.evaluate(records)
        mask = fmask if mask is None else np.logical_and(mask, fmask, out=mask)
    return mask


@dataclass(frozen=True)
class FabricAggregate:
    """A reduction the fabric can compute over one field of the stream.

    Supported kinds mirror simple adder/comparator trees: ``sum``,
    ``min``, ``max``, ``count``.
    """

    field: str
    kind: str  # "sum" | "min" | "max" | "count"

    _KINDS = ("sum", "min", "max", "count")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise GeometryError(f"unsupported fabric aggregate {self.kind!r}")

    def evaluate(self, records: np.ndarray, mask: np.ndarray = None) -> Number:
        if self.kind == "count":
            return len(records) if mask is None else int(np.count_nonzero(mask))
        # One copy, of the rows that qualify.
        values = gather(records, (self.field,), mask)[self.field]
        if values.size == 0:
            return 0 if self.kind == "sum" else None
        if self.kind == "sum":
            return values.sum(dtype=np.float64 if values.dtype.kind == "f" else np.int64)
        if self.kind == "min":
            return values.min()
        return values.max()
