"""Selection (and aggregation) pushed into the fabric — paper Section IV-B.

"Pushing Other Relational Operators": beyond projection, the fabric can
evaluate simple comparisons per row and emit only qualifying rows, or even
reduce a column group to an aggregate, so the ephemeral variable contains
"only the required data or the aggregation result".

A :class:`FabricPredicate` is deliberately restricted to what cheap
comparator hardware can do: one field against one constant, or a
conjunction of such terms (:class:`FabricFilter`). Anything richer stays
on the CPU.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from repro.core.geometry import DataGeometry
from repro.core.packer import gather, record_view
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

    def evaluate(self, frame: np.ndarray, geometry: DataGeometry) -> np.ndarray:
        if geometry.field(self.field).dtype is None:
            raise GeometryError(
                f"fabric predicates need scalar fields; {self.field!r} is opaque"
            )
        # The comparator reads the field in place: no copy of the column.
        return self.op.apply(record_view(frame, geometry)[self.field], self.constant)


@dataclass(frozen=True)
class FabricFilter:
    """A conjunction of fabric predicates (ANDed comparator outputs)."""

    predicates: Tuple[FabricPredicate, ...]

    @classmethod
    def of(cls, *predicates: FabricPredicate) -> "FabricFilter":
        return cls(predicates=tuple(predicates))

    def __len__(self) -> int:
        return len(self.predicates)

    def evaluate(self, frame: np.ndarray, geometry: DataGeometry) -> np.ndarray:
        mask = np.ones(frame.shape[0], dtype=bool)
        for pred in self.predicates:
            mask &= pred.evaluate(frame, geometry)
        return mask

    def fields(self) -> Tuple[str, ...]:
        return tuple(p.field for p in self.predicates)


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

    def evaluate(
        self, frame: np.ndarray, geometry: DataGeometry, mask: np.ndarray = None
    ) -> Number:
        if self.kind == "count":
            n = frame.shape[0] if mask is None else int(np.count_nonzero(mask))
            return n
        # One copy, of the rows that qualify.
        values = gather(record_view(frame, geometry), (self.field,), mask)[self.field]
        if values.size == 0:
            return 0 if self.kind == "sum" else None
        if self.kind == "sum":
            return values.sum(dtype=np.float64 if values.dtype.kind == "f" else np.int64)
        if self.kind == "min":
            return values.min()
        return values.max()
