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
visibility at a snapshot (Section III-C) ANDed with the comparators. Like
the fabric, which evaluates all of its comparators on each row as the
row streams past, it walks the image once, a cache-resident
:func:`~repro.core.packer.blocks` block at a time, and evaluates the
stamp compare and every comparator on a block while it is resident.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.core.mvcc_filter import MVCC_BEGIN, MVCC_END
from repro.core.packer import blocks, gather
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
        return _OPERATOR[self](values, constant)

    @property
    def ufunc(self) -> np.ufunc:
        """The comparison ufunc, to write a mask in place (``out=``);
        :meth:`apply` keeps the operator, so Python scalars compare to a
        Python bool."""
        return _UFUNC[self]

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
_OPERATOR = {
    CompareOp.LT: operator.lt,
    CompareOp.LE: operator.le,
    CompareOp.GT: operator.gt,
    CompareOp.GE: operator.ge,
    CompareOp.EQ: operator.eq,
    CompareOp.NE: operator.ne,
}
_UFUNC = {
    CompareOp.LT: np.less,
    CompareOp.LE: np.less_equal,
    CompareOp.GT: np.greater,
    CompareOp.GE: np.greater_equal,
    CompareOp.EQ: np.equal,
    CompareOp.NE: np.not_equal,
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


@dataclass(frozen=True)
class FabricFilter:
    """A conjunction of fabric predicates (ANDed comparator outputs)."""

    predicates: Tuple[FabricPredicate, ...]

    @classmethod
    def of(cls, *predicates: FabricPredicate) -> "FabricFilter":
        return cls(predicates=tuple(predicates))

    def __len__(self) -> int:
        return len(self.predicates)

    def fields(self) -> Tuple[str, ...]:
        return tuple(p.field for p in self.predicates)


def select_rows(
    records: np.ndarray,
    snapshot_ts: Optional[int] = None,
    fabric_filter: Optional[FabricFilter] = None,
) -> Optional[np.ndarray]:
    """The rows of a row image's ``records`` view the fabric emits: those
    valid at ``snapshot_ts`` (when given: ``begin_ts <= ts < end_ts`` on
    the stamp fields) and passing ``fabric_filter`` (when given; all rows
    for an empty one). None: every row, with nothing allocated.

    One walk over the image, in :func:`~repro.core.packer.blocks`: each
    compare reads its field of a resident block in place and writes the
    block's slice of the one mask, the first directly and the rest
    through one scratch slice ANDed in. A comparator on an absent or
    opaque field raises :class:`GeometryError` before any block is read.
    """
    if snapshot_ts is None and fabric_filter is None:
        return None
    # (comparison ufunc, field view, constant), in evaluation order.
    compares = []
    if snapshot_ts is not None:
        compares.append((np.less_equal, records[MVCC_BEGIN], snapshot_ts))
        compares.append((np.greater, records[MVCC_END], snapshot_ts))
    fields = records.dtype.fields
    for pred in () if fabric_filter is None else fabric_filter.predicates:
        field = fields.get(pred.field)
        if field is None or field[0].kind == "S":
            raise GeometryError(
                f"fabric predicates need scalar fields; {pred.field!r} is absent or opaque"
            )
        compares.append((pred.op.ufunc, records[pred.field], pred.constant))
    n = len(records)
    if not compares:
        return np.ones(n, dtype=bool)
    mask = np.empty(n, dtype=bool)
    # Each block ANDs through the head of one scratch array, which stays
    # resident from block to block.
    scratch = np.empty(n, dtype=bool)
    (compare, values, constant), *rest = compares
    for part in blocks(n, records.dtype.itemsize):
        out = mask[part]
        compare(values[part], constant, out=out)
        term = scratch[: len(out)]
        for compare_next, values_next, constant_next in rest:
            compare_next(values_next[part], constant_next, out=term)
            out &= term
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
