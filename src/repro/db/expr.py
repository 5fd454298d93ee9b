"""Expression trees with row-at-a-time and vectorized evaluators.

One AST serves the whole stack: the SQL parser produces it, the binder
resolves column references, UPDATE assignments and constant folding
evaluate it per row, the vectorized executor evaluates it over numpy
columns, and
the engines' cost recipes ask :func:`op_count` how many primitive
operations one evaluation costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.selection import CompareOp, FabricPredicate
from repro.errors import ExecutionError

Value = Union[int, float, str, bytes]


class Expr:
    """Base class; subclasses are frozen dataclasses."""

    def columns(self) -> FrozenSet[str]:
        """Every column name referenced below this node."""
        raise NotImplementedError

    def eval_row(self, row: Mapping[str, Any]) -> Any:
        raise NotImplementedError

    def eval_vector(self, cols: Mapping[str, np.ndarray]) -> Any:
        raise NotImplementedError


@dataclass(frozen=True)
class ColumnRef(Expr):
    #: ``qualifier`` is the parsed table name/alias of a qualified
    #: reference (``o.amount``). The binder resolves and strips it, so
    #: bound expressions always carry ``qualifier=None`` — evaluators key
    #: batches by bare column name.
    name: str
    qualifier: "str | None" = None

    def columns(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def eval_row(self, row: Mapping[str, Any]) -> Any:
        try:
            return row[self.name]
        except KeyError:
            raise ExecutionError(f"row has no column {self.name!r}")

    def eval_vector(self, cols: Mapping[str, np.ndarray]) -> Any:
        try:
            return cols[self.name]
        except KeyError:
            raise ExecutionError(f"batch has no column {self.name!r}")

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class Literal(Expr):
    value: Value

    def columns(self) -> FrozenSet[str]:
        return frozenset()

    def eval_row(self, row: Mapping[str, Any]) -> Any:
        return self.value

    def eval_vector(self, cols: Mapping[str, np.ndarray]) -> Any:
        return self.value

    def __str__(self) -> str:
        return repr(self.value)


_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}

_COMPARE = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _scalar(v: Any) -> Any:
    """Normalize one row-at-a-time comparison operand.

    numpy's vectorized ``S``-dtype comparisons ignore trailing NULs (the
    CHAR pad byte); Python ``bytes`` comparisons do not. Stripping here
    keeps row-at-a-time evaluation in step with the vectorized one when
    a CHAR column meets a width-padded literal.
    """
    if isinstance(v, bytes):
        return v.rstrip(b"\x00")
    return v


@dataclass(frozen=True)
class BinOp(Expr):
    """Arithmetic: ``left <op> right`` with op in ``+ - * /``."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in _ARITH:
            raise ExecutionError(f"unknown arithmetic operator {self.op!r}")

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def eval_row(self, row: Mapping[str, Any]) -> Any:
        return _ARITH[self.op](self.left.eval_row(row), self.right.eval_row(row))

    def eval_vector(self, cols: Mapping[str, np.ndarray]) -> Any:
        return _ARITH[self.op](self.left.eval_vector(cols), self.right.eval_vector(cols))

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Compare(Expr):
    """Comparison producing a boolean: ``left <op> right``."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in _COMPARE:
            raise ExecutionError(f"unknown comparison operator {self.op!r}")

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()

    def eval_row(self, row: Mapping[str, Any]) -> Any:
        return _COMPARE[self.op](
            _scalar(self.left.eval_row(row)), _scalar(self.right.eval_row(row))
        )

    def eval_vector(self, cols: Mapping[str, np.ndarray]) -> Any:
        return _COMPARE[self.op](
            self.left.eval_vector(cols), self.right.eval_vector(cols)
        )

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class And(Expr):
    terms: Tuple[Expr, ...]

    def columns(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for t in self.terms:
            out |= t.columns()
        return out

    def eval_row(self, row: Mapping[str, Any]) -> bool:
        return all(t.eval_row(row) for t in self.terms)

    def eval_vector(self, cols: Mapping[str, np.ndarray]) -> np.ndarray:
        out = None
        for t in self.terms:
            mask = t.eval_vector(cols)
            out = mask if out is None else (out & mask)
        return out

    def __str__(self) -> str:
        return "(" + " AND ".join(str(t) for t in self.terms) + ")"


@dataclass(frozen=True)
class Or(Expr):
    terms: Tuple[Expr, ...]

    def columns(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for t in self.terms:
            out |= t.columns()
        return out

    def eval_row(self, row: Mapping[str, Any]) -> bool:
        return any(t.eval_row(row) for t in self.terms)

    def eval_vector(self, cols: Mapping[str, np.ndarray]) -> np.ndarray:
        out = None
        for t in self.terms:
            mask = t.eval_vector(cols)
            out = mask if out is None else (out | mask)
        return out

    def __str__(self) -> str:
        return "(" + " OR ".join(str(t) for t in self.terms) + ")"


@dataclass(frozen=True)
class Not(Expr):
    term: Expr

    def columns(self) -> FrozenSet[str]:
        return self.term.columns()

    def eval_row(self, row: Mapping[str, Any]) -> bool:
        return not self.term.eval_row(row)

    def eval_vector(self, cols: Mapping[str, np.ndarray]) -> np.ndarray:
        return ~self.term.eval_vector(cols)

    def __str__(self) -> str:
        return f"(NOT {self.term})"


@dataclass(frozen=True)
class Between(Expr):
    """``term BETWEEN low AND high`` (inclusive both ends, like SQL)."""

    term: Expr
    low: Expr
    high: Expr

    def columns(self) -> FrozenSet[str]:
        return self.term.columns() | self.low.columns() | self.high.columns()

    def eval_row(self, row: Mapping[str, Any]) -> bool:
        v = _scalar(self.term.eval_row(row))
        return (
            _scalar(self.low.eval_row(row)) <= v <= _scalar(self.high.eval_row(row))
        )

    def eval_vector(self, cols: Mapping[str, np.ndarray]) -> np.ndarray:
        v = self.term.eval_vector(cols)
        return (self.low.eval_vector(cols) <= v) & (v <= self.high.eval_vector(cols))

    def __str__(self) -> str:
        return f"({self.term} BETWEEN {self.low} AND {self.high})"


@dataclass(frozen=True)
class InList(Expr):
    """``term IN (v1, v2, ...)`` over constant values.

    Evaluated as an OR of equality comparisons (not ``np.isin``) so
    CHAR semantics match :class:`Compare` exactly: the vectorized path
    inherits numpy's trailing-NUL-blind ``S``-dtype equality and the row
    path strips pad bytes via ``_scalar``.
    """

    term: Expr
    values: Tuple[Value, ...]

    def columns(self) -> FrozenSet[str]:
        return self.term.columns()

    def eval_row(self, row: Mapping[str, Any]) -> bool:
        v = _scalar(self.term.eval_row(row))
        return any(v == _scalar(x) for x in self.values)

    def eval_vector(self, cols: Mapping[str, np.ndarray]) -> np.ndarray:
        v = self.term.eval_vector(cols)
        out = None
        for x in self.values:
            mask = v == x
            out = mask if out is None else (out | mask)
        if out is None:
            return np.zeros(np.shape(v), dtype=bool)
        return out

    def __str__(self) -> str:
        inner = ", ".join(repr(x) for x in self.values)
        return f"({self.term} IN ({inner}))"


def op_count(expr: Expr) -> int:
    """Primitive operations per evaluation of ``expr`` — the engines'
    CPU-cost currency. Column refs and literals are free (counted by the
    engines as field extractions); every operator node costs one, BETWEEN
    costs two comparisons."""
    if isinstance(expr, (ColumnRef, Literal)):
        return 0
    if isinstance(expr, (BinOp, Compare)):
        return 1 + op_count(expr.left) + op_count(expr.right)
    if isinstance(expr, (And, Or)):
        return len(expr.terms) - 1 + sum(op_count(t) for t in expr.terms)
    if isinstance(expr, Not):
        return 1 + op_count(expr.term)
    if isinstance(expr, Between):
        return 2 + op_count(expr.term) + op_count(expr.low) + op_count(expr.high)
    if isinstance(expr, InList):
        # One equality per member plus the OR combines.
        return max(2 * len(expr.values) - 1, 1) + op_count(expr.term)
    raise ExecutionError(f"unknown expression node {type(expr).__name__}")


def column_vs_literal(expr: Expr) -> Optional[Tuple[str, CompareOp, Value]]:
    """``expr`` as ``(column, op, value)`` when it compares a column with
    a literal, in either order; None otherwise. A literal-first
    comparison comes back flipped: ``5 < c`` is ``(c, GT, 5)``."""
    if not isinstance(expr, Compare):
        return None
    if isinstance(expr.left, ColumnRef) and isinstance(expr.right, Literal):
        return expr.left.name, CompareOp.from_sql(expr.op), expr.right.value
    if isinstance(expr.right, ColumnRef) and isinstance(expr.left, Literal):
        return expr.right.name, CompareOp.from_sql(expr.op).flipped, expr.left.value
    return None


def fabric_comparators(
    terms: Sequence[Expr], schema
) -> Tuple[List[FabricPredicate], List[Expr]]:
    """WHERE conjuncts split into fabric comparators (Section IV-B: one
    stored field against one constant) and the residue left to the CPU.
    A DECIMAL column compares its scaled ints (:func:`_scaled_comparator`);
    CHAR columns, unknown columns and other shapes stay residual."""
    pushed: List[FabricPredicate] = []
    residual: List[Expr] = []
    for conj in terms:
        pred = None
        term = column_vs_literal(conj)
        if term is not None and schema.has_column(term[0]):
            col, op, lit = term
            dtype = schema.column(col).dtype
            if dtype.scale:
                pred = _scaled_comparator(col, op, lit, dtype)
            elif dtype.np_dtype is not None:
                pred = FabricPredicate(field=col, op=op, constant=lit)
        if pred is not None:
            pushed.append(pred)
        else:
            residual.append(conj)
    return pushed, residual


def _scaled_comparator(
    column: str, op: CompareOp, literal, dtype
) -> Optional[FabricPredicate]:
    """The comparator on a DECIMAL column's stored ints that keeps exactly
    the rows the CPU's ``value <op> literal`` on decoded values keeps; None
    when none does (``=``/``<>`` against a value no stored int decodes to,
    or a bound out of range). Decoding is monotone: ``>=`` holds from the
    first int ``lo`` that decodes to at least ``literal``, ``>`` from the
    first, ``hi``, that decodes above it; the decode of the ints next to
    the scaled literal finds both."""
    guess = float(literal) * 10**dtype.scale
    if not abs(guess) < 2.0**62:
        return None

    def first(test: CompareOp) -> int:
        def passes(raw: int) -> bool:
            return bool(test.apply(dtype.decode_array(np.array([raw])), literal)[0])

        raw = math.floor(guess)
        while passes(raw):
            raw -= 1
        while not passes(raw):
            raw += 1
        return raw

    lo, hi = first(CompareOp.GE), first(CompareOp.GT)
    if op in (CompareOp.EQ, CompareOp.NE):
        return FabricPredicate(column, op, lo) if hi == lo + 1 else None
    return FabricPredicate(column, op, lo if op in (CompareOp.LT, CompareOp.GE) else hi - 1)


def conjuncts(expr: Expr) -> Tuple[Expr, ...]:
    """Split a predicate into top-level AND terms (for pushdown analysis)."""
    if isinstance(expr, And):
        out: Tuple[Expr, ...] = ()
        for t in expr.terms:
            out += conjuncts(t)
        return out
    return (expr,)
