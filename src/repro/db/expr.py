"""Expression trees and their one evaluator.

One AST serves the whole stack: the SQL parser produces it, the binder
resolves column references, and :meth:`Expr.eval_vector` evaluates it
over a mapping of column names to numpy arrays or to scalars: the
executor's batches, DML's WHERE and SET over the rows they read, INSERT
constant folding over no columns at all, and the shard layer's affine
probe over exact fractions. The engines' cost recipes ask
:func:`op_count` how many primitive operations one evaluation costs.
Every tree-to-tree pass (binding, subquery folding) is one
:func:`rewrite` with its own rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import (
    Any, Callable, ClassVar, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.core.selection import CompareOp, FabricPredicate
from repro.errors import ExecutionError

Value = Union[int, float, str, bytes]


class Expr:
    """Base class; subclasses are frozen dataclasses.

    ``CHILDREN`` names a node's sub-expression fields (a tuple-valued
    field holds several); leaves have none. :func:`rewrite` and
    :meth:`columns` walk every node through it.
    """

    CHILDREN: ClassVar[Tuple[str, ...]] = ()

    def columns(self) -> FrozenSet[str]:
        """Every column name referenced below this node."""
        out: FrozenSet[str] = frozenset()
        for name in self.CHILDREN:
            child = getattr(self, name)
            for sub in child if isinstance(child, tuple) else (child,):
                out |= sub.columns()
        return out

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

@dataclass(frozen=True)
class BinOp(Expr):
    """Arithmetic: ``left <op> right`` with op in ``+ - * /``."""

    op: str
    left: Expr
    right: Expr

    CHILDREN = ("left", "right")

    def __post_init__(self):
        if self.op not in _ARITH:
            raise ExecutionError(f"unknown arithmetic operator {self.op!r}")

    def eval_vector(self, cols: Mapping[str, np.ndarray]) -> Any:
        return _ARITH[self.op](self.left.eval_vector(cols), self.right.eval_vector(cols))

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Compare(Expr):
    """Comparison producing a boolean: ``left <op> right``, through the
    fabric comparators' own operator table (:class:`CompareOp`)."""

    op: str
    left: Expr
    right: Expr

    CHILDREN = ("left", "right")

    def __post_init__(self):
        # The comparator, resolved once per node (not a field: equality,
        # hashing and rewrite see ``op`` alone).
        try:
            object.__setattr__(self, "_compare", CompareOp.from_sql(self.op))
        except KeyError:
            raise ExecutionError(f"unknown comparison operator {self.op!r}") from None

    def eval_vector(self, cols: Mapping[str, np.ndarray]) -> Any:
        return self._compare.apply(self.left.eval_vector(cols), self.right.eval_vector(cols))

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class And(Expr):
    terms: Tuple[Expr, ...]

    CHILDREN = ("terms",)

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

    CHILDREN = ("terms",)

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

    CHILDREN = ("term",)

    def eval_vector(self, cols: Mapping[str, np.ndarray]) -> np.ndarray:
        # Not ``~``: on a Python bool (a constant term) that is -2, true.
        return np.logical_not(self.term.eval_vector(cols))

    def __str__(self) -> str:
        return f"(NOT {self.term})"


@dataclass(frozen=True)
class Between(Expr):
    """``term BETWEEN low AND high`` (inclusive both ends, like SQL)."""

    term: Expr
    low: Expr
    high: Expr

    CHILDREN = ("term", "low", "high")

    def eval_vector(self, cols: Mapping[str, np.ndarray]) -> np.ndarray:
        v = self.term.eval_vector(cols)
        return (self.low.eval_vector(cols) <= v) & (v <= self.high.eval_vector(cols))

    def __str__(self) -> str:
        return f"({self.term} BETWEEN {self.low} AND {self.high})"


@dataclass(frozen=True)
class InList(Expr):
    """``term IN (v1, v2, ...)`` over constant values.

    Evaluated as an OR of equality comparisons (not ``np.isin``) so
    CHAR semantics match :class:`Compare` exactly: both inherit numpy's
    trailing-NUL-blind ``S``-dtype equality.
    """

    term: Expr
    values: Tuple[Value, ...]

    CHILDREN = ("term",)

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


def rewrite(expr: Expr, rule: Callable[[Expr], Optional[Expr]]) -> Expr:
    """``expr`` rewritten top-down by ``rule``: a node ``rule`` returns
    replaces the whole subtree, and on None the walk goes on into the
    node's children. A node is rebuilt only when one of its children
    changed, so an untouched subtree, a leaf above all, comes back as
    the same object (a bound form finds its literal slots by identity)."""
    out = rule(expr)
    if out is not None:
        return out
    changed = {}
    for name in expr.CHILDREN:
        child = getattr(expr, name)
        if isinstance(child, tuple):
            new = tuple(rewrite(t, rule) for t in child)
            if any(a is not b for a, b in zip(new, child)):
                changed[name] = new
        else:
            new = rewrite(child, rule)
            if new is not child:
                changed[name] = new
    return replace(expr, **changed) if changed else expr


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
