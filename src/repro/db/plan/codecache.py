"""Code-generation fragment cache (paper §III-B, "Code Generation").

Adaptive compiled engines buffer generated code fragments and reuse them
when a query with the same shape recurs. The paper's observation: the
fabric "aids code generation in two ways. First, Relational Fabric does
not require to buffer different layouts ... Second, since data layouts
are not buffered, Relational Fabric can buffer more code fragments and
reuse previously compiled code fragments more aggressively."

This module makes that claim measurable. A fragment's identity is its
*code shape*:

* on a **row layout**, generated code bakes in the physical byte offsets
  of every accessed column — two queries over different column subsets
  compile to different fragments even when their operator shapes match;
* through the **fabric**, every query sees a densely packed layout whose
  offsets depend only on the accessed *types in order* — structurally
  identical queries share one fragment regardless of which columns they
  touch.

The cache itself is a plain LRU of signatures with a compile-cost charge
on misses, so benches can report hit rates and amortized compilation
cycles per workload under both layouts. It models the compiled code;
it does not hold any: every answer comes from
:func:`repro.db.exec.vector.run_vector`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.db.expr import (
    And,
    Between,
    BinOp,
    ColumnRef,
    Compare,
    Expr,
    InList,
    Literal,
    Not,
    Or,
)
from repro.db.plan.binder import BoundQuery
from repro.errors import PlanError

#: Cycles to generate + compile one fragment (a few ms at 1.5 GHz —
#: in line with published JIT compilation costs for single operators).
DEFAULT_COMPILE_CYCLES = 3_000_000


def _expr_shape(expr: Optional[Expr], column_token) -> str:
    """Structural rendering of an expression where column references are
    replaced by layout-dependent tokens."""
    if expr is None:
        return "-"
    if isinstance(expr, ColumnRef):
        return column_token(expr.name)
    if isinstance(expr, Literal):
        # Generated code treats constants as runtime parameters.
        return "?"
    if isinstance(expr, BinOp):
        return f"({_expr_shape(expr.left, column_token)}{expr.op}{_expr_shape(expr.right, column_token)})"
    if isinstance(expr, Compare):
        return f"({_expr_shape(expr.left, column_token)}{expr.op}{_expr_shape(expr.right, column_token)})"
    if isinstance(expr, And):
        return "&".join(_expr_shape(t, column_token) for t in expr.terms)
    if isinstance(expr, Or):
        return "|".join(_expr_shape(t, column_token) for t in expr.terms)
    if isinstance(expr, Not):
        return f"!{_expr_shape(expr.term, column_token)}"
    if isinstance(expr, Between):
        return f"bw({_expr_shape(expr.term, column_token)})"
    if isinstance(expr, InList):
        # Membership over N runtime constants: the generated code differs
        # by list length, not by the values.
        return f"in({_expr_shape(expr.term, column_token)},{len(expr.values)})"
    raise PlanError(f"cannot shape expression {type(expr).__name__}")


def fragment_signature(bound: BoundQuery, layout: str) -> str:
    """The compiled fragment's identity for ``bound`` under ``layout``.

    ``layout="row"`` bakes physical offsets in; ``layout="ephemeral"``
    uses packed positional types only; ``layout="column"`` uses one
    stream per column, so the token is the column's type at its stream
    position (structurally like ephemeral but per-table). Columns of
    joined tables are tokenized against their own table (prefixed with
    the join ordinal) — join-side data is never fabric-packed, so their
    tokens bake offsets under every layout.
    """
    schema = bound.table.schema
    join_schemas = tuple(j.table.schema for j in bound.joins)

    def join_token(name: str) -> Optional[str]:
        # Right-most table wins, matching executor merge semantics.
        for ti in range(len(join_schemas) - 1, -1, -1):
            js = join_schemas[ti]
            if js.has_column(name):
                return f"J{ti}@{js.offset_of(name)}:{js.column(name).dtype.name}"
        return None

    if layout == "row":
        def token(name: str) -> str:
            if not schema.has_column(name):
                jt = join_token(name)
                if jt is not None:
                    return jt
            col = schema.column(name)
            return f"@{schema.offset_of(name)}:{col.dtype.name}"
    elif layout in ("ephemeral", "column"):
        order = {name: i for i, name in enumerate(bound.referenced_columns)}
        mark = "#" if layout == "ephemeral" else "%"

        def token(name: str) -> str:
            if not schema.has_column(name):
                jt = join_token(name)
                if jt is not None:
                    return jt
            return f"{mark}{order[name]}:{schema.column(name).dtype.name}"
    else:
        raise PlanError(f"unknown layout {layout!r}")

    def in_scope(name: str) -> bool:
        return schema.has_column(name) or any(
            js.has_column(name) for js in join_schemas
        )

    parts = [layout]
    parts.append("W:" + _expr_shape(bound.where, token))
    for out in bound.outputs:
        parts.append(f"O:{out.kind}:{_expr_shape(out.expr, token)}")
    parts.append("G:" + ",".join(token(g) for g in bound.group_by))
    parts.append("S:" + ";".join(
        f"{_expr_shape(o.expr, token)}{'-' if o.descending else '+'}"
        for o in bound.order_by
        if not (isinstance(o.expr, ColumnRef) and not in_scope(o.expr.name))
    ))
    for ti, j in enumerate(bound.joins):
        js = j.table.schema
        rtok = f"J{ti}@{js.offset_of(j.right_col)}:{js.column(j.right_col).dtype.name}"
        parts.append(f"J:{token(j.left_col)}={rtok}")
    if bound.distinct:
        parts.append("D")
    if bound.having is not None:
        parts.append("H:" + _expr_shape(bound.having, lambda n: n))
    return "|".join(parts)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    compile_cycles: float = 0.0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class CodeFragmentCache:
    """An LRU of compiled fragments, held as their code-shape signatures.

    The cache prices compilation; it holds no code. A miss charges
    ``compile_cycles`` and makes the signature resident, evicting the
    least recently used one at capacity; a hit charges nothing. Answers
    come from the executor either way.
    """

    def __init__(
        self,
        capacity: int = 64,
        compile_cycles: float = DEFAULT_COMPILE_CYCLES,
    ):
        if capacity < 1:
            raise PlanError("cache needs capacity >= 1")
        self.capacity = capacity
        self.compile_cycles = compile_cycles
        self.stats = CacheStats()
        self._signatures: "OrderedDict[str, None]" = OrderedDict()

    def lookup(self, bound: BoundQuery, layout: str) -> Tuple[bool, float]:
        """Look up the fragment for ``bound`` under ``layout``, compiling
        it on a miss; returns ``(hit, cycles_charged)``."""
        key = fragment_signature(bound, layout)
        if key in self._signatures:
            self._signatures.move_to_end(key)
            self.stats.hits += 1
            return True, 0.0
        self.stats.misses += 1
        self.stats.compile_cycles += self.compile_cycles
        if len(self._signatures) >= self.capacity:
            self._signatures.popitem(last=False)
            self.stats.evictions += 1
        self._signatures[key] = None
        return False, self.compile_cycles

    @property
    def resident(self) -> int:
        return len(self._signatures)
