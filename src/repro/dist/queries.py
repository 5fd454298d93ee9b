"""Scatter-gather plans from SQL: :func:`dist_plan_for` and TPC-H Q1/Q6.

Plans keep every value in exact scaled-int form (DECIMAL(2) raw
storage), so the TPC-H aggregates come back at composite scales:

- Q6 ``revenue`` = Σ extendedprice·discount → scale 10^-4 (cents ×
  hundredths).
- Q1 ``sum_disc_price`` = Σ extendedprice·(100 − discount) → 10^-4;
  ``sum_charge`` = Σ extendedprice·(100 − discount)·(100 + tax) → 10^-6.

Callers divide for display; the tests and the chaos oracle compare the
raw integers, which is what makes "byte-identical across shard counts"
a meaningful check rather than a float-tolerance one.

Both TPC-H plans are keyed on ``l_orderkey`` — the sort key the TPC-H
loader emits and the natural range-sharding key — so an optional key
range exercises shard pruning and boundary-shard filtering.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import List, Optional, Tuple

from repro.db.catalog import Catalog
from repro.db.expr import (
    Between,
    BinOp,
    ColumnRef,
    Compare,
    Expr,
    Literal,
    fabric_comparators,
)
from repro.db.plan.binder import BoundQuery, bind
from repro.db.sql.parser import Parser
from repro.dist.plan import AggSpec, AggTerm, DistPlan
from repro.errors import PlanError
from repro.workloads.tpch import Q6, lineitem_schema

__all__ = ["dist_plan_for", "q1_plan", "q6_plan"]

#: TPC-H Q1 in the dist dialect: no AVG outputs (not exactly mergeable),
#: no ORDER BY (merged groups come back in key order), and the cutoff
#: ``date '1998-12-01' - interval '90' day`` written as its date.
_Q1 = """
SELECT l_returnflag, l_linestatus,
       sum(l_quantity) AS sum_qty,
       sum(l_extendedprice) AS sum_base_price,
       sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
       count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= date '1998-09-02'
GROUP BY l_returnflag, l_linestatus
"""


def _comparisons(term: Expr) -> Tuple[Expr, ...]:
    """A BETWEEN with literal bounds as its two comparisons."""
    if (
        isinstance(term, Between)
        and isinstance(term.low, Literal)
        and isinstance(term.high, Literal)
    ):
        return Compare(">=", term.term, term.low), Compare("<=", term.term, term.high)
    return (term,)


def _probe_affine(expr: Expr, column: str, scale: int) -> Tuple[int, int]:
    """``(coeff, const)`` such that ``expr`` at a stored int ``r`` of
    ``column`` is ``(const + coeff * r) / 10**scale``, both integers, else
    PlanError. The factor is probed in the column's decoded units, at the
    exact values ``r / 10**scale`` for r = 0, 1, 2."""
    unit = 10**scale
    vals = []
    for r in (0, 1, 2):
        try:
            vals.append(expr.eval_vector({column: Fraction(r, unit)}) * unit)
        except Exception:
            raise PlanError(f"cannot evaluate factor {expr} for pushdown")
    const, at1, at2 = vals
    coeff = at1 - const
    if at2 - at1 != coeff:  # not linear
        raise PlanError(f"factor {expr} is not affine in {column!r}")
    if not all(
        isinstance(v, Fraction) and v.denominator == 1 for v in (coeff, const)
    ):
        raise PlanError(f"factor {expr} is not integer-affine")
    return int(coeff), int(const)


def _factors(expr: Expr) -> List[Expr]:
    """Split a top-level integer product into its factors."""
    if isinstance(expr, BinOp) and expr.op == "*":
        return _factors(expr.left) + _factors(expr.right)
    return [expr]


def _as_terms(expr: Expr, name: str, schema) -> Tuple[AggTerm, ...]:
    """SUM argument as a product of integer-affine single-column terms,
    each in its column's raw units."""
    terms: List[AggTerm] = []
    scale = 1
    for factor in _factors(expr):
        if isinstance(factor, Literal):
            if not isinstance(factor.value, int):
                raise PlanError(
                    f"aggregate {name!r}: non-integer factor {factor.value!r}"
                )
            scale *= factor.value
            continue
        cols = sorted(factor.columns())
        if len(cols) != 1:
            raise PlanError(
                f"aggregate {name!r}: factor {factor} must touch exactly "
                f"one column"
            )
        coeff, const = _probe_affine(
            factor, cols[0], schema.column(cols[0]).dtype.scale
        )
        terms.append(AggTerm(cols[0], coeff=coeff, const=const))
    if not terms:
        raise PlanError(f"aggregate {name!r} has no column factor")
    if scale != 1:
        first = terms[0]
        terms[0] = AggTerm(
            first.column, coeff=first.coeff * scale, const=first.const * scale
        )
    return tuple(terms)


def dist_plan_for(bound: BoundQuery, key_column: str) -> DistPlan:
    """Translate a bound single-table SELECT into a :class:`DistPlan`.

    The scatter-gather layer speaks a deliberately narrow, exactly-
    mergeable dialect; this raises :class:`~repro.errors.PlanError` for
    anything outside it (joins, HAVING, LIMIT/OFFSET, DISTINCT, ORDER BY,
    avg, a WHERE conjunct the fabric's comparators cannot take,
    non-affine aggregate arguments). The WHERE clause splits exactly as
    the RM engine's pushdown does
    (:func:`~repro.db.expr.fabric_comparators`), after a BETWEEN with
    literal bounds becomes its two comparisons. Callers fall back to
    single-node execution on PlanError — the SQL fuzzer uses this to
    route shardable statements through the cluster.
    """
    if bound.joins:
        raise PlanError("scatter-gather plans are single-table")
    if bound.having is not None:
        raise PlanError("HAVING is not pushed down")
    if bound.limit is not None or getattr(bound, "offset", None):
        raise PlanError("LIMIT/OFFSET are not distributed")
    if bound.distinct:
        raise PlanError("DISTINCT is not distributed")
    if bound.order_by:
        raise PlanError("ORDER BY is not distributed")

    schema = bound.table.schema
    predicates, residual = fabric_comparators(
        [c for conj in bound.where_conjuncts for c in _comparisons(conj)], schema
    )
    if residual:
        raise PlanError(f"cannot push down predicate {residual[0]}")
    aggregated = any(o.kind != "expr" for o in bound.outputs)
    if aggregated:
        specs: List[AggSpec] = []
        for out in bound.outputs:
            if out.kind == "expr":
                if not (
                    isinstance(out.expr, ColumnRef)
                    and out.expr.name in bound.group_by
                ):
                    raise PlanError(
                        f"output {out.name!r} must be a group key or an "
                        f"aggregate"
                    )
                continue
            if out.kind == "count" and out.expr is None:
                specs.append(AggSpec(out.name, "count"))
                continue
            if out.kind not in ("sum", "min", "max"):
                raise PlanError(f"aggregate {out.kind!r} is not distributed")
            specs.append(
                AggSpec(out.name, out.kind, _as_terms(out.expr, out.name, schema))
            )
        return DistPlan(
            table=schema.name,
            key_column=key_column,
            predicates=tuple(predicates),
            group_by=bound.group_by,
            aggregates=tuple(specs),
        )
    columns: List[str] = []
    for out in bound.outputs:
        if not isinstance(out.expr, ColumnRef):
            raise PlanError(
                f"gather output {out.name!r} must be a plain column"
            )
        columns.append(out.expr.name)
    return DistPlan(
        table=schema.name,
        key_column=key_column,
        predicates=tuple(predicates),
        columns=tuple(columns),
    )


def _lineitem_plan(
    sql: str, key_low: Optional[int], key_high: Optional[int]
) -> DistPlan:
    """``sql`` bound against an empty lineitem in a private catalog,
    keyed on ``l_orderkey`` over ``[key_low, key_high]``."""
    catalog = Catalog()
    catalog.create_table(lineitem_schema())
    plan = dist_plan_for(
        bind(Parser(sql).parse_statement(), catalog), "l_orderkey"
    )
    return replace(plan, key_low=key_low, key_high=key_high)


def q1_plan(
    key_low: Optional[int] = None, key_high: Optional[int] = None
) -> DistPlan:
    """TPC-H Q1: pricing summary by (returnflag, linestatus)."""
    return _lineitem_plan(_Q1, key_low, key_high)


def q6_plan(
    key_low: Optional[int] = None, key_high: Optional[int] = None
) -> DistPlan:
    """TPC-H Q6: forecast revenue change (one global sum)."""
    return _lineitem_plan(Q6, key_low, key_high)
