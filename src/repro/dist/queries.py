"""Canonical scatter-gather plans: TPC-H Q1 and Q6 over lineitem.

Both plans keep every value in exact scaled-int form (DECIMAL(2) raw
storage), so the aggregates below come back at composite scales:

- Q6 ``revenue`` = Σ extendedprice·discount → scale 10^-4 (cents ×
  hundredths).
- Q1 ``sum_disc_price`` = Σ extendedprice·(100 − discount) → 10^-4;
  ``sum_charge`` = Σ extendedprice·(100 − discount)·(100 + tax) → 10^-6.

Callers divide for display; the tests and the chaos oracle compare the
raw integers, which is what makes "byte-identical across shard counts"
a meaningful check rather than a float-tolerance one.

Both plans are keyed on ``l_orderkey`` — the sort key the TPC-H loader
emits and the natural range-sharding key — so an optional key range
exercises shard pruning and boundary-shard filtering.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.selection import CompareOp
from repro.db.expr import And, Between, BinOp, ColumnRef, Compare, Expr, Literal
from repro.db.plan.binder import BoundQuery
from repro.dist.plan import AggSpec, AggTerm, DistPlan, DistPredicate
from repro.errors import PlanError
from repro.workloads.tpch import _days

__all__ = ["dist_plan_for", "q1_plan", "q6_plan"]

#: Q1's date cutoff: shipdate <= 1998-12-01 - 90 days.
Q1_SHIP_CUTOFF = _days(1998, 12, 1) - 90
Q6_SHIP_LO = _days(1994, 1, 1)
Q6_SHIP_HI = _days(1995, 1, 1) - 1  # inclusive form of "< 1995-01-01"


# ----------------------------------------------------------------------
# The SQL bridge: BoundQuery → DistPlan, where expressible.
# ----------------------------------------------------------------------
def _conjuncts(expr: Expr) -> List[Expr]:
    if isinstance(expr, And):
        out: List[Expr] = []
        for term in expr.terms:
            out.extend(_conjuncts(term))
        return out
    return [expr]


def _as_predicates(expr: Optional[Expr]) -> Tuple[DistPredicate, ...]:
    """WHERE as pushed-down ``col <op> int`` conjuncts, or PlanError."""
    if expr is None:
        return ()
    preds: List[DistPredicate] = []
    for term in _conjuncts(expr):
        if isinstance(term, Between):
            if not isinstance(term.term, ColumnRef) or not (
                isinstance(term.low, Literal) and isinstance(term.high, Literal)
            ):
                raise PlanError(f"cannot push down BETWEEN form {term}")
            preds.append(
                DistPredicate(term.term.name, CompareOp.GE, term.low.value)
            )
            preds.append(
                DistPredicate(term.term.name, CompareOp.LE, term.high.value)
            )
            continue
        if not isinstance(term, Compare):
            raise PlanError(f"cannot push down predicate {term}")
        op = CompareOp.from_sql(term.op)
        left, right = term.left, term.right
        if isinstance(left, Literal) and isinstance(right, ColumnRef):
            left, right, op = right, left, op.flipped
        if not (isinstance(left, ColumnRef) and isinstance(right, Literal)):
            raise PlanError(f"cannot push down predicate {term}")
        if not isinstance(right.value, int):
            raise PlanError(
                f"shard predicates are integer-only, got {right.value!r}"
            )
        preds.append(DistPredicate(left.name, op, right.value))
    return tuple(preds)


def _probe_affine(expr: Expr, column: str) -> Tuple[int, int]:
    """Extract ``(coeff, const)`` when ``expr`` is affine in ``column``
    with integer coefficients, else PlanError."""
    vals = []
    for x in (0, 1, 2):
        try:
            vals.append(expr.eval_row({column: x}))
        except Exception:
            raise PlanError(f"cannot evaluate factor {expr} for pushdown")
    const, at1, at2 = vals
    coeff = at1 - const
    if at2 - at1 != coeff:  # not linear
        raise PlanError(f"factor {expr} is not affine in {column!r}")
    if not (isinstance(coeff, int) and isinstance(const, int)):
        raise PlanError(f"factor {expr} is not integer-affine")
    return coeff, const


def _factors(expr: Expr) -> List[Expr]:
    """Split a top-level integer product into its factors."""
    if isinstance(expr, BinOp) and expr.op == "*":
        return _factors(expr.left) + _factors(expr.right)
    return [expr]


def _as_terms(expr: Expr, name: str) -> Tuple[AggTerm, ...]:
    """SUM argument as a product of integer-affine single-column terms."""
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
        coeff, const = _probe_affine(factor, cols[0])
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
    anything outside it (joins, HAVING, LIMIT/OFFSET, DISTINCT, avg,
    non-integer predicates, non-affine aggregate arguments, ORDER BY
    that is not an ascending group-key prefix). Callers fall back to
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

    predicates = _as_predicates(bound.where)
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
                AggSpec(out.name, out.kind, _as_terms(out.expr, out.name))
            )
        return DistPlan(
            table=bound.table.schema.name,
            key_column=key_column,
            predicates=predicates,
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
        table=bound.table.schema.name,
        key_column=key_column,
        predicates=predicates,
        columns=tuple(columns),
    )


def q1_plan(
    key_low: Optional[int] = None, key_high: Optional[int] = None
) -> DistPlan:
    """TPC-H Q1: pricing summary by (returnflag, linestatus)."""
    ext = AggTerm("l_extendedprice")
    one_minus_disc = AggTerm("l_discount", coeff=-1, const=100)
    one_plus_tax = AggTerm("l_tax", coeff=1, const=100)
    return DistPlan(
        table="lineitem",
        key_column="l_orderkey",
        key_low=key_low,
        key_high=key_high,
        predicates=(
            DistPredicate("l_shipdate", CompareOp.LE, Q1_SHIP_CUTOFF),
        ),
        group_by=("l_returnflag", "l_linestatus"),
        aggregates=(
            AggSpec("sum_qty", "sum", (AggTerm("l_quantity"),)),
            AggSpec("sum_base_price", "sum", (ext,)),
            AggSpec("sum_disc_price", "sum", (ext, one_minus_disc)),
            AggSpec("sum_charge", "sum", (ext, one_minus_disc, one_plus_tax)),
            AggSpec("count_order", "count"),
        ),
    )


def q6_plan(
    key_low: Optional[int] = None, key_high: Optional[int] = None
) -> DistPlan:
    """TPC-H Q6: forecast revenue change (one global sum)."""
    return DistPlan(
        table="lineitem",
        key_column="l_orderkey",
        key_low=key_low,
        key_high=key_high,
        predicates=(
            DistPredicate("l_shipdate", CompareOp.GE, Q6_SHIP_LO),
            DistPredicate("l_shipdate", CompareOp.LE, Q6_SHIP_HI),
            DistPredicate("l_discount", CompareOp.GE, 5),
            DistPredicate("l_discount", CompareOp.LE, 7),
            DistPredicate("l_quantity", CompareOp.LT, 2400),
        ),
        aggregates=(
            AggSpec(
                "revenue",
                "sum",
                (AggTerm("l_extendedprice"), AggTerm("l_discount")),
            ),
        ),
    )
