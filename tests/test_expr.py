"""Tests for expression trees: the evaluator, op counting, conjuncts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.expr import (
    And,
    Between,
    BinOp,
    ColumnRef,
    Compare,
    InList,
    Literal,
    Not,
    Or,
    conjuncts,
    op_count,
)
from repro.errors import ExecutionError

X = ColumnRef("x")
Y = ColumnRef("y")


class TestEvaluation:
    def test_arith_scalar(self):
        expr = BinOp("+", X, BinOp("*", Y, Literal(2)))
        assert expr.eval_vector({"x": 1, "y": 10}) == 21

    def test_compare_scalar(self):
        assert Compare("<", X, Literal(5)).eval_vector({"x": 3}) is True
        assert Compare(">=", X, Literal(5)).eval_vector({"x": 3}) is False

    def test_and_or_not(self):
        expr = And(
            terms=(
                Compare(">", X, Literal(0)),
                Or(terms=(Compare("<", Y, Literal(5)), Not(Compare("=", X, Literal(3))))),
            )
        )
        assert expr.eval_vector({"x": 1, "y": 9})
        assert not expr.eval_vector({"x": 3, "y": 9})

    def test_not_of_a_constant_is_a_boolean(self):
        # ``~True`` is -2, which is true: NOT must be a logical negation
        # for a constant term as for a column.
        never = Not(Compare("=", Literal(1), Literal(1)))
        false = never.eval_vector({})
        assert not false and false.dtype == bool
        assert Or(terms=(never, Compare("=", X, Literal(1)))).eval_vector(
            {"x": np.array([1, 2])}
        ).tolist() == [True, False]

    def test_between_inclusive(self):
        expr = Between(X, Literal(2), Literal(4))
        assert expr.eval_vector({"x": 2}) and expr.eval_vector({"x": 4})
        assert not expr.eval_vector({"x": 5})

    def test_vector_matches_scalars(self):
        expr = And(
            terms=(
                Compare(">", X, Literal(2)),
                Compare("<", BinOp("+", X, Y), Literal(10)),
            )
        )
        xs = np.array([1, 3, 5, 7])
        ys = np.array([2, 2, 2, 2])
        vec = expr.eval_vector({"x": xs, "y": ys})
        rows = [expr.eval_vector({"x": int(x), "y": int(y)}) for x, y in zip(xs, ys)]
        assert vec.tolist() == rows

    def test_missing_column_raises(self):
        with pytest.raises(ExecutionError):
            X.eval_vector({"y": 1})
        with pytest.raises(ExecutionError):
            X.eval_vector({"y": np.array([1])})

    def test_unknown_operator_rejected(self):
        with pytest.raises(ExecutionError):
            BinOp("%", X, Y)
        with pytest.raises(ExecutionError):
            Compare("~", X, Y)


class TestIntrospection:
    def test_columns(self):
        expr = And(terms=(Compare("<", X, Literal(1)), Compare("<", Y, X)))
        assert expr.columns() == frozenset({"x", "y"})

    def test_op_count(self):
        assert op_count(X) == 0
        assert op_count(Literal(3)) == 0
        assert op_count(BinOp("+", X, Y)) == 1
        assert op_count(Compare("<", BinOp("+", X, Y), Literal(1))) == 2
        assert op_count(Between(X, Literal(1), Literal(2))) == 2
        assert (
            op_count(And(terms=(Compare("<", X, Literal(1)),) * 3)) == 3 + 2
        )

    def test_conjuncts_flatten_nested_and(self):
        a = Compare("<", X, Literal(1))
        b = Compare(">", Y, Literal(2))
        c = Compare("=", X, Y)
        expr = And(terms=(a, And(terms=(b, c))))
        assert conjuncts(expr) == (a, b, c)

    def test_conjuncts_of_non_and(self):
        a = Or(terms=(Compare("<", X, Literal(1)), Compare(">", X, Literal(9))))
        assert conjuncts(a) == (a,)

    def test_str_rendering(self):
        expr = Compare("<", BinOp("*", X, Literal(2)), Y)
        assert str(expr) == "((x * 2) < y)"


@st.composite
def arith_exprs(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return draw(st.sampled_from([X, Y]))
        return Literal(draw(st.integers(min_value=-100, max_value=100)))
    op = draw(st.sampled_from(["+", "-", "*"]))
    return BinOp(op, draw(arith_exprs(depth + 1)), draw(arith_exprs(depth + 1)))


@st.composite
def predicates(draw, depth=0):
    """Boolean trees over arithmetic, constant comparisons included."""
    kind = draw(st.sampled_from(
        ["compare", "between", "in"] + (["and", "or", "not"] if depth < 2 else [])
    ))
    if kind == "compare":
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        return Compare(op, draw(arith_exprs(1)), draw(arith_exprs(1)))
    if kind == "between":
        return Between(draw(arith_exprs(1)), draw(arith_exprs(2)), draw(arith_exprs(2)))
    if kind == "in":
        values = draw(st.lists(st.integers(-100, 100), min_size=1, max_size=4))
        return InList(draw(arith_exprs(1)), tuple(values))
    if kind == "not":
        return Not(draw(predicates(depth + 1)))
    terms = tuple(draw(st.lists(predicates(depth + 1), min_size=2, max_size=3)))
    return And(terms) if kind == "and" else Or(terms)


class TestProperties:
    # Points stay within +-100 so no product of eight leaves leaves int64:
    # integer wrap-around is the arrays' own semantics, not the evaluator's.
    @given(
        st.one_of(arith_exprs(), predicates()),
        st.lists(
            st.tuples(
                st.integers(min_value=-100, max_value=100),
                st.integers(min_value=-100, max_value=100),
            ),
            min_size=1,
            max_size=20,
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_scalar_and_array_evaluation_agree(self, expr, points):
        """``eval_vector`` over Python scalars equals ``eval_vector`` over
        one-element arrays, point by point."""
        for x, y in points:
            scalar = expr.eval_vector({"x": x, "y": y})
            array = expr.eval_vector(
                {"x": np.array([x], dtype=np.int64), "y": np.array([y], dtype=np.int64)}
            )
            assert np.shape(scalar) == ()
            assert np.broadcast_to(array, (1,)).tolist() == [scalar]
