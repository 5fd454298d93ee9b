"""The shard-kill chaos suite, run in-process on a couple of seeds.

CI runs all eight seeds as a matrix job; here two seeds (reduced sizes)
keep the tier-1 suite honest about the harness itself — a refactor that
breaks kill-recovery, typed partials, hedging, or the cross-shard
bit-identity check fails here first.
"""

import pytest

from repro.chaos import ShardKillChaosReport, _oracle_groups, run_shard_kill_chaos
from repro.core.selection import CompareOp
from repro.dist import AggSpec, AggTerm, DistPlan, DistPredicate
from repro.workloads.htap import orders_schema


@pytest.mark.parametrize("seed", [0, 3])
def test_seeded_suite_passes(seed):
    report = run_shard_kill_chaos(seed, n_txns=60, lineitem_rows=6000)
    assert report.passed, report.violations
    assert report.kills == report.shards == 4
    assert report.restarts >= report.kills
    assert report.recoveries >= report.kills
    assert report.recovered_bytes > 0
    assert report.hedge_wins >= 1
    assert report.partial_probes == 1
    assert report.identity_checks == 4


def test_report_to_dict_roundtrips_passed():
    report = ShardKillChaosReport(seed=1, txns=0)
    d = report.to_dict()
    assert d["passed"] is True
    report.violations.append("boom")
    assert report.to_dict()["passed"] is False


def _plan(*predicates):
    return DistPlan(
        table="orders",
        key_column="o_id",
        predicates=tuple(DistPredicate("o_customer", op, v) for op, v in predicates),
        group_by=("o_status",),
        aggregates=(
            AggSpec("sum_amount", "sum", (AggTerm("o_amount"),)),
            AggSpec("max_amount", "max", (AggTerm("o_amount"),)),
            AggSpec("n", "count"),
        ),
    )


#: (o_id, o_customer, o_amount, o_status)
REFEREE_ROWS = [
    (1, 10, 1.50, 0),
    (2, 20, 2.25, 0),
    (3, 30, 10.00, 1),
    (4, 40, 0.75, 1),
    (5, 50, 3.00, 2),
    (6, 20, 4.00, 2),
]


@pytest.mark.parametrize(
    "predicates, expected",
    [
        # customers 20, 40, 20 -> rows 2, 4, 6 (amounts in cents)
        (
            ((CompareOp.LT, 50), (CompareOp.GE, 20), (CompareOp.NE, 30)),
            [((0,), [225, 225, 1]), ((1,), [75, 75, 1]), ((2,), [400, 400, 1])],
        ),
        # customers 10, 20, 20 -> rows 1, 2, 6
        (((CompareOp.LE, 20),), [((0,), [375, 225, 2]), ((2,), [400, 400, 1])]),
        # customer 20 -> rows 2, 6
        (((CompareOp.EQ, 20),), [((0,), [225, 225, 1]), ((2,), [400, 400, 1])]),
        # customers 40, 50 -> rows 4, 5
        (((CompareOp.GT, 30),), [((1,), [75, 75, 1]), ((2,), [300, 300, 1])]),
    ],
)
def test_shard_aggregate_referee_is_independent_of_compare_op(
    predicates, expected, monkeypatch
):
    """The brute-force shard referee must not share the fragment
    executor's comparator: with ``CompareOp.apply`` broken it still
    computes the hand-checked groups."""

    def broken(self, values, constant):
        raise AssertionError("the referee called CompareOp.apply")

    monkeypatch.setattr(CompareOp, "apply", broken)
    rows = [
        {"o_id": i, "o_customer": c, "o_amount": a, "o_status": s}
        for i, c, a, s in REFEREE_ROWS
    ]
    assert _oracle_groups(orders_schema(), _plan(*predicates), rows) == expected
