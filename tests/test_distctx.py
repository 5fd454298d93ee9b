"""Cross-process trace propagation: wire encoding, the graft splice, and
the bit-identity contract of distributed traces.

The acceptance bar for the distributed-tracing spine:

* a grafted distributed trace replays (:meth:`Trace.to_ledger`) to the
  same buckets as the per-query ledger at **every** shard count — grafted
  worker spans are counters-only annotations, never replayable events;
* a hedged loser's spans may land in the trace but can never charge the
  ledger (the winner's partial is the only one merged);
* spans from a SIGKILL-recovered shard come back tagged with the
  incarnation that produced them and render on their own process track
  in the Chrome/Perfetto export.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hyp_st

from repro.core.selection import CompareOp, FabricPredicate
from repro.db.sharding import ShardedTable
from repro.dist import (
    AggSpec,
    AggTerm,
    DistConfig,
    DistPlan,
    ShardCluster,
    execute_plan,
    q6_plan,
)
from repro.faults import SHARD_STALL
from repro.obs import (
    Span,
    Trace,
    TraceContext,
    Tracer,
    graft_partial,
    new_trace_id,
    span_to_wire,
    wire_to_span,
)
from repro.workloads.htap import orders_schema
from repro.workloads.tpch import generate_lineitem


ORDERS_PLAN = DistPlan(
    table="orders",
    key_column="o_id",
    predicates=(FabricPredicate("o_customer", CompareOp.LE, 40),),
    group_by=("o_status",),
    aggregates=(
        AggSpec("sum_amount", "sum", (AggTerm("o_amount"),)),
        AggSpec("n", "count"),
    ),
)


def durable_cluster(config=None, n=120, seed=5):
    cluster = ShardCluster(
        ShardedTable(orders_schema(), "o_id", [100, 200, 300]),
        config or DistConfig(inline=True),
        durable=True,
    )
    cluster.start()
    rng = np.random.default_rng(seed)
    for _ in range(n):
        cluster.insert(
            {
                "o_id": int(rng.integers(0, 400)),
                "o_customer": int(rng.integers(1, 50)),
                "o_amount": float(rng.integers(1, 20_000)) / 100.0,
                "o_status": int(rng.integers(0, 3)),
            }
        )
    return cluster


# ----------------------------------------------------------------------
# The wire protocol: TraceContext and span tree encoding.
# ----------------------------------------------------------------------
class TestWire:
    def test_context_child_carries_identity(self):
        ctx = TraceContext(trace_id="tdeadbeef")
        child = ctx.child(3, 2)
        assert child.trace_id == "tdeadbeef"
        assert child.parent == ctx.parent == "dist.shard_exec"
        assert (child.shard, child.incarnation) == (3, 2)

    def test_new_trace_ids_are_unique_and_prefixed(self):
        ids = {new_trace_id("q") for _ in range(64)}
        assert len(ids) == 64
        assert all(i.startswith("q") for i in ids)

    def test_roundtrip_preserves_shape_but_not_events(self):
        tracer = Tracer()
        with tracer.span("worker.exec", shard=1) as root:
            with tracer.span("frag.scan") as scan:
                tracer.record("dist_scan", 120.0)
                scan.add_counter("rows", 500)
            with tracer.span("frag.agg"):
                tracer.record("dist_agg", 30.0)
        wire = span_to_wire(root)
        rebuilt = wire_to_span(wire)
        assert rebuilt.name == "worker.exec"
        assert [c.name for c in rebuilt.children] == ["frag.scan", "frag.agg"]
        assert rebuilt.attrs["remote"] is True
        # Bucket totals survive as counters for rendering...
        assert rebuilt.children[0].counters["bucket:dist_scan"] == 120.0
        assert rebuilt.children[0].counters["rows"] == 500.0
        # ...and the timeline width ships as an explicit duration...
        assert rebuilt.duration_cycles == root.duration_cycles == 150.0
        # ...but replay sees *no* events: grafts cannot double-charge.
        assert Trace(rebuilt).to_ledger().buckets == {}

    def test_graft_partial_noop_paths(self):
        wire = span_to_wire(Span("x"))
        assert graft_partial(None, wire) is None
        idle = Tracer()
        assert graft_partial(idle, wire) is None  # no open span
        with idle.span("dist.shard_exec"):
            assert graft_partial(idle, None) is None  # reply had no spans
            grafted = graft_partial(idle, wire, hedge_loser=True)
        assert grafted is not None and grafted.attrs["hedge_loser"] is True


# ----------------------------------------------------------------------
# Bit-identity of the grafted distributed trace.
# ----------------------------------------------------------------------
class TestDistTraceIdentity:
    @given(seed=hyp_st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=5, deadline=None)
    def test_to_ledger_identical_across_1_2_4_8_shards(self, seed):
        _, table = generate_lineitem(600, seed=seed)
        serial = execute_plan(table, q6_plan())
        replays = []
        for nshards in (1, 2, 4, 8):
            tracer = Tracer()
            sharded = ShardedTable.split(table, "l_orderkey", nshards)
            with ShardCluster(sharded, DistConfig(inline=True)) as cluster:
                res = cluster.query(q6_plan(), tracer=tracer)
            assert res.to_bytes() == serial.to_bytes()
            replayed = Trace(tracer.last).to_ledger()
            # The grafted trace replays to exactly the per-query ledger —
            # worker spans contributed rendering, not charges.
            assert replayed.buckets == res.ledger.buckets
            replays.append(
                json.dumps(replayed.buckets, sort_keys=True).encode()
            )
        assert len(set(replays)) == 1, "replay diverged across shard counts"

    def test_worker_spans_grafted_with_identity(self):
        _, table = generate_lineitem(800, seed=9)
        tracer = Tracer()
        with ShardCluster(
            ShardedTable.split(table, "l_orderkey", 3), DistConfig(inline=True)
        ) as cluster:
            cluster.query(q6_plan(), tracer=tracer)
        trace = Trace(tracer.last)
        workers = [s for s in trace.root.walk() if s.name == "worker.exec"]
        assert len(workers) == 3
        root_tid = trace.root.attrs.get("trace_id")
        for w in workers:
            assert w.attrs["remote"] is True
            assert w.attrs["incarnation"] == 0
            assert w.attrs["trace_id"] == root_tid
            assert w.parent.name == "dist.shard_exec"
        assert sorted(w.attrs["shard"] for w in workers) == [0, 1, 2]


# ----------------------------------------------------------------------
# Hedging: the loser may appear in the trace, never in the ledger.
# ----------------------------------------------------------------------
class TestHedgedTrace:
    def test_hedge_winner_tagged_and_no_double_charge(self):
        config = DistConfig(
            deadline_s=10.0,
            hedge_after_s=0.1,
            stall_s=1.5,
            fault_rates={SHARD_STALL: 1.0},
            fault_max=1,
            fault_shards=frozenset({0}),
            fault_incarnations=frozenset({0}),
        )
        cluster = durable_cluster(config, n=60)
        try:
            tracer = Tracer()
            serial = cluster.run_serial(ORDERS_PLAN)
            res = cluster.query(ORDERS_PLAN, tracer=tracer)
            assert res.to_bytes() == serial.to_bytes()
            assert cluster.stats.hedge_wins_total >= 1
            trace = Trace(tracer.last)
            winners = [
                s for s in trace.root.walk()
                if s.name == "worker.exec" and s.attrs.get("hedge_winner")
            ]
            assert winners, "no hedge-winner span grafted"
            assert all(w.attrs["incarnation"] >= 1 for w in winners)
            # Ledger bit-identity holds with hedging in play: the loser's
            # spans (grafted or not) carry zero replayable events.
            assert trace.to_ledger().buckets == res.ledger.buckets
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# SIGKILL + recovery: incarnation tagging end to end (acceptance bar).
# ----------------------------------------------------------------------
class TestKillRecoveryTrace:
    def test_recovered_shard_spans_are_incarnation_tagged(self):
        cluster = durable_cluster()
        try:
            serial = cluster.run_serial(ORDERS_PLAN)
            cluster.kill_shard(1)
            tracer = Tracer()
            res = cluster.query(ORDERS_PLAN, tracer=tracer)
            assert res.to_bytes() == serial.to_bytes()
            trace = Trace(tracer.last)
            # The coordinator recorded the recovery under the awaiting
            # shard_exec span, tagged with the new incarnation...
            recovery = trace.find("dist.recovery")
            assert recovery is not None
            assert recovery.attrs["shard"] == 1
            assert recovery.attrs["incarnation"] == 1
            # ...and the worker's own spans carry the incarnation that
            # actually produced the answer.
            workers = {
                s.attrs["shard"]: s
                for s in trace.root.walk()
                if s.name == "worker.exec"
            }
            assert workers[1].attrs["incarnation"] == 1
            assert all(
                w.attrs["incarnation"] == 0
                for shard, w in workers.items() if shard != 1
            )
        finally:
            cluster.close()

    def test_render_and_chrome_export_show_remote_tracks(self):
        cluster = durable_cluster()
        try:
            cluster.kill_shard(2)
            tracer = Tracer()
            cluster.query(ORDERS_PLAN, tracer=tracer)
            trace = Trace(tracer.last)
            text = trace.render()
            assert "worker.exec" in text and "dist.recovery" in text
            # Remote spans render the shipped duration, marked "~".
            assert "~" in text
            doc = json.loads(trace.to_chrome_json())
            events = doc["traceEvents"]
            # One process track per shard: remote pids 2 + shard.
            pids = {e["pid"] for e in events if e["ph"] == "X"}
            assert pids >= {1, 2, 3, 4, 5}
            names = {
                e["args"]["name"]
                for e in events
                if e["ph"] == "M" and e["name"] == "process_name"
            }
            assert {"shard 0", "shard 1", "shard 2", "shard 3"} <= names
            threads = {
                e["args"]["name"]
                for e in events
                if e["ph"] == "M" and e["name"] == "thread_name"
            }
            # The killed shard answered from its restarted incarnation.
            assert "incarnation 1" in threads
        finally:
            cluster.close()
