"""The observability spine: span trees, the null fast path, the
EXPLAIN ANALYZE renderer, and Chrome trace-event export."""

import json

import pytest

from repro.db.engines import (
    ColumnStoreEngine,
    RelationalMemoryEngine,
    RowStoreEngine,
)
from repro.errors import ExecutionError
from repro.obs import NULL_SPAN, Span, Tracer, maybe_span
from repro.workloads.tpch import Q6, generate_lineitem

N_ROWS = 2_000


def _q6_result(engine_cls, tracer=None, memory_model="analytic", nrows=N_ROWS):
    catalog, _ = generate_lineitem(nrows=nrows, seed=7)
    engine = engine_cls(catalog, memory_model=memory_model, tracer=tracer)
    return engine.execute(Q6)


# ----------------------------------------------------------------------
# Span tree mechanics.
# ----------------------------------------------------------------------
class TestSpanTree:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("root", layer="test") as root:
            with tracer.span("a") as a:
                tracer.record("cpu", 10.0)
            with tracer.span("b"):
                with tracer.span("b1"):
                    tracer.record("cpu", 5.0)
        assert tracer.last is root
        assert [c.name for c in root.children] == ["a", "b"]
        assert a.parent is root
        assert root.children[1].children[0].name == "b1"
        assert root.total_cycles == 15.0
        assert root.self_cycles == 0.0

    def test_depth_and_walk(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("mid"):
                with tracer.span("leaf") as leaf:
                    pass
        assert root.depth == 0
        assert leaf.depth == 2
        assert [s.name for s in root.walk()] == ["root", "mid", "leaf"]

    def test_out_of_order_close_raises(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(ExecutionError):
            outer.__exit__(None, None, None)

    def test_charge_outside_any_span_is_dropped(self):
        tracer = Tracer()
        tracer.record("cpu", 99.0)  # no open span: ledger-only charge
        with tracer.span("root") as root:
            tracer.record("cpu", 1.0)
        assert root.total_cycles == 1.0

    def test_duration_is_at_least_as_wide_as_children(self):
        root = Span("root")
        child = Span("device", parent=root)
        child.set_duration(1_000.0)
        assert child.duration_cycles == 1_000.0
        assert root.duration_cycles == 1_000.0  # parent stretches to fit

    def test_counters_accumulate(self):
        span = Span("s")
        span.add_counter("hits", 3)
        span.add_counters({"hits": 2, "misses": 1})
        assert span.counters == {"hits": 5.0, "misses": 1.0}


# ----------------------------------------------------------------------
# The null fast path: no tracer means the shared NULL_SPAN.
# ----------------------------------------------------------------------
class TestNullPath:
    def test_maybe_span_without_tracer_is_null(self):
        with maybe_span(None, "anything", table="t") as span:
            span.set_attrs(rows_out=1)
            span.add_counter("x", 1)
            span.set_duration(5.0)
        assert span is NULL_SPAN

    def test_engines_return_no_trace_without_tracer(self):
        out = _q6_result(RowStoreEngine, tracer=None, nrows=500)
        assert out.trace is None


# ----------------------------------------------------------------------
# Traces from real queries.
# ----------------------------------------------------------------------
class TestQueryTraces:
    @pytest.mark.parametrize(
        "engine_cls", [RowStoreEngine, ColumnStoreEngine, RelationalMemoryEngine]
    )
    def test_trace_shape(self, engine_cls):
        out = _q6_result(engine_cls, tracer=Tracer())
        trace = out.trace
        assert trace is not None
        query = trace.find("query")
        assert query is not None
        assert query.attrs["table"] == "lineitem"
        scan = trace.find("scan")
        assert scan.attrs["rows_in"] == N_ROWS
        agg = trace.find("aggregate")
        assert agg is not None and agg.self_cycles > 0

    def test_scan_probe_counters_in_trace_mode(self):
        out = _q6_result(RowStoreEngine, tracer=Tracer(), memory_model="trace")
        scan = out.trace.find("scan")
        assert scan.counters["l1_misses"] > 0
        assert scan.counters["dram_lines"] > 0

    def test_render_explain_analyze(self):
        out = _q6_result(RowStoreEngine, tracer=Tracer(), memory_model="trace")
        text = out.trace.render()
        assert "query" in text and "scan" in text and "aggregate" in text
        assert "total:" in text
        assert "L1" in text  # cache column populated in trace mode

    def test_rm_dispatch_trace(self):
        out = _q6_result(RelationalMemoryEngine, tracer=Tracer())
        dispatch = out.trace.root
        assert dispatch.name == "dispatch"
        assert out.trace.find("fabric.transform") is not None
        assert out.trace.find("fabric.refresh") is not None


# ----------------------------------------------------------------------
# Chrome trace-event export.
# ----------------------------------------------------------------------
class TestChromeExport:
    def test_schema(self):
        out = _q6_result(RowStoreEngine, tracer=Tracer(), memory_model="trace")
        doc = json.loads(out.trace.to_chrome_json())
        assert set(doc) >= {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        assert events, "empty trace"
        phases = {e["ph"] for e in events}
        assert phases <= {"X", "M"}
        complete = [e for e in events if e["ph"] == "X"]
        for e in complete:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(e)
            assert e["ts"] >= 0 and e["dur"] >= 0

    def test_children_nest_within_parents(self):
        out = _q6_result(ColumnStoreEngine, tracer=Tracer())
        doc = json.loads(out.trace.to_chrome_json())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        root = max(complete, key=lambda e: e["dur"])
        for e in complete:
            assert e["ts"] >= root["ts"]
            assert e["ts"] + e["dur"] <= root["ts"] + root["dur"] + 1e-6

    def test_json_is_serializable_with_numpy_attrs(self):
        out = _q6_result(RowStoreEngine, tracer=Tracer())
        # Round-trip through the serializer must not choke on numpy ints
        # carried in span attrs (rows_out comes from np.count_nonzero).
        json.loads(out.trace.to_chrome_json(indent=2))
