"""Outside-in layer tracing for the end-to-end benchmark.

The traced run wraps the public entry points of each layer *where their
callers look them up* (a module global or a class attribute), records one
span per call on the host clock (start, end, parent span, operation id)
and turns the spans into per-layer self time: a call's duration minus the
time of its wrapped children. Nothing in the program changes: wrappers
are installed for the traced window only and the originals are put back
afterwards, which :func:`assert_clean` checks.

Spans stay in memory and are written out once, at the end, in Chrome
trace-event format (``chrome://tracing`` / Perfetto).
"""

from __future__ import annotations

import functools
import importlib
import json
import math
from collections import Counter
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: The layers, named after the modules they cover.
LAYERS = ("sql", "engine", "exec", "fabric", "hw", "mvcc", "wal", "dist", "serve")

#: Attribute set on every wrapper, so a stray one is easy to detect.
MARK = "__e2e_layer__"

#: Chrome export stops here; a longer run keeps its metrics but not
#: every span in the file.
MAX_EXPORTED_SPANS = 200_000


# ----------------------------------------------------------------------
# Observers: per-call counters read from arguments and results.
# Each gets (tracer, args, kwargs, result, duration_ns, parent_layer).
# ----------------------------------------------------------------------
def _engine_rows(t, args, kwargs, result, dur, parent_layer):
    # RelationalMemoryEngine.execute nests Engine.execute; count once.
    if parent_layer != "engine":
        t.counts["engine.rows_scanned"] += result.visible_rows


def _exec_rows(t, args, kwargs, result, dur, parent_layer):
    columns = args[1] if len(args) > 1 else kwargs.get("columns", {})
    t.counts["exec.rows"] += len(next(iter(columns.values()), ()))


def _fabric_refresh(t, args, kwargs, result, dur, parent_layer):
    report = result.report
    t.counts["fabric.rows"] += report.nrows
    t.counts["fabric.out_bytes"] += report.out_bytes


def _hw_lines(t, args, kwargs, result, dur, parent_layer):
    lines = args[1] if len(args) > 1 else kwargs["lines"]
    t.counts["hw.lines"] += len(lines)


def _wal_user_bytes(t, args, kwargs, result, dur, parent_layer):
    rec = args[1] if len(args) > 1 else kwargs["rec"]
    t.counts["wal.user_bytes"] += len(rec.row_bytes)


def _wal_recover(t, args, kwargs, result, dur, parent_layer):
    t.counts["wal.recover_records"] += result.report.records_scanned
    t.counts["wal.recover_ns"] += dur


def _dist_query(t, args, kwargs, result, dur, parent_layer):
    stats = result.stats
    t.counts["dist.rpcs"] += stats.attempts
    t.counts["dist.hedges"] += stats.hedges
    t.counts["dist.timeouts"] += stats.timeouts


def _serve_report(t, args, kwargs, result, dur, parent_layer):
    c = t.counts
    c["serve.requests"] += len(result.resolutions)
    for lane in result.stats.values():
        c["serve.admitted"] += lane.admitted
        c["serve.throttled"] += lane.throttled
        c["serve.shed"] += lane.shed
        c["serve.queue_waits"] += len(lane.queue_waits)
        c["serve.queue_cycles"] += sum(lane.queue_waits)
    c["serve.busy_cycles"] += result.busy_cycles
    c["serve.sim_cycles"] += result.sim_cycles


#: (layer, module, attribute path, sub-kind, observer). Sub-kinds split a
#: layer's self time where the issue names a finer metric (sql.parse_s).
TARGETS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("sql", "repro.db.sql.pipeline", "parse_statement", "parse", None),
    ("sql", "repro.db.sql.pipeline", "bind", "bind", None),
    ("sql", "repro.db.sql.pipeline", "bind_insert", "bind", None),
    ("sql", "repro.db.sql.pipeline", "bind_update", "bind", None),
    ("sql", "repro.db.sql.pipeline", "bind_delete", "bind", None),
    # Engines handed SQL text (the serve executor) parse and bind here.
    ("sql", "repro.db.engines.base", "parse", "parse", None),
    ("sql", "repro.db.engines.base", "bind", "bind", None),
    ("sql", "repro.db.plan.optimizer", "Optimizer.choose", "plan", None),
    ("engine", "repro.db.engines.base", "Engine.execute", "", _engine_rows),
    ("engine", "repro.db.engines.rowstore", "RowStoreEngine.execute", "", _engine_rows),
    ("engine", "repro.db.engines.colstore", "ColumnStoreEngine.execute", "", _engine_rows),
    ("engine", "repro.db.engines.rmstore", "RelationalMemoryEngine.execute", "",
     _engine_rows),
    ("exec", "repro.db.engines.base", "run_vector", "", _exec_rows),
    ("fabric", "repro.core.fabric", "RelationalMemory.configure", "configure", None),
    ("fabric", "repro.core.ephemeral", "EphemeralColumnGroup.refresh", "refresh",
     _fabric_refresh),
    # Unpacking a field of the ephemeral group is fabric work too.
    ("fabric", "repro.core.ephemeral", "EphemeralColumnGroup.column", "decode", None),
    ("hw", "repro.hw.hierarchy", "MemoryHierarchy.access_lines", "", _hw_lines),
    ("hw", "repro.hw.hierarchy", "MemoryHierarchy.access_lines_batch", "", _hw_lines),
    ("hw", "repro.hw.hierarchy", "MemoryHierarchy.scan_region", "", None),
    ("mvcc", "repro.db.mvcc", "TransactionManager.begin", "", None),
    ("mvcc", "repro.db.mvcc", "TransactionManager.commit", "commit", None),
    ("mvcc", "repro.db.mvcc", "TransactionManager.abort", "abort", None),
    ("mvcc", "repro.db.mvcc", "Transaction.insert", "", None),
    ("mvcc", "repro.db.mvcc", "Transaction.update", "", None),
    ("mvcc", "repro.db.mvcc", "Transaction.delete", "", None),
    ("wal", "repro.db.wal", "WriteAheadLog.append", "", _wal_user_bytes),
    ("wal", "repro.db.wal", "WriteAheadLog.flush", "", None),
    ("wal", "repro.db.wal", "recover", "", _wal_recover),
    ("dist", "repro.dist.coordinator", "ShardCluster.query", "query", _dist_query),
    ("dist", "repro.dist.coordinator", "ShardCluster.replicate", "replicate", None),
    ("dist", "repro.dist.coordinator", "merge_partials", "merge", None),
    # Where the coordinator blocks on a worker's reply.
    ("dist", "repro.dist.worker", "ProcessShardHost.poll", "wait", None),
    ("serve", "repro.serve.scheduler", "ServeScheduler.run_until_drained", "run",
     _serve_report),
)


def _resolve(module: str, path: str) -> Tuple[Any, str, bool]:
    """``(owner, attribute, defined_here)`` for one target. A class that
    only inherits the attribute is skipped: wrapping the base covers it."""
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if isinstance(owner, type):
        return owner, attr, attr in owner.__dict__
    return owner, attr, True


def installed() -> List[str]:
    """Every target currently wrapped (empty outside a traced window)."""
    out = []
    for _layer, module, path, _kind, _obs in TARGETS:
        owner, attr, here = _resolve(module, path)
        if here and hasattr(getattr(owner, attr), MARK):
            out.append(f"{module}.{path}")
    return out


def assert_clean() -> None:
    """Raise if any layer wrapper is installed."""
    left = installed()
    if left:
        raise RuntimeError(f"layer wrappers still installed: {left}")


class LayerTracer:
    """Span recorder and per-layer accountant for one traced window."""

    def __init__(self):
        #: ``(span_id, parent_id, name, layer, start_ns, end_ns, op)``.
        self.spans: List[Tuple[int, int, str, str, int, int, int]] = []
        #: Operation id the benchmark loop is currently running.
        self.op = -1
        #: While set, wrapped calls run unrecorded (untimed set-up work
        #: between operations).
        self.paused = False
        self.calls: Counter = Counter()
        self.failures: Counter = Counter()
        self.self_ns: Counter = Counter()
        #: Self time per ``layer.kind`` (sql.parse, dist.wait, ...).
        self.kind_ns: Counter = Counter()
        self.kind_calls: Counter = Counter()
        #: Inclusive time per ``layer.kind``.
        self.kind_total_ns: Counter = Counter()
        self.counts: Counter = Counter()
        #: Open spans: ``[span_id, layer, child_ns]``.
        self._stack: List[list] = []
        self._next_id = 0
        self._saved: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Wrapping.
    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        layer: str,
        name: str,
        kind: str = "",
        observe: Optional[Callable] = None,
    ) -> Callable:
        """A recording stand-in for ``fn`` (module function, method or
        plain callable)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(fn, layer, name, kind, observe, args, kwargs)

        setattr(wrapper, MARK, layer)
        return wrapper

    def install(self) -> None:
        assert_clean()
        for layer, module, path, kind, observe in TARGETS:
            owner, attr, here = _resolve(module, path)
            if not here:
                continue
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(
                owner, attr
            )
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, layer, path, kind, observe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _call(self, fn, layer, name, kind, observe, args, kwargs):
        if self.paused:
            return fn(*args, **kwargs)
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, layer, 0]
        stack.append(frame)
        failed = True
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            end = perf_counter_ns()
            stack.pop()
            dur = end - start
            own = dur - frame[2]
            if parent is not None:
                parent[2] += dur
            key = f"{layer}.{kind}" if kind else layer
            self.calls[layer] += 1
            self.self_ns[layer] += own
            self.kind_calls[key] += 1
            self.kind_ns[key] += own
            self.kind_total_ns[key] += dur
            if failed:
                self.failures[layer] += 1
            self.spans.append(
                (span_id, -1 if parent is None else parent[0], name, layer,
                 start, end, self.op)
            )
        if observe is not None:
            t0 = perf_counter_ns()
            observe(self, args, kwargs, result, dur,
                    None if parent is None else parent[1])
            # Observer cost is tracer overhead, not the parent's work.
            if parent is not None:
                parent[2] += perf_counter_ns() - t0
        return result

    # ------------------------------------------------------------------
    # Export.
    # ------------------------------------------------------------------
    def write_chrome(self, path: str, workload: str) -> int:
        """Write the spans as Chrome trace events; returns spans written."""
        spans = sorted(self.spans[:MAX_EXPORTED_SPANS], key=lambda s: s[4])
        base = spans[0][4] if spans else 0
        events: List[Dict[str, Any]] = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 1,
             "args": {"name": f"e2e {workload} (host clock)"}},
        ]
        for span_id, parent, name, layer, start, end, op in spans:
            events.append({
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - base) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"span": span_id, "parent": parent, "op": op},
            })
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
        return len(spans)


# ----------------------------------------------------------------------
# Counter snapshots of objects the workload owns (cache hierarchies, WALs)
# taken at the edges of the traced window.
# ----------------------------------------------------------------------
def snapshot(probes: Dict[str, Sequence[Any]]) -> Dict[str, float]:
    out: Counter = Counter()
    for h in probes.get("hierarchies", ()):
        for k, v in h.counters().items():
            out[f"hw.{k}"] += v
    for wal in probes.get("wals", ()):
        s = wal.stats
        out["wal.records"] += s.records
        out["wal.bytes"] += s.bytes_appended
        out["wal.flushes"] += s.flushes
        out["wal.commits"] += s.commits_logged
    return dict(out)


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(
    tracer: LayerTracer,
    ops: int,
    wall_s: float,
    before: Dict[str, float],
    after: Dict[str, float],
    trace_overhead: float,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``ops`` and ``wall_s`` are the traced window's operation count and
    host seconds; ``before``/``after`` are :func:`snapshot` results at its
    edges.
    """
    d = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in set(before) | set(after)}
    c = tracer.counts
    kn = tracer.kind_ns
    kt = tracer.kind_total_ns
    m: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (_div(tracer.calls[layer], ops), "1/op")
        m[f"{layer}.self_s"] = (_div(tracer.self_ns[layer] / 1e9, ops), "s/op")
        m[f"{layer}.self_share"] = (_div(tracer.self_ns[layer] / 1e9, wall_s), "ratio")
        m[f"{layer}.failures"] = (float(tracer.failures[layer]), "count")

    for kind in ("parse", "bind", "plan"):
        m[f"sql.{kind}_s"] = (_div(kn[f"sql.{kind}"] / 1e9, ops), "s/op")

    m["engine.rows_scanned_per_op"] = (_div(c["engine.rows_scanned"], ops), "rows/op")
    m["exec.ns_per_row"] = (_div(tracer.self_ns["exec"], c["exec.rows"]), "ns/row")

    m["fabric.refreshes"] = (_div(tracer.kind_calls["fabric.refresh"], ops), "1/op")
    m["fabric.out_bytes_per_op"] = (_div(c["fabric.out_bytes"], ops), "B/op")
    m["fabric.ns_per_row"] = (_div(tracer.self_ns["fabric"], c["fabric.rows"]), "ns/row")

    l1 = d.get("hw.l1_hits", 0.0), d.get("hw.l1_misses", 0.0)
    l2 = d.get("hw.l2_hits", 0.0), d.get("hw.l2_misses", 0.0)
    m["hw.lines_per_op"] = (_div(c["hw.lines"], ops), "lines/op")
    m["hw.ns_per_line"] = (_div(tracer.self_ns["hw"], c["hw.lines"]), "ns/line")
    m["hw.l1_hit_rate"] = (_div(l1[0], l1[0] + l1[1]), "ratio")
    m["hw.l2_hit_rate"] = (_div(l2[0], l2[0] + l2[1]), "ratio")
    m["hw.dram_lines_per_op"] = (_div(d.get("hw.dram_lines", 0.0), ops), "lines/op")

    m["mvcc.commits"] = (_div(tracer.kind_calls["mvcc.commit"], ops), "1/op")
    m["mvcc.aborts"] = (_div(tracer.kind_calls["mvcc.abort"], ops), "1/op")

    commits = d.get("wal.commits", 0.0)
    m["wal.records_per_commit"] = (_div(d.get("wal.records", 0.0), commits), "1/commit")
    m["wal.flushes_per_commit"] = (_div(d.get("wal.flushes", 0.0), commits), "1/commit")
    m["wal.bytes_per_user_byte"] = (
        _div(d.get("wal.bytes", 0.0), c["wal.user_bytes"]), "B/B")
    m["wal.recover_records_per_s"] = (
        _div(c["wal.recover_records"], c["wal.recover_ns"] / 1e9), "1/s")

    queries = tracer.kind_calls["dist.query"]
    m["dist.rpcs_per_query"] = (_div(c["dist.rpcs"], queries), "1/query")
    m["dist.hedges"] = (float(c["dist.hedges"]), "count")
    m["dist.timeouts"] = (float(c["dist.timeouts"]), "count")
    m["dist.wait_s"] = (_div(kt["dist.wait"] / 1e9, queries), "s/query")
    m["dist.replicate_s"] = (_div(kt["dist.replicate"] / 1e9, queries), "s/query")
    m["dist.merge_s"] = (_div(kt["dist.merge"] / 1e9, queries), "s/query")
    m["dist.worker_share"] = (_div(kt["dist.wait"], kt["dist.query"]), "ratio")

    requests = c["serve.requests"]
    m["serve.admitted"] = (_div(c["serve.admitted"], requests), "ratio")
    m["serve.throttled"] = (_div(c["serve.throttled"], requests), "ratio")
    m["serve.shed"] = (_div(c["serve.shed"], requests), "ratio")
    m["serve.mean_queue_sim_cycles"] = (
        _div(c["serve.queue_cycles"], c["serve.queue_waits"]), "cycles")
    m["serve.utilization"] = (_div(c["serve.busy_cycles"], c["serve.sim_cycles"]), "ratio")
    m["serve.executor_share"] = (
        _div(kt["serve.executor"], kt["serve.run"]), "ratio")

    m["trace_overhead"] = (trace_overhead, "ratio")
    for name, (value, _unit) in m.items():
        if not math.isfinite(value):
            raise ValueError(f"per-layer metric {name} is {value}")
    return m

