"""Cross-process trace propagation for the shard RPC pipe.

The coordinator's tracer cannot reach into a forked worker, so the span
tree a fragment produces over there would be invisible here — the
classic distributed-tracing gap. This module closes it with three
pieces, W3C-traceparent in spirit but pickle-friendly in form:

* :class:`TraceContext` — the request-scoped identity (trace id, parent
  span name, shard, incarnation) shipped *with* the ``exec`` message.
  Workers that receive one build a local :class:`~repro.obs.span.Tracer`
  and record their fragment under it.
* :func:`span_to_wire` / :func:`wire_to_span` — a JSON/pickle-safe
  nested-dict encoding of a completed span tree. Workers attach the wire
  form to their :class:`~repro.dist.plan.ShardPartial` reply.
* :func:`graft` — the coordinator-side splice: rebuild the worker's tree
  under the awaiting ``dist.shard_exec`` span.

**Bit-identity contract.** Grafted spans carry the worker's bucket
totals as *counters* and its subtree cycles as an explicit *duration* —
never as replayable ledger events. The coordinator already charges every
shard's data-proportional ``dist_*`` buckets through
:func:`~repro.dist.plan.merge_partials`; copying worker events into the
grafted tree would double-count them in :meth:`Trace.to_ledger` replay.
With events left empty, ``to_ledger()`` of a distributed trace is
structurally identical across 1/2/4/8 shards, and a hedged loser's
grafted tree *cannot* double-charge no matter how late it lands
(property-tested in ``tests/test_distctx.py``).

Timeline rendering still works: ``duration_cycles`` honours the explicit
duration, so Chrome/Perfetto export shows each worker's spans at full
width on its own process track (``remote_pid``/``remote_tid`` attrs, one
pid per shard, one tid per incarnation).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Any, Dict, List, Optional

from repro.obs.span import Span, Tracer

__all__ = [
    "TraceContext",
    "new_trace_id",
    "span_to_wire",
    "wire_to_span",
    "graft",
    "graft_partial",
]

#: Process-local monotone source for trace ids (deterministic — the
#: simulator has no wall clock and wants reproducible ids).
_TRACE_IDS = count(1)


def new_trace_id(prefix: str = "t") -> str:
    """A process-locally unique, deterministic trace id."""
    return f"{prefix}{next(_TRACE_IDS):08x}"


@dataclass(frozen=True)
class TraceContext:
    """The request identity carried over the RPC pipe (picklable).

    ``parent`` names the coordinator span awaiting this shard (the graft
    point); ``shard``/``incarnation`` identify the fault domain so a
    restarted worker's replay spans are tagged with the incarnation that
    actually produced them.
    """

    trace_id: str
    parent: str = "dist.shard_exec"
    shard: int = 0
    incarnation: int = 0

    def child(self, shard: int, incarnation: int) -> "TraceContext":
        """The context one specific worker attempt executes under."""
        return TraceContext(
            trace_id=self.trace_id,
            parent=self.parent,
            shard=shard,
            incarnation=incarnation,
        )


# ----------------------------------------------------------------------
# Wire encoding: Span tree <-> nested plain dicts.
# ----------------------------------------------------------------------
def span_to_wire(span: Span) -> Dict[str, Any]:
    """Encode a completed span subtree as plain picklable dicts.

    Events collapse to per-bucket totals (``buckets``) plus the span's
    own timeline width — individual ``(seq, bucket, cycles)`` tuples are
    worker-tracer-local and must not leak into the coordinator's replay
    sequence (see the module docstring's bit-identity note).
    """
    return {
        "name": span.name,
        "attrs": dict(span.attrs),
        "counters": dict(span.counters),
        "buckets": span.bucket_totals(subtree=False),
        "self_cycles": span.self_cycles,
        "duration_cycles": span.duration_cycles,
        "dram_bytes": span.self_dram_bytes,
        "children": [span_to_wire(c) for c in span.children],
    }


def wire_to_span(
    wire: Dict[str, Any],
    parent: Optional[Span] = None,
    **extra_attrs: Any,
) -> Span:
    """Rebuild a wire-encoded tree as event-free annotation spans.

    Bucket totals land in ``counters`` (prefixed ``bucket:``) so EXPLAIN
    ANALYZE and Chrome export can show where the remote cycles went,
    while :meth:`Trace.to_ledger` — which replays only ``events`` — sees
    nothing to double-charge.
    """
    span = Span(wire["name"], parent=parent, attrs=wire.get("attrs"))
    span.set_attrs(remote=True, **extra_attrs)
    for name, value in wire.get("counters", {}).items():
        span.add_counter(name, value)
    for bucket, cycles in wire.get("buckets", {}).items():
        span.add_counter(f"bucket:{bucket}", cycles)
    if wire.get("dram_bytes"):
        span.add_counter("dram_bytes", wire["dram_bytes"])
    for child_wire in wire.get("children", []):
        wire_to_span(child_wire, parent=span, **extra_attrs)
    span.set_duration(float(wire.get("duration_cycles", 0.0)))
    return span


def graft(
    parent: Span, wire: Dict[str, Any], **extra_attrs: Any
) -> Span:
    """Splice a worker's wire-encoded tree under a coordinator span.

    ``extra_attrs`` (``hedge_loser=True``, say) are stamped on every
    grafted span. Returns the grafted root.
    """
    return wire_to_span(wire, parent=parent, **extra_attrs)


def graft_partial(tracer: Optional[Tracer], spans: Optional[Dict[str, Any]],
                  **extra_attrs: Any) -> Optional[Span]:
    """Graft a reply's span batch under the tracer's current span.

    The convenience form the coordinator's await loop uses: a no-op when
    tracing is off, the reply carried no spans, or no span is open.
    """
    if tracer is None or spans is None:
        return None
    current = tracer.current
    if current is None:
        return None
    return graft(current, spans, **extra_attrs)
