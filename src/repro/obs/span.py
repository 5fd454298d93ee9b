"""Spans and tracers: the observability spine of the simulator.

Every layer of the stack (engines, fabric, WAL, storage devices) opens a
:class:`Span` around each unit of work it prices. Cycle charges still
flow through :class:`repro.core.ledger.CostLedger` — the flat bucket
accounting is unchanged, bit for bit — but a ledger carrying a
:class:`Tracer` *also* records every charge as an event on the currently
open span. The resulting tree says not just *how many* cycles a query
cost but *which operator, which scan stage, which retry* spent them.

Design rules that keep the old numbers exact:

* The ledger's own dict accumulation is untouched; tracing is a second
  write, never a replacement. Disabled tracing is a single ``is None``
  check per charge.
* Every charge event carries a tracer-global sequence number. Replaying
  all leaf events of a trace in sequence order reproduces the flat
  ledger's float fold order — so aggregated trace totals are
  bit-identical to the buckets, not merely close (property-tested in
  ``tests/test_trace_equivalence.py``).
* A charge with no open span is recorded by the ledger only. Layers own
  their spans; foreign ledgers (a WAL ledger during a query, say) never
  leak events into a trace unless they carry the same tracer and a span
  is open.

Tracing is off when the tracer is ``None`` (DESIGN §8): call sites gate
on :func:`maybe_span`, which returns the shared :data:`NULL_SPAN` then.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ExecutionError

#: A hardware-counter probe: returns a flat ``name -> value`` snapshot.
Probe = Callable[[], Dict[str, float]]


class Span:
    """One named, attributed node of a query trace.

    Spans are created through :meth:`Tracer.span` (a context manager) and
    form a tree via ``parent``/``children``. Three kinds of payload:

    * ``events`` — ledger charges ``(seq, bucket, cycles)`` recorded while
      this span was the innermost open one;
    * ``traffic`` — DRAM byte charges ``(seq, nbytes)``;
    * ``counters`` — free-form numeric counters (cache hits, flash pages,
      fabric refills) attached by the layer that owns the span;
    * ``attrs`` — descriptive attributes (operator name, table, rows).
    """

    __slots__ = (
        "name",
        "parent",
        "children",
        "attrs",
        "events",
        "traffic",
        "counters",
        "_probe_base",
        "_duration_override",
    )

    def __init__(
        self,
        name: str,
        parent: Optional["Span"] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.parent = parent
        self.children: List[Span] = []
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.events: List[Tuple[int, str, float]] = []
        self.traffic: List[Tuple[int, float]] = []
        self.counters: Dict[str, float] = {}
        self._probe_base: Optional[Dict[str, float]] = None
        self._duration_override: Optional[float] = None
        if parent is not None:
            parent.children.append(self)

    # ------------------------------------------------------------------
    # Mutators (no-ops on the null span).
    # ------------------------------------------------------------------
    def set_attrs(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def add_counter(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def add_counters(self, counters: Dict[str, float]) -> None:
        for name, value in counters.items():
            self.add_counter(name, value)

    def set_duration(self, cycles: float) -> None:
        """Pin this span's timeline width explicitly.

        Layers priced in device time rather than ledger cycles (flash
        reads, host links) use this so the Chrome timeline shows their
        real extent; by default a span is as wide as its subtree cycles.
        """
        self._duration_override = float(cycles)

    # ------------------------------------------------------------------
    # Aggregation.
    # ------------------------------------------------------------------
    @property
    def self_cycles(self) -> float:
        """Cycles charged directly to this span (children excluded)."""
        return sum(c for _, _, c in self.events)

    @property
    def total_cycles(self) -> float:
        """Cycles of this span's whole subtree."""
        return self.self_cycles + sum(c.total_cycles for c in self.children)

    @property
    def self_dram_bytes(self) -> float:
        return sum(b for _, b in self.traffic)

    @property
    def total_dram_bytes(self) -> float:
        return self.self_dram_bytes + sum(c.total_dram_bytes for c in self.children)

    @property
    def duration_cycles(self) -> float:
        """Timeline width: own events plus children's widths, or the
        explicit override if larger — a parent is always at least as wide
        as its children laid head-to-tail."""
        inner = self.self_cycles + sum(c.duration_cycles for c in self.children)
        if self._duration_override is not None:
            return max(self._duration_override, inner)
        return inner

    def bucket_totals(self, subtree: bool = True) -> Dict[str, float]:
        """Bucket → cycles, optionally folded over the whole subtree."""
        out: Dict[str, float] = {}
        for _, bucket, cycles in self.events:
            out[bucket] = out.get(bucket, 0.0) + cycles
        if subtree:
            for child in self.children:
                for bucket, cycles in child.bucket_totals().items():
                    out[bucket] = out.get(bucket, 0.0) + cycles
        return out

    def walk(self) -> Iterator["Span"]:
        """Depth-first pre-order walk of the subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First span named ``name`` in DFS order, or None."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> List["Span"]:
        return [s for s in self.walk() if s.name == name]

    @property
    def depth(self) -> int:
        d, p = 0, self.parent
        while p is not None:
            d, p = d + 1, p.parent
        return d

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, cycles={self.total_cycles:.0f}, "
            f"children={len(self.children)})"
        )


class _NullSpan:
    """Shared do-nothing span + context manager for when tracing is off.

    One module-level instance (:data:`NULL_SPAN`) serves every call site:
    entering it allocates nothing, and every mutator is a no-op, so
    instrumented code reads identically whether tracing is on or off.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set_attrs(self, **attrs: Any) -> "_NullSpan":
        return self

    def add_counter(self, name: str, value: float) -> None:
        pass

    def add_counters(self, counters: Dict[str, float]) -> None:
        pass

    def set_duration(self, cycles: float) -> None:
        pass


NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context manager that opens a :class:`Span` on a tracer's stack."""

    __slots__ = ("_tracer", "_name", "_attrs", "_probe", "_span")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: Dict[str, Any],
        probe: Optional[Probe],
    ):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._probe = probe
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._attrs, self._probe)
        return self._span

    def __exit__(self, *exc: object) -> bool:
        self._tracer._close(self._span, self._probe)
        return False


class Tracer:
    """Owns the span stack and the global charge sequence.

    One tracer is shared by every layer that should contribute to the
    same traces (an engine, its fabric, its ledgers). Spans opened while
    another is open nest beneath it; when the outermost span closes it is
    published as :attr:`last` (and the root handed to whoever opened it).
    """

    def __init__(self):
        self._stack: List[Span] = []
        self._seq = 0
        #: The most recently completed root span.
        self.last: Optional[Span] = None

    # ------------------------------------------------------------------
    # Span lifecycle.
    # ------------------------------------------------------------------
    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    def span(self, name: str, probe: Optional[Probe] = None, **attrs: Any):
        """Context manager opening a child of the current span.

        ``probe`` snapshots hardware counters at open and attaches the
        delta at close (cache hits, DRAM lines of an event-accurate run).
        """
        return _SpanHandle(self, name, attrs, probe)

    def _open(self, name: str, attrs: Dict[str, Any], probe: Optional[Probe]) -> Span:
        span = Span(name, parent=self.current, attrs=attrs)
        if probe is not None:
            span._probe_base = dict(probe())
        self._stack.append(span)
        return span

    def _close(self, span: Optional[Span], probe: Optional[Probe]) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise ExecutionError(
                f"span {span.name if span else '?'!r} closed out of order"
            )
        self._stack.pop()
        if probe is not None and span._probe_base is not None:
            for name, value in probe().items():
                delta = value - span._probe_base.get(name, 0)
                if delta:
                    span.add_counter(name, delta)
            span._probe_base = None
        if not self._stack:
            self.last = span

    # ------------------------------------------------------------------
    # Event recording (called by CostLedger; hot when tracing).
    # ------------------------------------------------------------------
    def record(self, bucket: str, cycles: float) -> None:
        """Attach one ledger charge to the innermost open span."""
        if not self._stack:
            return
        self._seq += 1
        self._stack[-1].events.append((self._seq, bucket, cycles))

    def record_traffic(self, nbytes: float) -> None:
        if not self._stack:
            return
        self._seq += 1
        self._stack[-1].traffic.append((self._seq, nbytes))


def maybe_span(tracer: Optional[Tracer], name: str, probe: Optional[Probe] = None, **attrs: Any):
    """The universal call-site gate: a real span when ``tracer`` is a
    :class:`Tracer`, the shared :data:`NULL_SPAN` when it is None."""
    if tracer is not None:
        return tracer.span(name, probe=probe, **attrs)
    return NULL_SPAN
