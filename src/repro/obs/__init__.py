"""repro.obs — the span-based observability spine plus simulated-time
metrics.

See :mod:`repro.obs.span` for the tracing model, :mod:`repro.obs.trace`
for rendering/export, :mod:`repro.obs.metrics` for PMU-style counters/
gauges/histograms sampled on the simulated clock, and
:mod:`repro.obs.collectors` for the per-layer collector wiring. Quick
use::

    from repro.obs import MetricsRegistry, Tracer

    tracer = Tracer()
    engines = all_engines(catalog, tracer=tracer)
    result = engines["rm"].execute(query)
    print(result.trace.render())              # EXPLAIN ANALYZE table
    open("trace.json", "w").write(result.trace.to_chrome_json())

    metrics = MetricsRegistry()
    metrics.attach_sampler(interval_cycles=1_000_000)
    engines = all_engines(catalog, metrics=metrics)
    engines["row"].execute(query)
    print(metrics.to_prometheus())            # scrape-ready exposition
    open("metrics.json", "w").write(metrics.sampler.series.to_json())
"""

from repro.obs.distctx import (
    TraceContext,
    graft,
    graft_partial,
    new_trace_id,
    span_to_wire,
    wire_to_span,
)
from repro.obs.journal import FlightRecorder, JournalEvent
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsTimeSeries,
    Sampler,
    fmt_name,
)
from repro.obs.slo import SloMonitor, SloObjective, windowed_burn_rates
from repro.obs.span import NULL_SPAN, Probe, Span, Tracer, maybe_span
from repro.obs.trace import Trace

__all__ = [
    "NULL_SPAN",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JournalEvent",
    "MetricsRegistry",
    "MetricsTimeSeries",
    "Probe",
    "Sampler",
    "SloMonitor",
    "SloObjective",
    "Span",
    "Trace",
    "TraceContext",
    "Tracer",
    "fmt_name",
    "graft",
    "graft_partial",
    "maybe_span",
    "new_trace_id",
    "span_to_wire",
    "wire_to_span",
    "windowed_burn_rates",
]
