"""PMU-style metrics over *simulated* time.

:mod:`repro.obs.span` answers "where did this query's cycles go"; this
module answers "how does the system evolve over a long run" — cache
occupancy, WAL length, MVCC version pressure, prefetcher accuracy — the
steady-state behaviour the paper's single-layout claims hinge on (§IV:
cache pollution and data movement over time, not single-query cost).

Three pieces:

* **Instruments** — :class:`Counter` (monotonic), :class:`Gauge`, and
  :class:`Histogram` (log-bucketed, with p50/p95/p99), created through a
  :class:`MetricsRegistry`. Hot layers increment instruments only at
  coarse boundaries (per query, per commit, per flush); fine-grained
  hardware activity is *not* re-counted here.
* **Collectors** — callables returning flat ``name -> value`` snapshots
  of counters the layers already maintain (cache stats, DRAM banks, WAL
  device bytes). Like a PMU read, a collector costs nothing until the
  moment a sample is taken. See :mod:`repro.obs.collectors`.
* **The simulated clock + Sampler** — every :class:`~repro.core.ledger.
  CostLedger` carrying a registry forwards each charge to
  :meth:`MetricsRegistry.advance`; the registry accumulates *simulated
  cycles* and an attached :class:`Sampler` snapshots every instrument
  and collector each ``interval_cycles`` of that clock into an in-memory
  :class:`MetricsTimeSeries`. No wall clock anywhere: the same seed
  produces the bit-identical series every run.

Metrics are off when the registry is ``None`` (DESIGN §8): a run
without metrics pays one ``is None`` predicate per charge.

Exports: :meth:`MetricsRegistry.to_prometheus` (text exposition format)
and :meth:`MetricsTimeSeries.to_json` (``repro.metrics/v1``, validated
by ``scripts/check_trace_schema.py``).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ExecutionError

#: A metrics collector: returns a flat ``name -> value`` snapshot.
MetricsCollector = Callable[[], Dict[str, float]]


def fmt_name(name: str, **labels: Any) -> str:
    """Canonical instrument name with Prometheus-style labels.

    >>> fmt_name("dram_bank_row_hits", bank=3)
    'dram_bank_row_hits{bank="3"}'

    Labels are sorted so the same logical series always maps to the same
    string key regardless of call-site keyword order.
    """
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


def split_labels(name: str) -> Tuple[str, str]:
    """``'x{a="1"}'`` → ``('x', '{a="1"}')``; bare names get ``''``."""
    brace = name.find("{")
    if brace < 0:
        return name, ""
    return name[:brace], name[brace:]


def _sanitize(base: str) -> str:
    """Prometheus metric names allow ``[a-zA-Z0-9_:]`` only."""
    return "".join(c if c.isalnum() or c in "_:" else "_" for c in base)


class Counter:
    """A monotonically non-decreasing count (events, rows, bytes)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ExecutionError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount


class Gauge:
    """A value that can go up and down (occupancy, queue depth)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """A log-bucketed distribution with exact count/sum/min/max.

    Bucket upper bounds grow geometrically from ``first_bound`` by
    ``base`` (default powers of two), extended lazily to cover the
    largest observation. Bounds are built by repeated multiplication —
    no floating-point ``log`` at bucket edges — so the same observations
    always land in the same buckets, in any order, on any platform.

    Percentiles interpolate linearly inside the containing bucket, so
    their worst-case relative error is one bucket width (a factor of
    ``base``); the brute-force-oracle unit tests pin exactly that bound.
    """

    __slots__ = ("name", "help", "base", "bounds", "counts", "count", "sum",
                 "min", "max")

    def __init__(
        self,
        name: str,
        help: str = "",
        base: float = 2.0,
        first_bound: float = 1.0,
    ):
        if base <= 1.0:
            raise ExecutionError(f"histogram base must be > 1, got {base}")
        self.name = name
        self.help = help
        self.base = base
        #: Upper bounds of the finite buckets; bucket ``i`` covers
        #: ``(bounds[i-1], bounds[i]]`` (the first covers ``[0, bounds[0]]``).
        self.bounds: List[float] = [float(first_bound)]
        self.counts: List[int] = [0]
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        if value < 0:
            raise ExecutionError(
                f"histogram {self.name!r} observed negative value {value}"
            )
        while value > self.bounds[-1]:
            self.bounds.append(self.bounds[-1] * self.base)
            self.counts.append(0)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100), interpolated within its
        bucket and clamped to the exact observed [min, max]."""
        if not 0 <= q <= 100:
            raise ExecutionError(f"percentile {q} outside [0, 100]")
        if self.count == 0:
            return 0.0
        rank = q / 100.0 * self.count
        cum = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if cum + c >= rank:
                lo = 0.0 if i == 0 else self.bounds[i - 1]
                hi = self.bounds[i]
                frac = (rank - cum) / c
                est = lo + (hi - lo) * max(0.0, min(1.0, frac))
                return max(self.min, min(self.max, est))
            cum += c
        return self.max  # pragma: no cover - unreachable (rank <= count)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsTimeSeries:
    """Columnar store of sampled snapshots on a regular simulated grid.

    ``ticks[i]`` is the scheduled sample time (cycles); ``series[name][i]``
    the instrument/collector value at that tick, or ``None`` for ticks
    before the series first appeared (a table created mid-run, say).
    """

    def __init__(self, interval_cycles: float):
        self.interval_cycles = float(interval_cycles)
        self.ticks: List[float] = []
        self.series: Dict[str, List[Optional[float]]] = {}

    def append(self, tick: float, snapshot: Dict[str, float]) -> None:
        n_prior = len(self.ticks)
        self.ticks.append(float(tick))
        for name, value in snapshot.items():
            column = self.series.get(name)
            if column is None:
                column = [None] * n_prior
                self.series[name] = column
            column.append(float(value))
        # Series absent from this snapshot (an unregistered collector)
        # stay rectangular with an explicit gap.
        for name, column in self.series.items():
            if len(column) < len(self.ticks):
                column.append(None)

    def __len__(self) -> int:
        return len(self.ticks)

    def to_json(self, indent: Optional[int] = None) -> str:
        doc = {
            "schema": "repro.metrics/v1",
            "interval_cycles": self.interval_cycles,
            "ticks": self.ticks,
            "series": self.series,
        }
        return json.dumps(doc, indent=indent, allow_nan=False)


class Sampler:
    """Snapshots a registry every ``interval_cycles`` of simulated time.

    Ticks land on the scheduled grid (``interval``, ``2*interval``, ...)
    regardless of where inside an interval the triggering charge fell, so
    two runs that accumulate the same total cycles through different
    charge sequences still sample at identical timestamps. A charge that
    jumps several intervals emits one sample per crossed grid point (the
    values repeat — the system genuinely didn't change in between).
    """

    def __init__(self, registry: "MetricsRegistry", interval_cycles: float):
        if interval_cycles <= 0:
            raise ExecutionError(
                f"sampling interval must be > 0 cycles, got {interval_cycles}"
            )
        self.registry = registry
        self.interval_cycles = float(interval_cycles)
        self.series = MetricsTimeSeries(interval_cycles)
        self._next_due = self.interval_cycles

    def maybe_sample(self, now_cycles: float) -> None:
        while now_cycles >= self._next_due:
            self.series.append(self._next_due, self.registry.collect())
            self._next_due += self.interval_cycles

    def sample_now(self) -> None:
        """Force one sample at the current clock (end-of-run flush)."""
        self.series.append(self.registry.cycles, self.registry.collect())
        self._next_due = (
            self.registry.cycles - (self.registry.cycles % self.interval_cycles)
            + self.interval_cycles
        )


class MetricsRegistry:
    """Owns instruments, collectors, and the simulated clock.

    One registry is shared by every layer that should land in the same
    time series (the engines, the transaction manager, the WAL). Layers
    self-register their collectors when handed a registry; ledgers
    carrying one forward every charge to :meth:`advance`, which drives
    the attached :class:`Sampler`.
    """

    def __init__(self):
        self.cycles = 0.0
        self._instruments: Dict[str, Any] = {}
        self._collectors: List[MetricsCollector] = []
        self.sampler: Optional[Sampler] = None

    # ------------------------------------------------------------------
    # Instrument creation (get-or-create; type mismatch is a bug).
    # ------------------------------------------------------------------
    def _instrument(self, cls, name: str, help: str, **kw):
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(name, help=help, **kw)
            self._instruments[name] = inst
        elif type(inst) is not cls:
            raise ExecutionError(
                f"metric {name!r} already registered as {type(inst).__name__}"
            )
        return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self._instrument(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._instrument(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        base: float = 2.0,
        first_bound: float = 1.0,
    ) -> Histogram:
        return self._instrument(
            Histogram, name, help, base=base, first_bound=first_bound
        )

    def register_collector(self, fn: MetricsCollector) -> None:
        """Add a PMU-style reader, sampled (only) at snapshot time."""
        self._collectors.append(fn)

    # ------------------------------------------------------------------
    # The simulated clock.
    # ------------------------------------------------------------------
    def advance(self, cycles: float) -> None:
        """Move simulated time forward (called per ledger charge)."""
        self.cycles += cycles
        if self.sampler is not None:
            self.sampler.maybe_sample(self.cycles)

    def attach_sampler(self, interval_cycles: float) -> Sampler:
        """Start time-series sampling every ``interval_cycles``."""
        self.sampler = Sampler(self, interval_cycles)
        return self.sampler

    # ------------------------------------------------------------------
    # Snapshots and export.
    # ------------------------------------------------------------------
    def collect(self) -> Dict[str, float]:
        """One flat snapshot of everything: instruments + collectors.

        Histograms expand to ``_count``/``_sum``/``_p50``/``_p95``/
        ``_p99`` (labels, if any, stay attached to the base name).
        """
        out: Dict[str, float] = {"sim_cycles": self.cycles}
        for name, inst in self._instruments.items():
            if isinstance(inst, Histogram):
                base, labels = split_labels(name)
                out[f"{base}_count{labels}"] = float(inst.count)
                out[f"{base}_sum{labels}"] = inst.sum
                out[f"{base}_p50{labels}"] = inst.p50
                out[f"{base}_p95{labels}"] = inst.p95
                out[f"{base}_p99{labels}"] = inst.p99
            else:
                out[name] = inst.value
        for fn in self._collectors:
            out.update(fn())
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition of the current state.

        Counters get the ``_total`` suffix, histograms the full
        cumulative ``_bucket{le=...}`` form; collector outputs are
        exported as gauges (they snapshot externally-owned state).
        """
        lines: List[str] = []
        declared: set = set()

        def emit(name: str, kind: str, help: str, samples):
            base, labels = split_labels(name)
            base = _sanitize(base)
            if base not in declared:
                declared.add(base)
                if help:
                    lines.append(f"# HELP {base} {help}")
                lines.append(f"# TYPE {base} {kind}")
            for suffix, extra, value in samples:
                label_str = labels
                if extra:
                    inner = extra if not labels else labels[1:-1] + "," + extra
                    label_str = "{" + inner + "}"
                lines.append(f"{base}{suffix}{label_str} {value:g}")

        for name, inst in self._instruments.items():
            if isinstance(inst, Counter):
                base, labels = split_labels(name)
                total = base if base.endswith("_total") else base + "_total"
                emit(total + labels, "counter", inst.help,
                     [("", "", inst.value)])
            elif isinstance(inst, Gauge):
                emit(name, "gauge", inst.help, [("", "", inst.value)])
            else:
                samples = []
                cum = 0
                for bound, c in zip(inst.bounds, inst.counts):
                    cum += c
                    samples.append(("_bucket", f'le="{bound:g}"', cum))
                samples.append(("_bucket", 'le="+Inf"', inst.count))
                samples.append(("_sum", "", inst.sum))
                samples.append(("_count", "", inst.count))
                emit(name, "histogram", inst.help, samples)

        gauges: Dict[str, float] = {"sim_cycles": self.cycles}
        for fn in self._collectors:
            gauges.update(fn())
        for name, value in gauges.items():
            emit(name, "gauge", "", [("", "", value)])
        return "\n".join(lines) + "\n"
