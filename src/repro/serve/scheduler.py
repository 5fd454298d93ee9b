"""The multi-tenant serving front door: admit → queue → execute.

:class:`ServeScheduler` is a deterministic discrete-event scheduler on
the *simulated* clock. Sessions submit :class:`~repro.serve.request.
Request`\\ s (open-loop: arrivals carry absolute timestamps); the
:class:`~repro.serve.admission.AdmissionController` applies per-tenant
quotas at the door, a :class:`~repro.serve.queue.WeightedFairQueue`
interleaves tenants and lanes, and up to ``global_concurrency`` admitted
requests execute simultaneously, each occupying a slot for the cycles
its executor reports.

Determinism rules (the chaos harness depends on all three):

* every queue/heap is keyed ``(time, req_id)`` with ids assigned in
  submit order — no iteration-order or hash dependence;
* the only randomness is the seeded :class:`~repro.faults.FaultInjector`
  (consulted in loop order) and whatever the caller seeds its workload
  generator with;
* the clock advances **only** through :meth:`CostLedger.charge`
  (``serve_execute`` while any slot is busy, ``serve_idle`` otherwise),
  so an attached :class:`~repro.obs.MetricsRegistry` samples the run on
  exactly the same grid every time.

Overload behaviour: a breaker-style degraded mode watches the queued
cost estimate; past ``degrade_enter_queued_cycles`` every OLAP dispatch
runs sampled (``Outcome.DEGRADED``, cost scaled by
``olap_degraded_fraction``) until the backlog drains below the exit
threshold — OLAP gets cheaper instead of OLTP getting starved. Deadline
misses resolve as :class:`~repro.errors.DeadlineExceededError`, quota
misses as :class:`~repro.errors.TenantThrottledError` with a
``retry_after_cycles`` hint (compose it with a ``RetryPolicy`` via
:func:`throttle_backoff`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.ledger import CostLedger
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ExecutionError,
)
from repro.faults import SERVE_CLOCK_SKEW, SERVE_SHED, FaultInjector, RetryPolicy
from repro.obs import (
    MetricsRegistry,
    TraceContext,
    Tracer,
    fmt_name,
    new_trace_id,
)
from repro.obs.journal import EV_ADMISSION
from repro.obs.span import maybe_span
from repro.serve.admission import ADMIT, THROTTLE, AdmissionController, Verdict
from repro.serve.queue import WeightedFairQueue
from repro.serve.request import (
    EV_ADMIT,
    EV_COMPLETE,
    EV_DISPATCH,
    EV_EXPIRE,
    EV_SHED,
    EV_SUBMIT,
    EV_THROTTLE,
    LANES,
    Event,
    Outcome,
    Request,
    Resolution,
    ServeConfig,
)

#: What an executor returns for one dispatched request.
@dataclass
class ExecOutcome:
    """Service cost and answer of one executed request."""

    #: Simulated cycles the request occupies its slot.
    cycles: float
    #: True when the answer was produced from a sampled/partial scan.
    degraded: bool = False
    #: Opaque answer handed back on the resolution.
    payload: Any = None


#: ``executor(request, degrade_hint) -> ExecOutcome``. ``degrade_hint``
#: is True when the overload breaker asks for a sampled OLAP answer.
Executor = Callable[[Request, bool], ExecOutcome]


def throttle_backoff(policy: RetryPolicy, error, attempt: int) -> float:
    """Compose a throttle's retry-after hint with a retry policy.

    The server's ``retry_after_cycles`` is a *floor* — retrying sooner
    is guaranteed to throttle again — while the policy contributes its
    seeded exponential growth and jitter on top, so stampedes still
    spread out.
    """
    hint = float(getattr(error, "retry_after_cycles", 0.0) or 0.0)
    return max(policy.backoff(attempt), hint)


@dataclass
class LaneStats:
    """Counters and samples for one (tenant, lane) pair."""

    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    degraded: int = 0
    throttled: int = 0
    shed: int = 0
    expired: int = 0
    #: Submit-to-answer latency of every answered request (cycles).
    latencies: List[float] = field(default_factory=list)
    #: Admission-to-dispatch wait of every dispatched request (cycles).
    queue_waits: List[float] = field(default_factory=list)

    def percentile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        return float(np.percentile(self.latencies, q))

    def to_dict(self) -> Dict[str, float]:
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "completed": self.completed,
            "degraded": self.degraded,
            "throttled": self.throttled,
            "shed": self.shed,
            "expired": self.expired,
            "p50_cycles": self.percentile(50),
            "p99_cycles": self.percentile(99),
            "mean_queue_cycles": (
                float(np.mean(self.queue_waits)) if self.queue_waits else 0.0
            ),
        }


@dataclass
class ServeReport:
    """Everything one drained run produced, keyed for the bench gate."""

    stats: Dict[Tuple[str, str], LaneStats]
    resolutions: Dict[int, Resolution]
    events: List[Event]
    sim_cycles: float = 0.0
    busy_cycles: float = 0.0
    idle_cycles: float = 0.0
    degraded_mode_entries: int = 0

    def lane(self, tenant: str, lane: str) -> LaneStats:
        return self.stats.get((tenant, lane), LaneStats())

    def oltp_p99(self) -> float:
        """Worst p99 across every tenant's OLTP lane — the bound the
        overload chaos harness enforces."""
        return max(
            (s.percentile(99) for (t, lane), s in self.stats.items()
             if lane == "oltp"),
            default=0.0,
        )

    def to_dict(self) -> dict:
        tenants: Dict[str, dict] = {}
        for (tenant, lane), s in sorted(self.stats.items()):
            tenants.setdefault(tenant, {})[lane] = s.to_dict()
        return {
            "tenants": tenants,
            "oltp_p99_cycles": self.oltp_p99(),
            "sim_cycles": self.sim_cycles,
            "busy_cycles": self.busy_cycles,
            "idle_cycles": self.idle_cycles,
            "utilization": (
                self.busy_cycles / self.sim_cycles if self.sim_cycles else 0.0
            ),
            "degraded_mode_entries": self.degraded_mode_entries,
            "requests": len(self.resolutions),
        }


class ServeScheduler:
    """Deterministic simulated-time front door over an executor."""

    def __init__(
        self,
        config: ServeConfig,
        executor: Executor,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        fault_injector: Optional[FaultInjector] = None,
        journal=None,
        slo=None,
    ):
        self.config = config
        self.executor = executor
        self.tracer = tracer
        self.metrics = metrics
        #: Flight recorder for admission verdicts and SLO transitions.
        self.journal = journal
        #: Optional :class:`~repro.obs.SloMonitor`; fed on every terminal
        #: outcome (answered → latency objectives, rejected/expired →
        #: availability objectives). Breaches land in the journal.
        self.slo = slo
        if (
            self.slo is not None
            and self.journal is not None
            and getattr(self.slo, "journal", None) is None
        ):
            self.slo.journal = self.journal
        #: The serve clock: advanced only through this ledger, so the
        #: metrics sampler ticks on the same simulated grid.
        self.ledger = CostLedger(tracer=tracer, metrics=self.metrics)
        self.clock = 0.0
        self.admission = AdmissionController(config)
        self.queue = WeightedFairQueue()
        #: Armed fast path, same discipline as the engines: one attribute
        #: read when chaos is off, zero injector consultations.
        self._inj = (
            fault_injector
            if fault_injector is not None and fault_injector.armed
            else None
        )
        self._next_id = 0
        self._arrivals: List[Tuple[float, int, Request]] = []
        self._running: List[Tuple[float, int, Request, ExecOutcome, float]] = []
        self._running_per_tenant: Dict[str, int] = {
            t: 0 for t in config.tenant_ids
        }
        #: Sum of queued cost estimates — what the overload breaker watches.
        self.queued_cost = 0.0
        self.degraded_mode = False
        self.degraded_mode_entries = 0
        self.stats: Dict[Tuple[str, str], LaneStats] = {}
        self.resolutions: Dict[int, Resolution] = {}
        #: Every lifecycle step of every request, always kept: the chaos
        #: oracle (:class:`~repro.serve.ServeOracle`) and tests replay it.
        self.events: List[Event] = []
        self._m_latency: Dict[Tuple[str, str], Any] = {}
        self._m_queue_wait: Dict[Tuple[str, str], Any] = {}
        if self.metrics is not None:
            self._register_metrics()

    # ------------------------------------------------------------------
    # Metrics wiring (satellite: serve collectors).
    # ------------------------------------------------------------------
    def _register_metrics(self) -> None:
        from repro.obs.collectors import (
            register_journal,
            register_serve,
            register_slo,
        )

        if self.slo is not None:
            register_slo(self.metrics, self.slo)
        if self.journal is not None:
            register_journal(self.metrics, self.journal)
        for t in self.config.tenant_ids:
            for lane in LANES:
                self._m_latency[(t, lane)] = self.metrics.histogram(
                    fmt_name("serve_latency", tenant=t, lane=lane),
                    help="Submit-to-answer latency (simulated cycles)",
                    first_bound=1024.0,
                )
                self._m_queue_wait[(t, lane)] = self.metrics.histogram(
                    fmt_name("serve_time_in_queue", tenant=t, lane=lane),
                    help="Admission-to-dispatch wait (simulated cycles)",
                    first_bound=1024.0,
                )
        register_serve(self.metrics, self)

    # ------------------------------------------------------------------
    # Small helpers.
    # ------------------------------------------------------------------
    def _stats(self, tenant: str, lane: str) -> LaneStats:
        key = (tenant, lane)
        if key not in self.stats:
            self.stats[key] = LaneStats()
        return self.stats[key]

    def _event(self, kind: str, req: Request, **data: float) -> None:
        self.events.append(
            Event(kind, self.clock, req.req_id, req.tenant, req.lane, dict(data))
        )

    def _resolve(
        self,
        req: Request,
        outcome: Outcome,
        service_cycles: float = 0.0,
        error=None,
        answer=None,
    ) -> None:
        if req.req_id in self.resolutions:
            raise ExecutionError(
                f"request {req.req_id} resolved twice ({outcome})"
            )
        self.resolutions[req.req_id] = Resolution(
            request=req,
            outcome=outcome,
            resolved_at=self.clock,
            service_cycles=service_cycles,
            error=error,
            answer=answer,
        )

    def _weight(self, req: Request) -> float:
        return (
            self.config.lane_weights[req.lane]
            * self.config.tenant(req.tenant).weight
        )

    def _update_breaker(self) -> None:
        if not self.degraded_mode:
            if self.queued_cost > self.config.degrade_enter_queued_cycles:
                self.degraded_mode = True
                self.degraded_mode_entries += 1
        elif self.queued_cost <= self.config.degrade_exit_queued_cycles:
            self.degraded_mode = False

    # ------------------------------------------------------------------
    # Submission (open loop: arrivals may be anywhere in the future).
    # ------------------------------------------------------------------
    def submit(
        self,
        tenant: str,
        lane: str,
        cost_estimate: float,
        arrival: Optional[float] = None,
        deadline_budget: Optional[float] = None,
        payload: Any = None,
        ctx: Any = None,
    ) -> Request:
        """Register one request; admission happens when the clock reaches
        its arrival. ``deadline_budget`` is relative to the arrival.

        ``ctx`` is an optional :class:`~repro.obs.TraceContext`; when
        tracing is on and none is given, a fresh one is stamped so every
        serve.* span (and anything the executor fans out to) shares one
        trace_id end to end."""
        if lane not in LANES:
            raise ConfigurationError(f"unknown lane {lane!r}; known: {LANES}")
        self.config.tenant(tenant)  # validates the tenant id
        if cost_estimate <= 0:
            raise ConfigurationError(
                f"cost_estimate must be > 0, got {cost_estimate}"
            )
        at = self.clock if arrival is None else float(arrival)
        if at < self.clock:
            raise ConfigurationError(
                f"arrival {at} is in the past (clock {self.clock})"
            )
        if deadline_budget is not None and deadline_budget <= 0:
            raise ConfigurationError(
                f"deadline_budget must be > 0, got {deadline_budget}"
            )
        if ctx is None and self.tracer is not None:
            ctx = TraceContext(
                trace_id=new_trace_id("s"), parent="serve.execute"
            )
        req = Request(
            req_id=self._next_id,
            tenant=tenant,
            lane=lane,
            arrival=at,
            cost_estimate=float(cost_estimate),
            deadline=None if deadline_budget is None else at + deadline_budget,
            payload=payload,
            ctx=ctx,
        )
        self._next_id += 1
        heapq.heappush(self._arrivals, (at, req.req_id, req))
        return req

    # ------------------------------------------------------------------
    # The event loop.
    # ------------------------------------------------------------------
    def run_until_drained(self) -> ServeReport:
        """Run until every submitted request has resolved."""
        while True:
            self._process_arrivals()
            self._sweep_deadlines()
            self._dispatch()
            next_times: List[float] = []
            if self._arrivals:
                next_times.append(self._arrivals[0][0])
            if self._running:
                next_times.append(self._running[0][0])
            if not next_times:
                if len(self.queue):
                    raise ExecutionError(
                        "scheduler wedged: queued work with no running "
                        "requests and no arrivals"
                    )  # pragma: no cover - defended by dispatch logic
                break
            self._advance(min(next_times))
        return self.report()

    def report(self) -> ServeReport:
        return ServeReport(
            stats=self.stats,
            resolutions=self.resolutions,
            events=self.events,
            sim_cycles=self.clock,
            busy_cycles=self.ledger.get(CostLedger.SERVE_EXEC),
            idle_cycles=self.ledger.get(CostLedger.SERVE_IDLE),
            degraded_mode_entries=self.degraded_mode_entries,
        )

    def _advance(self, to: float) -> None:
        """Move the serve clock, charging the ledger (which drives the
        metrics sampler), then retire completions that became due."""
        if to < self.clock:
            raise ExecutionError(
                f"clock would move backwards: {to} < {self.clock}"
            )  # pragma: no cover - heap discipline prevents it
        dt = to - self.clock
        if dt > 0:
            bucket = (
                CostLedger.SERVE_EXEC if self._running else CostLedger.SERVE_IDLE
            )
            self.ledger.charge(bucket, dt)
        self.clock = to
        while self._running and self._running[0][0] <= self.clock:
            _, _, req, out, dispatched_at = heapq.heappop(self._running)
            self._complete(req, out, dispatched_at)

    def _process_arrivals(self) -> None:
        while self._arrivals and self._arrivals[0][0] <= self.clock:
            _, _, req = heapq.heappop(self._arrivals)
            self._admit(req)

    def _admit(self, req: Request) -> None:
        s = self._stats(req.tenant, req.lane)
        s.submitted += 1
        self._event(
            EV_SUBMIT, req,
            cost_estimate=req.cost_estimate,
            deadline=-1.0 if req.deadline is None else req.deadline,
        )
        forced = bool(
            self._inj is not None and self._inj.should_fault(SERVE_SHED)
        )
        depth = self.queue.depth((req.lane, req.tenant))
        with maybe_span(
            self.tracer, "serve.admit",
            tenant=req.tenant, lane=req.lane, request=req.req_id,
            trace_id=req.ctx.trace_id if req.ctx is not None else "",
        ) as span:
            verdict: Verdict = self.admission.decide(
                req, self.clock, depth, forced_shed=forced
            )
            span.set_attrs(action=verdict.action)
        if self.journal is not None:
            self.journal.record(
                EV_ADMISSION,
                cycles=self.clock,
                tenant=req.tenant,
                lane=req.lane,
                request=req.req_id,
                action=verdict.action,
                forced=forced,
            )
        if verdict.action == ADMIT:
            s.admitted += 1
            self.queue.push(
                (req.lane, req.tenant), self._weight(req), req.cost_estimate, req
            )
            self.queued_cost += req.cost_estimate
            self._update_breaker()
            self._event(
                EV_ADMIT, req,
                tokens_after=verdict.tokens_after,
                cost_estimate=req.cost_estimate,
                depth_after=depth + 1,
            )
            return
        error = verdict.error(req)
        if verdict.action == THROTTLE:
            s.throttled += 1
            self._event(
                EV_THROTTLE, req,
                retry_after=verdict.retry_after_cycles,
                tokens=verdict.tokens_after,
            )
            self._resolve(req, Outcome.THROTTLED, error=error)
        else:
            s.shed += 1
            self._event(
                EV_SHED, req,
                forced=1.0 if verdict.forced else 0.0,
                depth=float(depth),
            )
            self._resolve(req, Outcome.SHED, error=error)
        if self.slo is not None:
            self.slo.observe(req.tenant, self.clock, answered=False)

    def _sweep_deadlines(self) -> None:
        """Expire queued requests whose deadline already passed (no skew
        here — the chaos site only perturbs dispatch-time checks)."""
        expired = self.queue.drain_if(
            lambda item: item.deadline is not None and self.clock > item.deadline
        )
        for _, req in expired:
            self._expire(req, skew=0.0)

    def _expire(self, req: Request, skew: float, uncount: bool = True) -> None:
        """Resolve a queued request as deadline-expired. ``uncount`` is
        False when the dispatch path already removed its queued cost."""
        if uncount:
            self.queued_cost -= req.cost_estimate
            self._update_breaker()
        s = self._stats(req.tenant, req.lane)
        s.expired += 1
        self._event(EV_EXPIRE, req, skew=skew, deadline=req.deadline)
        self._resolve(
            req,
            Outcome.EXPIRED,
            error=DeadlineExceededError(
                f"request {req.req_id} ({req.tenant}/{req.lane}) missed its "
                f"deadline {req.deadline:.0f} at clock {self.clock:.0f}"
                + (f" (+{skew:.0f} skew) [site=serve.clock_skew]" if skew else "")
            ),
        )
        if self.slo is not None:
            self.slo.observe(req.tenant, self.clock, answered=False)

    @property
    def running_count(self) -> int:
        return len(self._running)

    def running_for(self, tenant: str) -> int:
        return self._running_per_tenant.get(tenant, 0)

    def _dispatch(self) -> None:
        while (
            len(self.queue)
            and self.running_count < self.config.global_concurrency
        ):
            popped = self.queue.pop(
                eligible=lambda key: (
                    self._running_per_tenant[key[1]]
                    < self.config.tenant(key[1]).max_concurrency
                )
            )
            if popped is None:  # every queued tenant is at its cap
                break
            _, req = popped
            self.queued_cost -= req.cost_estimate
            self._update_breaker()
            skew = 0.0
            if req.deadline is not None:
                if self._inj is not None and self._inj.should_fault(
                    SERVE_CLOCK_SKEW
                ):
                    skew = float(
                        self._inj.draw(self.config.max_clock_skew_cycles)
                    )
                if self.clock + skew > req.deadline:
                    self._expire(req, skew=skew, uncount=False)
                    continue
            degrade = self.degraded_mode and req.lane == "olap"
            wait = self.clock - req.arrival
            s = self._stats(req.tenant, req.lane)
            s.queue_waits.append(wait)
            if self.metrics is not None:
                self._m_queue_wait[(req.tenant, req.lane)].observe(wait)
            with maybe_span(
                self.tracer, "serve.queue",
                tenant=req.tenant, lane=req.lane, request=req.req_id,
            ) as qspan:
                qspan.set_duration(wait)
                qspan.set_attrs(wait_cycles=wait)
            self._event(
                EV_DISPATCH, req,
                wait_cycles=wait,
                degraded=1.0 if degrade else 0.0,
            )
            with maybe_span(
                self.tracer, "serve.execute",
                tenant=req.tenant, lane=req.lane, request=req.req_id,
                degraded=degrade,
                trace_id=req.ctx.trace_id if req.ctx is not None else "",
            ) as espan:
                out = self.executor(req, degrade)
                if not isinstance(out, ExecOutcome) or out.cycles < 0:
                    raise ExecutionError(
                        f"executor returned invalid outcome {out!r} for "
                        f"request {req.req_id}"
                    )
                espan.set_duration(out.cycles)
                espan.set_attrs(service_cycles=out.cycles)
            self._running_per_tenant[req.tenant] += 1
            heapq.heappush(
                self._running,
                (self.clock + out.cycles, req.req_id, req, out, self.clock),
            )

    def _complete(self, req: Request, out: ExecOutcome, dispatched_at: float) -> None:
        self._running_per_tenant[req.tenant] -= 1
        s = self._stats(req.tenant, req.lane)
        latency = self.clock - req.arrival
        s.latencies.append(latency)
        if out.degraded:
            s.degraded += 1
        else:
            s.completed += 1
        if self.metrics is not None:
            self._m_latency[(req.tenant, req.lane)].observe(latency)
        self._event(
            EV_COMPLETE, req,
            service_cycles=out.cycles,
            degraded=1.0 if out.degraded else 0.0,
        )
        self._resolve(
            req,
            Outcome.DEGRADED if out.degraded else Outcome.COMPLETED,
            service_cycles=out.cycles,
            answer=out.payload,
        )
        if self.slo is not None:
            self.slo.observe(
                req.tenant, self.clock,
                latency_cycles=latency, answered=True,
            )
        # A finished request frees capacity mid-advance; fill it before
        # time moves again so the queue never idles with a free slot.
        self._process_arrivals()
        self._dispatch()
