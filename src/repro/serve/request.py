"""Requests, tenant quotas, and the serving-layer configuration.

A :class:`Request` is the unit the front door schedules: a tenant's ask
to run one OLTP point transaction or one OLAP scan, carrying a priority
lane, a cost estimate (simulated cycles), and an optional absolute
deadline on the serve clock. Every request is resolved exactly once with
a :class:`Resolution` whose :class:`Outcome` says how it ended —
answered, answered degraded, throttled, shed, or deadline-expired — so
the chaos oracle can account for the whole population.

:class:`TenantConfig` / :class:`ServeConfig` are frozen declarative
configs, validated eagerly like :class:`repro.faults.FaultPlan`: a bad
quota is a :class:`~repro.errors.ConfigurationError` at construction,
never a mystery mid-run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError, ReproError

#: The two priority lanes the front door schedules.
OLTP_LANE = "oltp"
OLAP_LANE = "olap"
LANES = (OLTP_LANE, OLAP_LANE)


class Outcome(enum.Enum):
    """How a request's life ended. Exactly one per request."""

    #: Admitted, dispatched, answered at full fidelity.
    COMPLETED = "completed"
    #: Admitted, dispatched while the overload breaker was open: answered
    #: from a sampled/partial scan and marked degraded (PR 1 discipline).
    DEGRADED = "degraded"
    #: Rejected at admission: the tenant's token bucket could not cover
    #: the cost estimate (:class:`~repro.errors.TenantThrottledError`).
    THROTTLED = "throttled"
    #: Rejected at admission: queue cap reached, or the ``serve.shed``
    #: chaos site forced a graceful shed.
    SHED = "shed"
    #: Admitted but its deadline passed before dispatch
    #: (:class:`~repro.errors.DeadlineExceededError`).
    EXPIRED = "expired"


#: Outcomes that consumed an admission slot (were enqueued).
ADMITTED_OUTCOMES = (Outcome.COMPLETED, Outcome.DEGRADED, Outcome.EXPIRED)
#: Outcomes rejected at the door.
REJECTED_OUTCOMES = (Outcome.THROTTLED, Outcome.SHED)


@dataclass(frozen=True)
class Request:
    """One unit of admitted-or-rejected work, immutable once submitted."""

    req_id: int
    tenant: str
    lane: str
    #: Absolute arrival time on the serve clock (simulated cycles).
    arrival: float
    #: The admission controller's cycle estimate — what the token bucket
    #: charges and the fair queue weighs.
    cost_estimate: float
    #: Absolute deadline (serve-clock cycles), or None for best-effort.
    deadline: Optional[float] = None
    #: Opaque payload handed to the executor (a SQL string, txn spec...).
    payload: Any = None
    #: Distributed trace identity (:class:`repro.obs.TraceContext`), or
    #: None — the scheduler stamps one at submit when tracing is on, so
    #: serve.* spans and downstream shard executions share a trace_id.
    ctx: Any = None


@dataclass
class Resolution:
    """The single terminal record of one request."""

    request: Request
    outcome: Outcome
    #: When the request resolved, on the serve clock.
    resolved_at: float
    #: Simulated cycles the execution occupied a slot (0 for rejections).
    service_cycles: float = 0.0
    #: The typed error for rejected/expired requests, None otherwise.
    error: Optional[ReproError] = None
    #: Executor payload for answered requests (an ExecutionResult, say).
    answer: Any = None

    @property
    def latency_cycles(self) -> float:
        """Submit-to-resolve latency on the serve clock."""
        return self.resolved_at - self.request.arrival


@dataclass(frozen=True)
class TenantConfig:
    """Per-tenant isolation contract.

    ``rate_cycles_per_interval`` refills the tenant's token bucket (in
    estimated execution cycles) every ``ServeConfig.interval_cycles``;
    ``burst_cycles`` caps the bucket. ``max_concurrency`` bounds the
    tenant's simultaneously-executing requests; ``weight`` is its share
    in the weighted-fair queue.
    """

    tenant_id: str
    weight: float = 1.0
    max_concurrency: int = 2
    rate_cycles_per_interval: float = 1_000_000.0
    burst_cycles: float = 2_000_000.0

    def __post_init__(self):
        if not self.tenant_id:
            raise ConfigurationError("tenant_id must be non-empty")
        if self.weight <= 0:
            raise ConfigurationError(
                f"tenant {self.tenant_id!r}: weight must be > 0, got {self.weight}"
            )
        if self.max_concurrency < 1:
            raise ConfigurationError(
                f"tenant {self.tenant_id!r}: max_concurrency must be >= 1, "
                f"got {self.max_concurrency}"
            )
        if self.rate_cycles_per_interval <= 0:
            raise ConfigurationError(
                f"tenant {self.tenant_id!r}: rate_cycles_per_interval must be "
                f"> 0, got {self.rate_cycles_per_interval}"
            )
        if self.burst_cycles < self.rate_cycles_per_interval:
            raise ConfigurationError(
                f"tenant {self.tenant_id!r}: burst_cycles must be >= one "
                f"interval's refill ({self.rate_cycles_per_interval}), "
                f"got {self.burst_cycles}"
            )


@dataclass(frozen=True)
class ServeConfig:
    """The whole front door: tenants, global limits, overload policy."""

    tenants: Tuple[TenantConfig, ...]
    #: Requests executing simultaneously across all tenants.
    global_concurrency: int = 4
    #: Token-bucket refill interval (simulated cycles) — the same grid
    #: the metrics :class:`~repro.obs.metrics.Sampler` ticks on.
    interval_cycles: float = 1_000_000.0
    #: Per-(tenant, lane) queue cap; arrivals beyond it are shed.
    max_queue_depth: int = 64
    #: Lane share in the fair queue (multiplied into the tenant weight).
    #: OLTP outweighs OLAP but never strictly preempts it, so the
    #: starvation-freedom bound holds across lanes too.
    lane_weights: Mapping[str, float] = field(
        default_factory=lambda: {OLTP_LANE: 4.0, OLAP_LANE: 1.0}
    )
    #: Overload breaker: when the queued cost estimate crosses ``enter``,
    #: OLAP dispatches run degraded (sampled) until it falls below
    #: ``exit`` — hysteresis, like the device circuit breaker.
    degrade_enter_queued_cycles: float = 8_000_000.0
    degrade_exit_queued_cycles: float = 2_000_000.0
    #: Fraction of the full OLAP cost a degraded (sampled) answer pays.
    olap_degraded_fraction: float = 0.125
    #: Largest clock skew the ``serve.clock_skew`` chaos site may inject
    #: into one deadline check.
    max_clock_skew_cycles: int = 500_000

    def __post_init__(self):
        if not self.tenants:
            raise ConfigurationError("ServeConfig needs at least one tenant")
        seen = set()
        for t in self.tenants:
            if t.tenant_id in seen:
                raise ConfigurationError(f"duplicate tenant {t.tenant_id!r}")
            seen.add(t.tenant_id)
        if self.global_concurrency < 1:
            raise ConfigurationError(
                f"global_concurrency must be >= 1, got {self.global_concurrency}"
            )
        if self.interval_cycles <= 0:
            raise ConfigurationError(
                f"interval_cycles must be > 0, got {self.interval_cycles}"
            )
        if self.max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        for lane in LANES:
            if self.lane_weights.get(lane, 0.0) <= 0:
                raise ConfigurationError(
                    f"lane_weights must cover {lane!r} with a positive weight"
                )
        if self.degrade_exit_queued_cycles > self.degrade_enter_queued_cycles:
            raise ConfigurationError(
                "degrade_exit_queued_cycles must be <= degrade_enter_queued_cycles"
            )
        if not 0.0 < self.olap_degraded_fraction <= 1.0:
            raise ConfigurationError(
                f"olap_degraded_fraction must be in (0, 1], "
                f"got {self.olap_degraded_fraction}"
            )
        if self.max_clock_skew_cycles < 1:
            raise ConfigurationError(
                f"max_clock_skew_cycles must be >= 1, got {self.max_clock_skew_cycles}"
            )

    def tenant(self, tenant_id: str) -> TenantConfig:
        for t in self.tenants:
            if t.tenant_id == tenant_id:
                return t
        raise ConfigurationError(f"unknown tenant {tenant_id!r}")

    @property
    def tenant_ids(self) -> Tuple[str, ...]:
        return tuple(t.tenant_id for t in self.tenants)


# ----------------------------------------------------------------------
# Event log (consumed by repro.serve.oracle).
# ----------------------------------------------------------------------
#: Event kinds, in lifecycle order.
EV_SUBMIT = "submit"
EV_THROTTLE = "throttle"
EV_SHED = "shed"
EV_ADMIT = "admit"
EV_DISPATCH = "dispatch"
EV_COMPLETE = "complete"
EV_EXPIRE = "expire"


@dataclass(frozen=True)
class Event:
    """One step of one request's lifecycle, on the serve clock.

    ``data`` carries kind-specific facts the oracle re-derives against:
    token balances at admission, the forced flag on sheds, the injected
    skew on expiries, the service cycles on completions.
    """

    kind: str
    t: float
    req_id: int
    tenant: str
    lane: str
    data: Dict[str, float] = field(default_factory=dict)
