"""The multi-tenant serving front door (repro.serve).

Covers admission verdicts and token-bucket math, deadline expiry (both
the queue sweep and the dispatch-time check), degraded-mode hysteresis,
graceful shedding, retry-after composition with RetryPolicy, run-level
determinism, span nesting, the serve metrics collector, and the armed
fast path of the two serve chaos sites.
"""

import json
import time

import pytest

from repro import FaultInjector, FaultPlan, MetricsRegistry, RetryPolicy, Tracer
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    FaultError,
    ReproError,
    ServeFaultError,
    TenantThrottledError,
)
from repro.faults import SERVE_CLOCK_SKEW, SERVE_SHED, SERVE_SITES
from repro.obs import TraceContext
from repro.serve import (
    ADMIT,
    SHED,
    THROTTLE,
    AdmissionController,
    ExecOutcome,
    Outcome,
    Request,
    ServeConfig,
    ServeOracle,
    ServeScheduler,
    TenantConfig,
    TokenBucket,
    throttle_backoff,
)
from tests.conftest import assert_overhead_below_five_percent


def fixed_executor(cycles=10_000.0, degraded_cycles=1_000.0):
    """Deterministic executor: fixed cost, cheaper when asked to degrade."""

    def execute(request, degrade):
        if degrade:
            return ExecOutcome(degraded_cycles, degraded=True)
        return ExecOutcome(cycles)

    return execute


def two_tenant_config(**overrides):
    defaults = dict(
        tenants=(
            TenantConfig("a", weight=2.0, max_concurrency=2,
                         rate_cycles_per_interval=1e6, burst_cycles=2e6),
            TenantConfig("b", weight=1.0, max_concurrency=1,
                         rate_cycles_per_interval=1e6, burst_cycles=2e6),
        ),
        global_concurrency=2,
        interval_cycles=1e6,
        max_queue_depth=8,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


# ----------------------------------------------------------------------
# Error taxonomy.
# ----------------------------------------------------------------------
class TestTaxonomy:
    def test_serve_errors_are_fault_errors(self):
        for exc in (TenantThrottledError, DeadlineExceededError):
            assert issubclass(exc, ServeFaultError)
            assert issubclass(exc, FaultError)
            assert issubclass(exc, ReproError)

    def test_throttled_carries_retry_after(self):
        err = TenantThrottledError("quota", retry_after_cycles=123.0)
        assert err.retry_after_cycles == 123.0

    def test_serve_sites_registered(self):
        assert SERVE_SHED in SERVE_SITES
        assert SERVE_CLOCK_SKEW in SERVE_SITES
        # Registered sites are valid FaultPlan keys.
        FaultPlan(rates={SERVE_SHED: 0.5, SERVE_CLOCK_SKEW: 0.5})


# ----------------------------------------------------------------------
# Token buckets.
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_starts_full_and_caps_at_burst(self):
        b = TokenBucket(rate=100.0, interval=1_000.0, burst=500.0)
        assert b.tokens == 500.0
        b.refill(10_000.0)  # way past: still capped
        assert b.tokens == 500.0

    def test_continuous_refill(self):
        b = TokenBucket(rate=100.0, interval=1_000.0, burst=500.0)
        assert b.try_take(0.0, 500.0)
        assert b.tokens == 0.0
        b.refill(2_000.0)  # two intervals -> 200 tokens
        assert b.tokens == pytest.approx(200.0)

    def test_insufficient_tokens_rejected_without_deduction(self):
        b = TokenBucket(rate=100.0, interval=1_000.0, burst=500.0)
        assert not b.try_take(0.0, 501.0)
        assert b.tokens == 500.0

    def test_epsilon_never_throttles(self):
        b = TokenBucket(rate=100.0, interval=1_000.0, burst=500.0)
        # Accumulated float error below 1e-9 must not reject.
        assert b.try_take(0.0, 500.0 + 1e-10)

    def test_retry_after_matches_refill_math(self):
        b = TokenBucket(rate=100.0, interval=1_000.0, burst=500.0)
        b.try_take(0.0, 500.0)
        # 300 tokens short -> 300 / (100 per 1000 cycles) = 3000 cycles.
        assert b.retry_after(300.0) == pytest.approx(3_000.0)
        b.refill(3_000.0)
        assert b.try_take(3_000.0, 300.0)

    def test_clock_backwards_raises(self):
        b = TokenBucket(rate=1.0, interval=1.0, burst=1.0)
        b.refill(10.0)
        with pytest.raises(ConfigurationError):
            b.refill(5.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=0.0, interval=1.0, burst=1.0)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=1.0, interval=-1.0, burst=1.0)


# ----------------------------------------------------------------------
# Admission verdicts.
# ----------------------------------------------------------------------
def _req(req_id=0, tenant="a", lane="oltp", arrival=0.0, cost=100_000.0,
         deadline=None):
    return Request(req_id=req_id, tenant=tenant, lane=lane, arrival=arrival,
                   cost_estimate=cost, deadline=deadline)


class TestAdmission:
    def make(self):
        return AdmissionController(two_tenant_config())

    def test_admit_deducts_estimate(self):
        ctl = self.make()
        v = ctl.decide(_req(cost=300_000.0), now=0.0, queue_depth=0)
        assert v.action == ADMIT
        assert v.tokens_after == pytest.approx(2e6 - 300_000.0)
        assert v.error(_req()) is None

    def test_over_quota_throttles_with_hint(self):
        ctl = self.make()
        assert ctl.decide(_req(cost=2e6), now=0.0, queue_depth=0).action == ADMIT
        v = ctl.decide(_req(req_id=1, cost=2e6), now=0.0, queue_depth=0)
        assert v.action == THROTTLE
        # Empty bucket, full burst asked: 2e6 / (1e6 per 1e6 cycles).
        assert v.retry_after_cycles == pytest.approx(2e6)
        err = v.error(_req(req_id=1, cost=2e6))
        assert isinstance(err, TenantThrottledError)
        assert err.retry_after_cycles == v.retry_after_cycles

    def test_throttle_does_not_mutate_bucket(self):
        ctl = self.make()
        ctl.decide(_req(cost=2e6), now=0.0, queue_depth=0)
        before = ctl.bucket("a").tokens
        ctl.decide(_req(req_id=1, cost=2e6), now=0.0, queue_depth=0)
        assert ctl.bucket("a").tokens == before

    def test_queue_cap_sheds(self):
        ctl = self.make()
        v = ctl.decide(_req(cost=1.0), now=0.0, queue_depth=8)
        assert v.action == SHED
        assert not v.forced
        assert "full" in str(v.error(_req()))

    def test_forced_shed_takes_precedence(self):
        ctl = self.make()
        v = ctl.decide(_req(cost=1.0), now=0.0, queue_depth=0, forced_shed=True)
        assert v.action == SHED
        assert v.forced
        assert "serve.shed" in str(v.error(_req()))
        # A forced shed never touches the bucket.
        assert ctl.bucket("a").tokens == 2e6

    def test_tenants_isolated(self):
        ctl = self.make()
        ctl.decide(_req(cost=2e6), now=0.0, queue_depth=0)  # drains a
        v = ctl.decide(_req(req_id=1, tenant="b", cost=2e6), now=0.0,
                       queue_depth=0)
        assert v.action == ADMIT

    def test_unknown_tenant_raises(self):
        with pytest.raises(ConfigurationError):
            self.make().bucket("nope")


# ----------------------------------------------------------------------
# Scheduler basics.
# ----------------------------------------------------------------------
class TestScheduler:
    def test_submit_validation(self):
        s = ServeScheduler(two_tenant_config(), fixed_executor())
        with pytest.raises(ConfigurationError):
            s.submit("a", "vip", 100.0)
        with pytest.raises(ConfigurationError):
            s.submit("nope", "oltp", 100.0)
        with pytest.raises(ConfigurationError):
            s.submit("a", "oltp", 0.0)
        with pytest.raises(ConfigurationError):
            s.submit("a", "oltp", 100.0, deadline_budget=-1.0)

    def test_every_request_resolves_exactly_once(self):
        s = ServeScheduler(two_tenant_config(), fixed_executor())
        for i in range(20):
            s.submit("a" if i % 2 else "b", "oltp", 50_000.0,
                     arrival=i * 10_000.0)
        report = s.run_until_drained()
        assert len(report.resolutions) == 20
        assert sorted(report.resolutions) == list(range(20))
        assert all(
            r.outcome is Outcome.COMPLETED for r in report.resolutions.values()
        )
        assert ServeOracle(two_tenant_config()).verify(report.events) == []

    def test_clock_advances_only_while_working(self):
        s = ServeScheduler(two_tenant_config(), fixed_executor(cycles=5_000.0))
        s.submit("a", "oltp", 10_000.0, arrival=100_000.0)
        report = s.run_until_drained()
        # Idle until the arrival, busy for the service time.
        assert report.sim_cycles == pytest.approx(105_000.0)
        assert report.idle_cycles == pytest.approx(100_000.0)
        assert report.busy_cycles == pytest.approx(5_000.0)

    def test_global_concurrency_serializes(self):
        # One slot: three simultaneous arrivals run back to back.
        cfg = two_tenant_config(global_concurrency=1)
        s = ServeScheduler(cfg, fixed_executor(cycles=10_000.0))
        for i in range(3):
            s.submit("a", "oltp", 10_000.0, arrival=0.0)
        report = s.run_until_drained()
        ends = sorted(r.resolved_at for r in report.resolutions.values())
        assert ends == [pytest.approx(10_000.0 * (i + 1)) for i in range(3)]

    def test_per_tenant_concurrency_respected(self):
        cfg = two_tenant_config(global_concurrency=2)
        s = ServeScheduler(cfg, fixed_executor(cycles=10_000.0))
        # b's cap is 1: its second request waits even with a free slot.
        s.submit("b", "oltp", 10_000.0, arrival=0.0)
        s.submit("b", "oltp", 10_000.0, arrival=0.0)
        report = s.run_until_drained()
        ends = sorted(r.resolved_at for r in report.resolutions.values())
        assert ends == [pytest.approx(10_000.0), pytest.approx(20_000.0)]

    def test_throttled_resolution_carries_typed_error(self):
        s = ServeScheduler(two_tenant_config(), fixed_executor())
        s.submit("a", "olap", 2e6, arrival=0.0)
        s.submit("a", "olap", 2e6, arrival=0.0)
        report = s.run_until_drained()
        outcomes = {r.outcome for r in report.resolutions.values()}
        assert Outcome.THROTTLED in outcomes
        throttled = next(
            r for r in report.resolutions.values()
            if r.outcome is Outcome.THROTTLED
        )
        assert isinstance(throttled.error, TenantThrottledError)
        assert throttled.error.retry_after_cycles > 0

    def test_queue_cap_sheds_gracefully(self):
        cfg = two_tenant_config(global_concurrency=1, max_queue_depth=2)
        s = ServeScheduler(cfg, fixed_executor(cycles=1e6))
        # Cheap requests so the bucket never throttles. Same-timestamp
        # arrivals all hit admission before any dispatch, so the third
        # and fourth find the queue at its cap of 2 and are shed.
        for _ in range(4):
            s.submit("a", "oltp", 1_000.0, arrival=0.0)
        report = s.run_until_drained()
        lane = report.lane("a", "oltp")
        assert lane.shed == 2
        assert lane.completed == 2
        shed = next(
            r for r in report.resolutions.values() if r.outcome is Outcome.SHED
        )
        assert isinstance(shed.error, TenantThrottledError)


# ----------------------------------------------------------------------
# Deadlines.
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_queued_past_deadline_expires_on_sweep(self):
        cfg = two_tenant_config(global_concurrency=1)
        s = ServeScheduler(cfg, fixed_executor(cycles=100_000.0))
        s.submit("a", "oltp", 10_000.0, arrival=0.0)  # occupies the slot
        late = s.submit("a", "oltp", 10_000.0, arrival=0.0,
                        deadline_budget=50_000.0)
        report = s.run_until_drained()
        res = report.resolutions[late.req_id]
        assert res.outcome is Outcome.EXPIRED
        assert isinstance(res.error, DeadlineExceededError)
        assert report.lane("a", "oltp").expired == 1
        assert ServeOracle(cfg).verify(report.events) == []

    def test_deadline_met_when_capacity_free(self):
        s = ServeScheduler(two_tenant_config(), fixed_executor(cycles=1_000.0))
        req = s.submit("a", "oltp", 10_000.0, arrival=0.0,
                       deadline_budget=50_000.0)
        report = s.run_until_drained()
        assert report.resolutions[req.req_id].outcome is Outcome.COMPLETED

    def test_deadline_applies_to_queue_wait_not_service(self):
        # Dispatch happens before the deadline; the service time running
        # past it must NOT expire the request (deadlines gate admission
        # and dispatch, not execution).
        s = ServeScheduler(two_tenant_config(), fixed_executor(cycles=90_000.0))
        req = s.submit("a", "oltp", 10_000.0, arrival=0.0,
                       deadline_budget=50_000.0)
        report = s.run_until_drained()
        assert report.resolutions[req.req_id].outcome is Outcome.COMPLETED


# ----------------------------------------------------------------------
# Degraded mode (the overload breaker).
# ----------------------------------------------------------------------
class TestDegradedMode:
    def overload_cfg(self):
        return two_tenant_config(
            tenants=(
                TenantConfig("a", max_concurrency=1,
                             rate_cycles_per_interval=1e9, burst_cycles=1e9),
            ),
            global_concurrency=1,
            degrade_enter_queued_cycles=500_000.0,
            degrade_exit_queued_cycles=100_000.0,
        )

    def test_backlog_degrades_olap_then_recovers(self):
        cfg = self.overload_cfg()
        s = ServeScheduler(
            cfg, fixed_executor(cycles=200_000.0, degraded_cycles=25_000.0)
        )
        for _ in range(8):
            s.submit("a", "olap", 200_000.0, arrival=0.0)
        report = s.run_until_drained()
        lane = report.lane("a", "olap")
        assert report.degraded_mode_entries >= 1
        assert lane.degraded > 0
        # The backlog drained, so the breaker closed again.
        assert not s.degraded_mode
        degraded = [
            r for r in report.resolutions.values()
            if r.outcome is Outcome.DEGRADED
        ]
        assert degraded and all(
            r.service_cycles == 25_000.0 for r in degraded
        )
        assert ServeOracle(cfg).verify(report.events) == []

    def test_oltp_never_degraded(self):
        cfg = self.overload_cfg()
        s = ServeScheduler(cfg, fixed_executor(cycles=200_000.0))
        for _ in range(8):
            s.submit("a", "oltp", 200_000.0, arrival=0.0)
        report = s.run_until_drained()
        assert report.lane("a", "oltp").degraded == 0
        assert report.degraded_mode_entries >= 1  # breaker opened anyway

    def test_hysteresis_validated(self):
        with pytest.raises(ConfigurationError):
            two_tenant_config(
                degrade_enter_queued_cycles=1.0,
                degrade_exit_queued_cycles=2.0,
            )


# ----------------------------------------------------------------------
# Retry-after composition.
# ----------------------------------------------------------------------
class TestThrottleBackoff:
    def test_hint_is_a_floor(self):
        policy = RetryPolicy(base=100.0, multiplier=2.0, cap=1e9, jitter=0.0)
        err = TenantThrottledError("quota", retry_after_cycles=50_000.0)
        # Early attempts: the server hint dominates.
        assert throttle_backoff(policy, err, 0) == 50_000.0
        # Late attempts: the policy's exponential growth dominates.
        assert throttle_backoff(policy, err, 10) == 100.0 * 2.0**10

    def test_plain_error_falls_back_to_policy(self):
        policy = RetryPolicy(base=100.0, multiplier=2.0, cap=1e9, jitter=0.0)
        assert throttle_backoff(policy, ValueError("x"), 2) == 400.0

    def test_end_to_end_hint_survives_resolution(self):
        s = ServeScheduler(two_tenant_config(), fixed_executor())
        s.submit("a", "olap", 2e6, arrival=0.0)
        s.submit("a", "olap", 2e6, arrival=0.0)
        report = s.run_until_drained()
        err = next(
            r.error for r in report.resolutions.values()
            if r.outcome is Outcome.THROTTLED
        )
        policy = RetryPolicy(base=1.0, multiplier=2.0, cap=1e9, jitter=0.0)
        assert throttle_backoff(policy, err, 0) == err.retry_after_cycles


# ----------------------------------------------------------------------
# Determinism.
# ----------------------------------------------------------------------
class TestDeterminism:
    def run_once(self, seed=3):
        from repro.serve import LoadSpec, submit_open_loop, synthetic_executor

        cfg = two_tenant_config()
        s = ServeScheduler(cfg, synthetic_executor(seed=seed))
        specs = [
            LoadSpec("a", "oltp", mean_interarrival_cycles=20_000.0,
                     cost_cycles=(5_000.0, 20_000.0),
                     deadline_budget_cycles=500_000.0),
            LoadSpec("b", "olap", mean_interarrival_cycles=300_000.0,
                     cost_cycles=(200_000.0, 900_000.0)),
        ]
        submit_open_loop(s, specs, horizon_cycles=3_000_000.0, seed=seed)
        return s.run_until_drained()

    def test_identical_seeds_identical_runs(self):
        a, b = self.run_once(), self.run_once()
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )
        assert [(e.kind, e.t, e.req_id) for e in a.events] == [
            (e.kind, e.t, e.req_id) for e in b.events
        ]

    def test_different_seeds_differ(self):
        a, b = self.run_once(seed=3), self.run_once(seed=4)
        assert json.dumps(a.to_dict(), sort_keys=True) != json.dumps(
            b.to_dict(), sort_keys=True
        )


# ----------------------------------------------------------------------
# Spans.
# ----------------------------------------------------------------------
class TestSpans:
    def test_lifecycle_spans_nest_under_caller(self):
        tracer = Tracer()
        s = ServeScheduler(
            two_tenant_config(), fixed_executor(cycles=7_000.0), tracer=tracer
        )
        s.submit("a", "oltp", 10_000.0, arrival=0.0)
        with tracer.span("serve.run") as root:
            s.run_until_drained()
        names = [span.name for span in root.walk()]
        assert names[0] == "serve.run"
        assert "serve.admit" in names
        assert "serve.queue" in names
        assert "serve.execute" in names
        execute = next(sp for sp in root.walk() if sp.name == "serve.execute")
        assert execute.parent is root
        assert execute.attrs["tenant"] == "a"
        assert execute.duration_cycles == 7_000.0

    def test_no_tracer_no_spans(self):
        s = ServeScheduler(two_tenant_config(), fixed_executor())
        s.submit("a", "oltp", 10_000.0)
        s.run_until_drained()  # simply must not blow up without a tracer

    def test_submit_stamps_trace_context_only_with_tracer(self):
        traced = ServeScheduler(
            two_tenant_config(), fixed_executor(), tracer=Tracer()
        )
        req = traced.submit("a", "oltp", 10_000.0)
        assert isinstance(req.ctx, TraceContext)
        assert req.ctx.trace_id.startswith("s")
        assert req.ctx.parent == "serve.execute"
        given = TraceContext(trace_id="caller")
        assert traced.submit("a", "oltp", 10_000.0, ctx=given).ctx is given
        untraced = ServeScheduler(two_tenant_config(), fixed_executor())
        assert untraced.submit("a", "oltp", 10_000.0).ctx is None


# ----------------------------------------------------------------------
# Metrics: hot-path histograms + the registered collector.
# ----------------------------------------------------------------------
class TestServeMetrics:
    def test_collector_and_histograms(self):
        registry = MetricsRegistry()
        s = ServeScheduler(
            two_tenant_config(), fixed_executor(cycles=10_000.0),
            metrics=registry,
        )
        for i in range(4):
            s.submit("a", "oltp", 10_000.0, arrival=i * 1_000.0)
        s.run_until_drained()
        snap = registry.collect()
        assert snap['serve_submitted{lane="oltp",tenant="a"}'] == 4.0
        assert snap['serve_completed{lane="oltp",tenant="a"}'] == 4.0
        assert snap['serve_queue_depth{lane="oltp",tenant="a"}'] == 0.0
        assert snap["serve_running_total"] == 0.0
        assert snap["serve_degraded_mode"] == 0.0
        assert snap['serve_latency_count{lane="oltp",tenant="a"}'] == 4.0
        assert snap['serve_latency_sum{lane="oltp",tenant="a"}'] > 0.0
        assert snap['serve_time_in_queue_count{lane="oltp",tenant="a"}'] == 4.0
        # Tokens drained by four admissions.
        assert snap['serve_tokens{tenant="a"}'] < 2e6

    def test_sampler_ticks_on_the_serve_clock(self):
        registry = MetricsRegistry()
        sampler = registry.attach_sampler(interval_cycles=10_000.0)
        s = ServeScheduler(
            two_tenant_config(), fixed_executor(cycles=10_000.0),
            metrics=registry,
        )
        for i in range(5):
            s.submit("a", "oltp", 10_000.0, arrival=i * 20_000.0)
        s.run_until_drained()
        # 5 back-to-back-ish requests cover ~90k cycles of simulated time.
        assert len(sampler.series) >= 9


# ----------------------------------------------------------------------
# Chaos sites: armed behaviour and the disarmed fast path.
# ----------------------------------------------------------------------
class TestServeFaultSites:
    def test_forced_shed_site(self):
        inj = FaultInjector(FaultPlan(rates={SERVE_SHED: 1.0}, seed=1))
        s = ServeScheduler(
            two_tenant_config(), fixed_executor(), fault_injector=inj
        )
        for _ in range(5):
            s.submit("a", "oltp", 1_000.0, arrival=0.0)
        report = s.run_until_drained()
        lane = report.lane("a", "oltp")
        assert lane.shed == 5
        assert all(
            r.outcome is Outcome.SHED for r in report.resolutions.values()
        )
        assert inj.checks[SERVE_SHED] == 5

    def test_clock_skew_expires_at_dispatch(self):
        cfg = two_tenant_config(max_clock_skew_cycles=1_000_000)
        inj = FaultInjector(FaultPlan(rates={SERVE_CLOCK_SKEW: 1.0}, seed=2))
        s = ServeScheduler(cfg, fixed_executor(), fault_injector=inj)
        # Tight deadlines: any skew draw above 5k cycles expires them.
        for _ in range(10):
            s.submit("a", "oltp", 1_000.0, arrival=0.0,
                     deadline_budget=5_000.0)
        report = s.run_until_drained()
        lane = report.lane("a", "oltp")
        assert lane.expired > 0
        expired = [
            r for r in report.resolutions.values()
            if r.outcome is Outcome.EXPIRED
        ]
        assert all(isinstance(r.error, DeadlineExceededError) for r in expired)
        assert all("skew" in str(r.error) for r in expired)
        # Skewed expiries still satisfy the oracle (skew is in the event).
        assert ServeOracle(cfg).verify(report.events) == []

    def test_no_deadline_no_skew_consultation(self):
        inj = FaultInjector(FaultPlan(rates={SERVE_CLOCK_SKEW: 1.0}, seed=3))
        s = ServeScheduler(
            two_tenant_config(), fixed_executor(), fault_injector=inj
        )
        s.submit("a", "oltp", 1_000.0)
        s.run_until_drained()
        # Best-effort requests never pay the skew check.
        assert SERVE_CLOCK_SKEW not in inj.checks

    def test_disarmed_injector_not_consulted(self):
        inj = FaultInjector(FaultPlan(rates={SERVE_SHED: 0.0}))
        assert not inj.armed
        s = ServeScheduler(
            two_tenant_config(), fixed_executor(), fault_injector=inj
        )
        for _ in range(50):
            s.submit("a", "oltp", 1_000.0, arrival=0.0)
        s.run_until_drained()
        assert inj.checks == {}

    def test_disarmed_overhead_below_five_percent(self):
        """The armed gate costs <5% on the submit/admit/dispatch hot loop
        versus no injector at all (min-of-trials to suppress CI noise)."""

        def _trial(injector):
            s = ServeScheduler(
                two_tenant_config(max_queue_depth=4096),
                fixed_executor(cycles=100.0),
                fault_injector=injector,
            )
            for i in range(1_500):
                s.submit("a", "oltp", 100.0, arrival=float(i) * 50.0)
            t0 = time.process_time()
            s.run_until_drained()
            return time.process_time() - t0

        assert_overhead_below_five_percent(
            lambda: _trial(None),
            lambda: _trial(FaultInjector(FaultPlan())),
            "disarmed",
        )
