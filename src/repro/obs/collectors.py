"""PMU-style collectors: read existing layer counters at sample time.

Every simulated layer already maintains counters as part of its model —
cache hit/miss/eviction state, DRAM bank activity, WAL device bytes,
MVCC statistics. These functions wrap that state into
:data:`~repro.obs.metrics.MetricsCollector` callables and register them
on a :class:`~repro.obs.metrics.MetricsRegistry`, so the hot paths are
never touched: like a hardware PMU, the cost of a metric is paid only
when a sample is read.

Each ``register_*`` helper takes optional ``**labels`` (e.g.
``engine="row"``) so several instances of the same layer can share one
registry without colliding.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.obs.metrics import MetricsRegistry, fmt_name


def _rate(hits: float, total: float) -> float:
    return hits / total if total else 0.0


# ----------------------------------------------------------------------
# hw: caches, prefetcher, DRAM banks.
# ----------------------------------------------------------------------
def register_hierarchy(
    registry: MetricsRegistry, hierarchy, **labels: Any
) -> None:
    """Cache occupancy/hit-rate/evictions per level, prefetcher stream
    utilization and accuracy, DRAM per-bank row-hit rate and load."""

    def collect() -> Dict[str, float]:
        out: Dict[str, float] = {}
        for level, cache in (("l1", hierarchy.l1), ("l2", hierarchy.l2)):
            s = cache.stats
            capacity = cache.config.num_lines
            out[fmt_name(f"hw_{level}_hits", **labels)] = s.hits
            out[fmt_name(f"hw_{level}_misses", **labels)] = s.misses
            out[fmt_name(f"hw_{level}_evictions", **labels)] = s.evictions
            out[fmt_name(f"hw_{level}_polluted_evictions", **labels)] = (
                s.polluted_evictions
            )
            out[fmt_name(f"hw_{level}_hit_rate", **labels)] = _rate(
                s.hits, s.hits + s.misses
            )
            out[fmt_name(f"hw_{level}_occupancy_lines", **labels)] = (
                cache.resident_lines
            )
            out[fmt_name(f"hw_{level}_occupancy_frac", **labels)] = _rate(
                cache.resident_lines, capacity
            )
        pf = hierarchy.prefetcher
        out[fmt_name("hw_prefetch_covered", **labels)] = pf.covered
        out[fmt_name("hw_prefetch_uncovered", **labels)] = pf.uncovered
        out[fmt_name("hw_prefetch_accuracy", **labels)] = _rate(
            pf.covered, pf.covered + pf.uncovered
        )
        out[fmt_name("hw_prefetch_active_streams", **labels)] = pf.active_streams
        out[fmt_name("hw_prefetch_stream_utilization", **labels)] = _rate(
            pf.active_streams, pf.config.max_streams
        )
        dram = hierarchy.dram
        out[fmt_name("hw_dram_row_hits", **labels)] = dram.stats.row_hits
        out[fmt_name("hw_dram_row_misses", **labels)] = dram.stats.row_misses
        out[fmt_name("hw_dram_row_hit_rate", **labels)] = _rate(
            dram.stats.row_hits, dram.stats.accesses
        )
        out[fmt_name("hw_dram_lines", **labels)] = dram.stats.lines_transferred
        mean_load = (
            sum(dram.bank_lines) / len(dram.bank_lines) if dram.bank_lines else 0.0
        )
        for bank in range(dram.config.banks):
            out[fmt_name("hw_dram_bank_row_hits", bank=bank, **labels)] = (
                dram.bank_row_hits[bank]
            )
            out[
                fmt_name("hw_dram_bank_row_hit_rate", bank=bank, **labels)
            ] = _rate(
                dram.bank_row_hits[bank],
                dram.bank_row_hits[bank] + dram.bank_row_misses[bank],
            )
            # "Queue depth" proxy for a closed-form model: demand lines
            # queued on this bank relative to a perfectly balanced load.
            out[fmt_name("hw_dram_bank_queue_depth", bank=bank, **labels)] = (
                _rate(dram.bank_lines[bank], mean_load) if mean_load else 0.0
            )
        return out

    registry.register_collector(collect)


# ----------------------------------------------------------------------
# core: the RM engine model and ephemeral groups.
# ----------------------------------------------------------------------
def register_rm_engine(registry: MetricsRegistry, model, **labels: Any) -> None:
    """RM buffer residency, transform throughput, refill pressure."""

    def collect() -> Dict[str, float]:
        produce = model.total_produce_cycles
        return {
            fmt_name("rm_transforms", **labels): model.transforms,
            fmt_name("rm_out_bytes", **labels): model.total_out_bytes,
            fmt_name("rm_produce_cycles", **labels): produce,
            fmt_name("rm_refill_stall_cycles", **labels): (
                model.total_stall_cycles
            ),
            fmt_name("rm_refills", **labels): model.total_refills,
            fmt_name("rm_dram_bytes_touched", **labels): model.total_dram_bytes,
            # Bytes the fabric emits per produce cycle: the transform
            # throughput the paper's pipelining argument depends on.
            fmt_name("rm_transform_bytes_per_cycle", **labels): _rate(
                model.total_out_bytes, produce
            ),
            # How full the on-fabric buffer ran on the last transform
            # (1.0 == at least one refill was needed).
            fmt_name("rm_buffer_residency", **labels): min(
                1.0, _rate(model.last_out_bytes, model.rm.buffer_bytes)
            ),
        }

    registry.register_collector(collect)


# ----------------------------------------------------------------------
# db: plan/code-fragment cache, MVCC and WAL.
# ----------------------------------------------------------------------
def register_codecache(registry: MetricsRegistry, cache, **labels: Any) -> None:
    """Code-fragment cache effectiveness: hit/miss/eviction counters,
    resident fragments, amortized compile cycles, and the hit rate the
    paper's code-generation argument (§III-B) turns on."""

    def collect() -> Dict[str, float]:
        s = cache.stats
        return {
            fmt_name("codecache_hits_total", **labels): s.hits,
            fmt_name("codecache_misses_total", **labels): s.misses,
            fmt_name("codecache_evictions_total", **labels): s.evictions,
            fmt_name("codecache_compile_cycles_total", **labels): (
                s.compile_cycles
            ),
            fmt_name("codecache_resident", **labels): cache.resident,
            fmt_name("codecache_capacity", **labels): cache.capacity,
            fmt_name("codecache_hit_rate", **labels): s.hit_rate,
        }

    registry.register_collector(collect)


# ----------------------------------------------------------------------
# db: MVCC and WAL.
# ----------------------------------------------------------------------
def register_mvcc(registry: MetricsRegistry, manager, **labels: Any) -> None:
    """Active transactions, abort/retry rates, version churn."""

    def collect() -> Dict[str, float]:
        s = manager.stats
        return {
            fmt_name("mvcc_active_txns", **labels): manager.active_count,
            fmt_name("mvcc_begun", **labels): s.begun,
            fmt_name("mvcc_committed", **labels): s.committed,
            fmt_name("mvcc_aborted", **labels): s.aborted,
            fmt_name("mvcc_conflicts", **labels): s.conflicts,
            fmt_name("mvcc_retries", **labels): s.retries,
            fmt_name("mvcc_abort_rate", **labels): _rate(s.aborted, s.begun),
            fmt_name("mvcc_backoff_cycles", **labels): s.backoff_cycles,
            fmt_name("mvcc_versions_created", **labels): s.versions_created,
            fmt_name("mvcc_versions_vacuumed", **labels): s.versions_vacuumed,
            fmt_name("mvcc_clock", **labels): manager.now,
        }

    registry.register_collector(collect)


def register_version_chains(
    registry: MetricsRegistry, table, key_column: str, **labels: Any
) -> None:
    """Version-chain length distribution of ``table``, grouped by
    ``key_column`` (the logical row identity). Computed brute-force at
    sample time — O(n log n) per sample, zero cost on the write path."""

    def collect() -> Dict[str, float]:
        values = table.column_values(key_column)
        if len(values) == 0:
            return {
                fmt_name("mvcc_chain_len_p50", **labels): 0.0,
                fmt_name("mvcc_chain_len_p95", **labels): 0.0,
                fmt_name("mvcc_chain_len_p99", **labels): 0.0,
                fmt_name("mvcc_chain_len_max", **labels): 0.0,
                fmt_name("mvcc_chain_keys", **labels): 0.0,
            }
        _, counts = np.unique(values, return_counts=True)
        return {
            fmt_name("mvcc_chain_len_p50", **labels): float(
                np.percentile(counts, 50)
            ),
            fmt_name("mvcc_chain_len_p95", **labels): float(
                np.percentile(counts, 95)
            ),
            fmt_name("mvcc_chain_len_p99", **labels): float(
                np.percentile(counts, 99)
            ),
            fmt_name("mvcc_chain_len_max", **labels): float(counts.max()),
            fmt_name("mvcc_chain_keys", **labels): float(len(counts)),
        }

    registry.register_collector(collect)


def register_wal(registry: MetricsRegistry, wal, **labels: Any) -> None:
    """WAL durable bytes, log length, flush/corruption counters."""

    def collect() -> Dict[str, float]:
        s = wal.stats
        dev = wal.device
        return {
            fmt_name("wal_records", **labels): s.records,
            fmt_name("wal_bytes_appended", **labels): s.bytes_appended,
            fmt_name("wal_commits_logged", **labels): s.commits_logged,
            fmt_name("wal_aborts_logged", **labels): s.aborts_logged,
            fmt_name("wal_writes_logged", **labels): s.writes_logged,
            fmt_name("wal_flushes", **labels): s.flushes,
            fmt_name("wal_durable_bytes", **labels): dev.durable_bytes,
            fmt_name("wal_pending_bytes", **labels): dev.pending_bytes,
            fmt_name("wal_device_appends", **labels): dev.appends,
            fmt_name("wal_torn_appends", **labels): dev.torn_appends,
            fmt_name("wal_partial_flushes", **labels): dev.partial_flushes,
            fmt_name("wal_bitflips", **labels): dev.bitflips,
            fmt_name("wal_truncations", **labels): dev.erases,
        }

    registry.register_collector(collect)


# ----------------------------------------------------------------------
# storage: flash devices and the tiered fabric.
# ----------------------------------------------------------------------


# ----------------------------------------------------------------------
# faults: injector and breakers.
# ----------------------------------------------------------------------
def register_fault_injector(
    registry: MetricsRegistry, injector, **labels: Any
) -> None:
    """Per-site check/fire counts plus the armed flag."""

    def collect() -> Dict[str, float]:
        out: Dict[str, float] = {
            fmt_name("faults_total_fired", **labels): injector.total_fired,
            fmt_name("faults_armed", **labels): float(injector.armed),
        }
        for site, n in injector.checks.items():
            out[fmt_name("faults_checks", site=site, **labels)] = n
        for site, n in injector.fired.items():
            out[fmt_name("faults_fired", site=site, **labels)] = n
        return out

    registry.register_collector(collect)


# ----------------------------------------------------------------------
# serve: the multi-tenant front door.
# ----------------------------------------------------------------------
def register_serve(registry: MetricsRegistry, scheduler, **labels: Any) -> None:
    """Queue depths, admission/shed/throttle/deadline counters, in-flight
    counts, token balances, and the overload breaker state — one series
    per (tenant, lane) so interference is visible in the sampled output.

    Latency and time-in-queue histograms are registered by the scheduler
    itself (they are hot-path instruments, not PMU reads); this collector
    covers everything readable off the scheduler's existing state.
    """
    from repro.serve.request import LANES

    def collect() -> Dict[str, float]:
        out: Dict[str, float] = {}
        for tenant in scheduler.config.tenant_ids:
            for lane in LANES:
                depth = scheduler.queue.depth((lane, tenant))
                s = scheduler.stats.get((tenant, lane))
                out[fmt_name("serve_queue_depth", tenant=tenant, lane=lane,
                             **labels)] = float(depth)
                for counter in ("submitted", "admitted", "completed",
                                "degraded", "throttled", "shed", "expired"):
                    out[fmt_name(f"serve_{counter}", tenant=tenant,
                                 lane=lane, **labels)] = float(
                        getattr(s, counter) if s is not None else 0
                    )
            out[fmt_name("serve_running", tenant=tenant, **labels)] = float(
                scheduler.running_for(tenant)
            )
            out[fmt_name("serve_tokens", tenant=tenant, **labels)] = (
                scheduler.admission.bucket(tenant).tokens
            )
        out[fmt_name("serve_running_total", **labels)] = float(
            scheduler.running_count
        )
        out[fmt_name("serve_queued_cost_cycles", **labels)] = (
            scheduler.queued_cost
        )
        out[fmt_name("serve_degraded_mode", **labels)] = float(
            scheduler.degraded_mode
        )
        out[fmt_name("serve_degraded_mode_entries", **labels)] = float(
            scheduler.degraded_mode_entries
        )
        return out

    registry.register_collector(collect)


def register_breaker(registry: MetricsRegistry, breaker, **labels: Any) -> None:
    """Breaker state (0=closed, 1=half-open, 2=open) and trip count."""
    from repro.faults import BreakerState

    order = {
        BreakerState.CLOSED: 0.0,
        BreakerState.HALF_OPEN: 1.0,
        BreakerState.OPEN: 2.0,
    }

    def collect() -> Dict[str, float]:
        return {
            fmt_name("breaker_state", **labels): order[breaker.state],
            fmt_name("breaker_times_opened", **labels): breaker.times_opened,
        }

    registry.register_collector(collect)


# ----------------------------------------------------------------------
# sql: the unified statement pipeline.
# ----------------------------------------------------------------------
def register_sql(registry: MetricsRegistry, session, **labels: Any) -> None:
    """Statement-mix and outcome telemetry of one SQL
    :class:`~repro.db.sql.pipeline.Session`.

    Monotone ``sql_*_total`` counters for statements by kind, errors and
    rows moved, plus the session's transaction view: commit/conflict
    totals read off the MVCC manager and an ``sql_txn_open`` gauge (0/1 —
    is an explicit transaction open right now).
    """

    def collect() -> Dict[str, float]:
        s = session.stats
        m = session.manager.stats
        return {
            fmt_name("sql_statements_total", **labels): float(s.statements),
            fmt_name("sql_selects_total", **labels): float(s.selects),
            fmt_name("sql_dml_total", **labels): float(
                s.inserts + s.updates + s.deletes
            ),
            fmt_name("sql_inserts_total", **labels): float(s.inserts),
            fmt_name("sql_updates_total", **labels): float(s.updates),
            fmt_name("sql_deletes_total", **labels): float(s.deletes),
            fmt_name("sql_ddl_total", **labels): float(s.ddl),
            fmt_name("sql_explains_total", **labels): float(s.explains),
            fmt_name("sql_errors_total", **labels): float(s.errors),
            fmt_name("sql_rows_returned_total", **labels): float(
                s.rows_returned
            ),
            fmt_name("sql_rows_written_total", **labels): float(
                s.rows_written
            ),
            fmt_name("sql_subqueries_folded_total", **labels): float(
                s.subqueries_folded
            ),
            fmt_name("sql_txn_commits_total", **labels): float(m.committed),
            fmt_name("sql_txn_conflicts_total", **labels): float(m.conflicts),
            fmt_name("sql_txn_open", **labels): float(session.in_transaction),
        }

    registry.register_collector(collect)


# ----------------------------------------------------------------------
# obs: SLO monitor and the flight recorder.
# ----------------------------------------------------------------------
def register_slo(registry: MetricsRegistry, monitor, **labels: Any) -> None:
    """Burn rates and breach state of a :class:`~repro.obs.slo.SloMonitor`.

    One labeled series group per ``(tenant, objective)``: the fast/slow
    window burn rates, a 0/1 in-breach gauge, the monotone breach
    counter, and the event/bad totals the burn rates are computed from.
    """

    def collect() -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (tenant, objective), s in monitor.states.items():
            kw = dict(tenant=tenant, objective=objective, **labels)
            out[fmt_name("slo_burn_rate_fast", **kw)] = s.burn_fast
            out[fmt_name("slo_burn_rate_slow", **kw)] = s.burn_slow
            out[fmt_name("slo_in_breach", **kw)] = float(s.in_breach)
            out[fmt_name("slo_breaches_total", **kw)] = float(s.breaches_total)
            out[fmt_name("slo_events_total", **kw)] = float(s.events_total)
            out[fmt_name("slo_bad_total", **kw)] = float(s.bad_total)
        return out

    registry.register_collector(collect)


def register_journal(registry: MetricsRegistry, journal, **labels: Any) -> None:
    """Flight-recorder totals: monotone event counters (overall and per
    kind), the drop counter, and the current ring occupancy gauge."""

    def collect() -> Dict[str, float]:
        out: Dict[str, float] = {
            fmt_name("journal_events_total", **labels): float(
                journal.events_total
            ),
            fmt_name("journal_dropped_total", **labels): float(journal.dropped),
            fmt_name("journal_ring_occupancy", **labels): float(len(journal)),
        }
        for kind, n in journal.counts.items():
            out[fmt_name("journal_kind_total", kind=kind, **labels)] = float(n)
        return out

    registry.register_collector(collect)


# ----------------------------------------------------------------------
# dist: the scatter-gather shard cluster.
# ----------------------------------------------------------------------
def register_dist(registry: MetricsRegistry, cluster, **labels: Any) -> None:
    """Fault-handling telemetry of a :class:`~repro.dist.ShardCluster`.

    Monotone ``dist_*_total`` counters (queries, RPCs, timeouts, hedges,
    restarts, recoveries, stale fences, partial results, shipped rows,
    recovered/replicated bytes) plus point-in-time gauges: live worker
    count and the per-shard incarnation number — the restart history of
    each fault domain, one labeled series per shard.
    """

    def collect() -> Dict[str, float]:
        s = cluster.stats
        out: Dict[str, float] = {
            fmt_name("dist_queries_total", **labels): float(s.queries_total),
            fmt_name("dist_partial_results_total", **labels): float(
                s.partial_results_total
            ),
            fmt_name("dist_rpcs_total", **labels): float(s.rpcs_total),
            fmt_name("dist_timeouts_total", **labels): float(s.timeouts_total),
            fmt_name("dist_hedges_total", **labels): float(s.hedges_total),
            fmt_name("dist_hedge_wins_total", **labels): float(
                s.hedge_wins_total
            ),
            fmt_name("dist_restarts_total", **labels): float(s.restarts_total),
            fmt_name("dist_recoveries_total", **labels): float(
                s.recoveries_total
            ),
            fmt_name("dist_stale_fences_total", **labels): float(
                s.stale_fences_total
            ),
            fmt_name("dist_kills_total", **labels): float(s.kills_total),
            fmt_name("dist_rows_shipped_total", **labels): float(
                s.rows_shipped_total
            ),
            fmt_name("dist_recovered_bytes_total", **labels): float(
                s.recovered_bytes_total
            ),
            fmt_name("dist_replicated_bytes_total", **labels): float(
                s.replicated_bytes_total
            ),
            fmt_name("dist_workers_alive", **labels): float(
                cluster.workers_alive()
            ),
        }
        for i in range(len(cluster.sharded.shards)):
            out[fmt_name("dist_shard_incarnation", shard=str(i), **labels)] = (
                float(cluster.incarnation_of(i))
            )
        return out

    registry.register_collector(collect)
