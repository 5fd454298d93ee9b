"""The scatter-gather coordinator: planning, fencing, hedging, degrading.

:class:`ShardCluster` owns one :class:`~repro.db.sharding.ShardedTable`
(the authoritative state, always at the coordinator) and one worker per
shard — each an independent fault domain (:mod:`repro.dist.worker`). Two
modes:

- **bench** (default): shards are read-only; workers fork-inherit their
  shard's table copy-on-write. No WALs, no fencing.
- **durable**: every shard gets its own write-ahead log and transaction
  manager; workers are :class:`~repro.dist.replica.ShardReplica` stubs
  booted from the shard's WAL image and kept fresh by fire-and-forget
  delta replication. Queries carry the shard's durable LSN as a *fence*:
  a replica that silently missed a delta (the ``shard.partition`` site)
  answers ``stale`` and is restarted from the log instead of serving
  stale rows.

A query scatters one ``exec`` per overlapping shard
(:meth:`~repro.db.sharding.ShardedTable.shards_for_range` prunes), then
gathers under a per-shard deadline-bounded state machine
(:meth:`ShardCluster._await_shard`):

- worker death → restart (durable: recover from WAL) and resend;
- deadline expiry → kill the suspect, restart, resend — up to
  ``retries`` resends;
- optional hedging: after ``hedge_after_s`` a second incarnation runs
  the same fragment; first response wins, ties broken deterministically
  toward the lowest incarnation (contender poll order);
- past the retry budget the shard's key range is declared missing. With
  ``allow_partial=True`` the query degrades to a typed partial
  (:attr:`DistResult.missing_ranges`); otherwise it raises
  :class:`~repro.errors.PartialResultError` carrying the same ranges and
  the partial answer — degraded loudly, never silently (PR 1's
  discipline).

Cost accounting keeps the bit-identity contract of
:mod:`repro.dist.plan`: the per-query ledger charges only the
data-proportional ``dist_*`` buckets, in shard order; retries, hedges,
timeouts, and recoveries land in :class:`DistQueryStats` /
:class:`ClusterStats` — observability, not cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.core.ledger import CostLedger
from repro.db.mvcc import TransactionManager
from repro.db.sharding import ShardedTable
from repro.db.table import Table
from repro.db.wal import WriteAheadLog
from repro.dist.plan import (
    DistPlan,
    DistResult,
    ShardPartial,
    execute_fragment,
    merge_partials,
)
from repro.dist.worker import (
    BOOT_REQ_ID,
    InlineShardHost,
    ProcessShardHost,
    WorkerBoot,
)
from repro.errors import ExecutionError, PartialResultError, WorkerTimeoutError
from repro.obs import TraceContext, maybe_span, new_trace_id
from repro.obs.distctx import graft_partial
from repro.obs.journal import (
    EV_HEDGE_WIN,
    EV_PARTIAL_RESULT,
    EV_SHARD_KILL,
    EV_SHARD_RESTART,
    EV_SHARD_STALE,
    EV_SHARD_TIMEOUT,
)

__all__ = ["DistConfig", "ClusterStats", "ShardCluster"]


#: Poll granularity (wall-clock seconds) while awaiting replies, shared
#: among the outstanding requests of one round.
POLL_S = 0.02


@dataclass(frozen=True)
class DistConfig:
    """Coordinator policy knobs (wall-clock seconds throughout)."""

    #: Per-attempt RPC deadline; expiry kills and restarts the worker.
    deadline_s: float = 5.0
    #: How long a (re)started worker gets to ack its boot.
    boot_deadline_s: float = 10.0
    #: Resends after the first attempt before a shard is declared missing.
    retries: int = 2
    #: Launch a hedge incarnation after this long with no reply
    #: (None = hedging off).
    hedge_after_s: Optional[float] = None
    #: Run workers in-process (deterministic, no real fault domains).
    inline: bool = False
    #: Fault-injection schedule, fanned out per worker (see WorkerBoot).
    fault_rates: Mapping[str, float] = field(default_factory=dict)
    fault_seed: int = 0
    fault_max: Optional[int] = None
    fault_shards: Optional[FrozenSet[int]] = None
    fault_incarnations: Optional[FrozenSet[int]] = None
    #: How long an injected shard.stall sleeps before answering.
    stall_s: float = 0.25


@dataclass
class ClusterStats:
    """Cumulative fault-handling counters, across every query — the feed
    for the ``dist_*`` metrics collectors. All wall-clock phenomena live
    here, outside the bit-identity contract."""

    queries_total: int = 0
    partial_results_total: int = 0
    rpcs_total: int = 0
    timeouts_total: int = 0
    hedges_total: int = 0
    hedge_wins_total: int = 0
    restarts_total: int = 0
    recoveries_total: int = 0
    stale_fences_total: int = 0
    kills_total: int = 0
    rows_shipped_total: int = 0
    recovered_bytes_total: int = 0
    replicated_bytes_total: int = 0


class ShardCluster:
    """Shard workers + the scatter-gather front end over one relation."""

    def __init__(
        self,
        sharded: ShardedTable,
        config: Optional[DistConfig] = None,
        durable: bool = False,
        tracer=None,
        journal=None,
    ):
        if durable and not sharded.schema.mvcc:
            raise ExecutionError(
                "durable clusters need an MVCC schema (begin/end stamps "
                "drive WAL redo)"
            )
        self.sharded = sharded
        self.config = config or DistConfig()
        self.durable = durable
        self.tracer = tracer
        #: Flight recorder for fault-handling decisions (restart, kill,
        #: stale fence, hedge win, timeout, partial result); None when
        #: off, so hot paths pay one is-None check.
        self.journal = journal
        self.stats = ClusterStats()
        #: Cross-query cost accumulation (plain ledger; per-query ledgers
        #: merge into it so traced/untraced runs accumulate identically).
        self.ledger = CostLedger()
        nshards = len(sharded.shards)
        self._hosts: List[Optional[Any]] = [None] * nshards
        self._incarnations = [0] * nshards
        self._sent_lsn = [0] * nshards
        self._next_req_id = 0
        if durable:
            self._wals: List[WriteAheadLog] = [
                WriteAheadLog() for _ in range(nshards)
            ]
            self._managers: List[TransactionManager] = [
                TransactionManager(wal=wal) for wal in self._wals
            ]
        else:
            self._wals = []
            self._managers = []

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> "ShardCluster":
        for i in range(len(self._hosts)):
            if self._hosts[i] is None:
                self._hosts[i], _info = self._spawn(i)
        return self

    def close(self) -> None:
        for i, host in enumerate(self._hosts):
            if host is not None:
                host.close()
                self._hosts[i] = None

    def __enter__(self) -> "ShardCluster":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def schema(self):
        return self.sharded.schema

    @property
    def shard_key(self) -> str:
        return self.sharded.shard_key

    def table_for(self, index: int) -> Table:
        """The authoritative (coordinator-side) table of one shard."""
        return self.sharded.shards[index]

    def manager_for(self, index: int) -> TransactionManager:
        if not self.durable:
            raise ExecutionError("bench-mode clusters have no transactions")
        return self._managers[index]

    def incarnation_of(self, index: int) -> int:
        return self._incarnations[index]

    def workers_alive(self) -> int:
        return sum(
            1 for h in self._hosts if h is not None and h.alive()
        )

    def attach_metrics(self, registry, **labels) -> None:
        """Register the ``dist_*`` collector series on ``registry``."""
        from repro.obs.collectors import register_dist

        register_dist(registry, self, **labels)

    # ------------------------------------------------------------------
    # Worker management.
    # ------------------------------------------------------------------
    def _spawn(self, i: int) -> Tuple[Any, Dict[str, Any]]:
        cfg = self.config
        inc = self._incarnations[i]
        if self.durable:
            boot = WorkerBoot(
                shard_index=i,
                incarnation=inc,
                schema=self.schema,
                wal_image=self._wals[i].device.media(),
                fault_seed=cfg.fault_seed,
                fault_rates=cfg.fault_rates,
                fault_max=cfg.fault_max,
                fault_shards=cfg.fault_shards,
                fault_incarnations=cfg.fault_incarnations,
                stall_s=cfg.stall_s,
            )
        else:
            boot = WorkerBoot(
                shard_index=i,
                incarnation=inc,
                table=self.sharded.shards[i],
                fault_seed=cfg.fault_seed,
                fault_rates=cfg.fault_rates,
                fault_max=cfg.fault_max,
                fault_shards=cfg.fault_shards,
                fault_incarnations=cfg.fault_incarnations,
                stall_s=cfg.stall_s,
            )
        host_cls = InlineShardHost if cfg.inline else ProcessShardHost
        host = host_cls(boot)
        ack = host.poll(cfg.boot_deadline_s)
        if ack is None or ack[0] != BOOT_REQ_ID or ack[1] != "booted":
            host.kill()
            raise WorkerTimeoutError(
                f"shard {i} worker (incarnation {inc}) did not ack boot "
                f"within {cfg.boot_deadline_s:g}s"
            )
        info = ack[2]
        if self.durable:
            self._sent_lsn[i] = self._wals[i].durable_bytes
            recovery = info.get("recovery")
            if recovery is not None:
                self.stats.recovered_bytes_total += recovery["bytes_applied"]
        return host, info

    def _restart(self, i: int, stats=None, tracer=None) -> None:
        """Kill shard *i*'s worker and bring up the next incarnation,
        recovered from the shard's durable log (durable mode)."""
        host = self._hosts[i]
        if host is not None:
            host.kill()
            host.close()
        self._incarnations[i] += 1
        with maybe_span(
            tracer, "dist.recovery", layer="dist",
            shard=i, incarnation=self._incarnations[i],
        ) as span:
            self._hosts[i], info = self._spawn(i)
            recovery = info.get("recovery")
            if recovery is not None:
                span.set_attrs(
                    bytes_applied=recovery.get("bytes_applied", 0),
                    records_applied=recovery.get("records_applied", 0),
                )
        self.stats.restarts_total += 1
        if stats is not None:
            stats.restarts += 1
        if self.durable:
            self.stats.recoveries_total += 1
            if stats is not None:
                stats.recoveries += 1
        if self.journal is not None:
            self.journal.record(
                EV_SHARD_RESTART,
                shard=i,
                incarnation=self._incarnations[i],
                durable=self.durable,
            )

    def kill_shard(self, index: int) -> None:
        """The chaos harness's hammer: SIGKILL one fault domain."""
        host = self._hosts[index]
        if host is not None:
            host.kill()
        self.stats.kills_total += 1
        if self.journal is not None:
            self.journal.record(
                EV_SHARD_KILL,
                shard=index,
                incarnation=self._incarnations[index],
            )

    # ------------------------------------------------------------------
    # Durable-mode writes + replication.
    # ------------------------------------------------------------------
    def insert(self, values: Mapping[str, object]) -> Tuple[int, int]:
        """Route one row through a single-shard transaction; replicate."""
        index = self.sharded.shard_of(int(values[self.shard_key]))
        manager = self.manager_for(index)
        txn = manager.begin()
        slot = txn.insert(self.sharded.shards[index], values)
        manager.commit(txn)
        self.replicate(index)
        return index, slot

    def replicate(self, index: Optional[int] = None) -> None:
        """Fire-and-forget: ship newly durable WAL bytes to the replicas.

        Flushes the WAL tail first so the replica's *physical* slot
        layout tracks the authoritative shard exactly — advisory ABORT
        and staged WRITE records included — which is what makes replica
        answers byte-identical (scan counts and all), not merely
        visibility-equal. Loss is still tolerated by design — the
        coordinator advances its ``sent`` cursor unconditionally, and a
        replica that missed a delta is caught by the LSN fence on its
        next query.
        """
        if not self.durable:
            return
        indexes = range(len(self._hosts)) if index is None else (index,)
        for i in indexes:
            self._wals[i].flush()
            durable = self._wals[i].durable_bytes
            sent = self._sent_lsn[i]
            if durable <= sent:
                continue
            delta = self._wals[i].device.media()[sent:durable]
            host = self._hosts[i]
            if host is not None:
                host.send(("apply", delta, sent))
            self.stats.replicated_bytes_total += len(delta)
            self._sent_lsn[i] = durable

    def _fence(self, i: int) -> Optional[int]:
        return self._wals[i].durable_bytes if self.durable else None

    def _rid(self) -> int:
        self._next_req_id += 1
        return self._next_req_id

    def default_snapshot(self) -> int:
        """A timestamp covering every committed transaction, cluster-wide."""
        if not self._managers:
            return 0
        return max(m.now for m in self._managers)

    # ------------------------------------------------------------------
    # The query path.
    # ------------------------------------------------------------------
    def query(
        self,
        plan: DistPlan,
        snapshot_ts: Optional[int] = None,
        allow_partial: bool = False,
        tracer=None,
        metrics=None,
    ) -> DistResult:
        """Scatter ``plan`` over the overlapping shards and gather.

        Raises :class:`PartialResultError` (carrying the merged partial
        and the missing key ranges) when shards stay silent past the
        retry budget, unless ``allow_partial=True`` — then the same
        information comes back as a degraded :class:`DistResult`.
        """
        tracer = tracer if tracer is not None else self.tracer
        # Ship any WAL tail first: the LSN fence below pins each shard's
        # answer to the authoritative durable state at scatter time.
        self.replicate()
        ts = self.default_snapshot() if snapshot_ts is None else snapshot_ts
        ledger = CostLedger(tracer=tracer, metrics=metrics)
        self.stats.queries_total += 1
        # The cross-process identity: shipped with every exec so workers
        # record their span trees under it (repro.obs.distctx).
        ctx = TraceContext(trace_id=new_trace_id()) if tracer is not None else None
        result: DistResult
        with maybe_span(
            tracer, "dist.query", layer="dist", mode="scatter-gather",
            trace_id=ctx.trace_id if ctx is not None else "",
        ):
            indexes = self.sharded.shards_for_range(plan.key_low, plan.key_high)
            stats_partials = self._scatter_gather(
                indexes, plan, ts, tracer, ctx
            )
            stats, partials, missing = stats_partials
            with maybe_span(tracer, "dist.gather", layer="dist"):
                result = merge_partials(partials, plan, ledger)
        result.stats = stats
        stats.shards_planned = len(indexes)
        stats.shards_answered = len(partials)
        self.stats.rows_shipped_total += result.rows_qualifying
        self.ledger.merge(ledger)
        if missing:
            result.missing_ranges = tuple(missing)
            result.degraded = True
            self.stats.partial_results_total += 1
            if self.journal is not None:
                self.journal.record(
                    EV_PARTIAL_RESULT,
                    missing=len(missing),
                    planned=len(indexes),
                    ranges=str(missing),
                    allowed=allow_partial,
                )
            if not allow_partial:
                if self.journal is not None:
                    self.journal.auto_dump(
                        f"PartialResultError: {len(missing)} of "
                        f"{len(indexes)} shard ranges unanswered"
                    )
                raise PartialResultError(
                    f"{len(missing)} of {len(indexes)} shard ranges "
                    f"unanswered after {self.config.retries} retries: "
                    f"{missing}",
                    missing_ranges=missing,
                    partial=result,
                )
        return result

    def run_serial(
        self, plan: DistPlan, snapshot_ts: Optional[int] = None
    ) -> DistResult:
        """Coordinator-local reference execution: the same fragments over
        the authoritative shard tables, no workers, no faults. The
        correctness oracle for every chaos scenario."""
        ts = self.default_snapshot() if snapshot_ts is None else snapshot_ts
        indexes = self.sharded.shards_for_range(plan.key_low, plan.key_high)
        partials = [
            execute_fragment(self.sharded.shards[i], plan, ts, shard_index=i)
            for i in indexes
        ]
        result = merge_partials(partials, plan, CostLedger())
        result.stats.shards_planned = len(indexes)
        result.stats.shards_answered = len(indexes)
        return result

    # ------------------------------------------------------------------
    # The per-shard await state machine.
    # ------------------------------------------------------------------
    def _exec_msg(self, i, rid, plan, ts, ctx) -> tuple:
        """The exec message for one shard attempt; its last field is the
        shard's child TraceContext, or None when the statement is not
        traced."""
        child = None if ctx is None else ctx.child(i, self._incarnations[i])
        return ("exec", rid, plan, ts, self._fence(i), child)

    def _scatter_gather(self, indexes, plan, ts, tracer, ctx=None):
        from repro.dist.plan import DistQueryStats

        stats = DistQueryStats()
        pending: Dict[int, Tuple[Any, int]] = {}
        with maybe_span(
            tracer, "dist.scatter", layer="dist", shards=len(indexes)
        ):
            for i in indexes:
                host = self._hosts[i]
                rid = self._rid()
                if host is not None and host.send(
                    self._exec_msg(i, rid, plan, ts, ctx)
                ):
                    stats.attempts += 1
                    self.stats.rpcs_total += 1
                    pending[i] = (host, rid)
        partials: List[ShardPartial] = []
        missing: List[Tuple[Optional[int], Optional[int]]] = []
        for i in indexes:
            with maybe_span(
                tracer, "dist.shard_exec", layer="dist", shard=i
            ):
                partial = self._await_shard(
                    i, plan, ts, stats, first=pending.get(i),
                    tracer=tracer, ctx=ctx,
                )
            if partial is None:
                missing.append(self._missing_range(i, plan))
            else:
                partials.append(partial)
        return stats, partials, missing

    def _missing_range(
        self, i: int, plan: DistPlan
    ) -> Tuple[Optional[int], Optional[int]]:
        """The silent shard's key range, clipped to the plan's range."""
        lo, hi = self.sharded.shard_bounds(i)
        if plan.key_low is not None:
            lo = plan.key_low if lo is None else max(lo, plan.key_low)
        if plan.key_high is not None:
            hi = plan.key_high if hi is None else min(hi, plan.key_high)
        return lo, hi

    def _await_shard(
        self,
        i: int,
        plan: DistPlan,
        ts: int,
        stats,
        first: Optional[Tuple[Any, int]] = None,
        tracer=None,
        ctx=None,
    ) -> Optional[ShardPartial]:
        """Deadline-bounded await of one shard, with restart + hedging.

        Contenders are ``(host, req_id, is_hedge)`` in incarnation order;
        polling walks that order, which *is* the deterministic tie-break
        (two ready replies → the lowest incarnation wins).
        """
        cfg = self.config
        valid_rids: set = set()
        contenders: List[Tuple[Any, int, bool]] = []
        if first is not None:
            contenders.append((first[0], first[1], False))
            valid_rids.add(first[1])
        hedged = False

        for attempt in range(cfg.retries + 1):
            if not contenders:
                host = self._hosts[i]
                if host is None or not host.alive():
                    try:
                        self._restart(i, stats, tracer=tracer)
                    except WorkerTimeoutError:
                        continue  # burn the attempt, try again
                    host = self._hosts[i]
                rid = self._rid()
                if not host.send(self._exec_msg(i, rid, plan, ts, ctx)):
                    self._restart(i, stats, tracer=tracer)
                    continue
                stats.attempts += 1
                self.stats.rpcs_total += 1
                contenders.append((host, rid, False))
                valid_rids.add(rid)

            deadline = time.monotonic() + cfg.deadline_s
            hedge_at = (
                time.monotonic() + cfg.hedge_after_s
                if cfg.hedge_after_s is not None
                else None
            )
            while contenders and time.monotonic() < deadline:
                for entry in list(contenders):
                    host, rid, is_hedge = entry
                    reply = host.poll(POLL_S / len(contenders))
                    if reply is None:
                        if not host.alive():
                            contenders.remove(entry)
                        continue
                    tag, status, payload = reply
                    if tag not in valid_rids:
                        continue  # stray (e.g. duplicate boot ack)
                    if status == "ok":
                        if is_hedge:
                            stats.hedge_wins += 1
                            self.stats.hedge_wins_total += 1
                            self._promote(i, host)
                            if self.journal is not None:
                                self.journal.record(
                                    EV_HEDGE_WIN,
                                    shard=i,
                                    incarnation=host.incarnation,
                                )
                        graft_partial(
                            tracer, getattr(payload, "spans", None),
                            remote_pid=2 + i,
                            remote_tid=1 + host.incarnation,
                            hedge_winner=is_hedge,
                        )
                        self._collect_losers(
                            i, contenders, winner=host,
                            valid_rids=valid_rids, tracer=tracer,
                        )
                        self._reap_losers(i, contenders, winner=host)
                        return payload
                    if status == "stale":
                        stats.stale_fences += 1
                        self.stats.stale_fences_total += 1
                        if self.journal is not None:
                            self.journal.record(
                                EV_SHARD_STALE,
                                shard=i,
                                incarnation=host.incarnation,
                                applied_lsn=payload,
                                expected_lsn=self._fence(i),
                            )
                        contenders.remove(entry)
                        if not is_hedge:
                            # Force the restart-from-log on the next
                            # attempt: the primary's replica diverged.
                            self._kill_host(i, host)
                        continue
                    if status == "error":
                        self._reap_losers(i, contenders, winner=host)
                        raise ExecutionError(
                            f"shard {i} fragment failed: {payload}"
                        )
                if (
                    hedge_at is not None
                    and not hedged
                    and contenders
                    and time.monotonic() >= hedge_at
                ):
                    hedge = self._spawn_hedge(i)
                    if hedge is not None:
                        rid = self._rid()
                        if hedge.send(self._exec_msg(i, rid, plan, ts, ctx)):
                            stats.hedges += 1
                            self.stats.hedges_total += 1
                            stats.attempts += 1
                            self.stats.rpcs_total += 1
                            contenders.append((hedge, rid, True))
                            valid_rids.add(rid)
                        else:
                            hedge.close()
                    hedged = True
            if contenders:
                # Deadline expired with live-but-silent contenders:
                # stalled or partitioned. Kill the suspects and restart.
                stats.timeouts += 1
                self.stats.timeouts_total += 1
                if self.journal is not None:
                    self.journal.record(
                        EV_SHARD_TIMEOUT,
                        shard=i,
                        attempt=attempt,
                        contenders=len(contenders),
                        deadline_s=cfg.deadline_s,
                    )
            for host, _rid, _h in contenders:
                self._kill_host(i, host)
            contenders.clear()
        return None

    def _spawn_hedge(self, i: int):
        """A fresh incarnation racing the (suspected-stalled) primary."""
        self._incarnations[i] += 1
        try:
            host, _info = self._spawn(i)
        except WorkerTimeoutError:
            return None
        if self.durable:
            self.stats.recoveries_total += 1
        return host

    def _promote(self, i: int, winner) -> None:
        """A hedge won: it becomes the shard's primary worker. The old
        primary is still in the contender list and is reaped there."""
        self._hosts[i] = winner

    def _collect_losers(
        self, i: int, contenders, winner, valid_rids, tracer
    ) -> None:
        """One non-blocking poll per hedge loser before the reap: a loser
        that *also* finished gets its span batch grafted (tagged
        ``hedge_loser=True``) so the trace shows the redundant work.
        Grafted spans are counters-only, so losers never double-charge
        the ledger — the winner's partial is the only one merged."""
        if tracer is None:
            return
        for host, rid, _is_hedge in contenders:
            if host is winner:
                continue
            reply = host.poll(0.0)
            if reply is None:
                continue
            tag, status, payload = reply
            if tag not in valid_rids or status != "ok":
                continue
            graft_partial(
                tracer, getattr(payload, "spans", None),
                remote_pid=2 + i,
                remote_tid=1 + host.incarnation,
                hedge_loser=True,
            )

    def _reap_losers(self, i: int, contenders, winner) -> None:
        for host, _rid, _is_hedge in contenders:
            if host is not winner:
                self._kill_host(i, host)

    def _kill_host(self, i: int, host) -> None:
        """Retire a suspect worker; the slot respawns lazily on demand."""
        host.kill()
        host.close()
        if self._hosts[i] is host:
            self._hosts[i] = None
