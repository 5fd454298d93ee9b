"""Shard executor workers: one process (or inline stub) per fault domain.

A worker owns exactly one shard's state — either a fork-inherited
read-only :class:`~repro.db.table.Table` (bench mode: copy-on-write,
zero serialization) or a :class:`~repro.dist.replica.ShardReplica`
booted from the shard's WAL image (durable mode). It answers a tiny
message protocol over a duplex pipe:

- ``("exec", req_id, plan, snapshot_ts, expected_lsn, ctx)`` — run
  :func:`~repro.dist.plan.execute_fragment`; replies ``(req_id, "ok",
  ShardPartial)``, or ``(req_id, "stale", applied_lsn)`` when the LSN
  fence fails (a partitioned replica missed deltas). A ``ctx``
  (:class:`~repro.obs.TraceContext`, None when untraced) marks a traced
  statement: the worker then records its own span tree under a local
  tracer and ships it back wire-encoded on ``ShardPartial.spans``.
- ``("apply", delta, base_lsn)`` — fire-and-forget WAL replication; no
  reply ever (loss is what the fence exists to catch).
- ``("ping", req_id)`` — liveness + fence probe.
- ``("exit",)`` — clean shutdown.

Fault sites (:data:`repro.faults.SHARD_SITES`) are consulted once per
request in a fixed order — partition (drop the message), crash
(``os._exit``), stall (sleep, then answer late) — so a chaos schedule is
a pure function of ``(seed, shard, incarnation, request sequence)``. The
per-worker injector seed is derived with the same splitmix64 mix the
parallel bench harness uses, so restarted incarnations draw fresh,
non-overlapping schedules.

Two transports share one runtime (:class:`_ShardRuntime`):
:class:`ProcessShardHost` forks a real OS process (true fault domain:
``shard.crash`` is ``SIGKILL``-grade), while :class:`InlineShardHost`
runs the identical logic synchronously in-process — deterministic and
cheap, which is what the hypothesis bit-identity tests want.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, FrozenSet, Mapping, Optional, Tuple

from repro.bench.parallel import derive_seed
from repro.db.schema import TableSchema
from repro.db.table import Table
from repro.dist.plan import execute_fragment
from repro.dist.replica import ShardReplica
from repro.obs.distctx import span_to_wire
from repro.obs.span import Tracer, maybe_span
from repro.faults import (
    SHARD_CRASH,
    SHARD_PARTITION,
    SHARD_STALL,
    FaultInjector,
    FaultPlan,
)

__all__ = [
    "WorkerBoot",
    "ProcessShardHost",
    "InlineShardHost",
    "CRASH_EXIT_CODE",
    "BOOT_REQ_ID",
]

#: Exit status a worker dies with when ``shard.crash`` fires — distinct
#: from 0 (clean) and from Python tracebacks (1), so the coordinator can
#: tell an injected crash from a worker bug in reports.
CRASH_EXIT_CODE = 23

#: req_id carried by the unsolicited boot acknowledgement.
BOOT_REQ_ID = -1

#: Mixes shard identity and incarnation into one injector stream index.
#: 1009 (prime, > any plausible incarnation count) keeps (shard, inc)
#: pairs collision-free.
_SEED_STRIDE = 1009


@dataclass(frozen=True)
class WorkerBoot:
    """Everything a worker needs to come up, shipped at fork time.

    Exactly one of ``table`` (fork-inherit mode) or ``schema`` (WAL
    replay mode) must be set. Under the fork start method the payload is
    inherited copy-on-write, so a large read-only table costs nothing.
    """

    shard_index: int
    incarnation: int = 0
    table: Optional[Table] = None
    schema: Optional[TableSchema] = None
    wal_image: bytes = b""
    fault_seed: int = 0
    fault_rates: Mapping[str, float] = field(default_factory=dict)
    fault_max: Optional[int] = None
    #: Restrict arming to these shard indexes (None = all shards).
    fault_shards: Optional[FrozenSet[int]] = None
    #: Restrict arming to these incarnations (None = all). ``{0}`` gives
    #: the classic "first attempt stalls, restarted worker is healthy".
    fault_incarnations: Optional[FrozenSet[int]] = None
    #: How long ``shard.stall`` sleeps before answering (wall seconds).
    stall_s: float = 0.25

    def __post_init__(self) -> None:
        if (self.table is None) == (self.schema is None):
            raise ValueError(
                "WorkerBoot needs exactly one of table= (fork-inherit) "
                "or schema= (WAL replay)"
            )


def _build_injector(boot: WorkerBoot) -> FaultInjector:
    rates = dict(boot.fault_rates)
    if boot.fault_shards is not None and boot.shard_index not in boot.fault_shards:
        rates = {}
    if (
        boot.fault_incarnations is not None
        and boot.incarnation not in boot.fault_incarnations
    ):
        rates = {}
    seed = derive_seed(
        boot.fault_seed, boot.shard_index * _SEED_STRIDE + boot.incarnation
    )
    return FaultInjector(
        FaultPlan(seed=seed, rates=rates, max_faults=boot.fault_max)
    )


def _worker_span(tracer, ctx, runtime: "_ShardRuntime", expected_lsn):
    """The per-attempt root span a traced exec records itself under.

    Carries the fault-domain identity (shard, incarnation), the request's
    trace id, and the LSN fence facts — everything the coordinator needs
    to show *which* attempt of *which* incarnation produced the answer.
    """
    return maybe_span(
        tracer,
        "worker.exec",
        layer="dist",
        shard=runtime.boot.shard_index,
        incarnation=runtime.boot.incarnation,
        trace_id=ctx.trace_id if ctx is not None else "",
        applied_lsn=runtime.applied_lsn,
        expected_lsn=expected_lsn,
    )


class _ShardRuntime:
    """Transport-independent worker logic: state + message handling.

    ``handle`` returns ``(action, delay_s, reply)`` where ``action`` is
    one of ``"reply"`` (send ``reply`` after ``delay_s``, reply may be
    None for fire-and-forget messages), ``"drop"`` (partition: send
    nothing), ``"crash"`` (the fault domain dies), or ``"exit"`` (clean
    shutdown requested).
    """

    def __init__(self, boot: WorkerBoot):
        self.boot = boot
        self.injector = _build_injector(boot)
        if boot.table is not None:
            self.replica: Optional[ShardReplica] = None
            self._table = boot.table
        else:
            assert boot.schema is not None
            self.replica = ShardReplica(boot.schema)
            if boot.wal_image:
                self.replica.boot(boot.wal_image)

    @property
    def table(self) -> Table:
        return self._table if self.replica is None else self.replica.table

    @property
    def applied_lsn(self) -> int:
        return 0 if self.replica is None else self.replica.applied_lsn

    def boot_info(self) -> Dict[str, Any]:
        info: Dict[str, Any] = {
            "shard_index": self.boot.shard_index,
            "incarnation": self.boot.incarnation,
            "applied_lsn": self.applied_lsn,
            "armed": self.injector.armed,
            "pid": os.getpid(),
        }
        if self.replica is not None:
            info["recovery"] = self.replica.stats.to_dict()
        return info

    def handle(self, msg: tuple) -> Tuple[str, float, Optional[tuple]]:
        kind = msg[0]
        if kind == "exit":
            return "exit", 0.0, None
        if kind == "ping":
            req_id = msg[1]
            return "reply", 0.0, (
                req_id,
                "ok",
                {
                    "applied_lsn": self.applied_lsn,
                    "incarnation": self.boot.incarnation,
                },
            )
        if kind == "apply":
            _, delta, base_lsn = msg
            inj = self.injector
            if inj.armed:
                if inj.should_fault(SHARD_PARTITION):
                    return "reply", 0.0, None  # delta silently lost
                if inj.should_fault(SHARD_CRASH):
                    return "crash", 0.0, None
            if self.replica is not None:
                self.replica.apply_delta(delta, base_lsn)
            return "reply", 0.0, None
        if kind == "exec":
            _, req_id, plan, snapshot_ts, expected_lsn, ctx = msg
            delay = 0.0
            stalled = False
            inj = self.injector
            if inj.armed:
                if inj.should_fault(SHARD_PARTITION):
                    return "drop", 0.0, None
                if inj.should_fault(SHARD_CRASH):
                    return "crash", 0.0, None
                if inj.should_fault(SHARD_STALL):
                    delay = self.boot.stall_s
                    stalled = True
            if expected_lsn is not None and self.applied_lsn != expected_lsn:
                return "reply", delay, (req_id, "stale", self.applied_lsn)
            # A carried context means the coordinator is tracing: record
            # this attempt's span tree on a worker-local tracer and ship
            # it back with the partial for grafting.
            tracer = Tracer() if ctx is not None else None
            try:
                with _worker_span(tracer, ctx, self, expected_lsn) as wspan:
                    if stalled:
                        wspan.set_attrs(stall_s=delay)
                    if inj.armed:
                        wspan.set_attrs(faults_fired=inj.total_fired)
                    partial = execute_fragment(
                        self.table,
                        plan,
                        snapshot_ts=snapshot_ts,
                        shard_index=self.boot.shard_index,
                        tracer=tracer,
                    )
            except Exception as exc:  # typed errors travel as reprs
                return "reply", delay, (
                    req_id,
                    "error",
                    f"{type(exc).__name__}: {exc}",
                )
            partial.applied_lsn = self.applied_lsn
            if tracer is not None and tracer.last is not None:
                partial.spans = span_to_wire(tracer.last)
            return "reply", delay, (req_id, "ok", partial)
        return "reply", 0.0, (msg[1] if len(msg) > 1 else BOOT_REQ_ID,
                              "error", f"unknown message kind {kind!r}")


def _worker_main(
    boot: WorkerBoot, conn: multiprocessing.connection.Connection
) -> None:
    """Child-process entry: build the runtime, ack, serve until exit."""
    runtime = _ShardRuntime(boot)
    try:
        conn.send((BOOT_REQ_ID, "booted", runtime.boot_info()))
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                return
            action, delay, reply = runtime.handle(msg)
            if action == "exit":
                return
            if action == "crash":
                os._exit(CRASH_EXIT_CODE)
            if action == "drop":
                continue
            if delay > 0.0:
                time.sleep(delay)
            if reply is not None:
                conn.send(reply)
    except (BrokenPipeError, OSError):
        return  # coordinator went away; die quietly
    finally:
        conn.close()


class ProcessShardHost:
    """A shard worker in its own forked process — a real fault domain."""

    transport = "process"

    def __init__(self, boot: WorkerBoot):
        self.boot = boot
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(
            target=_worker_main, args=(boot, child), daemon=True
        )
        self.proc.start()
        child.close()

    @property
    def shard_index(self) -> int:
        return self.boot.shard_index

    @property
    def incarnation(self) -> int:
        return self.boot.incarnation

    def alive(self) -> bool:
        return self.proc.is_alive()

    def send(self, msg: tuple) -> bool:
        """True iff the message reached the pipe (worker may still die)."""
        try:
            self.conn.send(msg)
            return True
        except (BrokenPipeError, OSError):
            return False

    def poll(self, timeout_s: float) -> Optional[tuple]:
        """Next reply within ``timeout_s`` seconds, else None."""
        try:
            if self.conn.poll(timeout_s):
                return self.conn.recv()
        except (EOFError, OSError):
            return None
        return None

    def kill(self) -> None:
        """SIGKILL the worker — the chaos harness's shard-kill hammer."""
        self.proc.kill()

    def close(self) -> None:
        if self.proc.is_alive():
            self.send(("exit",))
            self.proc.join(timeout=2.0)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join(timeout=2.0)
        try:
            self.conn.close()
        except OSError:  # already closed by an earlier retire path
            pass


class InlineShardHost:
    """The same worker logic, synchronous and in-process.

    ``send`` handles the message immediately; replies queue with a
    wall-clock ``deliver_at`` so stalls still arrive *late* (hedging
    stays testable) while the no-fault path is fully deterministic.
    A ``shard.crash`` marks the host dead instead of exiting.
    """

    transport = "inline"

    def __init__(self, boot: WorkerBoot):
        self.boot = boot
        self._runtime: Optional[_ShardRuntime] = _ShardRuntime(boot)
        self._queue: Deque[Tuple[float, tuple]] = deque()
        self._queue.append(
            (0.0, (BOOT_REQ_ID, "booted", self._runtime.boot_info()))
        )

    @property
    def shard_index(self) -> int:
        return self.boot.shard_index

    @property
    def incarnation(self) -> int:
        return self.boot.incarnation

    def alive(self) -> bool:
        return self._runtime is not None

    def send(self, msg: tuple) -> bool:
        if self._runtime is None:
            return False
        action, delay, reply = self._runtime.handle(msg)
        if action in ("exit", "crash"):
            self._runtime = None
            self._queue.clear()
            return action == "exit"
        if action == "drop" or reply is None:
            return True
        self._queue.append((time.monotonic() + delay, reply))
        return True

    def poll(self, timeout_s: float) -> Optional[tuple]:
        deadline = time.monotonic() + timeout_s
        while True:
            if self._queue:
                deliver_at, reply = self._queue[0]
                now = time.monotonic()
                if deliver_at <= now:
                    self._queue.popleft()
                    return reply
                wait = min(deliver_at, deadline) - now
            else:
                wait = deadline - time.monotonic()
            if wait <= 0.0:
                return None
            time.sleep(min(wait, 0.02))

    def kill(self) -> None:
        self._runtime = None
        self._queue.clear()

    def close(self) -> None:
        self._runtime = None
        self._queue.clear()
