"""The flight recorder: an always-on bounded ring of structured events.

Every layer that makes a *decision* — a fault fires, a breaker trips, a
WAL checkpoint truncates the log, a shard worker restarts, the admission
controller sheds a request, a hedge wins, an SLO burns through its
budget — records one :class:`JournalEvent` into a shared
:class:`FlightRecorder`. The ring is bounded (``deque(maxlen=...)``), so
an always-on recorder costs O(capacity) memory no matter how long the
run; monotone totals survive eviction so the ``journal_*`` metric
collectors stay honest counters.

The recorder is off when it is ``None`` (DESIGN §8): call sites gate on
``journal is not None``.

When a chaos invariant fails or a
:class:`~repro.errors.PartialResultError` escapes, the ring is dumped as
``journal/v1`` JSON (:meth:`FlightRecorder.dump`) — the black box you
read *after* the crash, instead of reproducing it under a debugger.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "FlightRecorder",
    "JournalEvent",
    "EV_FAULT_FIRED",
    "EV_BREAKER_OPEN",
    "EV_BREAKER_CLOSE",
    "EV_WAL_CHECKPOINT",
    "EV_WAL_RECOVERY",
    "EV_SHARD_RESTART",
    "EV_SHARD_KILL",
    "EV_SHARD_STALE",
    "EV_SHARD_TIMEOUT",
    "EV_HEDGE_WIN",
    "EV_PARTIAL_RESULT",
    "EV_ADMISSION",
    "EV_SQL_ERROR",
    "EV_SLO_BREACH",
    "EV_SLO_RECOVER",
]

#: The dump format version tag. Bump on breaking layout changes.
JOURNAL_SCHEMA = "journal/v1"

# ----------------------------------------------------------------------
# Event kinds, one constant per decision site. Free-form kinds are also
# accepted (the recorder is a notebook, not an enum), but the named ones
# are what the chaos harness and the schema checker know about.
# ----------------------------------------------------------------------
EV_FAULT_FIRED = "fault.fired"
EV_BREAKER_OPEN = "breaker.open"
EV_BREAKER_CLOSE = "breaker.close"
EV_WAL_CHECKPOINT = "wal.checkpoint"
EV_WAL_RECOVERY = "wal.recovery"
EV_SHARD_RESTART = "shard.restart"
EV_SHARD_KILL = "shard.kill"
EV_SHARD_STALE = "shard.stale_fence"
EV_SHARD_TIMEOUT = "shard.timeout"
EV_HEDGE_WIN = "shard.hedge_win"
EV_PARTIAL_RESULT = "shard.partial_result"
EV_ADMISSION = "serve.admission"
EV_SQL_ERROR = "sql.error"
EV_SLO_BREACH = "slo.breach"
EV_SLO_RECOVER = "slo.recover"


@dataclass(frozen=True)
class JournalEvent:
    """One recorded decision: what happened, when, and the facts."""

    #: Recorder-global sequence number (monotone, survives eviction).
    seq: int
    #: Simulated-cycle stamp (the recorder's clock at record time), or
    #: 0.0 when no clock is attached — ordering then rides on ``seq``.
    cycles: float
    kind: str
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "cycles": self.cycles,
            "kind": self.kind,
            "attrs": self.attrs,
        }


class FlightRecorder:
    """Bounded ring buffer of :class:`JournalEvent`.

    ``clock`` is an optional zero-argument callable returning the current
    simulated cycle count (a ledger's ``total_cycles``, a scheduler's
    ``clock``) — events are stamped with it at record time.
    """

    def __init__(
        self,
        capacity: int = 1024,
        clock: Optional[Callable[[], float]] = None,
        auto_dump_path: Optional[str] = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.clock = clock
        #: When set, :meth:`auto_dump` writes here — the hook the chaos
        #: harness and the coordinator's partial-result escape use.
        self.auto_dump_path = auto_dump_path
        self._ring: deque = deque(maxlen=capacity)
        self._seq = 0
        #: Monotone totals — never reset, never evicted.
        self.events_total = 0
        self.counts: Dict[str, int] = {}
        #: Events pushed out of the ring by newer ones.
        self.dropped = 0
        #: Where the last dump landed (None until a dump happens).
        self.last_dump_path: Optional[str] = None

    def __len__(self) -> int:
        return len(self._ring)

    def record(
        self, kind: str, cycles: Optional[float] = None, **attrs: Any
    ) -> None:
        """Append one event (drops the oldest when the ring is full)."""
        if cycles is None:
            cycles = float(self.clock()) if self.clock is not None else 0.0
        self._seq += 1
        self.events_total += 1
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(JournalEvent(self._seq, float(cycles), kind, attrs))

    def events(self) -> List[JournalEvent]:
        """The retained events, oldest first."""
        return list(self._ring)

    def clear(self) -> None:
        """Empty the ring. Monotone totals are *not* reset."""
        self._ring.clear()

    # ------------------------------------------------------------------
    # Dumping (the black-box read-out).
    # ------------------------------------------------------------------
    def to_dict(self, reason: str = "") -> Dict[str, Any]:
        return {
            "schema": JOURNAL_SCHEMA,
            "capacity": self.capacity,
            "dropped": self.dropped,
            "events_total": self.events_total,
            "reason": reason,
            "events": [e.to_dict() for e in self._ring],
        }

    def to_json(self, reason: str = "", indent: Optional[int] = 2) -> str:
        return json.dumps(
            self.to_dict(reason), indent=indent, default=_scrub, allow_nan=False
        )

    def dump(self, path: str, reason: str = "") -> str:
        """Write the ring as ``journal/v1`` JSON; returns ``path``."""
        with open(path, "w") as f:
            f.write(self.to_json(reason))
        self.last_dump_path = path
        return path

    def auto_dump(self, reason: str) -> Optional[str]:
        """Dump to :attr:`auto_dump_path` when one is configured.

        The black-box trigger: called when a chaos invariant fails or a
        :class:`~repro.errors.PartialResultError` escapes the
        coordinator, so the artifact lands even when nobody is watching.
        """
        if self.auto_dump_path is None:
            return None
        return self.dump(self.auto_dump_path, reason)


def _scrub(value: Any) -> str:
    """JSON fallback: attrs may carry exceptions, enums, key ranges."""
    return repr(value)
