"""The flight recorder: ring semantics, the disabled fast path, the
``journal/v1`` dump format, and the black-box triggers.

Two acceptance bars live here: the disabled recorder costs < 5% on the
serving hot path (the always-on promise is only honest if *off* is
free), and a forced chaos-grade failure — a
:class:`~repro.errors.PartialResultError` escaping the coordinator —
produces a dump the schema checker accepts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.chaos import overload_config, overload_specs
from repro.db.sharding import ShardedTable
from repro.dist import DistConfig, ShardCluster
from repro.errors import PartialResultError
from repro.faults import SHARD_CRASH
from repro.obs import FlightRecorder
from repro.obs.journal import (
    EV_PARTIAL_RESULT,
    EV_SHARD_KILL,
    EV_SHARD_RESTART,
    JOURNAL_SCHEMA,
)
from repro.serve import ServeScheduler, submit_open_loop, synthetic_executor
from repro.workloads.htap import orders_schema

from tests.conftest import assert_overhead_below_five_percent
from tests.test_distctx import ORDERS_PLAN, durable_cluster

REPO_ROOT = Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# Ring mechanics.
# ----------------------------------------------------------------------
class TestRing:
    def test_eviction_keeps_monotone_totals(self):
        j = FlightRecorder(capacity=4)
        for i in range(10):
            j.record("fault.fired", site=f"s{i}")
        assert len(j) == 4
        assert j.dropped == 6
        assert j.events_total == 10
        assert j.counts == {"fault.fired": 10}
        seqs = [e.seq for e in j.events()]
        assert seqs == [7, 8, 9, 10]  # oldest evicted, seq survives

    def test_clear_empties_ring_not_totals(self):
        j = FlightRecorder()
        j.record("breaker.open")
        j.clear()
        assert len(j) == 0
        assert j.events_total == 1
        assert j.counts == {"breaker.open": 1}

    def test_clock_stamps_and_explicit_cycles_win(self):
        now = [42.0]
        j = FlightRecorder(clock=lambda: now[0])
        j.record("a")
        now[0] = 99.0
        j.record("b")
        j.record("c", cycles=7.0)
        cycles = [e.cycles for e in j.events()]
        assert cycles == [42.0, 99.0, 7.0]

    def test_tail_returns_newest(self):
        j = FlightRecorder()
        for i in range(5):
            j.record("k", i=i)
        assert [e.attrs["i"] for e in j.events()[-2:]] == [3, 4]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


# ----------------------------------------------------------------------
# The journal/v1 dump.
# ----------------------------------------------------------------------
class TestDump:
    def test_to_dict_layout(self):
        j = FlightRecorder(capacity=8)
        j.record("wal.checkpoint", nbytes=100)
        doc = j.to_dict(reason="unit test")
        assert doc["schema"] == JOURNAL_SCHEMA == "journal/v1"
        assert doc["capacity"] == 8
        assert doc["reason"] == "unit test"
        assert doc["events"][0]["kind"] == "wal.checkpoint"
        assert doc["events"][0]["attrs"] == {"nbytes": 100}

    def test_dump_roundtrips_through_json(self, tmp_path):
        j = FlightRecorder()
        j.record("shard.kill", shard=np.int64(3))
        # Attrs may carry arbitrary objects: the serializer falls back
        # to repr rather than refusing the dump.
        j.record("sql.error", error=ValueError("boom"))
        path = j.dump(str(tmp_path / "j.json"), reason="forced")
        assert j.last_dump_path == path
        doc = json.loads(Path(path).read_text())
        assert doc["schema"] == "journal/v1"
        assert "boom" in doc["events"][1]["attrs"]["error"]

    def test_auto_dump_requires_configured_path(self, tmp_path):
        j = FlightRecorder()
        j.record("x")
        assert j.auto_dump("no path") is None
        j.auto_dump_path = str(tmp_path / "auto.json")
        assert j.auto_dump("now") == j.auto_dump_path
        assert json.loads(Path(j.auto_dump_path).read_text())["reason"] == "now"


# ----------------------------------------------------------------------
# Black-box triggers: decision sites land events; an escaping partial
# result dumps the ring (the acceptance-criterion artifact).
# ----------------------------------------------------------------------
class TestTriggers:
    def test_kill_restart_and_partial_escape_dump(self, tmp_path):
        dump_path = tmp_path / "flight.json"
        recorder = FlightRecorder(auto_dump_path=str(dump_path))
        config = DistConfig(
            inline=True,
            deadline_s=0.5,
            retries=1,
            fault_rates={SHARD_CRASH: 1.0},
            fault_shards=frozenset({3}),
        )
        cluster = ShardCluster(
            ShardedTable(orders_schema(), "o_id", [100, 200, 300]),
            config,
            durable=True,
            journal=recorder,
        )
        cluster.start()
        rng = np.random.default_rng(5)
        for _ in range(60):
            cluster.insert(
                {
                    "o_id": int(rng.integers(0, 400)),
                    "o_customer": int(rng.integers(1, 50)),
                    "o_amount": 10.0,
                    "o_status": int(rng.integers(0, 3)),
                }
            )
        try:
            with pytest.raises(PartialResultError):
                cluster.query(ORDERS_PLAN)
        finally:
            cluster.close()
        # The ring saw the whole incident...
        assert recorder.counts.get(EV_SHARD_RESTART, 0) >= 1
        assert recorder.counts.get(EV_PARTIAL_RESULT, 0) == 1
        # ...and the escape auto-dumped it.
        assert dump_path.exists()
        doc = json.loads(dump_path.read_text())
        assert doc["schema"] == "journal/v1"
        assert "PartialResultError" in doc["reason"]
        # The CI schema checker accepts the artifact.
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts/check_trace_schema.py"),
             str(dump_path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_kill_shard_records_event(self):
        recorder = FlightRecorder()
        cluster = durable_cluster()
        cluster.journal = recorder
        try:
            cluster.kill_shard(2)
            cluster.query(ORDERS_PLAN)
        finally:
            cluster.close()
        kinds = [e.kind for e in recorder.events()]
        assert EV_SHARD_KILL in kinds and EV_SHARD_RESTART in kinds
        kill = next(e for e in recorder.events() if e.kind == EV_SHARD_KILL)
        assert kill.attrs == {"shard": 2, "incarnation": 0}


# ----------------------------------------------------------------------
# An objective-free SLO monitor costs < 5% on the serving hot path.
# ----------------------------------------------------------------------
class TestDisabledOverhead:
    def test_disabled_path_overhead_below_five_percent(self):
        import time as _time

        from repro.obs import SloMonitor

        specs = [
            s for s in overload_specs() if s.tenant_id != "analytics"
        ]

        def _trial(slo):
            config = overload_config()
            scheduler = ServeScheduler(
                config, synthetic_executor(seed=11), slo=slo
            )
            t0 = _time.process_time()
            submit_open_loop(scheduler, specs, 2_000_000.0, seed=11)
            scheduler.run_until_drained()
            return _time.process_time() - t0

        assert_overhead_below_five_percent(
            lambda: _trial(None), lambda: _trial(SloMonitor([])), "empty slo"
        )
