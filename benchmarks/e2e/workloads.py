"""The five end-to-end workloads, each driven through a real front door.

A workload builds its state in :meth:`Workload.setup` (timed as
``setup_s``), yields a deterministic stream of operations from the seed
(:meth:`Workload.ops`), runs one operation at a time for the benchmark
loop (:meth:`Workload.run`, one closed-loop client), may end with a
separately timed phase (:meth:`Workload.finish`) and checks every answer
it kept afterwards, untimed (:meth:`Workload.verify`).

Why each workload exists:

* ``olap-trace`` — the paper's own experiment (Figs 5–7): Q1, Q6 and Q3
  through a SQL ``Session`` over the Relational Memory engine with the
  event-accurate cache simulator. The working set far exceeds the
  simulated L2, and the simulator dominates host time, so a simulator or
  kernel change shows here and a SQL front-half change must not.
* ``sql-short`` — many short statements with seeded literals on a star
  whose Q6 columns fit the simulated L2, analytic memory model. Parse,
  bind and optimize are a large share of host time; this is the traffic
  a statement or plan cache serves (``olap-trace`` is its control).
* ``oltp-wal`` — autocommit writes beside point reads and explicit
  transactions through a WAL-backed ``Session``; every COMMIT is a flush
  barrier. Ends with a crash inside an open transaction and a timed
  recovery.
* ``shard-scatter`` — Q1 and Q6 scatter-gather over two shard worker
  processes. Q1 is worker-bound, Q6 coordination-bound: the pair shows
  which side of the offload line each query falls on.
* ``serve-storm`` — the multi-tenant serve scheduler in front of the HTAP
  driver while a hostile analytics tenant offers ~10x its quota; arrivals
  are fixed up front (open loop in simulated time). MVCC writes run in
  memory with no WAL.
"""

from __future__ import annotations

import hashlib
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter, perf_counter_ns
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.chaos import overload_config, overload_specs
from repro.core.mvcc_filter import visible_mask
from repro.db import wal as wal_mod
from repro.db.engines import ColumnStoreEngine, RelationalMemoryEngine, RowStoreEngine
from repro.db.sharding import ShardedTable
from repro.db.sql.pipeline import Session
from repro.db.wal import WriteAheadLog
from repro.dist import DistConfig, ShardCluster, execute_plan, q1_plan, q6_plan
from repro.hw.config import default_platform
from repro.serve import ServeOracle, ServeScheduler, submit_open_loop
from repro.storage.ssd import SsdLog
from repro.workloads.htap import HtapDriver
from repro.workloads.tpch import Q1, Q1_COLUMNS, Q6, Q6_COLUMNS, generate_lineitem
from repro.workloads.tpch_analytics import Q3, generate_tpch_analytics

L2_BYTES = default_platform().l2.size_bytes

_LITERAL = re.compile(r"'(?:[^']|'')*'|\b\d+(?:\.\d+)?\b")


def samples_array() -> array:
    """Latency samples in ns, packed: memory stays flat as a run grows."""
    return array("q")


def shape_of(text: str) -> str:
    """``text`` with every literal blanked: what a plan cache keys on."""
    return " ".join(_LITERAL.sub("?", text).split())


def digest(result) -> str:
    """Byte-exact fingerprint of a query answer (names, dtypes, values)."""
    h = hashlib.sha256()
    for name in result.names:
        col = np.ascontiguousarray(result.columns[name])
        h.update(name.encode())
        h.update(col.dtype.str.encode())
        h.update(col.tobytes())
    return h.hexdigest()


@dataclass
class Op:
    """One operation of a workload's stream."""

    #: Latency class the operation is timed under (None: the workload
    #: records its own samples).
    cls: Optional[str]
    #: Statement text, for the seen-before descriptors (None: no text).
    text: Optional[str] = None
    #: Workload-specific: an expected answer, a statement block, a storm.
    payload: Any = None


@dataclass(frozen=True)
class Scale:
    """Data sizes of one benchmark scale."""

    olap_rows: int
    sql_rows: int
    oltp_seed_rows: int
    shard_rows: int
    serve_horizon_cycles: float
    #: Times set-up is repeated (its median is ``setup_s``).
    setup_repeats: int


SCALES = {
    "full": Scale(200_000, 20_000, 5_000, 1_000_000, 10_000_000.0, 3),
    "smoke": Scale(20_000, 4_000, 400, 40_000, 2_000_000.0, 2),
}


class Workload:
    """Base class; see the module docstring for the life cycle."""

    name = ""
    #: Latency classes, in report order.
    classes: Tuple[str, ...] = ()
    #: Operations at the head of the stream that every run completes.
    #: Simulated metrics are taken over exactly this prefix, so they are
    #: a pure function of the seed whatever the host speed.
    min_ops = 1
    flush_policy = "no WAL"

    def __init__(self, seed: int, scale: Scale):
        self.seed = seed
        self.scale = scale
        #: Host latency samples (ns) per class, filled by the loop (or, for
        #: a workload timing its own requests, by the workload).
        self.samples: Dict[str, array] = defaultdict(samples_array)
        #: The same samples rescaled to the reference machine speed.
        self.scaled: Dict[str, array] = defaultdict(samples_array)
        #: Set by the runner for the traced window.
        self.tracer = None
        #: Failed checks, with a short reason each.
        self.failures: List[str] = []
        #: Extra measured values: ``name -> (value, unit, better)``.
        self.details: Dict[str, Tuple[float, str, str]] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` built (processes, memory)."""

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def prepare(self, op: Op) -> None:
        """Untimed work before ``op`` (default none)."""

    def run(self, op: Op) -> Tuple[float, int]:
        """Run ``op``; returns ``(simulated cycles, operations counted)``."""
        raise NotImplementedError

    def finish(self) -> None:
        """A separately timed phase after the loop (default none)."""

    def verify(self) -> int:
        """Check the kept answers, appending to :attr:`failures`; returns
        the number of operations this phase adds to ``attempted``."""
        return 0

    def probes(self) -> Dict[str, list]:
        """Objects whose counters bracket the traced window."""
        return {}

    def descriptors(self) -> Dict[str, Any]:
        return {}

    def fail(self, message: str) -> None:
        self.failures.append(message)


# ----------------------------------------------------------------------
# olap-trace
# ----------------------------------------------------------------------
class OlapTrace(Workload):
    name = "olap-trace"
    classes = ("q1", "q6", "q3")
    min_ops = 6
    QUERIES = (("q1", Q1), ("q6", Q6), ("q3", Q3))

    def setup(self):
        self.catalog, self.lineitem, *_ = generate_tpch_analytics(
            self.scale.olap_rows, self.seed
        )
        self.engine = RelationalMemoryEngine(self.catalog, memory_model="trace")
        self.session = Session(self.catalog, self.engine)
        #: First answer digest per class.
        self.first: Dict[str, str] = {}

    def ops(self):
        while True:
            for cls, sql in self.QUERIES:
                yield Op(cls, sql)

    def run(self, op):
        out = self.session.execute(op.text)
        d = digest(out.result)
        first = self.first.setdefault(op.cls, d)
        if d != first:
            self.fail(f"{op.cls} answer changed between repeats")
        return out.cycles, 1

    def verify(self):
        # The column store computes the same answer by another access
        # path; the RM answer must match it byte for byte.
        ref = Session(self.catalog, ColumnStoreEngine(self.catalog))
        for cls, sql in self.QUERIES:
            if cls in self.first and digest(ref.execute(sql).result) != self.first[cls]:
                self.fail(f"{cls} differs from ColumnStoreEngine")
        return 0

    def probes(self):
        return {"hierarchies": [self.engine.memory.hierarchy]}

    def descriptors(self):
        schema = self.lineitem.schema
        return {
            "rows": {t: self.catalog.table(t).nrows
                     for t in ("lineitem", "orders", "customer")},
            "working_set_bytes": self.lineitem.nrows * schema.row_stride,
            "working_set_note": "lineitem row image scanned by Q1/Q6/Q3",
            "memory_model": "trace",
        }


# ----------------------------------------------------------------------
# sql-short
# ----------------------------------------------------------------------
class SqlShort(Workload):
    name = "sql-short"
    classes = ("q6", "point", "group")
    min_ops = 600
    SHAPES = {
        "q6": (
            "SELECT sum(l_extendedprice * l_discount) AS revenue FROM lineitem "
            "WHERE l_shipdate >= date '{y}-01-01' AND l_shipdate < date '{y1}-01-01' "
            "AND l_discount BETWEEN 0.0{d0} AND 0.0{d1} AND l_quantity < {q}"
        ),
        "point": (
            "SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate FROM orders "
            "WHERE o_orderkey = {k}"
        ),
        "group": (
            "SELECT c_mktsegment, count(*) AS n, sum(c_acctbal) AS balance "
            "FROM customer WHERE c_acctbal > {b} GROUP BY c_mktsegment "
            "ORDER BY c_mktsegment"
        ),
    }

    def setup(self):
        self.catalog, self.lineitem, self.orders, *_ = generate_tpch_analytics(
            self.scale.sql_rows, self.seed
        )
        self.session = Session(self.catalog, RelationalMemoryEngine(self.catalog))
        #: (sql, digest) of every sampled statement, re-run after timing.
        self.checked: List[Tuple[str, str]] = []

    def ops(self):
        rng = np.random.default_rng([self.seed, 1])
        keys = self.orders.column("o_orderkey")
        first = set()
        while True:
            for cls, template in self.SHAPES.items():
                if cls == "q6":
                    y, d = int(rng.integers(1993, 1998)), int(rng.integers(2, 9))
                    sql = template.format(y=y, y1=y + 1, d0=d - 1, d1=d + 1,
                                          q=int(rng.integers(20, 30)))
                elif cls == "point":
                    sql = template.format(k=int(keys[rng.integers(len(keys))]))
                else:
                    sql = template.format(b=int(rng.integers(-20, 200)) * 50)
                # A seeded one-in-ten sample, plus each shape's first.
                check = rng.random() < 0.1 or cls not in first
                first.add(cls)
                yield Op(cls, sql, check)

    def run(self, op):
        out = self.session.execute(op.text)
        if op.payload:
            self.checked.append((op.text, digest(out.result)))
        return out.cycles, 1

    def verify(self):
        ref = Session(self.catalog, RowStoreEngine(self.catalog))
        for sql, d in self.checked:
            if digest(ref.execute(sql).result) != d:
                self.fail(f"differs from RowStoreEngine: {sql}")
        self.details["checked_statements"] = (float(len(self.checked)), "count", "higher")
        return 0

    def descriptors(self):
        cols = self.lineitem.schema.bytes_of(Q6_COLUMNS)
        return {
            "rows": {t: self.catalog.table(t).nrows
                     for t in ("lineitem", "orders", "customer")},
            "working_set_bytes": self.lineitem.nrows * cols,
            "working_set_note": "Q6 columns of lineitem",
            "memory_model": "analytic",
        }


# ----------------------------------------------------------------------
# oltp-wal
# ----------------------------------------------------------------------
class OltpWal(Workload):
    name = "oltp-wal"
    classes = ("write", "read", "txn")
    min_ops = 3000
    flush_policy = "every COMMIT is a flush barrier (autocommit and explicit)"
    TABLE = "accounts"
    INSERT = "INSERT INTO accounts (a_id, a_branch, a_balance, a_note) VALUES "
    #: Operation mix (kind, probability); writes autocommit.
    MIX = (("insert", 0.50), ("update", 0.28), ("point", 0.10), ("group", 0.05),
           ("txn", 0.07))

    def setup(self):
        self.wal = WriteAheadLog(device=SsdLog())
        self.session = Session(wal=self.wal)
        self.session.execute(
            "CREATE TABLE accounts (a_id INT64, a_branch INT32, a_balance INT64, "
            "a_note CHAR(16))"
        )
        rng = np.random.default_rng([self.seed, 1])
        #: The expected committed state: id -> (branch, balance). Tuples of
        #: ints are left alone by the cyclic collector as the model grows.
        self.model: Dict[int, Tuple[int, int]] = {}
        rows = []
        for i in range(1, self.scale.oltp_seed_rows + 1):
            branch, balance = int(rng.integers(0, 16)), int(rng.integers(0, 100_000))
            self.model[i] = (branch, balance)
            rows.append(f"({i}, {branch}, {balance}, 'seed')")
            if len(rows) == 100:
                self.session.execute(self.INSERT + ", ".join(rows))
                rows = []
        if rows:
            self.session.execute(self.INSERT + ", ".join(rows))
        self.next_id = self.scale.oltp_seed_rows + 1
        #: The last point read's (expected row, answer), checked before the
        #: next operation so no run keeps every answer.
        self.last_read = None
        self.reads_checked = 0
        self.statements = 0

    def _insert(self, rng) -> str:
        i = self.next_id
        self.next_id += 1
        branch, balance = int(rng.integers(0, 16)), int(rng.integers(0, 100_000))
        self.model[i] = (branch, balance)
        return self.INSERT + f"({i}, {branch}, {balance}, 'new')"

    def _update(self, key: int, delta: int) -> str:
        branch, balance = self.model[key]
        self.model[key] = (branch, balance + delta)
        sign = "+" if delta >= 0 else "-"
        return (f"UPDATE accounts SET a_balance = a_balance {sign} {abs(delta)} "
                f"WHERE a_id = {key}")

    def ops(self):
        # The stream keeps its own model of the committed state, so every
        # update targets a live key and every point read has a known answer.
        rng = np.random.default_rng([self.seed, 2])
        kinds = [k for k, _ in self.MIX]
        probs = [p for _, p in self.MIX]
        while True:
            kind = kinds[int(rng.choice(len(kinds), p=probs))]
            key = int(rng.integers(1, self.next_id))
            if kind == "insert":
                yield Op("write", self._insert(rng))
            elif kind == "update":
                yield Op("write", self._update(key, int(rng.integers(1, 100))))
            elif kind == "point":
                sql = f"SELECT a_id, a_branch, a_balance FROM accounts WHERE a_id = {key}"
                yield Op("read", sql, (key, *self.model[key]))
            elif kind == "group":
                sql = ("SELECT a_branch, count(*) AS n, sum(a_balance) AS total "
                       f"FROM accounts WHERE a_branch < {int(rng.integers(2, 16))} "
                       "GROUP BY a_branch ORDER BY a_branch")
                yield Op("read", sql)
            else:
                # A transfer between two distinct accounts plus a new one.
                other = int(rng.integers(1, self.next_id - 1))
                other += other >= key
                amount = int(rng.integers(1, 500))
                block = ["BEGIN", self._update(key, -amount),
                         self._update(other, amount), self._insert(rng), "COMMIT"]
                yield Op("txn", "; ".join(block), block)

    def run(self, op):
        before = self.wal.ledger.total_cycles
        cycles = 0.0
        statements = op.payload if op.cls == "txn" else (op.text,)
        for sql in statements:
            out = self.session.execute(sql)
            cycles += out.cycles
        self.statements += len(statements)
        if isinstance(op.payload, tuple):  # a point read and its expected row
            self.last_read = (op.payload, out.result)
        return cycles + self.wal.ledger.total_cycles - before, 1

    def prepare(self, op):
        if self.last_read is not None:
            self._check_read()

    def _check_read(self) -> None:
        expected, result = self.last_read
        self.last_read = None
        self.reads_checked += 1
        if result.rows() != [expected]:
            self.fail(f"point read of {expected[0]} returned {result.rows()}")

    def finish(self):
        s = self.session
        s.execute("BEGIN")
        s.execute(self.INSERT + f"({self.next_id}, 0, 0, 'lost')")
        s.execute("UPDATE accounts SET a_balance = a_balance + 1000000 WHERE a_id = 1")
        # The open transaction's records reach the media, then power is
        # lost: with no COMMIT behind them, recovery must drop them.
        self.wal.flush()
        self.wal.device.crash()
        schema = s.catalog.table(self.TABLE).schema
        t0 = perf_counter()
        self.recovered = wal_mod.recover(self.wal, schemas={self.TABLE: schema})
        self.details["recover_s"] = (perf_counter() - t0, "s", "lower")
        self.details["recover_records"] = (
            float(self.recovered.report.records_scanned), "count", "lower")

    @staticmethod
    def _visible(table, snapshot_ts) -> Dict[str, np.ndarray]:
        mask = visible_mask(table.begin_ts, table.end_ts, snapshot_ts)
        order = np.argsort(table.column_values("a_id")[mask], kind="stable")
        return {c.name: table.column_values(c.name)[mask][order]
                for c in table.schema.user_columns}

    def verify(self):
        if self.last_read is not None:
            self._check_read()
        live = self._visible(self.session.catalog.table(self.TABLE),
                             self.session.manager.now)
        rec = self._visible(self.recovered.tables[self.TABLE],
                            self.recovered.manager.now)
        for name, col in live.items():
            if col.tobytes() != rec[name].tobytes():
                self.fail(f"recovered column {name} differs from the live session")
        ids = np.array(sorted(self.model), dtype=np.int64)
        model = np.array([self.model[i] for i in ids], dtype=np.int64).reshape(-1, 2)
        if not (np.array_equal(rec["a_id"], ids)
                and np.array_equal(rec["a_branch"], model[:, 0])
                and np.array_equal(rec["a_balance"], model[:, 1])):
            self.fail("recovered state differs from the committed model "
                      "(lost commits or surviving open-transaction writes)")
        self.session.close()
        self.details["statements"] = (float(self.statements), "count", "higher")
        self.details["reads_checked"] = (float(self.reads_checked), "count", "higher")
        return 1  # the crash-and-recover phase

    def probes(self):
        return {"wals": [self.wal]}

    def descriptors(self):
        table = self.session.catalog.table(self.TABLE)
        return {
            "rows": {self.TABLE: len(self.model), "version_slots": table.nrows},
            "statements": self.statements,
            "working_set_bytes": table.nrows * table.schema.row_stride,
            "working_set_note": "accounts row image, all versions",
            "wal_durable_bytes": self.wal.durable_bytes,
            "memory_model": "analytic",
        }


# ----------------------------------------------------------------------
# shard-scatter
# ----------------------------------------------------------------------
def _shard(lineitem, nshards: int) -> ShardedTable:
    """Split lineitem on ``l_orderkey`` at its quantiles."""
    keys = lineitem.column("l_orderkey")
    qs = np.linspace(0, 1, nshards + 1)[1:-1]
    bounds = sorted({int(np.quantile(keys, q)) for q in qs})
    sharded = ShardedTable(lineitem.schema, "l_orderkey", bounds)
    sharded.bulk_load({
        c.name: (
            lineitem.column(c.name).view(f"S{c.dtype.width}").reshape(-1)
            if c.dtype.np_dtype is None else lineitem.column(c.name)
        )
        for c in lineitem.schema.user_columns
    })
    return sharded


class ShardScatter(Workload):
    name = "shard-scatter"
    classes = ("q1", "q6")
    min_ops = 4
    #: Worker processes: one per shard, no more than the two cores here.
    SHARDS = 2

    def setup(self):
        _, self.lineitem = generate_lineitem(self.scale.shard_rows, seed=self.seed)
        self.cluster = ShardCluster(
            _shard(self.lineitem, self.SHARDS),
            DistConfig(deadline_s=120.0, boot_deadline_s=120.0),
        ).start()
        self.plans = {"q1": q1_plan(), "q6": q6_plan()}
        #: Per class: (payload bytes, ledger buckets, degraded) per query.
        self.answers: Dict[str, list] = {cls: [] for cls in self.classes}

    def teardown(self):
        if getattr(self, "cluster", None) is not None:
            self.cluster.close()
        self.cluster = self.lineitem = None

    def ops(self):
        # Today's door takes a hand-built plan; when scatter-gather moves
        # into the logical plan, only the call in run() changes.
        while True:
            for cls in self.classes:
                yield Op(cls, f"dist {cls}")

    def run(self, op):
        res = self.cluster.query(self.plans[op.cls])
        self.answers[op.cls].append(
            (res.to_bytes(), dict(res.ledger.buckets), res.degraded))
        return res.ledger.total_cycles, 1

    def verify(self):
        serial_s = {}
        for cls, plan in self.plans.items():
            t0 = perf_counter()
            ref = execute_plan(self.lineitem, plan)
            serial_s[cls] = perf_counter() - t0
            self.details[f"serial_{cls}_s"] = (serial_s[cls], "s", "lower")
            for payload, buckets, degraded in self.answers[cls]:
                if degraded:
                    self.fail(f"{cls}: degraded (partial) answer")
                elif payload != ref.to_bytes() or buckets != ref.ledger.buckets:
                    self.fail(f"{cls}: differs from serial execute_plan")
        cluster_s = sum(float(np.median(self.samples[c])) / 1e9 for c in self.classes)
        self.details["shard_speedup"] = (sum(serial_s.values()) / cluster_s,
                                         "ratio", "higher")
        return 0

    def descriptors(self):
        return {
            "rows": {"lineitem": self.lineitem.nrows},
            "shards": self.SHARDS,
            "worker_processes": self.SHARDS,
            "working_set_bytes": self.lineitem.nrows
            * self.lineitem.schema.bytes_of(Q1_COLUMNS),
            "working_set_note": "Q1 columns of lineitem, split across shards",
            "memory_model": "none (dist cost buckets)",
        }


# ----------------------------------------------------------------------
# serve-storm
# ----------------------------------------------------------------------
class ServeStorm(Workload):
    name = "serve-storm"
    classes = ("oltp", "olap")
    #: Storms differ by seed (hostile bursts land differently), so the
    #: simulated prefix spans several of them.
    min_ops = 8
    PROTECTED = ("app1", "app2", "app3")

    def _storm(self, k: int):
        """Storm ``k``: a fresh HTAP driver and scheduler with every
        arrival submitted up front (open loop in simulated time)."""
        seed = int(np.random.default_rng([self.seed, k]).integers(2**31))
        driver = HtapDriver(seed=seed)
        scheduler = ServeScheduler(self.config, driver.serve_executor())
        submitted = submit_open_loop(
            scheduler, overload_specs(), self.scale.serve_horizon_cycles, seed=seed
        )
        return driver, scheduler, submitted

    def setup(self):
        self.config = overload_config()
        self.oracle = ServeOracle(self.config)
        self.current = self._storm(0)
        #: The last storm's (report, requests submitted), checked before
        #: the next storm is built so no run keeps more than one report.
        self.finished = None
        self.storms = self.requests = 0
        self.lanes: set = set()
        #: Row image the analytic query scans, after the first storm.
        self.orders_rows = self.orders_bytes = 0

    def ops(self):
        k = 0
        while True:
            yield Op(None, payload=k)
            k += 1

    def _check(self) -> None:
        report, submitted = self.finished
        self.finished = None
        for violation in self.oracle.verify(report.events):
            self.fail(f"serve oracle: {violation}")
        if len(report.resolutions) != submitted:
            self.fail(f"{submitted} submitted, {len(report.resolutions)} resolved")
        for tenant in self.PROTECTED:
            s = report.lane(tenant, "oltp")
            for _ in range(s.shed + s.throttled + s.expired):
                self.fail(f"protected tenant {tenant} request rejected or expired")
        if self.storms == 1:
            self.details["oltp_p99_sim_cycles"] = (
                max(report.lane(t, "oltp").percentile(99) for t in self.PROTECTED),
                "cycles", "lower")
        self.requests += len(report.resolutions)
        self.lanes.update(lane for _tenant, lane in report.stats)

    def prepare(self, op):
        if self.finished is not None:
            self._check()
        if op.payload:
            self.current = self._storm(op.payload)
        scheduler = self.current[1]
        inner = scheduler.executor
        if self.tracer is not None:
            inner = self.tracer.wrap(inner, "serve", "executor", "executor")
        samples = self.samples

        def timed(request, degrade):
            t0 = perf_counter_ns()
            out = inner(request, degrade)
            samples[request.lane].append(perf_counter_ns() - t0)
            return out

        scheduler.executor = timed

    def run(self, op):
        driver, scheduler, submitted = self.current
        report = scheduler.run_until_drained()
        self.finished = (report, len(submitted))
        self.storms += 1
        if op.payload == 0:
            self.orders_rows = driver.table.nrows
            self.orders_bytes = driver.table.nrows * driver.table.schema.row_stride
        cycles = sum(r.service_cycles for r in report.resolutions.values())
        return cycles, len(report.resolutions)

    def verify(self):
        if self.finished is not None:
            self._check()
        return 0

    def descriptors(self):
        # OLAP requests repeat one analytic statement and OLTP requests are
        # programmatic transactions of one shape: one "text" per lane.
        seen = 1.0 - len(self.lanes) / self.requests if self.requests else 0.0
        return {
            "storms": self.storms,
            "requests": self.requests,
            "horizon_sim_cycles": self.scale.serve_horizon_cycles,
            "rows": {"orders_after_first_storm": self.orders_rows},
            "exact_text_seen_share": seen,
            "shape_seen_share": seen,
            "working_set_bytes": self.orders_bytes,
            "working_set_note": "orders row image after the first storm",
            "loop": "open loop in simulated time, arrivals fixed up front",
            "memory_model": "analytic",
        }


WORKLOADS = {w.name: w for w in (OlapTrace, SqlShort, OltpWal, ShardScatter, ServeStorm)}
