"""Fault injection, retry/breaker policies, and graceful degradation.

The transparency contract under test: a query through the RM engine with
injected fabric faults returns *identical* results to the rowstore
engine over the same base data, with the ledger pricing the detour —
no silent wrong answers, no unhandled exceptions.
"""

import numpy as np
import pytest

from repro import (
    BreakerState,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    RelationalMemoryEngine,
    RetryPolicy,
    RowStoreEngine,
    TransactionManager,
    run_transaction,
)
from repro.core.ledger import CostLedger
from repro.db import Column, Table, TableSchema
from repro.db.types import INT64
from repro.errors import (
    ConfigurationError,
    DeviceTimeoutError,
    FabricFaultError,
    FaultError,
    FlashReadError,
    ReproError,
    StorageError,
    WriteConflictError,
)
from repro.faults import (
    DEVICE_TIMEOUT,
    FABRIC_CONFIGURE,
    FABRIC_SITES,
    FLASH_READ,
    STORAGE_ENGINE,
)
from repro.hw.config import default_platform
from repro.hw.engine import RelationalMemoryEngineModel
from repro.storage import ColumnArchive, FlashDevice, TieredFabric
from repro.workloads.tpch import Q6, generate_lineitem
from tests.conftest import assert_overhead_below_five_percent


@pytest.fixture(scope="module")
def lineitem():
    return generate_lineitem(4_000)


# ----------------------------------------------------------------------
# Error taxonomy.
# ----------------------------------------------------------------------
class TestTaxonomy:
    def test_fault_errors_are_repro_errors(self):
        for exc in (FabricFaultError, DeviceTimeoutError, FlashReadError):
            assert issubclass(exc, FaultError)
            assert issubclass(exc, ReproError)

    def test_flash_read_is_also_storage_error(self):
        assert issubclass(FlashReadError, StorageError)


# ----------------------------------------------------------------------
# FaultPlan / FaultInjector.
# ----------------------------------------------------------------------
class TestInjector:
    def test_same_seed_identical_schedule(self):
        def schedule(seed):
            inj = FaultInjector(FaultPlan.uniform(0.3, seed=seed))
            out = []
            for _ in range(50):
                for site in FABRIC_SITES:
                    out.append(inj.should_fault(site))
            return out

        assert schedule(42) == schedule(42)
        assert schedule(42) != schedule(43)

    def test_zero_rate_never_fires(self):
        inj = FaultInjector(FaultPlan.uniform(0.0))
        assert not any(inj.should_fault(FABRIC_CONFIGURE) for _ in range(200))
        assert inj.total_fired == 0
        assert inj.checks[FABRIC_CONFIGURE] == 200

    def test_rate_one_always_fires(self):
        inj = FaultInjector(FaultPlan(rates={FLASH_READ: 1.0}))
        assert all(inj.should_fault(FLASH_READ) for _ in range(10))
        # Other sites stay silent.
        assert not inj.should_fault(DEVICE_TIMEOUT)

    def test_max_faults_budget(self):
        inj = FaultInjector(FaultPlan(rates={FLASH_READ: 1.0}, max_faults=2))
        fired = [inj.should_fault(FLASH_READ) for _ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_check_raises_mapped_error(self):
        inj = FaultInjector(FaultPlan(rates={FLASH_READ: 1.0}))
        with pytest.raises(FlashReadError):
            inj.check(FLASH_READ)
        inj2 = FaultInjector(FaultPlan(rates={STORAGE_ENGINE: 1.0}))
        with pytest.raises(DeviceTimeoutError):
            inj2.check(STORAGE_ENGINE)

    def test_plan_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(rates={"no.such.site": 0.5})
        with pytest.raises(ConfigurationError):
            FaultPlan(rates={FLASH_READ: 1.5})
        with pytest.raises(ConfigurationError):
            FaultPlan(max_faults=-1)
        with pytest.raises(ConfigurationError):
            FaultInjector(FaultPlan()).should_fault("bogus")


# ----------------------------------------------------------------------
# RetryPolicy.
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_bounded_jitter(self):
        policy = RetryPolicy(base=100.0, multiplier=2.0, cap=1600.0, jitter=0.25, seed=9)
        for attempt in range(12):
            raw = min(100.0 * 2.0**attempt, 1600.0)
            delay = policy.backoff(attempt)
            assert raw <= delay <= raw * 1.25

    def test_no_jitter_is_deterministic_exponential(self):
        policy = RetryPolicy(base=10.0, multiplier=3.0, cap=1e9, jitter=0.0)
        assert [policy.backoff(a) for a in range(4)] == [10.0, 30.0, 90.0, 270.0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=2.0)


# ----------------------------------------------------------------------
# CircuitBreaker.
# ----------------------------------------------------------------------
class TestBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        b = CircuitBreaker(failure_threshold=3, cooldown=2)
        b.record_failure()
        b.record_failure()
        assert b.state is BreakerState.CLOSED
        b.record_failure()
        assert b.state is BreakerState.OPEN
        assert b.times_opened == 1

    def test_success_resets_consecutive_count(self):
        b = CircuitBreaker(failure_threshold=2)
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state is BreakerState.CLOSED

    def test_open_denies_then_half_opens(self):
        b = CircuitBreaker(failure_threshold=1, cooldown=3)
        b.record_failure()
        assert b.state is BreakerState.OPEN
        denied = [b.allow() for _ in range(3)]
        assert denied == [False, False, False]
        assert b.state is BreakerState.HALF_OPEN
        assert b.allow()  # the recovery trial

    def test_half_open_success_closes(self):
        b = CircuitBreaker(failure_threshold=1, cooldown=1)
        b.record_failure()
        b.allow()
        assert b.state is BreakerState.HALF_OPEN
        b.record_success()
        assert b.state is BreakerState.CLOSED

    def test_half_open_failure_reopens(self):
        b = CircuitBreaker(failure_threshold=1, cooldown=1)
        b.record_failure()
        b.allow()
        b.record_failure()
        assert b.state is BreakerState.OPEN
        assert b.times_opened == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(cooldown=0)


# ----------------------------------------------------------------------
# Engine-model validation (the satellite bugfix).
# ----------------------------------------------------------------------
class TestTransformValidation:
    def make(self):
        return RelationalMemoryEngineModel(default_platform())

    def test_qualifying_rows_beyond_nrows_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make().transform(
                nrows=10, row_stride=64, out_bytes_per_row=16, qualifying_rows=11
            )

    def test_negative_qualifying_rows_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make().transform(
                nrows=10, row_stride=64, out_bytes_per_row=16, qualifying_rows=-1
            )

    def test_negative_nrows_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make().transform(nrows=-5, row_stride=64, out_bytes_per_row=16)

    def test_boundary_values_accepted(self):
        r = self.make().transform(
            nrows=10, row_stride=64, out_bytes_per_row=16, qualifying_rows=10
        )
        assert r.out_bytes == 160
        r0 = self.make().transform(
            nrows=10, row_stride=64, out_bytes_per_row=16, qualifying_rows=0
        )
        assert r0.out_bytes == 0


# ----------------------------------------------------------------------
# Graceful degradation: RM faults → rowstore answers, ledger shows it.
# ----------------------------------------------------------------------
class TestDegradedExecution:
    def test_hard_fault_falls_back_byte_identical(self, lineitem):
        catalog, _ = lineitem
        ref = RowStoreEngine(catalog).execute(Q6)
        rm = RelationalMemoryEngine(
            catalog, fault_injector=FaultInjector(FaultPlan.uniform(1.0, seed=5))
        )
        res = rm.execute(Q6)
        assert res.degraded
        assert res.engine == "rm"
        assert rm.fallbacks == 1
        assert rm.access_path == "degraded-rowstore-scan"
        assert res.ledger.get(CostLedger.DEGRADED) > 0
        assert "degraded" in res.plan
        assert res.result.names == ref.result.names
        for name in ref.result.names:
            a, b = ref.result.columns[name], res.result.columns[name]
            assert a.tobytes() == b.tobytes()

    def test_transient_fault_retries_then_succeeds(self, lineitem):
        catalog, _ = lineitem
        # Two faults then a healthy fabric: the retry budget absorbs them.
        inj = FaultInjector(FaultPlan.uniform(1.0, seed=2, max_faults=2))
        rm = RelationalMemoryEngine(
            catalog,
            fault_injector=inj,
            breaker=CircuitBreaker(failure_threshold=10),
        )
        res = rm.execute(Q6)
        assert not res.degraded
        assert rm.fallbacks == 0
        assert rm.faults_seen == 2
        assert res.ledger.get(CostLedger.RETRY) > 0
        clean = RelationalMemoryEngine(catalog).execute(Q6)
        assert res.result.columns["revenue"][0] == clean.result.columns["revenue"][0]
        # The retry penalty makes the faulted run strictly more expensive.
        assert res.cycles > clean.cycles

    def test_breaker_short_circuits_after_sustained_faults(self, lineitem):
        catalog, _ = lineitem
        inj = FaultInjector(FaultPlan.uniform(1.0, seed=1))
        rm = RelationalMemoryEngine(
            catalog,
            fault_injector=inj,
            retry_policy=RetryPolicy(retries=1),
            breaker=CircuitBreaker(failure_threshold=2, cooldown=100),
        )
        rm.execute(Q6)  # trips the breaker (2 consecutive failures)
        assert rm.breaker.state is BreakerState.OPEN
        checks_before = dict(inj.checks)
        res = rm.execute(Q6)  # breaker open: no fabric attempt at all
        assert res.degraded
        assert inj.checks == checks_before
        assert res.ledger.get(CostLedger.DEGRADED) > 0

    def test_fallback_disabled_raises(self, lineitem):
        catalog, _ = lineitem
        rm = RelationalMemoryEngine(
            catalog,
            fault_injector=FaultInjector(FaultPlan.uniform(1.0, seed=4)),
            fallback=False,
        )
        with pytest.raises(FaultError):
            rm.execute(Q6)

    def test_aggregate_pushdown_path_also_degrades(self, lineitem):
        catalog, _ = lineitem
        ref = RowStoreEngine(catalog).execute(Q6)
        rm = RelationalMemoryEngine(
            catalog,
            pushdown=True,
            aggregate_pushdown=True,
            fault_injector=FaultInjector(FaultPlan.uniform(1.0, seed=8)),
        )
        res = rm.execute(Q6)
        assert res.degraded
        assert res.result.columns["revenue"][0] == ref.result.columns["revenue"][0]

    def test_clean_engine_untouched_by_machinery(self, lineitem):
        catalog, _ = lineitem
        res = RelationalMemoryEngine(catalog).execute(Q6)
        assert not res.degraded
        assert res.ledger.get(CostLedger.RETRY) == 0
        assert res.ledger.get(CostLedger.DEGRADED) == 0


# ----------------------------------------------------------------------
# Storage tier: flash retries and host-decompress degradation.
# ----------------------------------------------------------------------
class TestTieredDegradation:
    def make_archive(self, nrows=2_000):
        _, table = generate_lineitem(nrows)
        return table, ColumnArchive.from_table(table)

    def test_flash_read_retries_then_succeeds(self):
        table, archive = self.make_archive()
        flash = FlashDevice(
            fault_injector=FaultInjector(
                FaultPlan(rates={FLASH_READ: 1.0}, max_faults=2)
            )
        )
        fabric = TieredFabric(archive, flash=flash)
        warm, report = fabric.materialize_rows()
        assert report.retries == 2
        assert report.retry_us > 0
        assert not report.degraded
        assert report.total_us > report.device_us

    def test_flash_read_exhausts_budget_and_raises(self):
        _, archive = self.make_archive()
        flash = FlashDevice(
            fault_injector=FaultInjector(FaultPlan(rates={FLASH_READ: 1.0}))
        )
        fabric = TieredFabric(archive, flash=flash, retry_policy=RetryPolicy(retries=2))
        with pytest.raises(FlashReadError):
            fabric.materialize_rows()

    def test_storage_engine_fault_degrades_to_host_decompress(self):
        table, archive = self.make_archive()
        flash = FlashDevice(
            fault_injector=FaultInjector(FaultPlan(rates={STORAGE_ENGINE: 1.0}))
        )
        fabric = TieredFabric(archive, flash=flash)
        warm, report = fabric.materialize_rows()
        assert report.degraded
        assert fabric.degraded_runs == 1
        # Host decompression is slower than the in-storage engine.
        clean_fabric = TieredFabric(archive)
        _, clean = clean_fabric.materialize_rows()
        assert report.decompress_us > clean.decompress_us
        # The rows themselves are identical — correctness preserved.
        for name in table.schema.column_names:
            assert np.array_equal(warm.column_values(name), table.column_values(name))


# ----------------------------------------------------------------------
# run_transaction: conflict-abort auto-retry.
# ----------------------------------------------------------------------
def _accounts_table():
    schema = TableSchema("accounts", [Column("balance", INT64)], mvcc=True)
    return Table(schema, capacity=16)


class TestRunTransaction:
    def test_commits_and_returns(self):
        mgr = TransactionManager()
        table = _accounts_table()
        slot = run_transaction(mgr, lambda txn: txn.insert(table, {"balance": 100}))
        assert mgr.stats.committed == 1
        assert int(table.begin_ts[slot]) > 0

    def test_retries_conflict_then_succeeds(self):
        mgr = TransactionManager()
        table = _accounts_table()
        seed = mgr.begin()
        seed_slot = seed.insert(table, {"balance": 100})
        mgr.commit(seed)

        attempts = []

        def bump(txn):
            # First attempt loses the race: a rival supersedes the row
            # between our snapshot and our write.
            current = int(np.flatnonzero(table.end_ts == np.iinfo(np.int64).max)[0])
            if not attempts:
                rival = mgr.begin()
                rival.update(table, current, {"balance": 150})
                mgr.commit(rival)
            attempts.append(current)
            return txn.update(table, current, {"balance": 200})

        run_transaction(mgr, bump)
        assert len(attempts) == 2
        assert mgr.stats.retries == 1
        assert mgr.stats.backoff_cycles > 0
        assert mgr.stats.conflicts >= 1

    def test_exhausted_budget_reraises(self):
        mgr = TransactionManager()

        def always_conflict(txn):
            raise WriteConflictError("synthetic permanent conflict")

        with pytest.raises(WriteConflictError):
            run_transaction(mgr, always_conflict, policy=RetryPolicy(retries=2))
        assert mgr.stats.retries == 2
        assert mgr.stats.aborted == 3

    def test_fn_may_commit_itself(self):
        mgr = TransactionManager()
        table = _accounts_table()

        def insert_and_commit(txn):
            slot = txn.insert(table, {"balance": 7})
            mgr.commit(txn)
            return slot

        slot = run_transaction(mgr, insert_and_commit)
        assert mgr.stats.committed == 1
        assert int(table.begin_ts[slot]) > 0


# ----------------------------------------------------------------------
# Fast path: a disarmed injector must be (nearly) free on hot paths.
# ----------------------------------------------------------------------
class TestDisarmedFastPath:
    def test_zero_rate_plan_is_disarmed(self):
        assert not FaultInjector(FaultPlan()).armed
        assert not FaultInjector(FaultPlan(rates={FLASH_READ: 0.0})).armed
        assert not FaultInjector(
            FaultPlan(rates={FLASH_READ: 0.5}, max_faults=0)
        ).armed
        assert FaultInjector(FaultPlan(rates={FLASH_READ: 0.5})).armed

    def test_disarmed_injector_not_consulted_on_hot_path(self):
        """Call-site gates skip ``check`` entirely when disarmed, so the
        hot path never pays the rate lookup / RNG / counter work."""
        inj = FaultInjector(FaultPlan(rates={DEVICE_TIMEOUT: 0.0}))
        model = RelationalMemoryEngineModel(default_platform(), fault_injector=inj)
        for _ in range(50):
            model.transform(nrows=1000, row_stride=64, out_bytes_per_row=16)
        assert inj.checks == {}

    def test_disarmed_overhead_below_five_percent(self):
        """The disarmed predicate on the transform hot path costs <5%
        versus no injector at all (min-of-trials to suppress CI noise)."""
        import time as _time

        baseline = RelationalMemoryEngineModel(default_platform())
        disarmed = RelationalMemoryEngineModel(
            default_platform(), fault_injector=FaultInjector(FaultPlan())
        )
        calls = 3000

        def _trial(model):
            t0 = _time.process_time()
            for _ in range(calls):
                model.transform(nrows=500, row_stride=64, out_bytes_per_row=16)
            return _time.process_time() - t0

        assert_overhead_below_five_percent(
            lambda: _trial(baseline), lambda: _trial(disarmed), "disarmed"
        )
