"""Relational Fabric reproduction (ICDE 2023): transparent near-data
row-to-column transformation, with the full simulated stack around it.

Layers (bottom up):

* :mod:`repro.hw` — caches, prefetcher, DRAM, AXI bus, CPU cost model,
  the Relational Memory engine model, platform presets;
* :mod:`repro.core` — the paper's contribution: data geometries, the
  packer, ephemeral variables, the fabric API, MVCC visibility filtering,
  pushed-down selection/aggregation;
* :mod:`repro.db` — relational substrate: schemas, row tables, SQL,
  planning/optimization, the three engines (ROW/COL/RM), MVCC
  transactions, B+-tree indexing, compression, the design advisor;
* :mod:`repro.storage` — flash device, SSD read path, Relational Storage;
* :mod:`repro.workloads` — synthetic wide tables, TPC-H lineitem, HTAP;
* :mod:`repro.serve` — the multi-tenant front door: admission control,
  deadlines, weighted-fair queueing, overload degradation;
* :mod:`repro.dist` — fault-domain sharded execution: scatter-gather
  coordination, per-shard WAL recovery, hedged retries, typed partial
  results;
* :mod:`repro.bench` — the harness regenerating every paper figure.

Quickstart::

    from repro import RelationalMemory
    cg = RelationalMemory().configure(table.frame, table.schema.geometry(["a", "b"]))
    totals = cg.column("a") + cg.column("b")
"""

from repro.core import (
    CostLedger,
    DataGeometry,
    EphemeralColumnGroup,
    FabricFilter,
    FabricPredicate,
    FieldSlice,
    RelationalFabric,
    RelationalMemory,
    configure,
)
from repro.db import Catalog, Column, Table, TableSchema
from repro.db.engines import (
    ColumnStoreEngine,
    ExecutionResult,
    RelationalMemoryEngine,
    RowStoreEngine,
    all_engines,
)
from repro.db.mvcc import Transaction, TransactionManager, run_transaction
from repro.db.wal import (
    Checkpoint,
    Checkpointer,
    RecoveryReport,
    RecoveryResult,
    WalRecord,
    WalRecordType,
    WriteAheadLog,
    recover,
)
from repro.dist import (
    AggSpec,
    AggTerm,
    DistConfig,
    DistPlan,
    DistResult,
    ShardCluster,
    ShardReplica,
    q1_plan,
    q6_plan,
)
from repro.faults import (
    BreakerState,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
)
from repro.hw import PlatformConfig, ZYNQ_ULTRASCALE, default_platform
from repro.obs import MetricsRegistry, Span, Trace, Tracer
from repro.serve import (
    ExecOutcome,
    ServeConfig,
    ServeOracle,
    ServeReport,
    ServeScheduler,
    TenantConfig,
    WeightedFairQueue,
    throttle_backoff,
)

__version__ = "1.0.0"

__all__ = [
    "AggSpec",
    "AggTerm",
    "BreakerState",
    "Catalog",
    "Checkpoint",
    "Checkpointer",
    "CircuitBreaker",
    "Column",
    "ColumnStoreEngine",
    "CostLedger",
    "DataGeometry",
    "DistConfig",
    "DistPlan",
    "DistResult",
    "EphemeralColumnGroup",
    "ExecOutcome",
    "ExecutionResult",
    "FabricFilter",
    "FabricPredicate",
    "FaultInjector",
    "FaultPlan",
    "FieldSlice",
    "MetricsRegistry",
    "PlatformConfig",
    "RecoveryReport",
    "RecoveryResult",
    "RelationalFabric",
    "RelationalMemory",
    "RelationalMemoryEngine",
    "RetryPolicy",
    "RowStoreEngine",
    "ServeConfig",
    "ServeOracle",
    "ServeReport",
    "ServeScheduler",
    "ShardCluster",
    "ShardReplica",
    "Span",
    "Table",
    "TableSchema",
    "TenantConfig",
    "Trace",
    "Tracer",
    "Transaction",
    "TransactionManager",
    "WalRecord",
    "WalRecordType",
    "WeightedFairQueue",
    "WriteAheadLog",
    "ZYNQ_ULTRASCALE",
    "all_engines",
    "configure",
    "default_platform",
    "q1_plan",
    "q6_plan",
    "recover",
    "run_transaction",
    "throttle_backoff",
    "__version__",
]
