"""Fault-domain sharded execution: scatter-gather over shard workers.

The distributed layer of the repro stack (ISSUE 8): a coordinator
(:class:`~repro.dist.coordinator.ShardCluster`) plans scatter-gather
queries over a range-sharded relation, pushing projection, selection,
and partial aggregation down to per-shard workers — each an independent
fault domain with its own process, WAL, and recovery path. Results
merge byte-identically to serial execution; failures degrade loudly
(restart + recover, hedged retries, typed partial results), never
silently.
"""

from repro.dist.coordinator import ClusterStats, DistConfig, ShardCluster
from repro.errors import PartialResultError
from repro.dist.plan import (
    AggSpec,
    AggTerm,
    DistPlan,
    DistQueryStats,
    DistResult,
    ShardPartial,
    execute_fragment,
    execute_plan,
    merge_partials,
)
from repro.dist.queries import dist_plan_for, q1_plan, q6_plan
from repro.dist.replica import ReplicaStats, ShardReplica
from repro.dist.worker import InlineShardHost, ProcessShardHost, WorkerBoot

__all__ = [
    "AggSpec",
    "AggTerm",
    "ClusterStats",
    "DistConfig",
    "DistPlan",
    "DistQueryStats",
    "DistResult",
    "InlineShardHost",
    "PartialResultError",
    "ProcessShardHost",
    "ReplicaStats",
    "ShardCluster",
    "ShardPartial",
    "ShardReplica",
    "WorkerBoot",
    "dist_plan_for",
    "execute_fragment",
    "execute_plan",
    "merge_partials",
    "q1_plan",
    "q6_plan",
]
