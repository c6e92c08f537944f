"""NeuroShard-style balance-optimal baseline and the §2.4 analysis.

NeuroShard (Zha et al. 2023) learns cost models to produce near-
perfectly balanced embedding shardings.  The paper's §2.4 point: even a
*perfectly* balanced plan cannot fix the global AlltoAll's latency,
because the collective's cost is dominated by per-NIC bytes and
congestion, which balance does not reduce.  ``balance_analysis``
quantifies exactly that with our cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.comm.cost_model import CollectiveCostModel
from repro.comm.process_group import global_group
from repro.hardware.topology import Cluster
from repro.nn.embedding import TableConfig
from repro.planner.planner import AutoPlanner
from repro.planner.sharding import ShardingPlan


def balanced_plan(
    tables: Sequence[TableConfig], world_size: int
) -> ShardingPlan:
    """A (near) perfectly balanced plan: column-shard every table into
    ``world_size`` slices so each rank serves one slice of each table —
    the idealized NeuroShard result (equal bytes per rank by
    construction, dims permitting)."""
    min_dim = min(t.dim for t in tables)
    factor = max(2, min(world_size, min_dim))
    planner = AutoPlanner(world_size, column_factor=factor)
    return planner.plan(tables)


@dataclass
class BalanceAnalysis:
    """§2.4 evidence: balance helps stragglers, not the collective."""

    imbalance_naive: float
    imbalance_balanced: float
    alltoall_seconds_naive: float
    alltoall_seconds_balanced: float

    @property
    def straggler_gain(self) -> float:
        return self.imbalance_naive / self.imbalance_balanced

    @property
    def alltoall_gain(self) -> float:
        return self.alltoall_seconds_naive / self.alltoall_seconds_balanced


def balance_analysis(
    tables: Sequence[TableConfig],
    cluster: Cluster,
    batch_size: int,
    cost_model: "CollectiveCostModel | None" = None,
) -> BalanceAnalysis:
    """Compare a naive table-wise plan against the balanced plan.

    The AlltoAll is priced at each plan's *max* per-rank bucket (the
    straggler sets collective latency), so balance shaves exactly the
    imbalance factor — while the balanced time remains bounded below by
    the mean bytes, which no sharding can reduce.
    """
    cost_model = cost_model or CollectiveCostModel()
    world = global_group(cluster)
    naive = AutoPlanner(cluster.world_size).plan(tables)
    balanced = balanced_plan(tables, cluster.world_size)

    def a2a_seconds(plan: ShardingPlan) -> float:
        per_rank = plan.output_bytes_by_rank(batch_size)
        return cost_model.alltoall(world, max(per_rank)).seconds

    return BalanceAnalysis(
        imbalance_naive=naive.imbalance(batch_size),
        imbalance_balanced=balanced.imbalance(batch_size),
        alltoall_seconds_naive=a2a_seconds(naive),
        alltoall_seconds_balanced=a2a_seconds(balanced),
    )
