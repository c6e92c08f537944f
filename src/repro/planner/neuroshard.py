"""The §2.4 NeuroShard balance line.

NeuroShard (Zha et al. 2023) learns cost models to produce near-
perfectly balanced embedding shardings.  The paper's §2.4 point: even a
*perfectly* balanced plan cannot fix the global AlltoAll's latency,
because the collective's cost is dominated by per-NIC bytes and
congestion, which balance does not reduce.  ``balance_analysis``
quantifies exactly that with our cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.comm.cost_model import CollectiveCostModel
from repro.comm.process_group import global_group
from repro.hardware.topology import Cluster
from repro.nn.embedding import TableConfig
from repro.planner.planner import AutoPlanner


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
    """Compare the executed placement against NeuroShard's ideal.

    The naive arm is :meth:`AutoPlanner.plan`, the placement the
    exchanges execute; the balanced arm puts ``total / G`` bytes on
    every rank, so its imbalance is 1 by construction.  The AlltoAll is
    priced at each arm's *max* per-rank bucket (the straggler sets
    collective latency), so balance shaves exactly the imbalance factor
    — while the balanced time remains bounded below by the mean bytes,
    which no sharding can reduce.
    """
    cost_model = cost_model or CollectiveCostModel()
    world = global_group(cluster)
    naive = AutoPlanner(cluster.world_size).plan(tables)
    per_rank = naive.output_bytes_by_rank(batch_size)
    return BalanceAnalysis(
        imbalance_naive=naive.imbalance(batch_size),
        imbalance_balanced=1.0,
        alltoall_seconds_naive=cost_model.alltoall(world, max(per_rank)).seconds,
        alltoall_seconds_balanced=cost_model.alltoall(
            world, sum(per_rank) / len(per_rank)
        ).seconds,
    )
