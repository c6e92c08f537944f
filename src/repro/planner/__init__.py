"""Embedding sharding: types, an auto-planner, and a balance-only baseline.

Mirrors the TorchRec machinery the paper builds on (§4 "Embedding Table
Sharding"): table-wise / column-wise / row-wise placement, an
auto-planner that balances storage and traffic (table-wise unless the
caller passes the §5.1 manual column-wise factor), and a NeuroShard-style
perfectly-balanced baseline used to demonstrate §2.4's negative result
— balance alone cannot fix global-AlltoAll latency.

:mod:`repro.planner.tiering` adds the orthogonal *vertical* axis:
capacity-driven placement of hotness-ranked rows across the
HBM/DRAM/SSD/remote memory hierarchy (:class:`TierPlanner`), pricing
what spills where.
"""

from repro.planner.sharding import (
    ShardingType,
    TableShard,
    ShardingPlan,
)
from repro.planner.planner import AutoPlanner
from repro.planner.neuroshard import balanced_plan, balance_analysis
from repro.planner.tiering import (
    TierAssignment,
    TierPlacementPlan,
    TierPlanner,
    plan_from_checkpoint,
    zipf_mass,
)

__all__ = [
    "ShardingType",
    "TableShard",
    "ShardingPlan",
    "AutoPlanner",
    "balanced_plan",
    "balance_analysis",
    "TierAssignment",
    "TierPlacementPlan",
    "TierPlanner",
    "plan_from_checkpoint",
    "zipf_mass",
]
