"""Embedding table placement, the §2.4 balance line, and row tiering.

:class:`AutoPlanner` returns the table placement the flat exchange
executes (whole tables, feature ``f`` on rank ``f % G``) as a
:class:`ShardingPlan` that accounts for it per rank;
:func:`balance_analysis` prices it against NeuroShard's perfectly
balanced ideal to show §2.4's negative result — balance alone cannot
fix global-AlltoAll latency.

:mod:`repro.planner.tiering` adds the orthogonal *vertical* axis:
capacity-driven placement of hotness-ranked rows across the
HBM/DRAM/SSD/remote memory hierarchy (:class:`TierPlanner`), pricing
what spills where.
"""

from repro.planner.planner import AutoPlanner, ShardingPlan
from repro.planner.neuroshard import balance_analysis
from repro.planner.tiering import (
    TierAssignment,
    TierPlacementPlan,
    TierPlanner,
    plan_from_checkpoint,
    zipf_mass,
)

__all__ = [
    "ShardingPlan",
    "AutoPlanner",
    "balance_analysis",
    "TierAssignment",
    "TierPlacementPlan",
    "TierPlanner",
    "plan_from_checkpoint",
    "zipf_mass",
]
