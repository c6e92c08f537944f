"""Table placement: the owner map the flat exchange executes.

Steps (a)/(b) of both exchanges put each embedding table whole on one
owner rank.  :class:`AutoPlanner` returns the flat exchange's placement,
feature ``f`` on rank ``f % G`` (:func:`repro.core.partition.flat_owners`,
the flat half of ``feature_owners``), and :class:`ShardingPlan` accounts
for it per rank: the HBM its tables hold and the AlltoAll bucket it
produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.partition import flat_owners
from repro.nn.embedding import TableConfig


@dataclass(frozen=True)
class ShardingPlan:
    """Whole tables on owner ranks, with per-rank accounting.

    ``owners[r]`` lists the indices into ``tables`` that rank ``r``
    holds, in lookup order.
    """

    world_size: int
    tables: Tuple[TableConfig, ...]
    owners: Dict[int, List[int]]

    def storage_by_rank(self) -> List[int]:
        return [
            sum(self.tables[f].storage_bytes for f in self.owners[r])
            for r in range(self.world_size)
        ]

    def output_bytes_by_rank(self, batch_size: int) -> List[int]:
        """Per-rank embedding bytes produced for a global batch — the
        AlltoAll bucket sizes whose imbalance NeuroShard minimizes."""
        return [
            sum(self.tables[f].row_bytes * batch_size for f in self.owners[r])
            for r in range(self.world_size)
        ]

    def imbalance(self, batch_size: int = 1) -> float:
        """max/mean of per-rank output bytes (1.0 = perfectly balanced)."""
        loads = self.output_bytes_by_rank(batch_size)
        mean = sum(loads) / len(loads)
        if mean == 0:
            raise ValueError("plan produces no output bytes")
        return max(loads) / mean


class AutoPlanner:
    """Places every table on its flat owner rank over ``world_size``
    ranks."""

    def __init__(self, world_size: int):
        if world_size <= 0:
            raise ValueError(f"world_size must be positive, got {world_size}")
        self.world_size = world_size

    def plan(self, tables: Sequence[TableConfig]) -> ShardingPlan:
        if not tables:
            raise ValueError("no tables to plan")
        return ShardingPlan(
            self.world_size,
            tuple(tables),
            flat_owners(self.world_size, len(tables)),
        )
