"""Auto-planner: choose sharding types and placements (TorchRec-style).

Strategy (mirroring §4 and the §5.1 Strong Baseline setup):

1. Pick a sharding type per table: multi-hot tables go row-wise,
   single-hot tables go column-wise when a column factor above 1 is
   given (the §5.1 "we manually include a column-wise sharding factor
   ... so TorchRec can tap into the collective bandwidth of the whole
   cluster"), else table-wise.  Nothing picks the factor for the
   caller: the default of 1 keeps every single-hot table whole, even
   when GPUs outnumber tables.
2. Greedy longest-processing-time placement of the resulting shards
   onto ranks by load (storage + per-sample output traffic), the
   classic balance heuristic.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.nn.embedding import TableConfig
from repro.planner.sharding import ShardingPlan, ShardingType, TableShard

#: Placement load of one byte of per-sample output traffic, in bytes of
#: storage: traffic dominates placement decisions.
TRAFFIC_WEIGHT = 1e6


class AutoPlanner:
    """Greedy cost-based embedding sharding planner.

    ``column_factor`` splits each single-hot table into that many
    column shards; the default 1 places every single-hot table whole
    (table-wise).
    """

    def __init__(self, world_size: int, column_factor: int = 1):
        if world_size <= 0:
            raise ValueError(f"world_size must be positive, got {world_size}")
        if column_factor < 1:
            raise ValueError(f"column_factor must be >= 1, got {column_factor}")
        self.world_size = world_size
        self.column_factor = column_factor

    # ------------------------------------------------------------------
    def choose_sharding(self, table: TableConfig) -> ShardingType:
        if table.pooling > 1:
            return ShardingType.ROW_WISE
        if self.column_factor > 1 and table.dim >= self.column_factor:
            return ShardingType.COLUMN_WISE
        return ShardingType.TABLE_WISE

    def _split(self, table: TableConfig) -> List[dict]:
        """Fragment a table into placement units (rank unassigned)."""
        kind = self.choose_sharding(table)
        if kind is ShardingType.TABLE_WISE:
            return [
                dict(
                    sharding=kind,
                    row_start=0,
                    row_end=table.num_embeddings,
                    col_start=0,
                    col_end=table.dim,
                )
            ]
        if kind is ShardingType.COLUMN_WISE:
            factor = min(self.column_factor, table.dim)
            bounds = [
                round(i * table.dim / factor) for i in range(factor + 1)
            ]
            return [
                dict(
                    sharding=kind,
                    row_start=0,
                    row_end=table.num_embeddings,
                    col_start=bounds[i],
                    col_end=bounds[i + 1],
                )
                for i in range(factor)
                if bounds[i + 1] > bounds[i]
            ]
        # ROW_WISE: one shard per rank.
        n = min(self.world_size, table.num_embeddings)
        bounds = [round(i * table.num_embeddings / n) for i in range(n + 1)]
        return [
            dict(
                sharding=kind,
                row_start=bounds[i],
                row_end=bounds[i + 1],
                col_start=0,
                col_end=table.dim,
            )
            for i in range(n)
            if bounds[i + 1] > bounds[i]
        ]

    def _load(self, table: TableConfig, frag: dict) -> float:
        rows = frag["row_end"] - frag["row_start"]
        cols = frag["col_end"] - frag["col_start"]
        storage = rows * cols * 4
        if frag["sharding"] is ShardingType.ROW_WISE:
            traffic = table.dim * 4
        else:
            traffic = cols * 4
        return storage + TRAFFIC_WEIGHT * traffic

    def plan(self, tables: Sequence[TableConfig]) -> ShardingPlan:
        """Shard and place all tables; returns a validated plan."""
        if not tables:
            raise ValueError("no tables to plan")
        fragments = [
            (table, frag) for table in tables for frag in self._split(table)
        ]
        # Longest-processing-time greedy: biggest loads first onto the
        # currently least-loaded rank.
        fragments.sort(key=lambda tf: -self._load(*tf))
        loads = [0.0] * self.world_size
        plan = ShardingPlan(world_size=self.world_size)
        row_wise_cursor = 0  # spread row-wise shards deterministically
        for table, frag in fragments:
            if frag["sharding"] is ShardingType.ROW_WISE:
                rank = row_wise_cursor % self.world_size
                row_wise_cursor += 1
            else:
                rank = min(range(self.world_size), key=loads.__getitem__)
            plan.add(TableShard(table=table, rank=rank, **frag))
            loads[rank] += self._load(table, frag)
        plan.validate_coverage(tables)
        return plan
