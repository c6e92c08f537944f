"""Sharding primitives: how one embedding table maps onto ranks.

The paper's rules of thumb (§4): large-batch single-hot features pin to
**column-wise** shards (lower communication volume: each shard returns
a slice of the embedding vector, summing to the same bytes, but the
AlltoAll buckets stay balanced); small-batch multi-hot features use
**row-wise** shards (pooling happens shard-side, so step (d) of SPTT
could become a ReduceScatter; neither the executed step nor
:meth:`repro.perf.IterationLatencyModel.dmt` does that).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.nn.embedding import TableConfig


class ShardingType(enum.Enum):
    """Placement families supported by the planner."""

    TABLE_WISE = "table_wise"  # whole table on one rank
    COLUMN_WISE = "column_wise"  # embedding dim split across ranks
    ROW_WISE = "row_wise"  # hash space split across ranks

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class TableShard:
    """One placed fragment of a table.

    Row/col ranges are half-open; a TABLE_WISE shard covers everything.
    """

    table: TableConfig
    rank: int
    sharding: ShardingType
    row_start: int
    row_end: int
    col_start: int
    col_end: int

    def __post_init__(self) -> None:
        if not (0 <= self.row_start < self.row_end <= self.table.num_embeddings):
            raise ValueError(
                f"invalid row range [{self.row_start}, {self.row_end}) for "
                f"table {self.table.name} with {self.table.num_embeddings} rows"
            )
        if not (0 <= self.col_start < self.col_end <= self.table.dim):
            raise ValueError(
                f"invalid col range [{self.col_start}, {self.col_end}) for "
                f"table {self.table.name} with dim {self.table.dim}"
            )

    @property
    def num_rows(self) -> int:
        return self.row_end - self.row_start

    @property
    def num_cols(self) -> int:
        return self.col_end - self.col_start

    def storage_bytes(self, itemsize: int = 4) -> int:
        return self.num_rows * self.num_cols * itemsize

    def output_bytes_per_sample(self, itemsize: int = 4) -> int:
        """Embedding bytes this shard contributes per sample.

        Column-wise shards return a dim slice (pooling-independent);
        row-wise shards return a partial pooled vector of full dim.
        """
        if self.sharding is ShardingType.ROW_WISE:
            return self.table.dim * itemsize
        return self.num_cols * itemsize


@dataclass
class ShardingPlan:
    """All shards of all tables, with per-rank accounting."""

    world_size: int
    shards: List[TableShard] = field(default_factory=list)

    def add(self, shard: TableShard) -> None:
        if not 0 <= shard.rank < self.world_size:
            raise ValueError(
                f"shard rank {shard.rank} out of range for world "
                f"{self.world_size}"
            )
        self.shards.append(shard)

    def shards_on(self, rank: int) -> List[TableShard]:
        return [s for s in self.shards if s.rank == rank]

    def shards_of(self, table_name: str) -> List[TableShard]:
        return [s for s in self.shards if s.table.name == table_name]

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def storage_by_rank(self, itemsize: int = 4) -> List[int]:
        out = [0] * self.world_size
        for s in self.shards:
            out[s.rank] += s.storage_bytes(itemsize)
        return out

    def output_bytes_by_rank(
        self, batch_size: int, itemsize: int = 4
    ) -> List[int]:
        """Per-rank embedding bytes produced for a global batch — the
        AlltoAll bucket sizes whose imbalance NeuroShard minimizes."""
        out = [0] * self.world_size
        for s in self.shards:
            out[s.rank] += s.output_bytes_per_sample(itemsize) * batch_size
        return out

    def imbalance(self, batch_size: int = 1) -> float:
        """max/mean of per-rank output bytes (1.0 = perfectly balanced)."""
        loads = self.output_bytes_by_rank(batch_size)
        mean = sum(loads) / len(loads)
        if mean == 0:
            raise ValueError("plan produces no output bytes")
        return max(loads) / mean

    def validate_coverage(self, tables: Sequence[TableConfig]) -> None:
        """Every table fully covered exactly once (rows x cols)."""
        for t in tables:
            shards = self.shards_of(t.name)
            if not shards:
                raise ValueError(f"table {t.name} has no shards")
            covered = 0
            for s in shards:
                covered += s.num_rows * s.num_cols
            if covered != t.num_embeddings * t.dim:
                raise ValueError(
                    f"table {t.name}: shards cover {covered} cells, "
                    f"expected {t.num_embeddings * t.dim}"
                )
