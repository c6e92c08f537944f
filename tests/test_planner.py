"""Tests for the sharding planner and NeuroShard-style baseline."""

import pytest

from repro.hardware import Cluster
from repro.models import criteo_table_configs
from repro.nn.embedding import TableConfig
from repro.planner import (
    AutoPlanner,
    ShardingPlan,
    ShardingType,
    TableShard,
    balance_analysis,
    balanced_plan,
)


def tables(n=6, rows=1000, dim=32, pooling=1):
    return [
        TableConfig(f"t{i}", rows * (i + 1), dim, pooling=pooling)
        for i in range(n)
    ]


class TestTableShard:
    def test_valid_shard(self):
        t = TableConfig("t", 100, 16)
        s = TableShard(t, 0, ShardingType.TABLE_WISE, 0, 100, 0, 16)
        assert s.num_rows == 100 and s.num_cols == 16
        assert s.storage_bytes() == 100 * 16 * 4

    def test_invalid_ranges(self):
        t = TableConfig("t", 100, 16)
        with pytest.raises(ValueError):
            TableShard(t, 0, ShardingType.TABLE_WISE, 0, 101, 0, 16)
        with pytest.raises(ValueError):
            TableShard(t, 0, ShardingType.COLUMN_WISE, 0, 100, 8, 8)

    def test_output_bytes_column_wise(self):
        t = TableConfig("t", 100, 16)
        s = TableShard(t, 0, ShardingType.COLUMN_WISE, 0, 100, 0, 8)
        assert s.output_bytes_per_sample() == 8 * 4

    def test_output_bytes_row_wise_full_dim(self):
        t = TableConfig("t", 100, 16, pooling=4)
        s = TableShard(t, 0, ShardingType.ROW_WISE, 0, 50, 0, 16)
        assert s.output_bytes_per_sample() == 16 * 4


class TestAutoPlanner:
    def test_plan_covers_all_tables(self):
        plan = AutoPlanner(4).plan(tables())
        plan.validate_coverage(tables())

    def test_table_wise_by_default(self):
        planner = AutoPlanner(4)
        for t in tables():
            assert planner.choose_sharding(t) is ShardingType.TABLE_WISE
        # Even when ranks outnumber tables, no column factor is chosen.
        plan = AutoPlanner(64).plan(criteo_table_configs())
        assert len(plan.shards) == 26
        assert all(s.sharding is ShardingType.TABLE_WISE for s in plan.shards)
        assert plan.imbalance() == pytest.approx(2.462, abs=1e-3)

    def test_multi_hot_goes_row_wise(self):
        planner = AutoPlanner(4)
        t = TableConfig("mh", 1000, 32, pooling=8)
        assert planner.choose_sharding(t) is ShardingType.ROW_WISE

    def test_column_factor_splits_tables(self):
        planner = AutoPlanner(8, column_factor=4)
        plan = planner.plan(tables(n=2))
        for t in tables(n=2):
            assert len(plan.shards_of(t.name)) == 4

    def test_row_wise_spreads_across_ranks(self):
        planner = AutoPlanner(4)
        plan = planner.plan([TableConfig("mh", 1000, 32, pooling=8)])
        shards = plan.shards_of("mh")
        assert len(shards) == 4
        assert sorted(s.rank for s in shards) == [0, 1, 2, 3]

    def test_balance_better_with_column_sharding(self):
        """§5.1: column factor taps the whole cluster's bandwidth."""
        skewed = [TableConfig("big", 10_000_000, 64)] + [
            TableConfig(f"s{i}", 1000, 64) for i in range(3)
        ]
        naive = AutoPlanner(8, column_factor=1).plan(skewed)
        split = AutoPlanner(8, column_factor=8).plan(skewed)
        assert split.imbalance() < naive.imbalance()

    def test_empty_tables_rejected(self):
        with pytest.raises(ValueError):
            AutoPlanner(4).plan([])

    def test_invalid_world_size(self):
        with pytest.raises(ValueError):
            AutoPlanner(0)

    def test_invalid_column_factor(self):
        with pytest.raises(ValueError):
            AutoPlanner(4, column_factor=0)


class TestShardingPlan:
    def test_rank_accounting(self):
        plan = ShardingPlan(world_size=2)
        t = TableConfig("t", 100, 16)
        plan.add(TableShard(t, 0, ShardingType.TABLE_WISE, 0, 100, 0, 16))
        assert plan.storage_by_rank() == [100 * 16 * 4, 0]
        assert len(plan.shards_on(0)) == 1 and not plan.shards_on(1)

    def test_invalid_rank_rejected(self):
        plan = ShardingPlan(world_size=2)
        t = TableConfig("t", 100, 16)
        with pytest.raises(ValueError):
            plan.add(TableShard(t, 5, ShardingType.TABLE_WISE, 0, 100, 0, 16))

    def test_coverage_detects_missing(self):
        plan = ShardingPlan(world_size=2)
        t = TableConfig("t", 100, 16)
        plan.add(TableShard(t, 0, ShardingType.COLUMN_WISE, 0, 100, 0, 8))
        with pytest.raises(ValueError, match="cover"):
            plan.validate_coverage([t])

    def test_imbalance_of_empty_plan_raises(self):
        with pytest.raises(ValueError):
            ShardingPlan(world_size=2).imbalance()


class TestNeuroShardBaseline:
    def test_balanced_plan_is_balanced(self):
        plan = balanced_plan(criteo_table_configs(), 64)
        assert plan.imbalance(batch_size=128) < 1.5

    def test_balance_analysis_reproduces_negative_result(self):
        """§2.4: balance gain >> AlltoAll gain."""
        analysis = balance_analysis(
            criteo_table_configs(),
            Cluster(num_hosts=8, gpus_per_host=8, generation="A100"),
            batch_size=4096,
        )
        assert analysis.imbalance_balanced < analysis.imbalance_naive
        # Perfect balance does not fix the collective: the time gain is
        # bounded by the imbalance it removes, and stays far from the
        # multi-x speedups DMT reaches.
        assert analysis.alltoall_gain <= analysis.straggler_gain * 1.05
        assert analysis.alltoall_gain < 2.5
