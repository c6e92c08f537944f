"""Tests for the table placement and the §2.4 NeuroShard balance line."""

import numpy as np
import pytest

from repro.comm.cost_model import CollectiveCostModel
from repro.comm.process_group import global_group
from repro.core import FlatEmbeddingExchange
from repro.hardware import Cluster
from repro.models import criteo_table_configs
from repro.nn.embedding import EmbeddingBagCollection, TableConfig
from repro.planner import AutoPlanner, ShardingPlan, balance_analysis
from repro.sim import SimCluster


def tables(n=6, rows=1000, dim=32, pooling=1):
    return [
        TableConfig(f"t{i}", rows * (i + 1), dim, pooling=pooling)
        for i in range(n)
    ]


class TestAutoPlanner:
    def test_plan_covers_all_tables(self):
        plan = AutoPlanner(4).plan(tables())
        assert sorted(f for fs in plan.owners.values() for f in fs) == list(
            range(6)
        )

    def test_table_wise_by_default(self):
        # Even when ranks outnumber tables, every table stays whole.
        plan = AutoPlanner(64).plan(criteo_table_configs())
        assert len(plan.tables) == 26
        assert [len(fs) for fs in plan.owners.values()] == [1] * 26 + [0] * 38
        assert plan.imbalance() == pytest.approx(2.462, abs=1e-3)

    @pytest.mark.parametrize(
        "hosts, gpus, num_tables",
        [(1, 1, 5), (2, 2, 5), (4, 2, 5), (3, 1, 5), (8, 8, 26)],
    )
    def test_plan_is_the_executed_placement(self, hosts, gpus, num_tables):
        """The plan is the owner map the flat exchange executes."""
        configs = tables(n=num_tables, rows=10, dim=4)
        cluster = Cluster(num_hosts=hosts, gpus_per_host=gpus)
        ebc = EmbeddingBagCollection(configs, rng=np.random.default_rng(0))
        exchange = FlatEmbeddingExchange(SimCluster(cluster), ebc)
        plan = AutoPlanner(cluster.world_size).plan(configs)
        assert plan.owners == exchange.features_of

    def test_empty_tables_rejected(self):
        with pytest.raises(ValueError):
            AutoPlanner(4).plan([])

    def test_invalid_world_size(self):
        with pytest.raises(ValueError):
            AutoPlanner(0)


class TestShardingPlan:
    def test_rank_accounting(self):
        t = TableConfig("t", 100, 16)
        plan = ShardingPlan(2, (t,), {0: [0], 1: []})
        assert plan.storage_by_rank() == [100 * 16 * 4, 0]
        assert plan.output_bytes_by_rank(8) == [16 * 4 * 8, 0]

    def test_imbalance_of_empty_plan_raises(self):
        with pytest.raises(ValueError):
            ShardingPlan(2, (), {0: [], 1: []}).imbalance()


class TestNeuroShardBaseline:
    def test_balanced_arm_is_the_ideal(self):
        """The balanced arm is NeuroShard's ideal: total / G bytes on
        every rank."""
        cluster = Cluster(num_hosts=2, gpus_per_host=4, generation="A100")
        analysis = balance_analysis(
            criteo_table_configs(), cluster, batch_size=128
        )
        assert analysis.imbalance_balanced == 1.0
        per_rank = (
            AutoPlanner(8)
            .plan(criteo_table_configs())
            .output_bytes_by_rank(128)
        )
        ideal = CollectiveCostModel().alltoall(
            global_group(cluster), sum(per_rank) / 8
        )
        assert analysis.alltoall_seconds_balanced == ideal.seconds

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
