"""Tests for the quality experiments' shared setup, through the session
layer: the quality data split, block purity, and learned TP at the
quality geometry."""

import numpy as np

from repro.api import PartitionSpec, RunSpec, Session
from repro.api.presets import quality_data_spec, quality_dlrm_model
from repro.core.partition import FeaturePartition
from repro.experiments.common import block_purity

DATA = quality_data_spec()


def quality_data():
    art = Session(RunSpec(name="quality-data", data=DATA)).load_data()
    return art.dataset, art.train, art.eval


class TestQualityData:
    def test_cached_and_consistent(self):
        ds1, train1, eval1 = quality_data()
        ds2, train2, eval2 = quality_data()
        assert ds1 is ds2  # lru_cache
        np.testing.assert_array_equal(train1[2], train2[2])

    def test_split_sizes(self):
        _, (td, ti, tl), (ed, ei, el) = quality_data()
        assert len(tl) == 8000 and len(el) == 4000
        assert ti.shape[1] == DATA.num_sparse


class TestPartitionHelpers:
    def test_block_purity_bounds(self):
        ds, _, _ = quality_data()
        perfect = ds.true_partition
        assert block_purity(perfect, ds.block_of) == 1.0
        naive = FeaturePartition.strided(DATA.num_sparse, DATA.num_blocks)
        assert block_purity(naive, ds.block_of) < 0.5

    def test_learned_tp_partition_recovers_blocks(self):
        session = Session(
            RunSpec(
                name="quality-tp",
                data=DATA,
                model=quality_dlrm_model(),
                partition=PartitionSpec(
                    strategy="coherent", num_towers=DATA.num_blocks
                ),
            )
        )
        result = session.partition().tp_result
        assert result.partition.num_towers == DATA.num_blocks
        assert (
            block_purity(result.partition, session.load_data().dataset.block_of)
            > 0.6
        )
