"""Tests for the synthetic Criteo generator and loaders."""

import numpy as np
import pytest

from repro.data import (
    BatchIterator,
    SyntheticCriteoConfig,
    SyntheticCriteoDataset,
    random_batch,
    train_eval_split,
)
from repro.partitioner import interaction_from_activations
from repro.training.metrics import auc


@pytest.fixture
def small_ds():
    return SyntheticCriteoDataset(
        SyntheticCriteoConfig(num_sparse=8, num_blocks=2, cardinality=32),
        seed=0,
    )


class TestSyntheticCriteo:
    def test_shapes_and_dtypes(self, small_ds):
        dense, ids, labels = small_ds.sample(50, seed=1)
        assert dense.shape == (50, 13)
        assert ids.shape == (50, 8)
        assert set(np.unique(labels)) <= {0.0, 1.0}
        assert ids.min() >= 0 and ids.max() < 32

    def test_deterministic_given_seed(self, small_ds):
        a = small_ds.sample(20, seed=7)
        b = small_ds.sample(20, seed=7)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_different_seeds_differ(self, small_ds):
        a = small_ds.sample(20, seed=1)
        b = small_ds.sample(20, seed=2)
        assert not np.array_equal(a[1], b[1])

    def test_same_block_features_correlate(self, small_ds):
        """Planted structure: decoded latents within a block co-move."""
        _, ids, _ = small_ds.sample(4000, seed=3)
        v0 = small_ds.decoded_value(0, ids[:, 0])
        v1 = small_ds.decoded_value(1, ids[:, 1])  # same block as 0
        v7 = small_ds.decoded_value(7, ids[:, 7])  # other block
        within = np.corrcoef(v0, v1)[0, 1]
        across = abs(np.corrcoef(v0, v7)[0, 1])
        assert within > 0.5
        assert across < 0.15

    def test_raw_ids_are_scrambled(self, small_ds):
        """Bin permutation: raw id value is not monotone in the latent."""
        ids = np.arange(small_ds.cardinality)
        vals = small_ds.decoded_value(0, ids)
        assert not np.all(np.diff(vals) > 0)

    def test_ids_equal_the_materialized_lookup(self, small_ds):
        """``bin_perm[f, bin]`` yields the ids the original
        ``(n, F, cardinality)`` repeat + ``take_along_axis`` did, for
        both samplers, with the RNG draws in the same order."""
        from scipy.stats import norm

        c, n = small_ds.config, 200
        rng = np.random.default_rng(9)
        rng.standard_normal((n, c.num_dense))
        z = rng.standard_normal((n, c.num_blocks))
        eps = rng.standard_normal((n, c.num_sparse))
        u = c.rho * z[:, small_ds.block_of] + np.sqrt(1 - c.rho**2) * eps
        bins = np.clip(
            (norm.cdf(u) * c.cardinality).astype(np.int64), 0, c.cardinality - 1
        )
        materialized = np.take_along_axis(
            small_ds.bin_perm[None, :, :].repeat(n, axis=0),
            bins[:, :, None],
            axis=2,
        )[:, :, 0]
        np.testing.assert_array_equal(
            small_ds.sample(n, seed=9)[1], materialized
        )
        np.testing.assert_array_equal(
            small_ds.sample_tasks(n, seed=9)[1], materialized
        )

    def test_samples_the_paper_geometry_in_bounded_memory(self):
        """26 features x 20 000 ids x 1024 rows: the id lookup must not
        materialize an (n, F, cardinality) array (4 GiB here)."""
        import tracemalloc

        ds = SyntheticCriteoDataset(
            SyntheticCriteoConfig(cardinality=20_000), seed=0
        )
        tracemalloc.start()
        try:
            dense, ids, labels = ds.sample(1024, seed=1)
            _, task_ids, _ = ds.sample_tasks(1024, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert ids.shape == (1024, 26) and labels.shape == (1024,)
        assert ids.min() >= 0 and ids.max() < 20_000
        np.testing.assert_array_equal(task_ids, ids)

    def test_labels_not_degenerate(self, small_ds):
        _, _, labels = small_ds.sample(2000, seed=4)
        assert 0.05 < labels.mean() < 0.95

    def test_labels_are_learnable_from_interactions(self, small_ds):
        """An oracle using the true within-block interactions scores
        well above chance -> the signal the models must recover exists."""
        dense, ids, labels = small_ds.sample(4000, seed=5)
        values = np.stack(
            [small_ds.decoded_value(f, ids[:, f]) for f in range(8)], axis=1
        )
        oracle = np.zeros(len(labels))
        for b, group in enumerate(small_ds.true_partition.groups):
            bm = values[:, list(group)].mean(axis=1)
            oracle += small_ds.block_weights[b] * (bm**2 - 1.0)
        oracle += dense @ small_ds.dense_weights
        assert auc(labels, oracle) > 0.70

    def test_block_structure_visible_in_embedding_space(self, small_ds):
        """One-hot style activations of same-block features interact."""
        _, ids, _ = small_ds.sample(1000, seed=6)
        # Use decoded values as stand-in 1-d "embeddings".
        acts = np.stack(
            [small_ds.decoded_value(f, ids[:, f]) for f in range(8)], axis=1
        )[:, :, None]
        I = interaction_from_activations(acts)
        within = np.mean([I[0, 1], I[1, 2], I[4, 5], I[5, 6]])
        across = np.mean([I[0, 4], I[1, 5], I[2, 6], I[3, 7]])
        assert within > across + 0.2

    def test_config_validation(self):
        with pytest.raises(ValueError, match="blocks"):
            SyntheticCriteoConfig(num_sparse=2, num_blocks=4)
        with pytest.raises(ValueError, match="rho"):
            SyntheticCriteoConfig(rho=1.5)
        with pytest.raises(ValueError):
            SyntheticCriteoDataset(SyntheticCriteoConfig(), seed=0).sample(0)


class TestRandomBatch:
    def test_shapes(self):
        dense, ids, labels = random_batch(16, 13, 26, 100)
        assert dense.shape == (16, 13)
        assert ids.shape == (16, 26)
        assert labels.shape == (16,)

    def test_pooling_adds_axis(self):
        _, ids, _ = random_batch(4, 2, 3, 10, pooling=5)
        assert ids.shape == (4, 3, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_batch(0, 13, 26, 100)


class TestLoaders:
    def make(self, n=20):
        rng = np.random.default_rng(0)
        return (
            rng.standard_normal((n, 3)),
            rng.integers(0, 5, (n, 2)),
            rng.integers(0, 2, n).astype(float),
        )

    def test_batch_iterator_covers_data(self):
        dense, ids, labels = self.make(20)
        it = BatchIterator(dense, ids, labels, batch_size=5, shuffle=False)
        batches = list(it)
        assert len(batches) == 4
        np.testing.assert_array_equal(
            np.concatenate([b[2] for b in batches]), labels
        )

    def test_drops_partial_batch(self):
        dense, ids, labels = self.make(22)
        it = BatchIterator(dense, ids, labels, batch_size=5)
        assert len(it) == 4

    def test_shuffle_changes_order_but_not_content(self):
        dense, ids, labels = self.make(20)
        it = BatchIterator(dense, ids, labels, batch_size=20, seed=3)
        (got,) = [b[2] for b in it]
        assert sorted(got) == sorted(labels)

    def test_epochs_reshuffle(self):
        dense, ids, labels = self.make(64)
        it = BatchIterator(dense, ids, labels, batch_size=64, seed=3)
        first = next(iter(it))[0]
        second = next(iter(it))[0]
        assert not np.array_equal(first, second)

    def test_length_mismatch_raises(self):
        dense, ids, labels = self.make(20)
        with pytest.raises(ValueError, match="mismatch"):
            BatchIterator(dense[:10], ids, labels, batch_size=2)

    def test_bad_batch_size(self):
        dense, ids, labels = self.make(20)
        with pytest.raises(ValueError):
            BatchIterator(dense, ids, labels, batch_size=0)
        with pytest.raises(ValueError):
            BatchIterator(dense, ids, labels, batch_size=21)

    def test_train_eval_split(self):
        dense, ids, labels = self.make(20)
        (td, ti, tl), (ed, ei, el) = train_eval_split(
            dense, ids, labels, eval_fraction=0.25
        )
        assert len(tl) == 15 and len(el) == 5
        np.testing.assert_array_equal(np.concatenate([tl, el]), labels)

    def test_split_validation(self):
        dense, ids, labels = self.make(4)
        with pytest.raises(ValueError):
            train_eval_split(dense, ids, labels, eval_fraction=0.0)


class TestBatchIteratorState:
    """Checkpoint/restore of the mid-pass shuffle position (the data
    half of the crash/resume bit-identity guarantee)."""

    def make(self, n=60):
        rng = np.random.default_rng(0)
        return (
            rng.standard_normal((n, 3)),
            rng.integers(0, 5, (n, 2)),
            rng.integers(0, 2, n).astype(float),
        )

    def test_between_pass_state_round_trips(self):
        dense, ids, labels = self.make()
        a = BatchIterator(dense, ids, labels, batch_size=10, seed=4)
        first_pass = [b[2] for b in a]
        state = a.state_dict()
        b = BatchIterator(dense, ids, labels, batch_size=10, seed=4)
        b.load_state_dict(state)
        for x, y in zip([c[2] for c in a], [c[2] for c in b]):
            np.testing.assert_array_equal(x, y)
        assert len(first_pass) == 6

    def test_mid_pass_resume_replays_shuffle(self):
        dense, ids, labels = self.make()
        a = BatchIterator(dense, ids, labels, batch_size=10, seed=4)
        it = iter(a)
        seen = [next(it)[2] for _ in range(3)]
        state = a.state_dict()
        rest_a = [b[2] for b in it]
        b = BatchIterator(dense, ids, labels, batch_size=10, seed=4)
        b.load_state_dict(state)
        rest_b = [c[2] for c in b]
        assert len(rest_b) == len(rest_a) == 3
        for x, y in zip(rest_a, rest_b):
            np.testing.assert_array_equal(x, y)
        assert len(seen) == 3

    def test_state_is_json_serializable(self):
        import json

        dense, ids, labels = self.make()
        a = BatchIterator(dense, ids, labels, batch_size=10, seed=4)
        in_flight = iter(a)
        next(in_flight)
        text = json.dumps(a.state_dict())
        rest_a = [c[2] for c in in_flight]
        b = BatchIterator(dense, ids, labels, batch_size=10, seed=4)
        b.load_state_dict(json.loads(text))
        rest_b = [c[2] for c in b]
        assert len(rest_a) == len(rest_b) == 5
        for x, y in zip(rest_a, rest_b):
            np.testing.assert_array_equal(x, y)

    def test_bad_state_rejected(self):
        dense, ids, labels = self.make()
        it = BatchIterator(dense, ids, labels, batch_size=10, seed=4)
        with pytest.raises(ValueError, match="missing"):
            it.load_state_dict({"rng_state": {}})
        good = it.state_dict()
        with pytest.raises(ValueError, match="out of range"):
            it.load_state_dict({**good, "next_batch": 99})
        with pytest.raises(ValueError, match="in-flight"):
            it.load_state_dict(
                {**good, "pass_state": None, "next_batch": 2}
            )
