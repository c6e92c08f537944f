"""Tests for the Tower Partitioner pipeline (probe, MDS, K-Means, TP)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import FeaturePartition
from repro.partitioner import (
    ConstrainedKMeans,
    PartitionStrategy,
    TowerPartitioner,
    interaction_from_activations,
    mds_embed,
)
from repro.partitioner.constrained_kmeans import _linear_sum_assignment


@pytest.fixture
def rng():
    return np.random.default_rng(13)


def block_interaction(sizes, high=0.9, low=0.05):
    """Planted block-diagonal interaction matrix."""
    F = sum(sizes)
    I = np.full((F, F), low)
    start = 0
    for s in sizes:
        I[start : start + s, start : start + s] = high
        start += s
    np.fill_diagonal(I, 1.0)
    return I


class TestInteractionProbe:
    def test_identical_activations_give_ones(self):
        acts = np.tile(np.array([1.0, 2.0, 3.0]), (5, 4, 1))
        I = interaction_from_activations(acts)
        np.testing.assert_allclose(I, 1.0)

    def test_orthogonal_features_give_zero(self):
        acts = np.zeros((3, 2, 2))
        acts[:, 0, 0] = 1.0
        acts[:, 1, 1] = 1.0
        I = interaction_from_activations(acts)
        assert I[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_negative_correlation_maps_to_high_interaction(self):
        """abs() folds strong negative relations into 'interacting'."""
        acts = np.zeros((3, 2, 2))
        acts[:, 0, 0] = 1.0
        acts[:, 1, 0] = -1.0
        I = interaction_from_activations(acts)
        assert I[0, 1] == pytest.approx(1.0)

    def test_output_properties(self, rng):
        acts = rng.standard_normal((8, 5, 6))
        I = interaction_from_activations(acts)
        assert I.shape == (5, 5)
        np.testing.assert_allclose(I, I.T)
        np.testing.assert_allclose(np.diag(I), 1.0)
        assert I.min() >= 0.0 and I.max() <= 1.0

    def test_rejects_bad_shape(self, rng):
        with pytest.raises(ValueError):
            interaction_from_activations(rng.standard_normal((4, 5)))


class TestMDS:
    def test_recovers_simple_geometry(self, rng):
        """Three points with distances 3-4-5 embed consistently in 2D."""
        D = np.array([[0.0, 3.0, 4.0], [3.0, 0.0, 5.0], [4.0, 5.0, 0.0]])
        res = mds_embed(D, dim=2, iterations=800, rng=rng)
        got = np.linalg.norm(
            res.coordinates[:, None] - res.coordinates[None, :], axis=-1
        )
        np.testing.assert_allclose(got, D, atol=0.05)

    def test_stress_decreases(self, rng):
        D = 1.0 - block_interaction([3, 3])
        np.fill_diagonal(D, 0.0)
        res = mds_embed(D, dim=2, iterations=400, rng=rng)
        assert res.history[-1] < res.history[0]

    def test_preserves_relative_distances_of_blocks(self, rng):
        I = block_interaction([3, 3])
        D = 1.0 - I
        np.fill_diagonal(D, 0.0)
        res = mds_embed(D, dim=2, iterations=600, rng=rng)
        x = res.coordinates
        within = np.linalg.norm(x[0] - x[1])
        across = np.linalg.norm(x[0] - x[4])
        assert within < across

    def test_input_validation(self, rng):
        with pytest.raises(ValueError, match="square"):
            mds_embed(np.zeros((2, 3)), rng=rng)
        with pytest.raises(ValueError, match="symmetric"):
            mds_embed(np.array([[0.0, 1.0], [2.0, 0.0]]), rng=rng)
        with pytest.raises(ValueError, match="non-negative"):
            mds_embed(np.array([[0.0, -1.0], [-1.0, 0.0]]), rng=rng)
        with pytest.raises(ValueError):
            mds_embed(np.zeros((2, 2)), dim=0, rng=rng)

    def test_result_shape(self, rng):
        D = 1.0 - block_interaction([2, 2])
        np.fill_diagonal(D, 0.0)
        res = mds_embed(D, dim=3, iterations=50, rng=rng)
        assert res.coordinates.shape == (4, 3)
        assert res.num_points == 4 and res.dim == 3


class TestConstrainedKMeans:
    def test_balanced_labels(self, rng):
        x = rng.standard_normal((12, 2))
        km = ConstrainedKMeans(n_clusters=3)
        km.fit(x, rng=rng)
        assert sorted(km.group_sizes()) == [4, 4, 4]

    def test_separated_clusters_recovered(self, rng):
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        x = np.vstack([c + 0.1 * rng.standard_normal((5, 2)) for c in centers])
        km = ConstrainedKMeans(n_clusters=3)
        labels = km.fit_predict(x, rng=rng)
        for block in range(3):
            block_labels = labels[block * 5 : (block + 1) * 5]
            assert len(set(block_labels)) == 1

    def test_balance_beats_unconstrained_on_skewed_data(self, rng):
        """11 points near one spot + 1 far away must still split 6/6... -> cap."""
        x = np.vstack([rng.standard_normal((11, 2)) * 0.01, [[100.0, 100.0]]])
        km = ConstrainedKMeans(n_clusters=2, balance_ratio=1.0)
        km.fit(x, rng=rng)
        assert sorted(km.group_sizes()) == [6, 6]

    def test_looser_ratio_allows_imbalance(self, rng):
        x = np.vstack([rng.standard_normal((11, 2)) * 0.01, [[100.0, 100.0]]])
        km = ConstrainedKMeans(n_clusters=2, balance_ratio=2.0)
        km.fit(x, rng=rng)
        assert max(km.group_sizes()) > 6

    def test_uneven_point_count(self, rng):
        x = rng.standard_normal((26, 2))
        km = ConstrainedKMeans(n_clusters=8)
        km.fit(x, rng=rng)
        sizes = km.group_sizes()
        assert sizes.sum() == 26
        assert max(sizes) <= 4  # ceil(26/8) = 4

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstrainedKMeans(n_clusters=0)
        with pytest.raises(ValueError):
            ConstrainedKMeans(n_clusters=2, balance_ratio=0.5)
        with pytest.raises(ValueError, match="non-empty"):
            ConstrainedKMeans(n_clusters=5).fit(np.zeros((3, 2)))
        with pytest.raises(RuntimeError):
            ConstrainedKMeans(n_clusters=2).group_sizes()

    def test_inertia_not_worse_than_random_assignment(self, rng):
        x = rng.standard_normal((20, 3))
        km = ConstrainedKMeans(n_clusters=4)
        km.fit(x, rng=rng)
        rand_labels = np.repeat(np.arange(4), 5)
        rng.shuffle(rand_labels)
        centers = np.stack([x[rand_labels == k].mean(0) for k in range(4)])
        rand_inertia = ((x - centers[rand_labels]) ** 2).sum()
        assert km.inertia_ <= rand_inertia + 1e-9

    def test_kmeanspp_init_never_selects_a_point_twice(self):
        """Regression: with duplicate-heavy inputs the old k-means++
        init could draw an already-chosen point (uniform fallback once
        every remaining distance was zero), seeding two identical
        centers from the same point."""
        x = np.array([[0.0, 0.0]] * 6 + [[1.0, 1.0], [2.0, 2.0]])
        km = ConstrainedKMeans(n_clusters=4)
        for seed in range(25):
            idx = km._init_centers(x, np.random.default_rng(seed))
            assert len(set(idx.tolist())) == km.n_clusters
        # and the full fit still balances on such degenerate inputs
        km.fit(x, rng=np.random.default_rng(0))
        assert km.group_sizes().sum() == len(x)
        assert max(km.group_sizes()) <= 2  # cap = ceil(8/4)


    def test_cap_bounds_the_largest_group_only(self):
        """R=1 sets no lower bound: at F=26, T=8 the cap is 4 and 6 of
        the 32 slots stay free, so a far-away centre is left empty."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((26, 2))
        centers = np.vstack([rng.standard_normal((7, 2)), [[1e3, 1e3]]])
        km = ConstrainedKMeans(n_clusters=8)
        labels = km._assign(x, centers, km._cap(26))
        sizes = np.bincount(labels, minlength=8)
        assert sizes.sum() == 26 and sizes.max() <= 4
        assert sizes[7] == 0


def _scipy_lsap(cost):
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment(cost)


def _slot_costs(kind, n, towers, seed):
    """A (points x slots) cost as ``_assign`` builds it: each of
    ``towers`` columns repeated ``cap`` times."""
    rng = np.random.default_rng(seed)
    cap = -(-n // towers)
    if kind == "uniform":
        d2 = rng.random((n, towers))
    elif kind == "ties":
        d2 = rng.integers(0, 4, (n, towers)).astype(np.float64)
    elif kind == "equal":
        d2 = np.full((n, towers), 0.5)
    else:  # square: every slot filled
        d2 = rng.random((n, towers))
        cap = n // towers
    return np.repeat(d2, cap, axis=1)


class TestAssignmentMatchesScipy:
    """``_linear_sum_assignment`` is a port of scipy's solver: the same
    ``(rows, cols)`` — ties included — not only the same total cost."""

    @pytest.mark.parametrize("kind", ["uniform", "ties", "equal"])
    @pytest.mark.parametrize("seed", range(20))
    def test_slot_expanded_costs(self, kind, seed):
        rng = np.random.default_rng(seed)
        towers = int(rng.integers(1, 9))
        n = int(rng.integers(towers, 30))
        cost = _slot_costs(kind, n, towers, seed)
        rows, cols = _linear_sum_assignment(cost)
        want_rows, want_cols = _scipy_lsap(cost)
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(cols, want_cols)

    @pytest.mark.parametrize(
        "kind,n,towers",
        [("square", 24, 4), ("square", 26, 2), ("uniform", 1, 3),
         ("ties", 1, 1), ("uniform", 12, 1), ("ties", 7, 1)],
    )
    def test_square_one_point_and_one_tower(self, kind, n, towers):
        cost = _slot_costs(kind, n, towers, seed=n)
        if kind == "square":
            assert cost.shape == (n, n)
        rows, cols = _linear_sum_assignment(cost)
        want_rows, want_cols = _scipy_lsap(cost)
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(cols, want_cols)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 12),
        extra=st.integers(0, 6),
        levels=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_wide_integer_costs_property(self, rows, extra, levels, seed):
        cost = np.random.default_rng(seed).integers(
            0, levels, (rows, rows + extra)
        ).astype(np.float64)
        got, want = _linear_sum_assignment(cost), _scipy_lsap(cost)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_cost_is_a_value_error(self, bad):
        cost = np.ones((3, 4))
        cost[1, 2] = bad
        with pytest.raises(ValueError):
            _scipy_lsap(cost)
        with pytest.raises(ValueError, match="non-finite"):
            _linear_sum_assignment(cost)

    def test_tall_cost_is_a_value_error(self):
        """The port solves the wide case only: slot expansion gives
        ``points <= T * cap`` columns."""
        with pytest.raises(ValueError, match="rows <= columns"):
            _linear_sum_assignment(np.ones((4, 3)))


class TestTowerPartitioner:
    def test_coherent_recovers_planted_blocks(self, rng):
        I = block_interaction([4, 4, 4])
        tp = TowerPartitioner(num_towers=3, strategy="coherent")
        result = tp.partition_from_interaction(I, rng=rng)
        groups = sorted(tuple(sorted(g)) for g in result.partition.groups)
        assert groups == [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)]

    def test_coherent_beats_naive_on_within_group_interaction(self, rng):
        """The mechanism behind Table 6: TP groups interacting features."""
        I = block_interaction([4, 4, 4, 4])
        tp = TowerPartitioner(num_towers=4, strategy="coherent")
        result = tp.partition_from_interaction(I, rng=rng)
        naive = FeaturePartition.strided(16, 4)
        naive_score = TowerPartitioner.within_group_score(I, naive)
        assert result.within_group_interaction > naive_score + 0.3

    def test_diverse_spreads_blocks(self, rng):
        """Diverse strategy puts similar features in different towers."""
        I = block_interaction([4, 4])
        tp = TowerPartitioner(num_towers=2, strategy="diverse")
        result = tp.partition_from_interaction(I, rng=rng)
        coherent_score = TowerPartitioner.within_group_score(
            I, FeaturePartition.contiguous(8, 2)
        )
        assert result.within_group_interaction < coherent_score

    def test_balanced_output(self, rng):
        I = block_interaction([9, 3])  # natural clusters don't match towers
        tp = TowerPartitioner(num_towers=4)
        result = tp.partition_from_interaction(I, rng=rng)
        assert result.partition.num_towers == 4
        assert max(result.partition.sizes()) <= 3

    def test_partition_from_activations(self, rng):
        acts = np.zeros((16, 6, 4))
        acts[:, :3, 0] = rng.standard_normal((16, 3)) + 1
        acts[:, 3:, 1] = rng.standard_normal((16, 3)) + 1
        tp = TowerPartitioner(num_towers=2, strategy="coherent")
        result = tp.partition_from_activations(acts, rng=rng)
        groups = sorted(tuple(sorted(g)) for g in result.partition.groups)
        assert groups == [(0, 1, 2), (3, 4, 5)]

    def test_strategy_strings(self):
        assert (
            TowerPartitioner(2, strategy="diverse").strategy
            is PartitionStrategy.DIVERSE
        )
        with pytest.raises(ValueError):
            TowerPartitioner(2, strategy="bogus")

    def test_validation(self, rng):
        tp = TowerPartitioner(num_towers=4)
        with pytest.raises(ValueError, match="square"):
            tp.partition_from_interaction(np.zeros((2, 3)), rng=rng)
        with pytest.raises(ValueError, match="towers"):
            tp.partition_from_interaction(np.eye(3), rng=rng)
        with pytest.raises(ValueError, match="interaction values"):
            tp.partition_from_interaction(np.eye(4) * 2, rng=rng)
        with pytest.raises(ValueError):
            TowerPartitioner(num_towers=0)

    def test_backfill_leaves_no_tower_empty(self, rng, monkeypatch):
        """The K-Means may empty a cluster (no lower bound); the
        partitioner backfills it from the largest group."""
        labels = np.array([0] * 4 + [1] * 4 + [2] * 4 + [4] * 4 + [5] * 4
                          + [6] * 4 + [7] * 2)
        monkeypatch.setattr(
            ConstrainedKMeans, "fit_predict", lambda self, x, rng=None: labels
        )
        I = block_interaction([4] * 6 + [2])
        result = TowerPartitioner(num_towers=8).partition_from_interaction(
            I, rng=rng
        )
        sizes = result.partition.sizes()
        assert result.partition.num_towers == 8
        assert min(sizes) >= 1 and sum(sizes) == 26
        assert sorted(sizes) == [1, 2, 3, 4, 4, 4, 4, 4]

    def test_result_carries_artifacts_for_figure9(self, rng):
        I = block_interaction([4, 4])
        result = TowerPartitioner(2).partition_from_interaction(I, rng=rng)
        assert result.interaction.shape == (8, 8)
        assert result.coordinates.shape == (8, 2)
        assert result.distances.shape == (8, 8)


@settings(max_examples=10, deadline=None)
@given(
    n_blocks=st.integers(2, 4),
    block_size=st.integers(2, 4),
    seed=st.integers(0, 100),
)
def test_tp_partition_is_always_valid_property(n_blocks, block_size, seed):
    """Property: TP yields a valid, balanced partition on any block input."""
    rng = np.random.default_rng(seed)
    I = block_interaction([block_size] * n_blocks)
    tp = TowerPartitioner(num_towers=n_blocks, mds_iterations=150)
    result = tp.partition_from_interaction(I, rng=rng)
    p = result.partition
    assert p.num_features == n_blocks * block_size
    assert p.num_towers == n_blocks
    assert max(p.sizes()) - min(p.sizes()) <= 1
