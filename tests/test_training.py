"""Tests for metrics, the trainer loop, and seed-sweep statistics."""

import numpy as np
import pytest

from repro.data import SyntheticCriteoConfig, SyntheticCriteoDataset, train_eval_split
from repro.models import DLRM, tiny_table_configs
from repro.models.configs import tiny_dlrm_arch
from repro.training import (
    EvalResult,
    TrainConfig,
    Trainer,
    auc,
    log_loss,
    mann_whitney_u,
    normalized_entropy,
    run_seed_sweep,
)
from repro.training.metrics import calibration


class TestAUC:
    def test_perfect_ranking(self):
        assert auc(np.array([0, 0, 1, 1]), np.array([0.1, 0.2, 0.8, 0.9])) == 1.0

    def test_inverted_ranking(self):
        assert auc(np.array([1, 1, 0, 0]), np.array([0.1, 0.2, 0.8, 0.9])) == 0.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, 10_000)
        scores = rng.random(10_000)
        assert abs(auc(labels, scores) - 0.5) < 0.02

    def test_ties_use_midranks(self):
        labels = np.array([0, 1, 0, 1])
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        assert auc(labels, scores) == 0.5

    def test_known_value(self):
        assert auc(
            np.array([0, 0, 1, 1]), np.array([0.1, 0.4, 0.35, 0.8])
        ) == pytest.approx(0.75)

    def test_single_class_raises(self):
        with pytest.raises(ValueError, match="both classes"):
            auc(np.ones(4), np.arange(4.0))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            auc(np.zeros(3), np.zeros(4))

    def test_invariant_to_monotone_transform(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, 500)
        labels[:10] = 1
        labels[10:20] = 0
        scores = rng.standard_normal(500)
        assert auc(labels, scores) == pytest.approx(
            auc(labels, 3 * scores + 7), abs=1e-12
        )


class TestLossMetrics:
    def test_log_loss_matches_formula(self):
        labels = np.array([1.0, 0.0])
        logits = np.array([0.0, 0.0])
        assert log_loss(labels, logits) == pytest.approx(np.log(2))

    def test_normalized_entropy_of_base_rate_prediction_is_one(self):
        rng = np.random.default_rng(2)
        labels = (rng.random(20_000) < 0.25).astype(float)
        p = labels.mean()
        base_logit = np.log(p / (1 - p))
        ne = normalized_entropy(labels, np.full_like(labels, base_logit))
        assert ne == pytest.approx(1.0, abs=0.01)

    def test_ne_degenerate_labels_raise(self):
        with pytest.raises(ValueError):
            normalized_entropy(np.ones(5), np.zeros(5))

    def test_calibration_perfect(self):
        labels = np.array([1.0, 0.0, 1.0, 0.0])
        logits = np.zeros(4)  # predicts 0.5; empirical rate 0.5
        assert calibration(labels, logits) == pytest.approx(1.0)


class TestTrainerLoop:
    def make_trainer(self, seed=0, **cfg):
        model = DLRM(
            13,
            tiny_table_configs(8, num_embeddings=32, dim=8),
            tiny_dlrm_arch(8),
            rng=np.random.default_rng(seed),
        )
        config = TrainConfig(batch_size=128, seed=seed, **{"epochs": 1, **cfg})
        return Trainer(model, config)

    def data(self, n=3000):
        ds = SyntheticCriteoDataset(
            SyntheticCriteoConfig(num_sparse=8, num_blocks=2, cardinality=32),
            seed=0,
        )
        return train_eval_split(*ds.sample(n, seed=1))

    def test_training_beats_chance(self):
        (td, ti, tl), (ed, ei, el) = self.data(8000)
        trainer = self.make_trainer(epochs=2)
        trainer.fit(td, ti, tl)
        result = trainer.evaluate(ed, ei, el)
        assert isinstance(result, EvalResult)
        assert result.auc > 0.65
        assert result.normalized_entropy < 1.0

    def test_loss_decreases(self):
        (td, ti, tl), _ = self.data()
        trainer = self.make_trainer()
        trainer.fit(td, ti, tl)
        first = np.mean(trainer.loss_history[:3])
        last = np.mean(trainer.loss_history[-3:])
        assert last < first

    def test_reproducible_across_runs(self):
        (td, ti, tl), (ed, ei, el) = self.data(1200)
        r1 = self.make_trainer(seed=5)
        r2 = self.make_trainer(seed=5)
        r1.fit(td, ti, tl)
        r2.fit(td, ti, tl)
        assert r1.loss_history == r2.loss_history
        assert r1.evaluate(ed, ei, el).auc == r2.evaluate(ed, ei, el).auc

    def test_warmup_schedule_engages(self):
        (td, ti, tl), _ = self.data(1200)
        trainer = self.make_trainer(warmup_steps=4)
        trainer.fit(td, ti, tl)
        assert trainer.dense_opt.lr <= trainer.config.dense_lr + 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(dense_lr=0)
        with pytest.raises(ValueError):
            TrainConfig(dense_optimizer="rmsprop")

    def test_evaluate_empty_set_raises_clearly(self):
        """Regression: an empty eval set used to die inside
        np.concatenate with an opaque message."""
        trainer = self.make_trainer()
        empty_dense = np.zeros((0, 13))
        empty_ids = np.zeros((0, 8), dtype=np.int64)
        empty_labels = np.zeros(0)
        with pytest.raises(ValueError, match="empty eval set"):
            trainer.evaluate(empty_dense, empty_ids, empty_labels)


class TestStats:
    def test_seed_sweep_summary(self):
        res = run_seed_sweep(lambda s: float(s), seeds=[1, 2, 3, 4, 5])
        assert res.median == 3.0
        assert res.n == 5
        assert res.std == pytest.approx(np.std([1, 2, 3, 4, 5], ddof=1))

    def test_seed_sweep_empty_raises(self):
        with pytest.raises(ValueError):
            run_seed_sweep(lambda s: 0.0, seeds=[])

    @pytest.mark.parametrize(
        "seeds",
        [np.array([1, 2, 3, 4, 5]), (s for s in range(1, 6))],
        ids=["ndarray", "generator"],
    )
    def test_seed_sweep_takes_any_iterable_of_seeds(self, seeds):
        """An ndarray used to die on its own truth value."""
        res = run_seed_sweep(lambda s: float(s), seeds=seeds)
        assert res.n == 5 and res.median == 3.0

    @pytest.mark.parametrize(
        "seeds",
        [np.array([], dtype=np.int64), (s for s in ())],
        ids=["ndarray", "generator"],
    )
    def test_seed_sweep_empty_iterable_is_the_typed_error(self, seeds):
        """An empty generator used to reach ``np.array([])`` and come
        back as a NaN median."""
        with pytest.raises(ValueError, match="need at least one seed"):
            run_seed_sweep(lambda s: 0.0, seeds=seeds)

    def test_mann_whitney_detects_separation(self):
        treatment = [0.80, 0.81, 0.82, 0.80, 0.81, 0.82, 0.81, 0.80, 0.82]
        control = [0.78, 0.79, 0.78, 0.79, 0.78, 0.79, 0.78, 0.79, 0.78]
        p = mann_whitney_u(treatment, control)
        assert p < 0.01

    def test_mann_whitney_no_separation(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(9)
        b = rng.standard_normal(9)
        p = mann_whitney_u(list(a), list(b))
        assert p > 0.05

    def test_mann_whitney_needs_two_observations(self):
        with pytest.raises(ValueError):
            mann_whitney_u([1.0], [0.0, 0.1])
