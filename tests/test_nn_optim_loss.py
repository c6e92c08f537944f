"""Tests for losses, optimizers, and the LR schedule."""

import numpy as np
import pytest

from repro.nn import SGD, Adam, BCEWithLogitsLoss, Linear, Parameter
from repro.nn.functional import bce_with_logits, sigmoid
from repro.nn.optim import WarmupDecaySchedule
from tests.util import Adagrad, numeric_grad


@pytest.fixture
def rng():
    return np.random.default_rng(5)


class TestBCEWithLogits:
    def test_matches_naive_formula_in_safe_range(self, rng):
        loss = BCEWithLogitsLoss()
        z = rng.uniform(-3, 3, size=10)
        y = rng.integers(0, 2, size=10).astype(float)
        got = loss(z, y)
        p = sigmoid(z)
        naive = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
        assert got == pytest.approx(naive)

    def test_stable_at_extreme_logits(self):
        loss = BCEWithLogitsLoss()
        val = loss(np.array([1000.0, -1000.0]), np.array([1.0, 0.0]))
        assert np.isfinite(val) and val == pytest.approx(0.0, abs=1e-9)

    def test_gradient_matches_numeric(self, rng):
        loss = BCEWithLogitsLoss()
        z = rng.uniform(-2, 2, size=6)
        y = rng.integers(0, 2, size=6).astype(float)
        loss(z, y)
        analytic = loss.backward()
        num = numeric_grad(lambda zz: BCEWithLogitsLoss()(zz, y), z.copy())
        np.testing.assert_allclose(analytic, num, atol=1e-7)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            BCEWithLogitsLoss()(np.zeros(3), np.zeros(4))

    def test_target_range_validated(self):
        with pytest.raises(ValueError):
            BCEWithLogitsLoss()(np.zeros(2), np.array([0.0, 2.0]))


def quadratic_param(start):
    """Parameter minimizing f(w) = 0.5*||w||^2 (grad = w)."""
    return Parameter(np.array(start, dtype=float), name="w")


class TestOptimizers:
    def test_sgd_step(self):
        p = quadratic_param([1.0, -2.0])
        opt = SGD([p], lr=0.1)
        p.add_grad(p.data.copy())
        opt.step()
        np.testing.assert_allclose(p.data, [0.9, -1.8])

    def test_sgd_momentum_accelerates(self):
        losses = {}
        for mom in (0.0, 0.9):
            p = quadratic_param([10.0])
            opt = SGD([p], lr=0.01, momentum=mom)
            for _ in range(50):
                opt.zero_grad()
                p.add_grad(p.data.copy())
                opt.step()
            losses[mom] = abs(p.data[0])
        assert losses[0.9] < losses[0.0]

    def test_adagrad_converges_on_quadratic(self):
        p = quadratic_param([5.0, -5.0])
        opt = Adagrad([p], lr=1.0)
        for _ in range(200):
            opt.zero_grad()
            p.add_grad(p.data.copy())
            opt.step()
        assert np.abs(p.data).max() < 0.1

    def test_adam_converges_on_quadratic(self):
        p = quadratic_param([5.0, -5.0])
        opt = Adam([p], lr=0.2)
        for _ in range(200):
            opt.zero_grad()
            p.add_grad(p.data.copy())
            opt.step()
        assert np.abs(p.data).max() < 0.05

    def test_adam_first_step_size_is_lr(self):
        """Bias correction makes the first Adam step ~= lr * sign(g)."""
        p = quadratic_param([1.0])
        opt = Adam([p], lr=0.1)
        p.add_grad(np.array([0.3]))
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 0.1, abs=1e-6)

    def test_skips_params_without_grad(self):
        p1, p2 = quadratic_param([1.0]), quadratic_param([1.0])
        opt = SGD([p1, p2], lr=0.5)
        p1.add_grad(np.array([1.0]))
        opt.step()
        assert p1.data[0] == 0.5 and p2.data[0] == 1.0

    def test_invalid_lr_raises(self):
        with pytest.raises(ValueError):
            SGD([quadratic_param([1.0])], lr=0.0)

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_training_reproducibility(self, rng):
        """Same seed + same data => bitwise identical trajectories."""

        def run(seed):
            r = np.random.default_rng(seed)
            layer = Linear(4, 1, rng=np.random.default_rng(42))
            opt = Adam(layer.parameters(), lr=0.01)
            x = r.standard_normal((32, 4))
            y = r.integers(0, 2, 32).astype(float)
            loss = BCEWithLogitsLoss()
            vals = []
            for _ in range(5):
                opt.zero_grad()
                out = layer(x).reshape(-1)
                vals.append(loss(out, y))
                layer.backward(loss.backward().reshape(-1, 1))
                opt.step()
            return vals, layer.weight.data.copy()

        v1, w1 = run(9)
        v2, w2 = run(9)
        assert v1 == v2
        np.testing.assert_array_equal(w1, w2)


class TestWarmupDecaySchedule:
    def test_warmup_ramps_linearly(self):
        sched = WarmupDecaySchedule(peak_lr=1.0, warmup_steps=10)
        assert sched.lr_at(0) == pytest.approx(0.1)
        assert sched.lr_at(4) == pytest.approx(0.5)
        assert sched.lr_at(9) == pytest.approx(1.0)

    def test_decay_is_inverse_sqrt(self):
        sched = WarmupDecaySchedule(peak_lr=1.0, warmup_steps=0, decay_start=100)
        assert sched.lr_at(100) == pytest.approx(1.0)
        assert sched.lr_at(400) == pytest.approx(0.5)

    def test_apply_mutates_optimizer(self):
        p = quadratic_param([1.0])
        opt = SGD([p], lr=1.0)
        sched = WarmupDecaySchedule(peak_lr=0.5, warmup_steps=2)
        sched.apply(opt, 0)
        assert opt.lr == pytest.approx(0.25)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            WarmupDecaySchedule(peak_lr=0.0, warmup_steps=1)


class TestParameterBasics:
    def test_add_grad_shape_check(self):
        p = Parameter(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            p.add_grad(np.zeros(3))

    def test_bce_as_function(self):
        vals = bce_with_logits(np.array([0.0]), np.array([1.0]))
        assert vals[0] == pytest.approx(np.log(2))
