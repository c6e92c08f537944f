"""Tests for interaction architectures (DotInteraction, CrossNet)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import CrossNet, DotInteraction
from tests.util import check_module_gradients


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestDotInteraction:
    def test_output_shape(self, rng):
        dot = DotInteraction(num_inputs=5, dim=8)
        assert dot(rng.standard_normal((4, 5, 8))).shape == (4, 10)

    def test_values_match_manual_pairs(self, rng):
        dot = DotInteraction(num_inputs=3, dim=4)
        x = rng.standard_normal((2, 3, 4))
        out = dot(x)
        expected = np.stack(
            [
                (x[:, 0] * x[:, 1]).sum(-1),
                (x[:, 0] * x[:, 2]).sum(-1),
                (x[:, 1] * x[:, 2]).sum(-1),
            ],
            axis=1,
        )
        np.testing.assert_allclose(out, expected)

    def test_gradients(self, rng):
        dot = DotInteraction(num_inputs=4, dim=3)
        check_module_gradients(dot, rng.standard_normal((2, 4, 3)), rng)

    @pytest.mark.parametrize("batch", [1, 1024])
    @pytest.mark.parametrize("t", [2, 3, 27])
    def test_backward_is_the_two_scatter_reference(self, t, batch, rng):
        """The one-gather backward equals a zero-filled (B, T, T) buffer
        scattered into both triangles, times X — bit for bit."""
        dot = DotInteraction(num_inputs=t, dim=8)
        x = rng.standard_normal((batch, t, 8)).astype(np.float32)
        grad = rng.standard_normal((batch, dot.out_features)).astype(np.float32)
        dot(x)
        rows, cols = np.triu_indices(t, k=1)
        g = np.zeros((batch, t, t), np.float32)
        g[:, rows, cols] = grad
        g[:, cols, rows] = grad
        got = dot.backward(grad)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got.view(np.uint32), (g @ x).view(np.uint32))

    def test_parameter_free(self):
        """§5.2.2: 'dot-product is parameter-free' — drives Table 4."""
        assert DotInteraction(8, 16).num_parameters() == 0

    def test_flops_quadratic_in_features(self):
        f1 = DotInteraction(10, 16).flops_per_sample()
        f2 = DotInteraction(20, 16).flops_per_sample()
        assert f2 / f1 == pytest.approx((20 * 19) / (10 * 9))

    def test_orthogonal_inputs_give_zero(self):
        dot = DotInteraction(2, 2)
        x = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        np.testing.assert_allclose(dot(x), [[0.0]])

    def test_too_few_inputs_raises(self):
        with pytest.raises(ValueError):
            DotInteraction(1, 8)

    def test_wrong_shape_raises(self, rng):
        with pytest.raises(ValueError):
            DotInteraction(3, 4)(rng.standard_normal((2, 3, 5)))


class TestCrossNet:
    def test_output_shape(self, rng):
        net = CrossNet(dim=6, num_layers=3, rng=rng)
        assert net(rng.standard_normal((4, 6))).shape == (4, 6)

    def test_single_layer_matches_manual(self, rng):
        net = CrossNet(dim=4, num_layers=1, rng=rng)
        x = rng.standard_normal((3, 4)).astype(net.weights[0].data.dtype)
        u = x @ net.weights[0].data + net.biases[0].data
        np.testing.assert_allclose(net(x), x * u + x)

    def test_gradients(self, rng):
        net = CrossNet(dim=3, num_layers=2, rng=rng)
        check_module_gradients(net, rng.standard_normal((2, 3)), rng, atol=1e-5)

    def test_parameters_counted(self):
        net = CrossNet(dim=8, num_layers=3)
        assert net.num_parameters() == 3 * (64 + 8)

    def test_flops_scale_with_layers(self):
        assert CrossNet(16, 4).flops_per_sample() == 2 * CrossNet(
            16, 2
        ).flops_per_sample()

    def test_zero_input_fixed_point(self, rng):
        net = CrossNet(dim=4, num_layers=2, rng=rng)
        np.testing.assert_allclose(net(np.zeros((2, 4))), np.zeros((2, 4)))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CrossNet(0, 1)
        with pytest.raises(ValueError):
            CrossNet(4, 0)

    def test_wrong_input_dim_raises(self, rng):
        with pytest.raises(ValueError):
            CrossNet(4, 1, rng=rng)(rng.standard_normal((2, 5)))

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            CrossNet(4, 1, rng=rng).backward(np.zeros((2, 4)))


@settings(max_examples=15, deadline=None)
@given(
    t=st.integers(2, 5),
    n=st.integers(1, 4),
    batch=st.integers(1, 4),
    seed=st.integers(0, 500),
)
def test_dot_interaction_gradients_property(t, n, batch, seed):
    rng = np.random.default_rng(seed)
    check_module_gradients(
        DotInteraction(t, n), rng.standard_normal((batch, t, n)), rng
    )


@settings(max_examples=10, deadline=None)
@given(
    dim=st.integers(1, 4),
    layers=st.integers(1, 3),
    seed=st.integers(0, 500),
)
def test_crossnet_gradients_property(dim, layers, seed):
    rng = np.random.default_rng(seed)
    net = CrossNet(dim, layers, rng=rng)
    check_module_gradients(net, rng.standard_normal((2, dim)), rng, atol=1e-5)
