"""Tests for elementary nn layers, MLP, and gradient correctness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import MLP, Identity, Linear, ReLU, Sequential, Sigmoid
from tests.util import check_module_gradients


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(5, 3, rng=rng)
        assert layer(rng.standard_normal((8, 5))).shape == (8, 3)

    def test_forward_matches_manual(self, rng):
        layer = Linear(4, 2, rng=rng)
        x = rng.standard_normal((3, 4))
        np.testing.assert_allclose(
            layer(x), x @ layer.weight.data + layer.bias.data
        )

    def test_leading_dims_preserved(self, rng):
        """(B, F, N) inputs project along the last axis (tower modules)."""
        layer = Linear(4, 6, rng=rng)
        x = rng.standard_normal((2, 5, 4))
        assert layer(x).shape == (2, 5, 6)

    def test_3d_input_is_its_2d_view_bit_for_bit(self, rng):
        """(B, F, N) runs as the (B*F, N) matmul: output, input gradient,
        weight and bias gradients all equal those of the 2-D reshape."""
        x = rng.standard_normal((1024, 3, 64)).astype(np.float32)
        grad = rng.standard_normal((1024, 3, 32)).astype(np.float32)
        flat = Linear(64, 32, rng=np.random.default_rng(5))
        batched = Linear(64, 32, rng=np.random.default_rng(5))
        y2 = flat(x.reshape(-1, 64))
        y3 = batched(x)
        assert y3.shape == (1024, 3, 32)
        np.testing.assert_array_equal(y3, y2.reshape(y3.shape))
        g2 = flat.backward(grad.reshape(-1, 32))
        g3 = batched.backward(grad)
        assert g3.shape == x.shape
        np.testing.assert_array_equal(g3, g2.reshape(x.shape))
        np.testing.assert_array_equal(batched.weight.grad, flat.weight.grad)
        np.testing.assert_array_equal(batched.bias.grad, flat.bias.grad)

    def test_gradients(self, rng):
        layer = Linear(4, 3, rng=rng)
        check_module_gradients(layer, rng.standard_normal((6, 4)), rng)

    def test_gradients_3d_input(self, rng):
        layer = Linear(3, 2, rng=rng)
        check_module_gradients(layer, rng.standard_normal((2, 4, 3)), rng)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, rng=rng, bias=False)
        assert layer.bias is None
        assert layer.num_parameters() == 12

    def test_grad_accumulates(self, rng):
        layer = Linear(2, 2, rng=rng)
        x = rng.standard_normal((3, 2))
        layer(x)
        layer.backward(np.ones((3, 2)))
        g1 = layer.weight.grad.copy()
        layer(x)
        layer.backward(np.ones((3, 2)))
        np.testing.assert_allclose(layer.weight.grad, 2 * g1)

    def test_wrong_input_dim_raises(self, rng):
        with pytest.raises(ValueError, match="last dim"):
            Linear(4, 3, rng=rng)(rng.standard_normal((2, 5)))

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            Linear(4, 3, rng=rng).backward(np.zeros((1, 3)))

    def test_flops(self):
        assert Linear(10, 20).flops_per_sample() == 400

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            Linear(0, 3)


class TestActivations:
    def test_relu_forward(self):
        out = ReLU()(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_relu_backward_masks(self):
        relu = ReLU()
        relu(np.array([-1.0, 3.0]))
        np.testing.assert_array_equal(relu.backward(np.array([5.0, 5.0])), [0.0, 5.0])

    @staticmethod
    def _special(dtype, rng):
        """Random values led by -0.0, +0.0, NaNs of both signs, +-inf,
        subnormals of both signs and +-max."""
        info = np.finfo(dtype)
        tiny = info.smallest_subnormal
        head = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny,
                info.max, -info.max]
        return np.concatenate(
            [np.array(head, dtype), rng.standard_normal(246).astype(dtype)]
        ).reshape(16, 16)

    @staticmethod
    def _assert_same_bits(a, b):
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))

    @pytest.mark.parametrize(
        "x_dtype, grad_dtype",
        [
            (np.float32, np.float32),
            (np.float64, np.float64),
            (np.float32, np.float64),  # float64 gradient, float32 forward
        ],
    )
    def test_relu_is_np_where_bit_for_bit(self, x_dtype, grad_dtype, rng):
        x = self._special(x_dtype, rng)
        grad = self._special(grad_dtype, rng)[::-1].copy()
        relu = ReLU()
        self._assert_same_bits(relu(x), np.where(x > 0, x, 0.0))
        self._assert_same_bits(
            relu.backward(grad), np.where(x > 0, grad, 0.0)
        )

    def test_sigmoid_range_and_extremes(self):
        out = Sigmoid()(np.array([-1000.0, 0.0, 1000.0]))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(0.5)
        assert out[2] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(out))

    def test_sigmoid_gradients(self, rng):
        check_module_gradients(Sigmoid(), rng.standard_normal((4, 3)), rng)

    def test_identity_passthrough(self, rng):
        x = rng.standard_normal((2, 2))
        ident = Identity()
        np.testing.assert_array_equal(ident(x), x)
        np.testing.assert_array_equal(ident.backward(x), x)


class TestSequentialAndMLP:
    def test_sequential_composes(self, rng):
        seq = Sequential([Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng)])
        assert seq(rng.standard_normal((3, 4))).shape == (3, 2)

    def test_mlp_layer_structure(self, rng):
        mlp = MLP([13, 512, 256, 128], rng=rng)
        assert mlp.in_features == 13 and mlp.out_features == 128
        # 3 Linear + 3 ReLU (final_activation=True, DLRM bottom arch)
        assert len(mlp.net) == 6

    def test_mlp_no_final_activation_produces_logits(self, rng):
        mlp = MLP([8, 4, 1], rng=rng, final_activation=False)
        x = rng.standard_normal((64, 8)) * 10
        out = mlp(x)
        assert out.min() < 0  # a ReLU head could never go negative

    def test_mlp_gradients(self, rng):
        mlp = MLP([3, 5, 2], rng=rng)
        check_module_gradients(mlp, rng.standard_normal((4, 3)), rng)

    def test_mlp_flops(self):
        mlp = MLP([10, 20, 5])
        assert mlp.flops_per_sample() == 2 * (10 * 20 + 20 * 5)

    def test_mlp_num_parameters(self):
        mlp = MLP([10, 20, 5])
        assert mlp.num_parameters() == (10 * 20 + 20) + (20 * 5 + 5)

    def test_mlp_too_short_raises(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_state_dict_round_trip(self, rng):
        a = MLP([4, 3, 2], rng=np.random.default_rng(1))
        b = MLP([4, 3, 2], rng=np.random.default_rng(2))
        x = rng.standard_normal((5, 4))
        assert not np.allclose(a(x), b(x))
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a(x), b(x))

    def test_state_dict_mismatch_raises(self, rng):
        a = MLP([4, 3], rng=rng)
        b = MLP([4, 3, 2], rng=rng)
        with pytest.raises(KeyError):
            b.load_state_dict(a.state_dict())


@settings(max_examples=20, deadline=None)
@given(
    batch=st.integers(1, 8),
    n_in=st.integers(1, 6),
    n_out=st.integers(1, 6),
    seed=st.integers(0, 1000),
)
def test_linear_gradient_property(batch, n_in, n_out, seed):
    """Property: analytic gradients match numerics for any shape."""
    rng = np.random.default_rng(seed)
    layer = Linear(n_in, n_out, rng=rng)
    check_module_gradients(layer, rng.standard_normal((batch, n_in)), rng)
