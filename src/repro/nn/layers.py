"""Elementary layers: Linear, activations, Sequential."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nn import functional as F
from repro.nn.init import xavier_uniform
from repro.nn.module import DTYPE, Module, Parameter


class Linear(Module):
    """Affine map ``y = x @ W + b`` for inputs of shape (..., in_features).

    Leading dimensions are treated as batch; the tower modules exploit
    this to project (B, F, N) tensors along their last axis (Listing 1's
    per-feature projection).  Every rank runs as one 2-D matmul on the
    ``(-1, in_features)`` view, forward and input gradient alike, never
    numpy's batched 3-D matmul of many small (F, N) products.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        bias: bool = True,
        name: str = "linear",
    ):
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"features must be positive, got ({in_features}, {out_features})"
            )
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            xavier_uniform(rng, in_features, out_features).astype(DTYPE),
            name=f"{name}.weight",
        )
        self.bias = (
            Parameter(np.zeros(out_features, DTYPE), name=f"{name}.bias")
            if bias
            else None
        )
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.weight.data.dtype)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected last dim {self.in_features}, got shape {x.shape}"
            )
        self._input = x
        y = x.reshape(-1, self.in_features) @ self.weight.data
        if self.bias is not None:
            y += self.bias.data
        return y.reshape(*x.shape[:-1], self.out_features)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        x = self._input
        grad_output = np.asarray(grad_output, dtype=self.weight.data.dtype)
        # Collapse leading dims: both products run on 2-D views.
        x2 = x.reshape(-1, self.in_features)
        g2 = grad_output.reshape(-1, self.out_features)
        self.weight.add_grad(x2.T @ g2)
        if self.bias is not None:
            self.bias.add_grad(g2.sum(axis=0))
        return (g2 @ self.weight.data.T).reshape(x.shape)

    def flops_per_sample(self) -> int:
        # One MAC per weight element; leading batch-like dims beyond the
        # sample axis (e.g. the F axis of (B, F, N) inputs) are counted
        # by the caller via `flops_multiplier` on composite modules.
        return 2 * self.in_features * self.out_features

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Linear({self.in_features}, {self.out_features})"


def _keep(a: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``a`` where ``mask`` is -1 (all bits set), +0.0 where it is 0.

    A bitwise AND on ``a``'s bits viewed as integers of its width; the
    int8 mask sign-extends to that width under promotion.
    """
    a = np.asarray(a)
    return np.bitwise_and(a.view(f"i{a.itemsize}"), mask).view(a.dtype)


class ReLU(Module):
    """Elementwise max(x, 0), as ``np.where(x > 0, x, 0.0)`` bit for bit.

    ``x > 0`` is kept as a 0/-1 ``int8`` mask and both passes AND the
    float bits with it: no data-dependent branch, unlike ``np.where`` on
    a random sign pattern.  Every input maps to the same bits as the
    ``np.where`` form: -0.0 and NaN to +0.0, +inf to itself, and a
    gradient of another float width (float64 through a float32 forward)
    is masked at its own width.
    """

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        self._mask = np.negative((x > 0).view(np.int8))
        return _keep(x, self._mask)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return _keep(grad_output, self._mask)

    def flops_per_sample(self) -> int:
        return 0


class Sigmoid(Module):
    """Elementwise logistic function."""

    def __init__(self) -> None:
        self._output: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        self._output = F.sigmoid(x).astype(x.dtype, copy=False)
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        return grad_output * self._output * (1.0 - self._output)

    def flops_per_sample(self) -> int:
        return 0


class Identity(Module):
    """Pass-through (used for pass-through towers in Table 3)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return grad_output

    def flops_per_sample(self) -> int:
        return 0


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, layers: List[Module]):
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]
