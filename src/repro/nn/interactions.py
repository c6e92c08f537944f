"""Feature-interaction architectures: dot product (DLRM) and CrossNet (DCN).

These are the two interaction families the paper evaluates (§5.1), and
the operators from which the tower modules are built (§4: "we
constrained our choice of operators from the ones used in the
interaction arch when building TM").
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nn.init import xavier_uniform
from repro.nn.module import DTYPE, Module, Parameter


class DotInteraction(Module):
    """Pairwise dot-product interaction over (B, T, N) inputs.

    Produces the upper-triangular (i<j) dots, shape (B, T*(T-1)/2) —
    DLRM's parameter-free interaction.  The paper leans on this:
    "dot-product is parameter-free but CrossNet is not" drives the
    Table 4 tower-count/parameter interplay.
    """

    def __init__(self, num_inputs: int, dim: int):
        if num_inputs < 2:
            raise ValueError(f"need >= 2 vectors to interact, got {num_inputs}")
        self.num_inputs = num_inputs
        self.dim = dim
        iu = np.triu_indices(num_inputs, k=1)
        self._rows, self._cols = iu
        # (T, T) -> position in the (K + 1)-wide gradient row: pair k at
        # (i, j) and (j, i), the zero column K on the diagonal.
        pair = np.full((num_inputs, num_inputs), len(iu[0]), np.intp)
        pair[iu] = pair[iu[::-1]] = np.arange(len(iu[0]))
        self._pair = pair
        self._input: Optional[np.ndarray] = None

    @property
    def out_features(self) -> int:
        return self.num_inputs * (self.num_inputs - 1) // 2

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim != 3 or x.shape[1:] != (self.num_inputs, self.dim):
            raise ValueError(
                f"expected (B, {self.num_inputs}, {self.dim}), got {x.shape}"
            )
        self._input = x
        gram = x @ x.transpose(0, 2, 1)  # (B, T, T)
        return gram[:, self._rows, self._cols]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        x = self._input
        K = self.out_features
        # dZ_ij hits both X_i and X_j: one gather builds the symmetric
        # (B, T, T) gradient from the pair row plus a zero column.
        padded = np.empty((x.shape[0], K + 1), x.dtype)
        padded[:, :K] = grad_output
        padded[:, K] = 0.0
        return np.take(padded, self._pair, axis=1) @ x

    def flops_per_sample(self) -> int:
        return 2 * self.out_features * self.dim


class CrossNet(Module):
    """DCN-v2 cross network on flattened (B, D) inputs.

    ``x_{l+1} = x_0 * (x_l @ W_l + b_l) + x_l`` with full-rank square
    weights, following Wang et al. 2021 (the paper's DCN baseline).
    Dominates DCN's MFlops/sample: each layer costs 2*D^2 per sample.
    """

    def __init__(
        self,
        dim: int,
        num_layers: int,
        rng: Optional[np.random.Generator] = None,
        name: str = "crossnet",
    ):
        if dim <= 0 or num_layers <= 0:
            raise ValueError(
                f"dim and num_layers must be positive, got ({dim}, {num_layers})"
            )
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self.num_layers = num_layers
        # Xavier over (D, D) keeps activations stable through the
        # multiplicative recurrence.
        self.weights = [
            Parameter(
                xavier_uniform(rng, dim, dim).astype(DTYPE), name=f"{name}.w{l}"
            )
            for l in range(num_layers)
        ]
        self.biases = [
            Parameter(np.zeros(dim, DTYPE), name=f"{name}.b{l}")
            for l in range(num_layers)
        ]
        self._x0: Optional[np.ndarray] = None
        self._xs: List[np.ndarray] = []
        self._us: List[np.ndarray] = []

    @property
    def out_features(self) -> int:
        return self.dim

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.weights[0].data.dtype)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(f"expected (B, {self.dim}), got {x.shape}")
        self._x0 = x
        self._xs = [x]
        self._us = []
        cur = x
        for W, b in zip(self.weights, self.biases):
            u = cur @ W.data + b.data
            self._us.append(u)
            cur = x * u + cur
            self._xs.append(cur)
        return cur

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x0 is None:
            raise RuntimeError("backward called before forward")
        x0 = self._x0
        g = np.asarray(grad_output, dtype=x0.dtype)
        dx0 = np.zeros_like(x0)
        for l in reversed(range(self.num_layers)):
            u = self._us[l]
            x_l = self._xs[l]
            du = g * x0
            self.weights[l].add_grad(x_l.T @ du)
            self.biases[l].add_grad(du.sum(axis=0))
            dx0 += g * u
            g = g + du @ self.weights[l].data.T
        return g + dx0

    def flops_per_sample(self) -> int:
        return self.num_layers * 2 * self.dim * self.dim
