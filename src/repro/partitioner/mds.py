"""Low-dimensional Euclidean embedding of the feature distance matrix.

The paper solves, with a first-order optimizer (Adam), the classic
metric-MDS stress objective

    minimize  sum_{i<j} (||X_i - X_j|| - D(i, j))^2

over coordinates ``X`` in R^{F x n} with ``n < N`` ("to save
computation, and to reduce noise in the embedding process").  The exact
distances need not be preserved — only relative distances matter for
the downstream clustering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.nn.module import Parameter
from repro.nn.optim import Adam

LOG_EVERY = 25  # iterations between recorded stress values


@dataclass
class MDSResult:
    """Embedding output: coordinates, final stress, stress trajectory."""

    coordinates: np.ndarray  # (F, n)
    stress: float
    history: np.ndarray  # stress every LOG_EVERY iterations, then the final

    @property
    def num_points(self) -> int:
        return self.coordinates.shape[0]

    @property
    def dim(self) -> int:
        return self.coordinates.shape[1]


def _pairwise_distances(x: np.ndarray, eps: float) -> np.ndarray:
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt(np.maximum((diff**2).sum(-1), eps**2))


def _stress_and_grad(
    x: np.ndarray, target: np.ndarray, eps: float = 1e-9
) -> "tuple[float, np.ndarray]":
    """Stress over i<j pairs and its analytic gradient.

    d stress / d X_i = sum_j 2 (d_ij - D_ij) (X_i - X_j) / d_ij.
    """
    d = _pairwise_distances(x, eps)
    resid = d - target
    np.fill_diagonal(resid, 0.0)
    stress = 0.5 * float((resid**2).sum()) / 2.0  # i<j pairs only
    coeff = 2.0 * resid / d  # (F, F), diagonal zero
    np.fill_diagonal(coeff, 0.0)
    # grad_i = sum_j coeff[i, j] * (x_i - x_j)
    grad = coeff.sum(axis=1, keepdims=True) * x - coeff @ x
    return stress, grad / 2.0  # halve: each pair counted twice


def mds_embed(
    distances: np.ndarray,
    dim: int = 2,
    iterations: int = 500,
    lr: float = 0.05,
    rng: Optional[np.random.Generator] = None,
) -> MDSResult:
    """Embed a distance matrix into ``dim`` dimensions with Adam.

    >>> import numpy as np
    >>> D = np.array([[0.0, 1.0], [1.0, 0.0]])
    >>> res = mds_embed(D, dim=1, iterations=300, rng=np.random.default_rng(0))
    >>> bool(abs(np.linalg.norm(res.coordinates[0] - res.coordinates[1]) - 1.0) < 0.05)
    True
    """
    D = np.asarray(distances, dtype=np.float64)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError(f"distance matrix must be square, got {D.shape}")
    if not np.allclose(D, D.T, atol=1e-8):
        raise ValueError("distance matrix must be symmetric")
    if np.any(D < 0):
        raise ValueError("distances must be non-negative")
    if dim <= 0 or iterations <= 0:
        raise ValueError("dim and iterations must be positive")
    rng = rng or np.random.default_rng(0)
    F = D.shape[0]

    # Scale-aware init keeps Adam's step size meaningful across inputs.
    scale = max(float(D.max()), 1e-3)
    x = Parameter(rng.standard_normal((F, dim)) * 0.1 * scale, name="mds.x")
    opt = Adam([x], lr=lr * scale)
    history = []
    stress = np.inf
    for it in range(iterations):
        stress, grad = _stress_and_grad(x.data, D)
        if it % LOG_EVERY == 0:
            history.append(stress)
        opt.zero_grad()
        x.add_grad(grad)
        opt.step()
    stress, _ = _stress_and_grad(x.data, D)
    history.append(stress)
    return MDSResult(
        coordinates=x.data.copy(), stress=stress, history=np.array(history)
    )
