"""Numerically stable elementwise functions shared across modules.

All three compute in float64 whatever the input's dtype: they are the
loss's and the metrics' deliberate accumulators (and the data
generator's label draw), not part of the float32 dense plane.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Stable logistic function (no overflow for large |x|)."""
    out = np.empty_like(x, dtype=np.float64)  # accumulator (module doc)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bce_with_logits(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-element binary cross entropy from logits.

    Uses the standard max-form identity
    ``BCE = max(z, 0) - z*y + log(1 + exp(-|z|))``.
    """
    z = np.asarray(logits, dtype=np.float64)  # accumulator (module doc)
    y = np.asarray(targets, dtype=np.float64)  # accumulator (module doc)
    return np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))


def bce_with_logits_grad(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """d BCE / d logits = sigmoid(z) - y."""
    z = np.asarray(logits, dtype=np.float64)  # accumulator (module doc)
    return sigmoid(z) - np.asarray(targets, dtype=np.float64)  # accumulator
