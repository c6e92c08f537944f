"""Seeded weight initializers.

Every initializer takes an explicit :class:`numpy.random.Generator` —
experiment repeatability (the paper's 9-seed medians, Table 6's
Mann-Whitney tests) requires full control of randomness, so nothing in
:mod:`repro.nn` touches global numpy random state.
"""

from __future__ import annotations

import numpy as np


def xavier_uniform(
    rng: np.random.Generator, fan_in: int, fan_out: int
) -> np.ndarray:
    """Glorot/Xavier uniform init for a (fan_in, fan_out) weight."""
    if fan_in <= 0 or fan_out <= 0:
        raise ValueError(f"fans must be positive, got ({fan_in}, {fan_out})")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def uniform_embedding_init(
    rng: np.random.Generator, num_embeddings: int, dim: int
) -> np.ndarray:
    """DLRM-style embedding init: U(-1/sqrt(n), 1/sqrt(n)).

    Matches the open-source DLRM reference implementation, which scales
    the range by table cardinality so rare large tables start small.
    """
    if num_embeddings <= 0 or dim <= 0:
        raise ValueError(
            f"table shape must be positive, got ({num_embeddings}, {dim})"
        )
    bound = 1.0 / np.sqrt(num_embeddings)
    return rng.uniform(-bound, bound, size=(num_embeddings, dim))
