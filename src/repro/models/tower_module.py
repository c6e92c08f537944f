"""Tower Modules — the paper's §4 Listings 1 and 2.

A tower module consumes one tower's embedding block (B, F_t, N) and
emits a compressed representation of ``out_vectors`` vectors of
dimension ``D``, reducing the cross-host bytes of SPTT step (f) by the
compression ratio ``CR = F*N / sum_t(out_dim_t)`` and shrinking the
global interaction.

Implementation note: the paper replaces the generated
``cublasGemvTensorStridedBatched`` kernel with a manual pairwise
routine for large-batch/small-F dot products.  numpy's analogue of that
strided-batched kernel is the batched 3-D matmul, B small (F_t, N)
products; ``Linear`` no longer runs it, but projects the (B, F_t, N)
block as one (B*F_t, N) matmul, forward and input gradient alike.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.interactions import CrossNet
from repro.nn.layers import Linear
from repro.nn.module import Module


class TowerModuleBase(Module):
    """Common interface: (B, F_t, N) -> (B, out_vectors * vector_dim);
    ``backward(grad, out=None)`` writes the input gradient into ``out``
    when given one (a tower's block of a tower-major buffer).

    Parameters, output and gradients are in the one training precision
    (:data:`~repro.nn.module.DTYPE`, the tables' float32): the output
    is what SPTT step (f) moves, so the wire carries what the tower
    computed, with no cast on either side.
    """

    num_features: int
    in_dim: int
    out_vectors: int
    vector_dim: int

    @property
    def out_dim(self) -> int:
        return self.out_vectors * self.vector_dim

    @property
    def in_total(self) -> int:
        return self.num_features * self.in_dim

    def compression_ratio(self) -> float:
        """Per-tower network compression: input bytes / output bytes."""
        return self.in_total / self.out_dim

    def _check_input(self, embs: np.ndarray) -> np.ndarray:
        embs = np.asarray(embs)
        if embs.ndim != 3 or embs.shape[1:] != (self.num_features, self.in_dim):
            raise ValueError(
                f"expected (B, {self.num_features}, {self.in_dim}), "
                f"got {embs.shape}"
            )
        return embs

    @staticmethod
    def _into(out: Optional[np.ndarray], grad: np.ndarray) -> np.ndarray:
        if out is None:
            return grad
        out[...] = grad
        return out


class PassThroughTower(TowerModuleBase):
    """Identity tower: SPTT-only configurations (Table 3, 26T-DCN) and
    the flat models' one tower."""

    def __init__(self, num_features: int, in_dim: int):
        if num_features <= 0 or in_dim <= 0:
            raise ValueError("num_features and in_dim must be positive")
        self.num_features = num_features
        self.in_dim = in_dim
        self.out_vectors = num_features
        self.vector_dim = in_dim
        self._shape: Optional["tuple[int, ...]"] = None

    def forward(self, embs: np.ndarray) -> np.ndarray:
        embs = self._check_input(embs)
        self._shape = embs.shape
        return embs.reshape(embs.shape[0], -1)

    def backward(
        self, grad_output: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return self._into(out, np.asarray(grad_output).reshape(self._shape))

    def flops_per_sample(self) -> int:
        return 0


class DLRMTowerModule(TowerModuleBase):
    """Listing 1: ensemble of a flat linear combination (``p`` output
    vectors from the flattened tower) and a per-embedding projection
    (``c`` output vectors per feature).

    Output layout matches the listing: ``cat([o1, o2], dim=1)`` where
    ``o1`` is the flat projection (B, p*D) and ``o2`` the per-feature
    projection (B, F_t*c*D); total ``O = D * (c*F_t + p)``.
    """

    def __init__(
        self,
        num_features: int,
        in_dim: int,
        out_dim_per_vector: int,
        c: int = 1,
        p: int = 0,
        rng: Optional[np.random.Generator] = None,
    ):
        if num_features <= 0 or in_dim <= 0 or out_dim_per_vector <= 0:
            raise ValueError("dimensions must be positive")
        if c < 0 or p < 0 or (c == 0 and p == 0):
            raise ValueError(f"need c >= 0, p >= 0, c + p > 0; got c={c}, p={p}")
        rng = rng or np.random.default_rng(0)
        self.num_features = num_features
        self.in_dim = in_dim
        self.c = c
        self.p = p
        self.vector_dim = out_dim_per_vector
        self.out_vectors = c * num_features + p
        D = out_dim_per_vector
        self.flat_proj = (
            Linear(num_features * in_dim, p * D, rng=rng, name="tm.flat")
            if p > 0
            else None
        )
        self.emb_proj = (
            Linear(in_dim, c * D, rng=rng, name="tm.proj") if c > 0 else None
        )
        self._batch: Optional[int] = None

    def forward(self, embs: np.ndarray) -> np.ndarray:
        embs = self._check_input(embs)
        B = embs.shape[0]
        self._batch = B
        parts = []
        if self.flat_proj is not None:
            parts.append(self.flat_proj(embs.reshape(B, -1)))
        if self.emb_proj is not None:
            parts.append(self.emb_proj(embs).reshape(B, -1))
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    def backward(
        self, grad_output: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if self._batch is None:
            raise RuntimeError("backward called before forward")
        B = self._batch
        grad_output = np.asarray(grad_output)
        D = self.vector_dim
        parts = []
        offset = 0
        if self.flat_proj is not None:
            width = self.p * D
            g_flat = self.flat_proj.backward(grad_output[:, :width])
            parts.append(g_flat.reshape(B, self.num_features, self.in_dim))
            offset = width
        if self.emb_proj is not None:
            g_proj = grad_output[:, offset:].reshape(
                B, self.num_features, self.c * D
            )
            parts.append(self.emb_proj.backward(g_proj))
        # The branch gradients sum from +0.0 in listing order.  The +0.0
        # pass writes the first branch into the accumulator: ``out``, or
        # that fresh ``Linear.backward`` result itself — never a
        # zero-filled (B, F_t, N) array per tower.
        grad_embs = np.add(parts[0], 0.0, out=parts[0] if out is None else out)
        for part in parts[1:]:
            grad_embs += part
        return grad_embs

    def flops_per_sample(self) -> int:
        flops = 0
        D = self.vector_dim
        if self.flat_proj is not None:
            flops += 2 * self.num_features * self.in_dim * self.p * D
        if self.emb_proj is not None:
            # Per-feature projection applied F_t times per sample.
            flops += self.num_features * 2 * self.in_dim * self.c * D
        return flops


class DCNTowerModule(TowerModuleBase):
    """Listing 2: a smaller CrossNet over the flattened tower followed
    by a projection to ``F_t`` vectors of dimension ``D``."""

    def __init__(
        self,
        num_features: int,
        in_dim: int,
        out_dim_per_vector: int,
        cross_layers: int = 1,
        rng: Optional[np.random.Generator] = None,
    ):
        if num_features <= 0 or in_dim <= 0 or out_dim_per_vector <= 0:
            raise ValueError("dimensions must be positive")
        rng = rng or np.random.default_rng(0)
        self.num_features = num_features
        self.in_dim = in_dim
        self.vector_dim = out_dim_per_vector
        self.out_vectors = num_features
        flat = num_features * in_dim
        self.cross = CrossNet(flat, cross_layers, rng=rng, name="tm.cross")
        self.proj = Linear(
            flat, num_features * out_dim_per_vector, rng=rng, name="tm.proj"
        )

    def forward(self, embs: np.ndarray) -> np.ndarray:
        embs = self._check_input(embs)
        B = embs.shape[0]
        crossed = self.cross(embs.reshape(B, -1))
        return self.proj(crossed)

    def backward(
        self, grad_output: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        g_crossed = self.proj.backward(grad_output)
        g_flat = self.cross.backward(g_crossed)
        return self._into(out, g_flat.reshape(-1, self.num_features, self.in_dim))

    def flops_per_sample(self) -> int:
        return self.cross.flops_per_sample() + self.proj.flops_per_sample()
