"""DCN-v2 (Wang et al. 2021): CrossNet interaction model.

Same embedding/dense split as :class:`~repro.models.dlrm.DLRM`; the
interaction is a full-rank CrossNet over the flattened concatenation of
the bottom-MLP output and all feature embeddings, followed by a small
top MLP producing the logit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.models.base import RecModel
from repro.models.configs import DenseArch
from repro.nn.embedding import TableConfig
from repro.nn.interactions import CrossNet
from repro.nn.mlp import MLP


class DCN(RecModel):
    """Deep & Cross Network v2.

    Dataflow: x0 = [bottom(dense), embs.flatten] of dim (F+1)*N ->
    CrossNet (``arch.cross_layers`` full-rank layers) -> top MLP ->
    logit.  CrossNet dominates flops (~2*(F+1)^2*N^2 per layer-sample),
    reproducing the paper's DCN/DLRM complexity gap.
    """

    def __init__(
        self,
        num_dense: int,
        table_configs: Sequence[TableConfig],
        arch: DenseArch,
        rng: Optional[np.random.Generator] = None,
    ):
        rng = rng or np.random.default_rng(0)
        if arch.cross_layers <= 0:
            raise ValueError("DCN requires arch.cross_layers >= 1")
        super().__init__(num_dense, table_configs, arch, rng)
        self.cross_dim = (self.num_sparse + 1) * arch.embedding_dim
        self.cross = CrossNet(
            self.cross_dim, arch.cross_layers, rng=rng, name="cross"
        )
        self.top_in_features = self.cross_dim
        self.top = MLP(
            [self.cross_dim, *arch.top_mlp, 1],
            rng=rng,
            final_activation=False,
            name="top",
        )

    # ------------------------------------------------------------------
    def features_with_embeddings(
        self, dense: np.ndarray, embs: np.ndarray
    ) -> np.ndarray:
        """Crossed features feeding the top MLP, (B, ``top_in_features``)."""
        B = self._check_embeddings(dense, embs)
        bottom_out = self.bottom(dense)
        x0 = np.concatenate([bottom_out, embs.reshape(B, -1)], axis=1)
        return self.cross(x0)

    def features_backward(
        self, grad_features: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Backprop from the top-MLP input; returns (g_dense, g_embs)."""
        g_x0 = self.cross.backward(grad_features)
        N = self.embedding_dim
        g_bottom = g_x0[:, :N]
        g_embs = g_x0[:, N:].reshape(-1, self.num_sparse, N)
        g_dense = self.bottom.backward(g_bottom)
        return g_dense, g_embs

    def dense_parameters(self) -> List:
        return (
            self.bottom.parameters()
            + self.cross.parameters()
            + self.top.parameters()
        )

    def flops_per_sample(self) -> int:
        return (
            self.bottom.flops_per_sample()
            + self.cross.flops_per_sample()
            + self.top.flops_per_sample()
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DCN(dense={self.num_dense}, sparse={self.num_sparse}, "
            f"N={self.embedding_dim}, cross_layers={self.cross.num_layers})"
        )
