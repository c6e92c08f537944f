"""DLRM (Naumov et al. 2019): dot-product interaction model.

Only the interaction is stated here; the embedding plane, the ``top``
plumbing and the ``*_with_embeddings`` entry points the distributed
pipelines call are :class:`~repro.models.base.RecModel`'s.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.models.base import RecModel
from repro.models.configs import DenseArch
from repro.nn.embedding import TableConfig
from repro.nn.interactions import DotInteraction
from repro.nn.mlp import MLP


class DLRM(RecModel):
    """Deep Learning Recommendation Model.

    Dataflow: dense features -> bottom MLP -> (B, N); sparse ids ->
    embeddings (B, F, N); pairwise dots over the F+1 stacked vectors;
    top MLP over [bottom_out, dots] -> logit.

    Parameters
    ----------
    num_dense:
        Continuous feature count (13 for Criteo).
    table_configs:
        One embedding table per sparse feature; all share dim ``N``.
    arch:
        MLP sizing; ``arch.embedding_dim`` must equal the tables' dim.
    rng:
        Initializer randomness (one generator seeds the whole model).
    """

    def __init__(
        self,
        num_dense: int,
        table_configs: Sequence[TableConfig],
        arch: DenseArch,
        rng: Optional[np.random.Generator] = None,
    ):
        rng = rng or np.random.default_rng(0)
        super().__init__(num_dense, table_configs, arch, rng)
        self.interaction = DotInteraction(
            num_inputs=self.num_sparse + 1, dim=arch.embedding_dim
        )
        top_in = arch.embedding_dim + self.interaction.out_features
        self.top_in_features = top_in
        self.top = MLP(
            [top_in, *arch.top_mlp, 1],
            rng=rng,
            final_activation=False,
            name="top",
        )

    def features_with_embeddings(
        self, dense: np.ndarray, embs: np.ndarray
    ) -> np.ndarray:
        """Top-MLP input features [bottom_out, dots], shape
        (B, ``top_in_features``).

        The seam between the interaction plane and the logit head:
        :class:`~repro.models.multitask.MultiTaskModel` attaches extra
        task towers here while the single-task path routes the same
        array straight through ``self.top``.
        """
        self._check_embeddings(dense, embs)
        bottom_out = self.bottom(dense)  # (B, N)
        stacked = np.concatenate([bottom_out[:, None, :], embs], axis=1)
        dots = self.interaction(stacked)  # (B, C(F+1, 2))
        return np.concatenate([bottom_out, dots], axis=1)

    def features_backward(
        self, grad_features: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Backprop from the top-MLP input; returns (g_dense, g_embs)."""
        N = self.embedding_dim
        g_bottom_direct = grad_features[:, :N]
        g_dots = grad_features[:, N:]
        g_stacked = self.interaction.backward(g_dots)  # (B, F+1, N)
        g_bottom = g_bottom_direct + g_stacked[:, 0]
        g_embs = g_stacked[:, 1:]
        g_dense = self.bottom.backward(g_bottom)
        return g_dense, g_embs

    def dense_parameters(self) -> List:
        """Parameters synchronized via AllReduce in hybrid parallelism."""
        return self.bottom.parameters() + self.top.parameters()

    def flops_per_sample(self) -> int:
        return (
            self.bottom.flops_per_sample()
            + self.interaction.flops_per_sample()
            + self.top.flops_per_sample()
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DLRM(dense={self.num_dense}, sparse={self.num_sparse}, "
            f"N={self.embedding_dim})"
        )
