"""What every recommendation model here shares.

Every model is a DMT model (§3.2): an embedding plane whose features
are partitioned into towers, one tower module per feature group, a
bottom MLP, a family-specific *overarch* over the bottom vector and the
tower outputs, and a ``top`` logit head.  The flat DLRM and DCN are the
degenerate configuration — one tower spanning every feature, through an
identity (pass-through) module — so one forward, one backward and one
``(B, F, N)`` seam serve all four models, stated here.  A family
defines the **tower-output seam**

- ``overarch_features(dense, tower_outs) -> (B, top_in_features)``
  from the per-tower ``(B, out_dim_t)`` outputs,
- ``overarch_backward(grad_features) -> (g_dense, per-tower output
  grads)``,

plus ``dense_parameters()`` / ``flops_per_sample()``, and builds
``towers``, ``top`` and ``top_in_features`` in its constructor.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.partition import FeaturePartition
from repro.models.configs import DenseArch
from repro.models.tower_module import TowerModuleBase
from repro.nn.embedding import EmbeddingBagCollection, TableConfig, tower_blocks
from repro.nn.mlp import MLP
from repro.nn.module import Module


class RecModel(Module):
    """Embedding plane + bottom MLP + tower dispatch around the
    family's overarch and ``top``.

    The single-process step runs tower-major: each tower reads its
    ``(B, F_t, N)`` block of the gathered embeddings in place and
    writes its input gradient into its block of one buffer.
    ``features_with_embeddings`` / ``features_backward`` adapt the same
    core to feature-order ``(B, F, N)`` embeddings — what the flat
    exchange delivers to each rank, and the seam
    :class:`~repro.models.multitask.MultiTaskModel` attaches task
    towers to.
    """

    top: MLP
    top_in_features: int

    def __init__(
        self,
        num_dense: int,
        table_configs: Sequence[TableConfig],
        partition: FeaturePartition,
        arch: DenseArch,
        rng: np.random.Generator,
    ):
        if partition.num_features != len(table_configs):
            raise ValueError(
                f"partition covers {partition.num_features} features but "
                f"{len(table_configs)} tables were given"
            )
        dims = {c.dim for c in table_configs}
        if dims != {arch.embedding_dim}:
            raise ValueError(
                f"table dims {sorted(dims)} must equal arch embedding dim "
                f"{arch.embedding_dim}"
            )
        self.num_dense = num_dense
        self.num_sparse = len(table_configs)
        self.embedding_dim = arch.embedding_dim
        self.embeddings = EmbeddingBagCollection(table_configs, rng=rng)
        self.bottom = MLP(
            [num_dense, *arch.bottom_mlp, arch.embedding_dim],
            rng=rng,
            name="bottom",
        )
        self.partition = partition
        self.towers: List[TowerModuleBase] = []

    # ------------------------------------------------------------------
    # Tower-major core
    # ------------------------------------------------------------------
    def forward(self, dense: np.ndarray, ids: np.ndarray) -> np.ndarray:
        groups = self.partition.groups
        blocks = tower_blocks(self.embeddings(ids, groups), groups)
        return self.top(self._tower_features(dense, blocks)).reshape(-1)

    def backward(self, grad_logits: np.ndarray) -> np.ndarray:
        g_top_in = self.top.backward(np.asarray(grad_logits).reshape(-1, 1))
        g_dense, g_embs = self._towers_backward(g_top_in)
        self.embeddings.backward(g_embs)
        return g_dense

    def _tower_features(
        self, dense: np.ndarray, blocks: Sequence[np.ndarray]
    ) -> np.ndarray:
        outs = [tower(block) for tower, block in zip(self.towers, blocks)]
        return self.overarch_features(dense, outs)

    def _towers_backward(
        self, grad_features: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(g_dense, the tower-major (B*F, N) embedding gradient)."""
        g_dense, tower_grads = self.overarch_backward(grad_features)
        g_embs = np.empty((len(grad_features) * self.num_sparse, self.embedding_dim))
        blocks = tower_blocks(g_embs, self.partition.groups)
        for tower, g, block in zip(self.towers, tower_grads, blocks):
            tower.backward(g, out=block)
        return g_dense, g_embs

    # ------------------------------------------------------------------
    # The feature-order seam: (B, F, N) in and out, over the same core
    # ------------------------------------------------------------------
    def features_with_embeddings(
        self, dense: np.ndarray, embs: np.ndarray
    ) -> np.ndarray:
        """Top-MLP input, (B, ``top_in_features``): every tower on its
        feature group of (B, F, N), then the overarch."""
        B = dense.shape[0]
        if embs.shape != (B, self.num_sparse, self.embedding_dim):
            raise ValueError(
                f"embeddings shape {embs.shape} != "
                f"({B}, {self.num_sparse}, {self.embedding_dim})"
            )
        return self._tower_features(
            dense, [embs[:, list(g), :] for g in self.partition.groups]
        )

    def features_backward(
        self, grad_features: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Backprop from the top-MLP input; returns (g_dense, g_embs)."""
        g_dense, g_major = self._towers_backward(grad_features)
        # The groups partition the features, so every slot is written.
        g_embs = np.empty((len(grad_features), self.num_sparse, self.embedding_dim))
        groups = self.partition.groups
        for group, block in zip(groups, tower_blocks(g_major, groups)):
            g_embs[:, list(group), :] = block
        return g_dense, g_embs

    def forward_with_embeddings(
        self, dense: np.ndarray, embs: np.ndarray
    ) -> np.ndarray:
        """Logits from dense features and (B, F, N) embeddings looked
        up elsewhere — what the flat exchange delivers to each rank."""
        return self.top(self.features_with_embeddings(dense, embs)).reshape(-1)

    def backward_with_embeddings(
        self, grad_logits: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Backprop the dense plane; returns (grad_dense, grad_embs)."""
        g_top_in = self.top.backward(np.asarray(grad_logits).reshape(-1, 1))
        return self.features_backward(g_top_in)

    # ------------------------------------------------------------------
    def compression_ratio(self) -> float:
        """CR of §4: uncompressed tower bytes / tower-module output
        bytes (1 for pass-through towers)."""
        out = sum(t.out_dim for t in self.towers)
        return self.num_sparse * self.embedding_dim / out

    def tower_flops_per_sample(self) -> int:
        return sum(t.flops_per_sample() for t in self.towers)

    def tower_parameters(self) -> List:
        """Tower-local parameters (AllReduce world = one host, §3.2);
        none for pass-through towers."""
        return [p for t in self.towers for p in t.parameters()]

    def sparse_parameters(self) -> List:
        """Model-parallel parameters (embedding tables)."""
        return self.embeddings.parameters()
