"""What every recommendation model here shares.

Every model is a DMT model (§3.2): an embedding plane whose features
are partitioned into towers, one tower module per feature group, a
bottom MLP, a family-specific *overarch* over the bottom vector and the
tower outputs, and a ``top`` logit head.  The flat DLRM and DCN are the
degenerate configuration — one tower spanning every feature, through an
identity (pass-through) module — so one forward and one backward serve
all four models, stated here.  A family defines the **tower-output
seam**

- ``overarch_features(dense, tower_outs) -> (B, top_in_features)``
  from the per-tower ``(B, out_dim_t)`` outputs,
- ``overarch_backward(grad_features) -> (g_dense, per-tower output
  grads)``,

plus ``dense_parameters()`` / ``flops_per_sample()``, and builds
``towers``, ``top`` and ``top_in_features`` in its constructor.
"""

from __future__ import annotations

from typing import List, Sequence

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

    The one single-process seam is ``features(dense, ids)`` /
    ``features_backward(grad_features)``: the batch is gathered
    tower-major, each tower reads its ``(B, F_t, N)`` block in place
    and writes its input gradient into its block of one buffer.
    ``forward`` / ``backward`` are the logit head ``logits`` /
    ``logits_backward`` (``top``) around it;
    :class:`~repro.models.multitask.MultiTaskModel` has the same head
    pair over the same seam, and the step executors in
    :mod:`repro.core.dmt_pipeline` run that head around the tower-output
    seam.
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
    # The single-process seam, and ``top`` wrapped around it
    # ------------------------------------------------------------------
    def forward(self, dense: np.ndarray, ids: np.ndarray) -> np.ndarray:
        return self.logits(self.features(dense, ids))

    def backward(self, grad_logits: np.ndarray) -> np.ndarray:
        return self.features_backward(self.logits_backward(grad_logits))

    def logits(self, features: np.ndarray) -> np.ndarray:
        """The logit head: ``top`` over the top-MLP input, (B,)."""
        return self.top(features).reshape(-1)

    def logits_backward(self, grad_logits: np.ndarray) -> np.ndarray:
        return self.top.backward(np.asarray(grad_logits).reshape(-1, 1))

    def features(self, dense: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Top-MLP input, (B, ``top_in_features``): the batch gathered
        tower-major, every tower on its block, then the overarch."""
        groups = self.partition.groups
        blocks = tower_blocks(self.embeddings(ids, groups), groups)
        outs = [tower(block) for tower, block in zip(self.towers, blocks)]
        return self.overarch_features(dense, outs)

    def features_backward(self, grad_features: np.ndarray) -> np.ndarray:
        """Backprop from the top-MLP input through the towers into the
        tables; returns the dense-input gradient."""
        g_dense, tower_grads = self.overarch_backward(grad_features)
        g_embs = np.empty(
            (len(grad_features) * self.num_sparse, self.embedding_dim),
            self.embeddings.dtype,
        )
        blocks = tower_blocks(g_embs, self.partition.groups)
        for tower, g, block in zip(self.towers, tower_grads, blocks):
            tower.backward(g, out=block)
        # The tower gradients view the overarch's input gradient: free
        # it before the table step, which is the step's peak.
        del tower_grads, g
        self.embeddings.backward(g_embs)
        return g_dense

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
