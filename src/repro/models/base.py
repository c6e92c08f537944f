"""What every recommendation model here shares.

A model is an embedding plane, a bottom MLP, a family-specific feature
interaction and a ``top`` logit head.  Everything around the
interaction is stated once, on :class:`RecModel`; a family defines

- ``features_with_embeddings(dense, embs)`` — the top-MLP input,
  ``(B, top_in_features)``, from dense features and looked-up
  ``(B, F, N)`` embeddings (the seam
  :class:`~repro.models.multitask.MultiTaskModel` attaches task towers
  to),
- ``features_backward(grad_features) -> (g_dense, g_embs)``,
- ``dense_parameters()`` / ``flops_per_sample()``,

and builds ``top`` / ``top_in_features`` in its constructor.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.models.configs import DenseArch
from repro.nn.embedding import EmbeddingBagCollection, TableConfig
from repro.nn.mlp import MLP
from repro.nn.module import Module


class RecModel(Module):
    """Embedding plane + bottom MLP + the plumbing around ``top``.

    ``forward_with_embeddings`` / ``backward_with_embeddings`` let the
    distributed pipelines supply embeddings produced by simulated
    collectives while reusing the exact dense math of single-process
    execution — the property all equivalence tests lean on.
    """

    top: MLP
    top_in_features: int

    def __init__(
        self,
        num_dense: int,
        table_configs: Sequence[TableConfig],
        arch: DenseArch,
        rng: np.random.Generator,
    ):
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

    def _check_embeddings(self, dense: np.ndarray, embs: np.ndarray) -> int:
        """The batch size, once ``embs`` is (B, F, N) for ``dense``'s B."""
        B = dense.shape[0]
        if embs.shape != (B, self.num_sparse, self.embedding_dim):
            raise ValueError(
                f"embeddings shape {embs.shape} != "
                f"({B}, {self.num_sparse}, {self.embedding_dim})"
            )
        return B

    # ------------------------------------------------------------------
    # Dense plane (embeddings supplied externally)
    # ------------------------------------------------------------------
    def forward_with_embeddings(
        self, dense: np.ndarray, embs: np.ndarray
    ) -> np.ndarray:
        """Logits from dense features and pre-looked-up embeddings.

        ``embs`` has shape (B, F, N) — exactly what the embedding
        exchange delivers to each rank.
        """
        return self.top(self.features_with_embeddings(dense, embs)).reshape(-1)

    def backward_with_embeddings(
        self, grad_logits: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Backprop the dense plane; returns (grad_dense, grad_embs)."""
        g_top_in = self.top.backward(np.asarray(grad_logits).reshape(-1, 1))
        return self.features_backward(g_top_in)

    # ------------------------------------------------------------------
    # Full single-process plane
    # ------------------------------------------------------------------
    def forward(self, dense: np.ndarray, ids: np.ndarray) -> np.ndarray:
        return self.forward_with_embeddings(dense, self.embeddings(ids))

    def backward(self, grad_logits: np.ndarray) -> np.ndarray:
        g_dense, g_embs = self.backward_with_embeddings(grad_logits)
        self.embeddings.backward(g_embs)
        return g_dense

    # ------------------------------------------------------------------
    def tower_parameters(self) -> List:
        """Tower-local parameters (AllReduce world = one host, §3.2);
        none on a flat model."""
        return []

    def sparse_parameters(self) -> List:
        """Model-parallel parameters (embedding tables)."""
        return self.embeddings.parameters()
