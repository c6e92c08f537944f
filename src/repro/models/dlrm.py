"""DLRM (Naumov et al. 2019): dot-product interaction model.

The flat DLRM is the one-tower pass-through DMT-DLRM: one tower spans
every feature through an identity module, so the overarch's pairwise
dots run over the bottom vector and every embedding — exactly the
flat model (Table 3).  Its math is :class:`~repro.models.dmt.DMTDLRM`'s
overarch and :class:`~repro.models.base.RecModel`'s tower dispatch.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.partition import FeaturePartition
from repro.models.configs import DenseArch
from repro.models.dmt import DMTDLRM
from repro.nn.embedding import TableConfig


class DLRM(DMTDLRM):
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
        super().__init__(
            num_dense,
            table_configs,
            FeaturePartition.single_tower(len(table_configs)),
            arch,
            pass_through=True,
            rng=rng,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DLRM(dense={self.num_dense}, sparse={self.num_sparse}, "
            f"N={self.embedding_dim})"
        )
