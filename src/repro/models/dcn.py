"""DCN-v2 (Wang et al. 2021): CrossNet interaction model.

The flat DCN is the one-tower pass-through DMT-DCN: the overarch
CrossNet runs over the flattened concatenation of the bottom-MLP output
and every feature embedding — exactly the flat model (Table 3).  Its
math is :class:`~repro.models.dmt.DMTDCN`'s overarch and
:class:`~repro.models.base.RecModel`'s tower dispatch.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.partition import FeaturePartition
from repro.models.configs import DenseArch
from repro.models.dmt import DMTDCN
from repro.nn.embedding import TableConfig


class DCN(DMTDCN):
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
            f"DCN(dense={self.num_dense}, sparse={self.num_sparse}, "
            f"N={self.embedding_dim}, cross_layers={self.cross.num_layers})"
        )
