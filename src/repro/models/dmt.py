"""DMT model variants: multi-tower DLRM and DCN (§3.2), the two
families every model here is built from.

These classes implement the *model semantics* of DMT: features are
partitioned into towers, each tower's embeddings pass through a tower
module, and the global interaction runs over the (possibly compressed)
tower outputs — hierarchical feature interaction.  With pass-through
towers the models are exactly their flat originals (SPTT alone changes
dataflow, not math — Table 3): the flat :class:`~repro.models.dlrm.DLRM`
and :class:`~repro.models.dcn.DCN` *are* these classes over one
pass-through tower.  With projecting tower modules they trade
interaction completeness for compute and communication (Tables 4-5).

Each family states only its overarch, behind the **tower-output
seam** ``overarch_features(dense, tower_outs)`` /
``overarch_backward(grad_features)``; the tower dispatch around it is
:class:`~repro.models.base.RecModel`'s.  The single-process step
(``RecModel.features``) feeds the seam each tower's output on its block
of the batch, gathered tower-major;
:class:`~repro.core.dmt_pipeline.DistributedDMTTrainer`, the step
executor :class:`repro.training.Trainer` runs over a simulated cluster,
feeds it what SPTT step (f) delivers — two dataflows over one statement
of the math, inside one training loop.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.partition import FeaturePartition
from repro.models.base import RecModel
from repro.models.configs import DenseArch
from repro.models.tower_module import (
    DCNTowerModule,
    DLRMTowerModule,
    PassThroughTower,
)
from repro.nn.embedding import TableConfig
from repro.nn.interactions import CrossNet, DotInteraction
from repro.nn.layers import Linear
from repro.nn.mlp import MLP


class DMTDLRM(RecModel):
    """Multi-tower DLRM with Listing 1 tower modules.

    Parameters
    ----------
    tower_dim:
        ``D``: per-vector output dimension of each tower module.  With
        ``pass_through=True`` the towers are identities and ``tower_dim``
        is ignored (the SPTT-only configuration).
    c, p:
        Listing 1 knobs: ``c`` per-feature projection vectors, ``p``
        flat-combination vectors.  The paper's settings: c=1, p=0, D=64
        for 2-8/26 towers; p=1, c=0, D=128 for 16 towers.
    top_mlp:
        Optional override of the overarch hidden sizes — "more towers
        ... can reduce parameters in the over arch" (§5.2.2); the
        paper's DMT-DLRM flops imply one fewer 1024 layer.
    """

    def __init__(
        self,
        num_dense: int,
        table_configs: Sequence[TableConfig],
        partition: FeaturePartition,
        arch: DenseArch,
        tower_dim: int = 64,
        c: int = 1,
        p: int = 0,
        pass_through: bool = False,
        top_mlp: "Optional[tuple]" = None,
        rng: Optional[np.random.Generator] = None,
    ):
        rng = rng or np.random.default_rng(0)
        super().__init__(num_dense, table_configs, partition, arch, rng)
        N = arch.embedding_dim
        if pass_through:
            self.towers = [PassThroughTower(len(g), N) for g in partition.groups]
            vector_dim = N
        else:
            self.towers = [
                DLRMTowerModule(len(g), N, tower_dim, c=c, p=p, rng=rng)
                for g in partition.groups
            ]
            vector_dim = tower_dim
        self.vector_dim = vector_dim
        self.bottom_proj = (
            Linear(N, vector_dim, rng=rng, name="bottom_proj")
            if vector_dim != N
            else None
        )
        total_vectors = 1 + sum(t.out_vectors for t in self.towers)
        self.interaction = DotInteraction(total_vectors, vector_dim)
        top_in = vector_dim + self.interaction.out_features
        self.top_in_features = top_in
        top_hidden = tuple(top_mlp) if top_mlp is not None else arch.top_mlp
        self.top = MLP(
            [top_in, *top_hidden, 1], rng=rng, final_activation=False, name="top"
        )

    def overarch_features(
        self, dense: np.ndarray, tower_outs: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Top-MLP input [bvec, dots], shape (B, ``top_in_features``)."""
        if len(tower_outs) != len(self.towers):
            raise ValueError(f"{len(tower_outs)} outputs, {len(self.towers)} towers")
        B, vd = dense.shape[0], self.vector_dim
        bottom_out = self.bottom(dense)
        bvec = self.bottom_proj(bottom_out) if self.bottom_proj else bottom_out
        # The interaction input, written in place: bvec, then the towers.
        stacked = np.empty((B, self.interaction.num_inputs, vd), bvec.dtype)
        stacked[:, 0] = bvec
        start = 1
        for out, t in zip(tower_outs, self.towers):
            stop = start + t.out_vectors
            stacked[:, start:stop] = out.reshape(B, t.out_vectors, vd)
            start = stop
        dots = self.interaction(stacked)
        return np.concatenate([bvec, dots], axis=1)

    def overarch_backward(
        self, grad_features: np.ndarray
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        vd = self.vector_dim
        g_bvec = grad_features[:, :vd]
        g_dots = grad_features[:, vd:]
        g_stacked = self.interaction.backward(g_dots)
        g_bvec = g_bvec + g_stacked[:, 0]
        B = g_stacked.shape[0]
        tower_grads, start = [], 1
        for t in self.towers:
            sl = g_stacked[:, start : start + t.out_vectors]
            tower_grads.append(sl.reshape(B, t.out_dim))
            start += t.out_vectors
        g_bottom = (
            self.bottom_proj.backward(g_bvec) if self.bottom_proj else g_bvec
        )
        return self.bottom.backward(g_bottom), tower_grads

    def dense_parameters(self) -> List:
        params = self.bottom.parameters() + self.top.parameters()
        if self.bottom_proj is not None:
            params += self.bottom_proj.parameters()
        return params

    def flops_per_sample(self) -> int:
        flops = (
            self.bottom.flops_per_sample()
            + self.interaction.flops_per_sample()
            + self.top.flops_per_sample()
            + self.tower_flops_per_sample()
        )
        if self.bottom_proj is not None:
            flops += self.bottom_proj.flops_per_sample()
        return flops


class DMTDCN(RecModel):
    """Multi-tower DCN with Listing 2 tower modules.

    The overarch CrossNet consumes the concatenation of the bottom
    vector and every tower's projected output; over pass-through towers
    it is flat DCN's CrossNet (which is this class over one such tower).

    ``overarch_cross_layers`` overrides ``arch.cross_layers`` for the
    global CrossNet: hierarchical interaction lets DMT trade tower-local
    cross layers against global ones (the mechanism behind Table 4's
    tower-count/flops interplay).
    """

    def __init__(
        self,
        num_dense: int,
        table_configs: Sequence[TableConfig],
        partition: FeaturePartition,
        arch: DenseArch,
        tower_dim: int = 128,
        tower_cross_layers: int = 1,
        pass_through: bool = False,
        overarch_cross_layers: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        rng = rng or np.random.default_rng(0)
        if arch.cross_layers <= 0:
            raise ValueError(
                f"{type(self).__name__} requires arch.cross_layers >= 1"
            )
        super().__init__(num_dense, table_configs, partition, arch, rng)
        N = arch.embedding_dim
        if pass_through:
            self.towers = [PassThroughTower(len(g), N) for g in partition.groups]
        else:
            self.towers = [
                DCNTowerModule(
                    len(g), N, tower_dim, cross_layers=tower_cross_layers, rng=rng
                )
                for g in partition.groups
            ]
        self.cross_dim = N + sum(t.out_dim for t in self.towers)
        n_cross = (
            overarch_cross_layers
            if overarch_cross_layers is not None
            else arch.cross_layers
        )
        self.cross = CrossNet(self.cross_dim, n_cross, rng=rng, name="cross")
        self.top_in_features = self.cross_dim
        self.top = MLP(
            [self.cross_dim, *arch.top_mlp, 1],
            rng=rng,
            final_activation=False,
            name="top",
        )

    def overarch_features(
        self, dense: np.ndarray, tower_outs: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Crossed features feeding the top MLP, (B, ``top_in_features``)."""
        x0 = np.concatenate([self.bottom(dense), *tower_outs], axis=1)
        return self.cross(x0)

    def overarch_backward(
        self, grad_features: np.ndarray
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        g_x0 = self.cross.backward(grad_features)
        N = self.embedding_dim
        tower_grads, start = [], N
        for t in self.towers:
            tower_grads.append(g_x0[:, start : start + t.out_dim])
            start += t.out_dim
        return self.bottom.backward(g_x0[:, :N]), tower_grads

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
            + self.tower_flops_per_sample()
        )
