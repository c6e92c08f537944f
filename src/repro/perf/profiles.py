"""Model profiles: the numbers the latency model consumes.

A :class:`ModelProfile` captures exactly what iteration latency depends
on: dense flops, tower flops, embedding geometry, parameter bytes, and
the tower-module compression ratio.  Open-source profiles are
**measured from the real module implementations** at paper scale
(dense arches are small even when tables are not — tables contribute
storage, not flops); the XLRM profile comes from the published facts
(§5.1: ~2T parameters, ~700 MFlops/sample).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from repro.core.dmt_pipeline import grad_wire_bytes
from repro.core.partition import FeaturePartition
from repro.models.configs import (
    CRITEO_NUM_DENSE,
    CRITEO_NUM_SPARSE,
    paper_dcn_arch,
    paper_dlrm_arch,
    tiny_table_configs,
)
from repro.models.dcn import DCN
from repro.models.dlrm import DLRM
from repro.models.dmt import DMTDCN, DMTDLRM
from repro.models.xlrm import xlrm_paper_config


@dataclass(frozen=True)
class ModelProfile:
    """Inputs to the iteration latency model.

    Attributes
    ----------
    name:
        Display label (appears in experiment tables).
    total_mflops:
        Forward dense-arch MFlops/sample including tower modules.
    tower_mflops:
        Tower-module share of ``total_mflops`` (0 for flat models).
    num_sparse / embedding_dim / pooling:
        Embedding exchange geometry.
    dense_param_bytes:
        Globally AllReduced parameter bytes (fp32).
    tower_param_bytes:
        Per-tower parameter bytes (intra-host AllReduce), summed over
        towers.
    compression_ratio:
        CR of the tower outputs crossing hosts (1 = uncompressed).
    num_towers:
        0 for flat models; otherwise must divide the cluster's host
        count when evaluated under DMT (towers of ``K = H/T`` hosts).
    """

    name: str
    total_mflops: float
    tower_mflops: float
    num_sparse: int
    embedding_dim: int
    pooling: int
    dense_param_bytes: int
    tower_param_bytes: int
    compression_ratio: float
    num_towers: int

    def __post_init__(self) -> None:
        if self.total_mflops <= 0 or self.tower_mflops < 0:
            raise ValueError("flops must be positive (tower share >= 0)")
        if self.tower_mflops > self.total_mflops:
            raise ValueError("tower flops cannot exceed total flops")
        if self.compression_ratio < 1.0:
            raise ValueError(
                f"compression ratio must be >= 1, got {self.compression_ratio}"
            )
        if min(self.num_sparse, self.embedding_dim, self.pooling) <= 0:
            raise ValueError("embedding geometry must be positive")

    @property
    def overarch_mflops(self) -> float:
        return self.total_mflops - self.tower_mflops

    @property
    def training_mflops(self) -> float:
        """Fwd+bwd MFlops/sample (3x forward) — Table 4's convention."""
        return 3.0 * self.total_mflops

    @property
    def is_dmt(self) -> bool:
        return self.num_towers > 0

    def emb_bytes_per_sample(self, itemsize: int = 4) -> int:
        """Per-sample embedding exchange payload (uncompressed)."""
        return self.num_sparse * self.embedding_dim * itemsize


def _measured(name: str, model, num_towers: int = 0) -> ModelProfile:
    """The profile of a measured model: flops and parameter bytes from
    its modules, the exchange geometry from its tables.  A flat model
    (``num_towers=0``) is its one pass-through tower: no tower flops,
    no tower parameters, CR 1."""
    # One pooling factor across the tables: a mixed set does not unpack.
    (pooling,) = {c.pooling for c in model.embeddings.configs}
    return ModelProfile(
        name=name,
        total_mflops=model.flops_per_sample() / 1e6,
        tower_mflops=model.tower_flops_per_sample() / 1e6,
        num_sparse=model.num_sparse,
        embedding_dim=model.embedding_dim,
        pooling=pooling,
        dense_param_bytes=grad_wire_bytes(model.dense_parameters()),
        tower_param_bytes=grad_wire_bytes(model.tower_parameters()),
        compression_ratio=model.compression_ratio(),
        num_towers=num_towers,
    )


@functools.lru_cache(maxsize=None)
def paper_dlrm_profile() -> ModelProfile:
    """Measured from the paper-scale DLRM dense arch (~14.3 MF vs the
    paper's 14.74; see `repro.models.configs.paper_dlrm_arch`)."""
    model = DLRM(
        CRITEO_NUM_DENSE,
        tiny_table_configs(CRITEO_NUM_SPARSE, num_embeddings=4, dim=128),
        paper_dlrm_arch(),
        rng=np.random.default_rng(0),
    )
    return _measured("DLRM", model)


@functools.lru_cache(maxsize=None)
def paper_dcn_profile() -> ModelProfile:
    """Measured from the paper-scale DCN dense arch (~95.9 MF vs 96.22)."""
    model = DCN(
        CRITEO_NUM_DENSE,
        tiny_table_configs(CRITEO_NUM_SPARSE, num_embeddings=4, dim=128),
        paper_dcn_arch(),
        rng=np.random.default_rng(0),
    )
    return _measured("DCN", model)


@functools.lru_cache(maxsize=None)
def dmt_dlrm_profile(
    num_towers: int,
    tower_dim: int = 64,
    c: int = 1,
    p: int = 0,
) -> ModelProfile:
    """Measured DMT-DLRM profile (§5.2.2 settings: c=1, p=0, D=64 for
    2-8/26 towers; p=1, c=0, D=128 for 16 towers).

    The overarch drops one 1024 hidden layer relative to flat DLRM —
    the reconstruction that reproduces Table 4's 8.95 MFlops (3x fwd:
    ours 8.93): "more towers ... can reduce parameters in the over
    arch" (§5.2.2).
    """
    model = DMTDLRM(
        CRITEO_NUM_DENSE,
        tiny_table_configs(CRITEO_NUM_SPARSE, num_embeddings=4, dim=128),
        FeaturePartition.contiguous(CRITEO_NUM_SPARSE, num_towers),
        paper_dlrm_arch(),
        tower_dim=tower_dim,
        c=c,
        p=p,
        top_mlp=(1024, 512, 256),
        rng=np.random.default_rng(0),
    )
    return _measured(f"DMT-{num_towers}T-DLRM", model, num_towers)


#: Reconstructed DMT-DCN configuration per tower count: (tower D,
#: overarch cross layers).  The paper states D=128 but its Table 4
#: flops column is only consistent with a narrower tower projection
#: and an overarch whose cross depth grows with tower count (fewer
#: towers -> deeper tower-local interaction substitutes for global
#: layers).  This mapping reproduces the column's shape — monotone
#: increasing toward the flat baseline, always below it: ours (3x fwd)
#: 57.9/60.3/67.2/80.6 vs paper 43.71/50.01/62.60/87.19.
DMT_DCN_SETTINGS = {2: (32, 1), 4: (64, 1), 8: (64, 2), 16: (64, 3)}


@functools.lru_cache(maxsize=None)
def dmt_dcn_profile(
    num_towers: int,
    tower_dim: "int | None" = None,
    tower_cross_layers: int = 1,
    overarch_cross_layers: "int | None" = None,
) -> ModelProfile:
    """Measured DMT-DCN profile (reconstructed settings, see
    :data:`DMT_DCN_SETTINGS`)."""
    default_dim, default_layers = DMT_DCN_SETTINGS.get(num_towers, (64, 2))
    if tower_dim is None:
        tower_dim = default_dim
    if overarch_cross_layers is None:
        overarch_cross_layers = default_layers
    model = DMTDCN(
        CRITEO_NUM_DENSE,
        tiny_table_configs(CRITEO_NUM_SPARSE, num_embeddings=4, dim=128),
        FeaturePartition.contiguous(CRITEO_NUM_SPARSE, num_towers),
        paper_dcn_arch(),
        tower_dim=tower_dim,
        tower_cross_layers=tower_cross_layers,
        overarch_cross_layers=overarch_cross_layers,
        rng=np.random.default_rng(0),
    )
    return _measured(f"DMT-{num_towers}T-DCN", model, num_towers)


def sptt_only_profile(base: ModelProfile, num_towers: int) -> ModelProfile:
    """SPTT without tower modules: pass-through towers, CR=1, no TM
    flops — the Figure 11 denominator and the 26T configurations."""
    return replace(
        base,
        name=f"SPTT-{num_towers}T-{base.name}",
        tower_mflops=0.0,
        tower_param_bytes=0,
        compression_ratio=1.0,
        num_towers=num_towers,
    )


def xlrm_profile() -> ModelProfile:
    """The §5.1 XLRM: ~2T params, ~700 MFlops/sample, heavy multi-hot."""
    cfg = xlrm_paper_config()
    return ModelProfile(
        name="XLRM",
        total_mflops=cfg.mflops_per_sample,
        tower_mflops=0.0,
        num_sparse=cfg.num_sparse_features,
        embedding_dim=cfg.embedding_dim,
        pooling=cfg.pooling,
        dense_param_bytes=cfg.dense_param_bytes,
        tower_param_bytes=0,
        compression_ratio=1.0,
        num_towers=0,
    )


def dmt_xlrm_profile(num_towers: int = 16) -> ModelProfile:
    """DMT-XLRM (§5.2.2): 16 towers, TM operators matching the main
    interaction type.  TM adds ~5% flops and compresses 2x — modest,
    because XLRM's interaction arch is already heavily engineered; the
    model stays compute-bound, which is why its speedup is smaller."""
    base = xlrm_profile()
    tm_share = 0.05 * base.total_mflops
    return replace(
        base,
        name=f"DMT-{num_towers}T-XLRM",
        total_mflops=base.total_mflops,  # TM offsets overarch savings
        tower_mflops=tm_share,
        tower_param_bytes=int(0.02 * base.dense_param_bytes),
        compression_ratio=2.0,
        num_towers=num_towers,
    )


# ----------------------------------------------------------------------
# Paradigm selection helpers (shared by repro.api and the experiments)
# ----------------------------------------------------------------------
def baseline_profile(kind: str) -> ModelProfile:
    """The hybrid-parallel Strong Baseline profile for a model kind."""
    if kind == "dlrm":
        return paper_dlrm_profile()
    if kind == "dcn":
        return paper_dcn_profile()
    raise ValueError(f"unknown model kind {kind!r}")


def dmt_profile_for_towers(kind: str, num_towers: int) -> ModelProfile:
    """The DMT profile matching a host count, per §5.2.2's settings.

    Tower counts beyond 26 (the Criteo feature count) column-shard
    features (§5.2.2 footnote); profile-wise the 26T configuration is
    reused with the tower count overridden.
    """
    if kind == "dlrm":
        if num_towers == 16:
            return dmt_dlrm_profile(16, tower_dim=128, c=0, p=1)
        if num_towers <= 26:
            return dmt_dlrm_profile(num_towers)
        return replace(
            dmt_dlrm_profile(26),
            num_towers=num_towers,
            name=f"DMT-{num_towers}T-DLRM",
        )
    if kind == "dcn":
        if num_towers <= 16:
            return dmt_dcn_profile(num_towers)
        if num_towers <= 26:
            return sptt_only_profile(paper_dcn_profile(), num_towers)
        return replace(
            dmt_dcn_profile(16),
            num_towers=num_towers,
            name=f"DMT-{num_towers}T-DCN",
        )
    raise ValueError(f"unknown model kind {kind!r}")
