"""Model and table configuration factories.

Two scales coexist:

- **paper scale** — the 26-feature Criteo setup with ~178M total rows
  at N=128 (~22.78G embedding parameters ≈ 90GB fp32, §5.1) and dense
  arch sizes chosen so the measured forward MFlops/sample approximate
  Table 4's baseline columns (DLRM ~14.7, DCN ~96.2).  Paper-scale
  *dense* modules are cheap to instantiate (the flops live in small
  matrices); paper-scale *tables* are only ever described by their
  configs — the perf model consumes row counts, not arrays.
- **tiny scale** — fully trainable shrunken versions for the quality
  experiments (Tables 3-6) and unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.nn.embedding import TableConfig

#: Criteo click-logs schema: 13 continuous + 26 categorical features.
CRITEO_NUM_DENSE = 13
CRITEO_NUM_SPARSE = 26

#: Synthetic per-table cardinalities for the paper-scale Criteo setup.
#: Heavy-tailed like the real dataset (a few 40M-row hashed tables plus
#: many small ones); total = 178.05M rows -> 22.79G params at N=128.
_PAPER_CARDINALITIES: List[int] = [
    40_000_000,
    40_000_000,
    40_000_000,
    25_000_000,
    10_000_000,
    5_000_000,
    5_000_000,
    3_000_000,
    2_000_000,
    2_000_000,
    1_000_000,
    1_000_000,
    1_000_000,
    1_000_000,
    1_000_000,
    1_000_000,
    100_000,
    100_000,
    100_000,
    100_000,
    100_000,
    10_000,
    10_000,
    10_000,
    10_000,
    10_000,
]
assert len(_PAPER_CARDINALITIES) == CRITEO_NUM_SPARSE


def criteo_table_configs(dim: int = 128) -> List[TableConfig]:
    """Paper-scale Criteo table configs (do not instantiate as arrays)."""
    return [
        TableConfig(f"sparse_{i}", rows, dim)
        for i, rows in enumerate(_PAPER_CARDINALITIES)
    ]


def tiny_table_configs(
    num_features: int = CRITEO_NUM_SPARSE,
    num_embeddings: int = 64,
    dim: int = 16,
    pooling: int = 1,
) -> List[TableConfig]:
    """Trainable shrunken tables for quality experiments and tests."""
    return [
        TableConfig(f"sparse_{i}", num_embeddings, dim, pooling=pooling)
        for i in range(num_features)
    ]


@dataclass(frozen=True)
class DenseArch:
    """MLP / interaction sizing for one model family."""

    embedding_dim: int
    bottom_mlp: "tuple[int, ...]"  # hidden sizes, input prepended, N appended
    top_mlp: "tuple[int, ...]"  # hidden sizes, logit layer appended
    cross_layers: int = 0  # DCN only


def paper_dlrm_arch() -> DenseArch:
    """DLRM sizing: the open-source reference arch (bottom [512, 256,
    128], top [1024, 1024, 512, 256, 1]) -> 4.86 forward MFlops/sample.

    Table 4's MFlops column matches 3x this forward count (the
    fwd+bwd-inclusive profiler convention): 3 * 4.86 = 14.6 vs the
    paper's 14.74 — which is how the arch was pinned down.
    """
    return DenseArch(
        embedding_dim=128,
        bottom_mlp=(512, 256),
        top_mlp=(1024, 1024, 512, 256),
    )


def paper_dcn_arch() -> DenseArch:
    """DCN sizing: one full-rank cross layer on the flattened (F+1)*N
    vector plus a deep net -> 32.6 forward MFlops/sample; 3x = 97.9 vs
    the paper's 96.22 under the same fwd+bwd convention."""
    return DenseArch(
        embedding_dim=128,
        bottom_mlp=(512, 256),
        top_mlp=(1024, 512, 256),
        cross_layers=1,
    )


def tiny_dlrm_arch(dim: int = 16) -> DenseArch:
    return DenseArch(embedding_dim=dim, bottom_mlp=(32,), top_mlp=(64, 32))
