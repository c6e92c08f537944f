"""Recommendation models: DLRM, DCN, their DMT multi-tower variants,
and the XLRM scaled configuration.

Model semantics live here, once: :mod:`repro.core` runs the same
methods over what its exchanges deliver (``*_with_embeddings`` for the
flat exchange, the DMT pair's ``overarch_features`` /
``overarch_backward`` for SPTT).  The DMT variants implement the
*model-side* of the technique (tower modules + hierarchical feature
interaction); equality between a pass-through DMT model and its flat
original is the Table 3 claim and is covered by tests.
"""

from repro.models.configs import (
    CRITEO_NUM_DENSE,
    CRITEO_NUM_SPARSE,
    criteo_table_configs,
    paper_dlrm_arch,
    paper_dcn_arch,
    tiny_table_configs,
)
from repro.models.dlrm import DLRM
from repro.models.dcn import DCN
from repro.models.tower_module import DCNTowerModule, DLRMTowerModule, PassThroughTower
from repro.models.dmt import DMTDCN, DMTDLRM
from repro.models.multitask import MultiTaskHead, MultiTaskModel
from repro.models.xlrm import XLRMConfig, xlrm_paper_config

__all__ = [
    "DLRM",
    "DCN",
    "DMTDLRM",
    "DMTDCN",
    "MultiTaskHead",
    "MultiTaskModel",
    "DLRMTowerModule",
    "DCNTowerModule",
    "PassThroughTower",
    "XLRMConfig",
    "xlrm_paper_config",
    "criteo_table_configs",
    "tiny_table_configs",
    "paper_dlrm_arch",
    "paper_dcn_arch",
    "CRITEO_NUM_DENSE",
    "CRITEO_NUM_SPARSE",
]
