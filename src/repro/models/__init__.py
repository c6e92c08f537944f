"""Recommendation models: DLRM, DCN, their DMT multi-tower variants,
and the XLRM scaled configuration.

Model semantics live here, once.  Every model is a DMT model: the flat
DLRM and DCN *are* the one-tower pass-through configuration of
:class:`DMTDLRM` / :class:`DMTDCN` (Table 3's SPTT-neutrality as a
construction, not a test), so the four classes share one forward and
one backward around one single-process seam, ``features`` /
``features_backward`` (:class:`~repro.models.base.RecModel`), and each
family states its overarch once.  :mod:`repro.core` feeds the tower-output
seam, ``overarch_features`` / ``overarch_backward``, what its exchanges
deliver (through the flat model's one pass-through tower for the flat
exchange, through each tower once over its group's rows for SPTT).  With projecting tower modules the DMT variants implement the
*model side* of the technique (tower modules + hierarchical feature
interaction).
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
