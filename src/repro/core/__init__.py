"""The paper's primary contribution: SPTT and the tower pipelines.

- :mod:`repro.core.partition` — feature-to-tower assignments.
- :mod:`repro.core.flat_pipeline` — the classic global-AlltoAll
  embedding exchange (Figure 4), the baseline SPTT is measured against.
- :mod:`repro.core.sptt` — the Semantic-Preserving Tower Transform
  (Figure 7, steps a-f), for towers of any ``K`` hosts.
- :mod:`repro.core.dmt_pipeline` — distributed DMT training step
  (SPTT + tower modules + hybrid-parallel dense sync).
"""

from repro.core.partition import FeaturePartition
from repro.core.flat_pipeline import FlatEmbeddingExchange
from repro.core.sptt import SPTTEmbeddingExchange
from repro.core.dmt_pipeline import DistributedDMTTrainer, DistributedHybridTrainer

__all__ = [
    "FeaturePartition",
    "FlatEmbeddingExchange",
    "SPTTEmbeddingExchange",
    "DistributedDMTTrainer",
    "DistributedHybridTrainer",
]
