"""Training loops, evaluation metrics, and statistical machinery.

Everything the paper's quality tables need: AUC (Tables 2-6),
normalized entropy (XLRM §5.2.2), multi-seed medians with standard
deviations, and the Mann-Whitney U significance test (Table 6).
"""

from repro.training.metrics import auc, calibration, log_loss, normalized_entropy
from repro.training.loop import (
    EvalResult,
    MultiTaskEvalResult,
    Trainer,
    TrainConfig,
)
from repro.training.stats import (
    SeedSweepResult,
    mann_whitney_u,
    run_seed_sweep,
)

__all__ = [
    "auc",
    "calibration",
    "log_loss",
    "normalized_entropy",
    "Trainer",
    "TrainConfig",
    "EvalResult",
    "MultiTaskEvalResult",
    "mann_whitney_u",
    "run_seed_sweep",
    "SeedSweepResult",
]
