"""Multi-seed experiment statistics (the paper's §5.2 protocol).

"To properly reflect run to run variance, we run each experiment at
least 9 times and report the 1-epoch median evaluation AUC along with
its standard deviation" — and Table 6 derives significance with the
Mann-Whitney U test over the 9 repeats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np


@dataclass
class SeedSweepResult:
    """Median/std summary of one metric across repeated seeded runs."""

    values: np.ndarray

    @property
    def median(self) -> float:
        return float(np.median(self.values))

    @property
    def std(self) -> float:
        return float(np.std(self.values, ddof=1)) if len(self.values) > 1 else 0.0

    @property
    def n(self) -> int:
        return len(self.values)


def run_seed_sweep(
    run: Callable[[int], float],
    seeds: Iterable[int],
) -> SeedSweepResult:
    """Execute ``run(seed)`` per seed and summarize.

    >>> res = run_seed_sweep(lambda s: float(s % 3), seeds=range(9))
    >>> res.n, res.median
    (9, 1.0)
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    return SeedSweepResult(np.array([float(run(s)) for s in seeds]))


def mann_whitney_u(
    treatment: Sequence[float], control: Sequence[float]
) -> float:
    """p-value that ``treatment`` stochastically dominates ``control``.

    Matches the paper's Table 6 usage: with p low enough, "we reject
    the null hypothesis that two experiments using TP and naive
    assignments have equal chance of yielding better AUC".
    """
    from scipy import stats as scipy_stats

    treatment = np.asarray(list(treatment), dtype=np.float64)
    control = np.asarray(list(control), dtype=np.float64)
    if len(treatment) < 2 or len(control) < 2:
        raise ValueError("need at least two observations per group")
    result = scipy_stats.mannwhitneyu(
        treatment, control, alternative="greater"
    )
    return float(result.pvalue)
