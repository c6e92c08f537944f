"""Constrained K-Means (Bradley, Bennett & Demiriz 2000).

Classic K-Means can produce wildly unbalanced (even empty) clusters;
the constrained variant solves the assignment step as a min-cost
transportation problem with per-cluster size bounds.  For the tower
use case the bound is a *cap*: no group may exceed ``R`` times the
minimum tower size (the paper runs R=1, i.e. groups within one unit of
perfectly balanced).

At our scale (|F| up to a few hundred features) the transportation
problem is solved exactly by expanding each cluster into ``cap`` slots
and running the Hungarian algorithm (`scipy.optimize.linear_sum_assignment`)
on the (points x slots) squared-distance matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass
class ConstrainedKMeans:
    """Balanced K-Means via min-cost assignment.

    Parameters
    ----------
    n_clusters:
        Number of groups (towers).
    balance_ratio:
        ``R``: maximum allowed group size is
        ``ceil(R * ceil(F / n_clusters))``.  R=1 (the paper's setting)
        forces near-perfect balance.
    max_iter, tol:
        Lloyd-style outer loop controls.
    """

    n_clusters: int
    balance_ratio: float = 1.0
    max_iter: int = 50
    tol: float = 1e-7
    labels_: Optional[np.ndarray] = field(default=None, init=False)
    centers_: Optional[np.ndarray] = field(default=None, init=False)
    inertia_: float = field(default=np.inf, init=False)
    n_iter_: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.n_clusters <= 0:
            raise ValueError(f"n_clusters must be positive, got {self.n_clusters}")
        if self.balance_ratio < 1.0:
            raise ValueError(
                f"balance_ratio must be >= 1, got {self.balance_ratio}"
            )

    # ------------------------------------------------------------------
    def _cap(self, n_points: int) -> int:
        base = math.ceil(n_points / self.n_clusters)
        return max(1, math.ceil(self.balance_ratio * base))

    def _assign(self, x: np.ndarray, centers: np.ndarray, cap: int) -> np.ndarray:
        """Min-cost capacity-constrained assignment via slot expansion."""
        from scipy.optimize import linear_sum_assignment

        n = x.shape[0]
        # Squared distances (n_points, n_clusters).
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        # Expand each cluster into `cap` slots.
        cost = np.repeat(d2, cap, axis=1)
        rows, cols = linear_sum_assignment(cost)
        labels = np.empty(n, dtype=np.int64)
        labels[rows] = cols // cap
        return labels

    def _init_centers(
        self, x: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """k-means++-style spread initialization; returns point indices.

        Points coincident with an already-chosen center carry zero
        selection weight, and when *every* remaining point is coincident
        (duplicate-heavy inputs) the fallback draws only from indices
        not yet chosen — so the same point can never be selected twice
        and seed two identical centers.
        """
        n = x.shape[0]
        chosen = [int(rng.choice(n))]
        while len(chosen) < self.n_clusters:
            d2 = ((x[:, None, :] - x[chosen][None, :, :]) ** 2).sum(-1).min(axis=1)
            total = d2.sum()
            if total > 0:
                idx = int(rng.choice(n, p=d2 / total))
            else:
                # Every point coincides with a chosen center; pick an
                # unused index so no point seeds two centers.
                unused = np.setdiff1d(np.arange(n), chosen)
                idx = int(rng.choice(unused))
            chosen.append(idx)
        return np.asarray(chosen)

    def fit(self, x: np.ndarray, rng: Optional[np.random.Generator] = None):
        """Cluster points; returns self (sklearn-style)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"points must be (n, dim), got {x.shape}")
        n = x.shape[0]
        if n < self.n_clusters:
            raise ValueError(
                f"cannot form {self.n_clusters} non-empty clusters from "
                f"{n} points"
            )
        rng = rng or np.random.default_rng(0)
        cap = self._cap(n)

        centers = x[self._init_centers(x, rng)].copy()
        labels = self._assign(x, centers, cap)
        prev_inertia = np.inf
        for it in range(self.max_iter):
            # Update step: centroids of current groups.
            for k in range(self.n_clusters):
                members = x[labels == k]
                if len(members):
                    centers[k] = members.mean(axis=0)
            labels = self._assign(x, centers, cap)
            inertia = float(
                ((x - centers[labels]) ** 2).sum()
            )
            self.n_iter_ = it + 1
            if prev_inertia - inertia < self.tol:
                prev_inertia = inertia
                break
            prev_inertia = inertia
        self.labels_ = labels
        self.centers_ = centers
        self.inertia_ = prev_inertia
        return self

    def fit_predict(
        self, x: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        return self.fit(x, rng=rng).labels_

    # ------------------------------------------------------------------
    def group_sizes(self) -> np.ndarray:
        if self.labels_ is None:
            raise RuntimeError("fit has not been called")
        return np.bincount(self.labels_, minlength=self.n_clusters)
