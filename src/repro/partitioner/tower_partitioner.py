"""TowerPartitioner: the end-to-end learned partitioner (§3.3).

``interaction matrix -> distance matrix -> MDS embedding -> constrained
K-Means -> FeaturePartition``, with the two distance strategies the
paper evaluates:

- ``coherent`` (f(I) = 1 - I): similar features land close together and
  are grouped into the *same* tower, maximizing within-tower
  interaction mass (Figure 9 uses this strategy);
- ``diverse`` (f(I) = I): similar features are pushed apart, so each
  tower receives a varied slice of the feature space.

"We believe the better choice can vary by model and dataset, and we
simply try both to find the optimal setting."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.partition import FeaturePartition
from repro.partitioner.constrained_kmeans import ConstrainedKMeans
from repro.partitioner.interaction_probe import interaction_from_activations
from repro.partitioner.mds import MDSResult, mds_embed


class PartitionStrategy(enum.Enum):
    """Distance-matrix construction choices (§3.3)."""

    COHERENT = "coherent"  # f(I) = 1 - I: similar features together
    DIVERSE = "diverse"  # f(I) = I: similar features apart

    def to_distance(self, interaction: np.ndarray) -> np.ndarray:
        if self is PartitionStrategy.COHERENT:
            dist = 1.0 - interaction
        else:
            dist = interaction.copy()
        np.fill_diagonal(dist, 0.0)
        return dist


@dataclass
class TPResult:
    """Everything the partitioner produced, for inspection and Figure 9."""

    partition: FeaturePartition
    interaction: np.ndarray  # (F, F)
    distances: np.ndarray  # (F, F)
    embedding: MDSResult  # learned coordinates
    strategy: PartitionStrategy
    within_group_interaction: float  # mean I(i, j) over same-group pairs

    @property
    def coordinates(self) -> np.ndarray:
        return self.embedding.coordinates


class TowerPartitioner:
    """Learned, balanced, meaningful feature partitioner.

    Parameters
    ----------
    num_towers:
        Target group count (the data-center topology's host count).
    strategy:
        ``coherent`` or ``diverse`` distance construction.
    balance_ratio:
        Constrained K-Means cap factor ``R`` (paper: 1).
    mds_iterations:
        Stress-minimization budget.  MDS embeds into the paper's 2D
        plane with :func:`~repro.partitioner.mds.mds_embed`'s Adam
        step size.
    normalize_interaction:
        Min-max rescale the off-diagonal interaction values before the
        distance conversion.  §3.3 requires only *relative* distances
        be preserved; on lightly-trained probes the raw values bunch
        near zero, which would leave the MDS embedding noise-dominated.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> # two planted blocks of clearly-interacting features
    >>> I = np.full((6, 6), 0.05); I[:3, :3] = 0.9; I[3:, 3:] = 0.9
    >>> np.fill_diagonal(I, 1.0)
    >>> tp = TowerPartitioner(num_towers=2)
    >>> result = tp.partition_from_interaction(I, rng=rng)
    >>> sorted(tuple(sorted(g)) for g in result.partition.groups)
    [(0, 1, 2), (3, 4, 5)]
    """

    def __init__(
        self,
        num_towers: int,
        strategy: "PartitionStrategy | str" = PartitionStrategy.COHERENT,
        balance_ratio: float = 1.0,
        mds_iterations: int = 500,
        normalize_interaction: bool = True,
    ):
        if num_towers <= 0:
            raise ValueError(f"num_towers must be positive, got {num_towers}")
        self.num_towers = num_towers
        self.strategy = (
            strategy
            if isinstance(strategy, PartitionStrategy)
            else PartitionStrategy(str(strategy).lower())
        )
        self.balance_ratio = balance_ratio
        self.mds_iterations = mds_iterations
        self.normalize_interaction = normalize_interaction

    @staticmethod
    def _normalize_offdiag(interaction: np.ndarray) -> np.ndarray:
        mask = ~np.eye(len(interaction), dtype=bool)
        off = interaction[mask]
        lo, hi = off.min(), off.max()
        if hi - lo < 1e-12:
            return interaction
        out = (interaction - lo) / (hi - lo)
        np.fill_diagonal(out, 1.0)
        return np.clip(out, 0.0, 1.0)

    # ------------------------------------------------------------------
    def partition_from_interaction(
        self,
        interaction: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> TPResult:
        """Run distance -> MDS -> constrained K-Means on a given I."""
        rng = rng or np.random.default_rng(0)
        I = np.asarray(interaction, dtype=np.float64)
        if I.ndim != 2 or I.shape[0] != I.shape[1]:
            raise ValueError(f"interaction matrix must be square, got {I.shape}")
        if I.shape[0] < self.num_towers:
            raise ValueError(
                f"cannot split {I.shape[0]} features into {self.num_towers} towers"
            )
        if np.any(I < 0) or np.any(I > 1 + 1e-9):
            raise ValueError("interaction values must lie in [0, 1]")
        scaled = self._normalize_offdiag(I) if self.normalize_interaction else I
        distances = self.strategy.to_distance(scaled)
        embedding = mds_embed(distances, iterations=self.mds_iterations, rng=rng)
        km = ConstrainedKMeans(
            n_clusters=self.num_towers, balance_ratio=self.balance_ratio
        )
        labels = km.fit_predict(embedding.coordinates, rng=rng)
        groups = [
            [int(f) for f in np.flatnonzero(labels == t)]
            for t in range(self.num_towers)
        ]
        # Constrained K-Means caps group sizes but sets no lower bound,
        # so a cluster can come out empty even at R=1 (whenever the
        # T * cap - F spare slots reach cap); backfill from the largest.
        for t, g in enumerate(groups):
            while not g:
                donor = max(range(len(groups)), key=lambda k: len(groups[k]))
                groups[t] = [groups[donor].pop()]
                g = groups[t]
        partition = FeaturePartition.from_groups(groups)
        return TPResult(
            partition=partition,
            interaction=I,
            distances=distances,
            embedding=embedding,
            strategy=self.strategy,
            within_group_interaction=self.within_group_score(I, partition),
        )

    def partition_from_activations(
        self,
        activations: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> TPResult:
        """Full TP from raw embedding activations (B, F, N)."""
        return self.partition_from_interaction(
            interaction_from_activations(activations), rng=rng
        )

    # ------------------------------------------------------------------
    @staticmethod
    def within_group_score(
        interaction: np.ndarray, partition: FeaturePartition
    ) -> float:
        """Mean interaction over same-tower feature pairs.

        The quantity the coherent strategy maximizes; used to compare
        TP against the naive strided baseline.
        """
        I = np.asarray(interaction)
        total, count = 0.0, 0
        for group in partition.groups:
            g = list(group)
            for a in range(len(g)):
                for b in range(a + 1, len(g)):
                    total += float(I[g[a], g[b]])
                    count += 1
        return total / count if count else 0.0
