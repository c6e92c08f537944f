"""Feature-to-tower partitions.

A :class:`FeaturePartition` is the contract between the tower
partitioner (which produces one), the DMT models (which build one tower
module per group), and the SPTT pipeline (which assigns each group's
embedding tables to one tower group).  Groups are ordered: group ``t``
is tower ``t`` and lives on hosts ``tK .. tK+K-1``, where ``K = H/T``
(§3.1.3; ``K = 1`` is one tower per host).  The price and the executed
step take those groups from :func:`repro.comm.tower_groups`, and
:func:`feature_owners` places every table on its owner rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.comm.process_group import tower_groups
from repro.hardware.topology import Cluster


@dataclass(frozen=True)
class FeaturePartition:
    """An ordered partition of feature indices into towers.

    Parameters
    ----------
    groups:
        ``groups[t]`` lists the feature indices of tower ``t``.  Every
        feature index in ``range(num_features)`` must appear exactly
        once across groups, and every group must be non-empty.

    Examples
    --------
    >>> p = FeaturePartition.strided(num_features=8, num_towers=4)
    >>> p.groups
    ((0, 4), (1, 5), (2, 6), (3, 7))
    >>> p.group_of(5)
    1
    """

    groups: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("partition needs at least one group")
        flat: List[int] = []
        for g in self.groups:
            if len(g) == 0:
                raise ValueError(f"empty tower group in partition: {self.groups}")
            flat.extend(g)
        n = len(flat)
        if sorted(flat) != list(range(n)):
            raise ValueError(
                "groups must cover each feature index exactly once; got "
                f"{self.groups}"
            )

    @classmethod
    def from_groups(cls, groups: Sequence[Sequence[int]]) -> "FeaturePartition":
        return cls(tuple(tuple(int(i) for i in g) for g in groups))

    @classmethod
    def single_tower(cls, num_features: int) -> "FeaturePartition":
        """The flat models' partition: one tower spanning every feature.

        ``DLRM`` / ``DCN`` are ``DMTDLRM`` / ``DMTDCN`` over it with a
        pass-through tower.
        """
        return cls.from_groups([list(range(num_features))])

    @classmethod
    def pass_through(cls, num_features: int) -> "FeaturePartition":
        """One tower per feature — Table 3's SPTT-neutrality setup."""
        return cls.from_groups([[f] for f in range(num_features)])

    @classmethod
    def strided(cls, num_features: int, num_towers: int) -> "FeaturePartition":
        """The naive baseline of Table 6: sequential assignment with a
        stride equal to the number of towers.

        For 26 features and 8 towers this reproduces the paper's
        example: [[0, 8, 16, 24], [1, 9, 17, 25], [2, 10, 18], ...].
        """
        if not 1 <= num_towers <= num_features:
            raise ValueError(
                f"num_towers must be in [1, {num_features}], got {num_towers}"
            )
        groups = [
            list(range(t, num_features, num_towers)) for t in range(num_towers)
        ]
        return cls.from_groups(groups)

    @classmethod
    def contiguous(cls, num_features: int, num_towers: int) -> "FeaturePartition":
        """Contiguous blocks of near-equal size (block-structure oracle)."""
        if not 1 <= num_towers <= num_features:
            raise ValueError(
                f"num_towers must be in [1, {num_features}], got {num_towers}"
            )
        base, extra = divmod(num_features, num_towers)
        groups, start = [], 0
        for t in range(num_towers):
            size = base + (1 if t < extra else 0)
            groups.append(list(range(start, start + size)))
            start += size
        return cls.from_groups(groups)

    # ------------------------------------------------------------------
    @property
    def num_towers(self) -> int:
        return len(self.groups)

    @property
    def num_features(self) -> int:
        return sum(len(g) for g in self.groups)

    def group_of(self, feature: int) -> int:
        for t, g in enumerate(self.groups):
            if feature in g:
                return t
        raise KeyError(f"feature {feature} not in partition")

    def sizes(self) -> Tuple[int, ...]:
        return tuple(len(g) for g in self.groups)

    def balance_ratio(self) -> float:
        """max group size / min group size (1.0 = perfectly balanced)."""
        sizes = self.sizes()
        return max(sizes) / min(sizes)

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return iter(self.groups)

    def __len__(self) -> int:
        return self.num_towers


def flat_owners(world_size: int, num_features: int) -> Dict[int, List[int]]:
    """Owner rank -> its features under the flat placement: feature
    ``f`` on rank ``f % G``.

    >>> flat_owners(4, 6)
    {0: [0, 4], 1: [1, 5], 2: [2], 3: [3]}
    """
    owners: Dict[int, List[int]] = {r: [] for r in range(world_size)}
    for f in range(num_features):
        owners[f % world_size].append(f)
    return owners


def feature_owners(
    cluster: Cluster,
    num_features: int,
    partition: Optional[FeaturePartition] = None,
) -> Dict[int, List[int]]:
    """Owner rank -> the features whose tables it holds, in lookup order.

    The one table placement both exchanges execute: :func:`flat_owners`
    without a partition (flat, which :meth:`AutoPlanner.plan
    <repro.planner.AutoPlanner.plan>` also returns); with one, tower
    ``t``'s features round-robin over ``tower_groups(cluster, T)[t]``
    (SPTT).

    >>> part = FeaturePartition.contiguous(6, 2)
    >>> feature_owners(Cluster(num_hosts=2, gpus_per_host=2), 6, part)
    {0: [0, 2], 1: [1], 2: [3, 5], 3: [4]}
    """
    if partition is None:
        return flat_owners(cluster.world_size, num_features)
    if partition.num_features != num_features:
        raise ValueError(
            f"partition covers {partition.num_features} features, "
            f"expected {num_features}"
        )
    owners: Dict[int, List[int]] = {r: [] for r in range(cluster.world_size)}
    towers, _ = tower_groups(cluster, partition.num_towers)
    for group, tower in zip(partition.groups, towers):
        for i, f in enumerate(group):
            owners[tower.ranks[i % tower.world_size]].append(f)
    return owners
