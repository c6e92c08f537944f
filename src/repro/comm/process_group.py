"""Process groups: the rank sets collectives run over.

Three group families matter in this paper:

- the **global group** (all ``G`` ranks) — the classic paradigm's
  AlltoAll/AllReduce world;
- **tower groups** (the ``K*L`` ranks of ``K`` consecutive hosts; one
  host when ``K = 1``) — SPTT step (d)'s collectives and tower-module
  gradient synchronization;
- **peer groups** (``T = H/K`` ranks, one per tower at the same
  position in it) — SPTT step (f)'s concurrent peer AlltoAlls.

This module is the only place tower and peer groups are built, and
:func:`tower_groups`, which the priced and the executed iteration both
call with the model's tower count, the only place K is decided.

A :class:`ProcessGroup` is topology-aware: it knows which of its edges
cross hosts, which is exactly what the cost model needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.hardware.topology import Cluster


@dataclass(frozen=True)
class ProcessGroup:
    """An ordered set of global ranks participating in collectives.

    The order defines each member's *group rank* (``group_rank(r)``),
    which functional collectives use for bucket indexing.
    """

    cluster: Cluster
    ranks: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.ranks) == 0:
            raise ValueError("process group must contain at least one rank")
        if len(set(self.ranks)) != len(self.ranks):
            raise ValueError(f"duplicate ranks in process group: {self.ranks}")
        for r in self.ranks:
            self.cluster._check_rank(r)

    @property
    def world_size(self) -> int:
        return len(self.ranks)

    def __len__(self) -> int:
        return self.world_size

    def __contains__(self, rank: int) -> bool:
        return rank in self.ranks

    def group_rank(self, global_rank: int) -> int:
        """Position of a global rank inside this group."""
        try:
            return self.ranks.index(global_rank)
        except ValueError as exc:
            raise KeyError(
                f"rank {global_rank} not in process group {self.ranks}"
            ) from exc

    # ------------------------------------------------------------------
    # Topology summaries consumed by the cost model
    # ------------------------------------------------------------------
    @property
    def hosts_spanned(self) -> int:
        """Number of distinct hosts containing at least one member."""
        return len({self.cluster.host_of(r) for r in self.ranks})

    @property
    def ranks_per_host(self) -> int:
        """Members per host; requires an even spread (raises otherwise)."""
        counts: dict = {}
        for r in self.ranks:
            h = self.cluster.host_of(r)
            counts[h] = counts.get(h, 0) + 1
        values = set(counts.values())
        if len(values) != 1:
            raise ValueError(
                f"process group is not host-balanced: per-host counts {counts}"
            )
        return values.pop()

    def cross_host_fraction(self) -> float:
        """Fraction of uniform all-pairs traffic that crosses hosts.

        For a host-balanced group with ``W`` members, ``m`` per host,
        each member exchanges with ``W-1`` others, of which ``W-m``
        are remote: fraction ``(W-m)/(W-1)``.
        """
        if self.world_size == 1:
            return 0.0
        m = self.ranks_per_host
        return (self.world_size - m) / (self.world_size - 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        head = ", ".join(map(str, self.ranks[:8]))
        tail = ", ..." if len(self.ranks) > 8 else ""
        return f"ProcessGroup([{head}{tail}], world={self.world_size})"


def global_group(cluster: Cluster) -> ProcessGroup:
    """All ranks in the cluster — the flat paradigm's world."""
    return ProcessGroup(cluster, tuple(range(cluster.world_size)))


def intra_host_groups(
    cluster: Cluster, hosts_per_tower: int = 1
) -> List[ProcessGroup]:
    """One group per tower of ``K = hosts_per_tower`` consecutive hosts,
    holding their local ranks in order (SPTT step d).

    >>> c = Cluster(num_hosts=4, gpus_per_host=2)
    >>> [g.ranks for g in intra_host_groups(c)]
    [(0, 1), (2, 3), (4, 5), (6, 7)]
    >>> [g.ranks for g in intra_host_groups(c, hosts_per_tower=2)]
    [(0, 1, 2, 3), (4, 5, 6, 7)]
    """
    k = hosts_per_tower
    if k < 1 or cluster.num_hosts % k != 0:
        raise ValueError(f"{cluster.num_hosts} hosts not divisible by K={k}")
    return [
        ProcessGroup(
            cluster,
            sum((cluster.ranks_on_host(h) for h in range(start, start + k)), ()),
        )
        for start in range(0, cluster.num_hosts, k)
    ]


def peer_groups(
    cluster: Cluster, hosts_per_tower: int = 1
) -> List[ProcessGroup]:
    """The ``K*L`` disjoint peer groups (SPTT step f).

    Group ``p`` holds the rank at position ``p`` of every tower, ordered
    by tower.  With one tower per host that is every rank with local
    index ``p``, ordered by host — the "peer order" key
    ``(g % L, g // L)`` restricted to one value of ``g % L``.  (The
    paper writes ``(g % T, g // L)``; its Figure 7 order and its peer
    definition ``g_i % L == g_j % L`` need ``g % L``.)

    >>> c = Cluster(num_hosts=2, gpus_per_host=2)  # the paper's example
    >>> [g.ranks for g in peer_groups(c)]
    [(0, 2), (1, 3)]
    """
    towers = intra_host_groups(cluster, hosts_per_tower)
    return [
        ProcessGroup(cluster, tuple(t.ranks[p] for t in towers))
        for p in range(towers[0].world_size)
    ]


def tower_groups(
    cluster: Cluster, num_towers: int
) -> Tuple[List[ProcessGroup], List[ProcessGroup]]:
    """Tower and peer groups of ``T`` towers: tower ``t`` spans the
    ``K = H/T`` hosts ``tK .. tK+K-1`` (§3.1.3; ``K = 1`` is one per host).

    >>> towers, peers = tower_groups(Cluster(num_hosts=4, gpus_per_host=2), 2)
    >>> [g.ranks for g in towers], [g.ranks for g in peers]
    ([(0, 1, 2, 3), (4, 5, 6, 7)], [(0, 4), (1, 5), (2, 6), (3, 7)])
    """
    hosts = cluster.num_hosts
    if num_towers < 1 or hosts % num_towers != 0:
        raise ValueError(f"{num_towers} towers do not divide {hosts} hosts")
    k = hosts // num_towers
    return intra_host_groups(cluster, k), peer_groups(cluster, k)
