"""Cluster topology: hosts, GPUs and links.

A :class:`Cluster` is the single source of truth for "who is fast to
whom": GPUs on the same host talk over NVLink (``scale_up``), GPUs on
different hosts over the RDMA fabric (``scale_out``).  The paper's
infrastructure guarantees full bisection bandwidth between hosts with no
oversubscription (§5.1), which we model as every cross-host byte paying
only the per-GPU NIC bandwidth plus a scale-dependent congestion factor
(see :mod:`repro.comm.cost_model`).

The module also owns the *rank layout* used throughout SPTT: global
rank ``g`` lives on host ``g // L`` with local index ``g % L`` where
``L`` is GPUs per host.  The tower and peer groups built on that layout
live in :mod:`repro.comm.process_group`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence

from repro.hardware.specs import GPUGeneration, GPUSpec, get_spec


class LinkType(enum.Enum):
    """Classification of the path between two GPUs."""

    LOCAL = "local"  # same GPU (no transfer)
    SCALE_UP = "scale_up"  # intra-host NVLink
    SCALE_OUT = "scale_out"  # cross-host RDMA


@dataclass(frozen=True)
class GPU:
    """One accelerator in the cluster."""

    global_rank: int
    host_id: int
    local_rank: int
    spec: GPUSpec

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GPU(rank={self.global_rank}, host={self.host_id}, "
            f"local={self.local_rank}, {self.spec.generation})"
        )


@dataclass(frozen=True)
class Host:
    """One server chassis holding ``len(gpus)`` GPUs joined by NVLink."""

    host_id: int
    gpus: "tuple[GPU, ...]"

    @property
    def ranks(self) -> "tuple[int, ...]":
        return tuple(g.global_rank for g in self.gpus)


@dataclass
class Cluster:
    """A homogeneous data-center training cluster.

    Parameters
    ----------
    num_hosts:
        Number of servers.
    gpus_per_host:
        ``L`` in the paper; 8 in every evaluation cluster.
    generation:
        GPU generation (decides compute, NVLink, NIC specs).

    Examples
    --------
    >>> c = Cluster(num_hosts=2, gpus_per_host=4, generation="A100")
    >>> c.world_size
    8
    >>> c.host_of(5)
    1
    >>> c.link_type(0, 1), c.link_type(0, 4)
    (<LinkType.SCALE_UP: 'scale_up'>, <LinkType.SCALE_OUT: 'scale_out'>)
    """

    num_hosts: int
    gpus_per_host: int
    generation: "GPUGeneration | str" = GPUGeneration.A100
    spec: GPUSpec = field(init=False)
    hosts: List[Host] = field(init=False)

    def __post_init__(self) -> None:
        if self.num_hosts < 1:
            raise ValueError(f"num_hosts must be >= 1, got {self.num_hosts}")
        if self.gpus_per_host < 1:
            raise ValueError(
                f"gpus_per_host must be >= 1, got {self.gpus_per_host}"
            )
        self.spec = get_spec(self.generation)
        self.generation = self.spec.generation
        self.hosts = [
            Host(
                host_id=h,
                gpus=tuple(
                    GPU(
                        global_rank=h * self.gpus_per_host + l,
                        host_id=h,
                        local_rank=l,
                        spec=self.spec,
                    )
                    for l in range(self.gpus_per_host)
                ),
            )
            for h in range(self.num_hosts)
        ]

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def world_size(self) -> int:
        """Total number of GPUs, ``G`` in the paper."""
        return self.num_hosts * self.gpus_per_host

    def __len__(self) -> int:
        return self.world_size

    def __iter__(self) -> Iterator[GPU]:
        for host in self.hosts:
            yield from host.gpus

    def gpu(self, global_rank: int) -> GPU:
        self._check_rank(global_rank)
        h, l = divmod(global_rank, self.gpus_per_host)
        return self.hosts[h].gpus[l]

    def host_of(self, global_rank: int) -> int:
        """Host id of a global rank (``g // L``)."""
        self._check_rank(global_rank)
        return global_rank // self.gpus_per_host

    def local_rank_of(self, global_rank: int) -> int:
        """Local index of a global rank within its host (``g % L``)."""
        self._check_rank(global_rank)
        return global_rank % self.gpus_per_host

    def ranks_on_host(self, host_id: int) -> "tuple[int, ...]":
        if not 0 <= host_id < self.num_hosts:
            raise IndexError(
                f"host {host_id} out of range for {self.num_hosts} hosts"
            )
        return self.hosts[host_id].ranks

    def same_host(self, rank_a: int, rank_b: int) -> bool:
        return self.host_of(rank_a) == self.host_of(rank_b)

    def link_type(self, rank_a: int, rank_b: int) -> LinkType:
        """Classify the path between two ranks."""
        if rank_a == rank_b:
            self._check_rank(rank_a)
            return LinkType.LOCAL
        return (
            LinkType.SCALE_UP if self.same_host(rank_a, rank_b) else LinkType.SCALE_OUT
        )

    def link_bandwidth(self, rank_a: int, rank_b: int) -> float:
        """Point-to-point bandwidth in bytes/s between two ranks."""
        link = self.link_type(rank_a, rank_b)
        if link is LinkType.LOCAL:
            return self.spec.hbm_bytes_per_s
        if link is LinkType.SCALE_UP:
            return self.spec.scale_up_bytes_per_s
        return self.spec.scale_out_bytes_per_s

    # ------------------------------------------------------------------
    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise IndexError(
                f"rank {rank} out of range for world size {self.world_size}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Cluster({self.num_hosts} hosts x {self.gpus_per_host} "
            f"{self.spec.generation}, world={self.world_size})"
        )
