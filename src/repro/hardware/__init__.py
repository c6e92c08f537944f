"""Data-center hardware model: GPU generations, hosts, and cluster topology.

This package encodes the hardware context of the paper's Table 1 (the
compute-vs-network generational gap) and provides the :class:`Cluster`
abstraction that every other subsystem (collective cost model, sharding
planner, iteration latency model, SPTT peer math) builds on.
"""

from repro.hardware.specs import (
    GB,
    GPUGeneration,
    GPUSpec,
    A100,
    H100,
    V100,
    GENERATIONS,
    MemoryTierSpec,
    TIER_ORDER,
    get_spec,
    compute_network_gap,
    memory_tiers,
)
from repro.hardware.topology import Cluster, Host, GPU, LinkType

__all__ = [
    "GB",
    "GPUGeneration",
    "GPUSpec",
    "V100",
    "A100",
    "H100",
    "GENERATIONS",
    "MemoryTierSpec",
    "TIER_ORDER",
    "get_spec",
    "compute_network_gap",
    "memory_tiers",
    "Cluster",
    "Host",
    "GPU",
    "LinkType",
]
