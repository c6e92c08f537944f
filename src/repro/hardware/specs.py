"""GPU generation specifications (paper Table 1).

The paper's core systems argument is quantitative: between the V100
(2019) and H100 (2023) datacenter platforms, peak floating-point compute
grew ~60x while scale-out (NIC) bandwidth grew only 4x, so the embedding
exchange — which sends roughly a byte on the wire per byte of embedding
read — became the bottleneck.  These dataclasses encode exactly the
numbers in Table 1 plus the auxiliary quantities (HBM bandwidth,
achievable matmul utilization) the iteration-latency model needs.

Units
-----
- ``peak_tflops``: peak dense FP16/BF16-accumulate tensor throughput in
  TFLOP/s, as reported in Table 1 (e.g. 989 for H100).
- ``scale_out_gbps``: per-GPU NIC bandwidth in Gbit/s (RDMA).
- ``scale_up_gbs``: per-GPU unidirectional NVLink bandwidth in GByte/s.
- ``hbm_gbs``: HBM bandwidth in GByte/s (used by the embedding-lookup
  and data-shuffle cost terms).

The decimal-GB convention
-------------------------
Every capacity and bandwidth in this module is **decimal** (SI):
1 GB = 1 GByte = 1e9 bytes and 1 GB/s = 1e9 bytes/s, matching vendor
datasheets and the paper's Table 1 — *not* GiB (2**30).  All
GB→bytes conversions in the tree go through the :data:`GB` constant
below so the convention is auditable in one place; the hardware tests
assert the tier presets follow it.  Network bandwidths
quoted in Gbit/s divide by 8 *first*, then multiply by :data:`GB`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

#: Decimal gigabyte: the single authoritative GB→bytes factor.  See
#: "The decimal-GB convention" in the module docstring.
GB = 1e9


class GPUGeneration(enum.Enum):
    """The three hardware platforms evaluated in the paper (§5.1)."""

    V100 = "V100"
    A100 = "A100"
    H100 = "H100"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class GPUSpec:
    """Specification of one GPU generation as deployed in the paper's fleet.

    Attributes
    ----------
    generation:
        Which platform this spec describes.
    year:
        Deployment year per Table 1.
    peak_tflops:
        Peak floating-point throughput (TFLOP/s), Table 1 column
        "Peak FP Perf".
    scale_out_gbps:
        Per-GPU scale-out (NIC / RDMA) bandwidth, Gbit/s, Table 1.
    scale_up_gbs:
        Per-GPU unidirectional scale-up (NVLink) bandwidth, GByte/s,
        Table 1.
    hbm_gbs:
        HBM memory bandwidth, GByte/s (public datasheets: V100 900,
        A100 2039, H100 3350).
    matmul_utilization:
        Fraction of peak flops achievable on the dense part of a
        recommendation model.  Recommendation MLPs are small and
        memory-bound relative to transformer GEMMs, so this is low and
        *decreases* with newer generations (roofline shifts right);
        calibrated so the Figure 1 breakdown (70.4% compute on 64xH100
        DCN) and the Figure 10 V100-vs-H100 speedup ordering hold.
    """

    generation: GPUGeneration
    year: int
    peak_tflops: float
    scale_out_gbps: float
    scale_up_gbs: float
    hbm_gbs: float
    matmul_utilization: float
    #: HBM capacity in GByte (datasheets: V100 32, A100 80, H100 80).
    #: Bounds what a rank can host — embedding shards that exceed it
    #: are a misconfiguration the plan-time validator rejects.
    hbm_capacity_gb: float = 80.0

    @property
    def peak_flops(self) -> float:
        """Peak throughput in FLOP/s."""
        return self.peak_tflops * 1e12

    @property
    def effective_flops(self) -> float:
        """Achievable FLOP/s on recommendation dense arches."""
        return self.peak_flops * self.matmul_utilization

    @property
    def scale_out_gbs(self) -> float:
        """Scale-out bandwidth converted to GByte/s."""
        return self.scale_out_gbps / 8.0

    @property
    def scale_out_bytes_per_s(self) -> float:
        return self.scale_out_gbs * GB

    @property
    def scale_up_bytes_per_s(self) -> float:
        return self.scale_up_gbs * GB

    @property
    def hbm_bytes_per_s(self) -> float:
        return self.hbm_gbs * GB

    @property
    def hbm_capacity_bytes(self) -> float:
        """HBM capacity in bytes (shard-placement budget per rank)."""
        return self.hbm_capacity_gb * GB


#: Table 1 rows.  ``matmul_utilization`` is the one calibrated quantity
#: (see class docstring); everything else is transcribed from the paper
#: or the public datasheet.
V100 = GPUSpec(
    generation=GPUGeneration.V100,
    year=2019,
    peak_tflops=15.7,
    scale_out_gbps=100.0,
    scale_up_gbs=150.0,
    hbm_gbs=900.0,
    matmul_utilization=0.55,
    hbm_capacity_gb=32.0,
)

A100 = GPUSpec(
    generation=GPUGeneration.A100,
    year=2022,
    peak_tflops=156.0,
    scale_out_gbps=200.0,
    scale_up_gbs=300.0,
    hbm_gbs=2039.0,
    matmul_utilization=0.38,
)

H100 = GPUSpec(
    generation=GPUGeneration.H100,
    year=2023,
    peak_tflops=989.0,
    scale_out_gbps=400.0,
    scale_up_gbs=450.0,
    hbm_gbs=3350.0,
    matmul_utilization=0.22,
)

GENERATIONS = {
    GPUGeneration.V100: V100,
    GPUGeneration.A100: A100,
    GPUGeneration.H100: H100,
}


def get_spec(generation: "GPUGeneration | str") -> GPUSpec:
    """Look up a :class:`GPUSpec` by enum or case-insensitive name.

    >>> get_spec("h100").peak_tflops
    989.0
    """
    if isinstance(generation, GPUGeneration):
        return GENERATIONS[generation]
    try:
        return GENERATIONS[GPUGeneration(str(generation).upper())]
    except ValueError as exc:
        names = ", ".join(g.value for g in GPUGeneration)
        raise KeyError(
            f"unknown GPU generation {generation!r}; expected one of {names}"
        ) from exc


def compute_network_gap(old: GPUSpec, new: GPUSpec) -> "tuple[float, float]":
    """Return (compute growth, scale-out growth) between two generations.

    Reproduces the §1 claim: V100→H100 compute improved ~63x while
    scale-out bandwidth improved only 4x.

    >>> c, n = compute_network_gap(V100, H100)
    >>> round(c), round(n)
    (63, 4)
    """
    return new.peak_tflops / old.peak_tflops, new.scale_out_gbps / old.scale_out_gbps


# ---------------------------------------------------------------------------
# Memory tiers: the HBM / DRAM / SSD / remote-parameter-server spectrum.
# ---------------------------------------------------------------------------

#: Canonical tier order, fastest to slowest.  A tiered storage's chain
#: levels follow it (:class:`repro.serving.TieredStorage`); the remote
#: parameter-server tier is last because it sits across the scale-out
#: fabric, and it can only back the chain.
TIER_ORDER: Tuple[str, ...] = ("hbm", "dram", "ssd", "remote")


@dataclass(frozen=True)
class MemoryTierSpec:
    """One level of the embedding storage hierarchy.

    Capacities and bandwidths follow the decimal-GB convention (module
    docstring): ``capacity_gb`` and ``bandwidth_gbs`` convert to bytes
    via the :data:`GB` constant, never 2**30.

    Attributes
    ----------
    name:
        One of :data:`TIER_ORDER`.
    capacity_gb:
        Usable capacity of this tier *per host*, decimal GB.
    latency_s:
        Per-access latency in seconds charged once per batch that
        touches the tier (HBM's is folded into the existing
        lookup-bandwidth term, so its spec latency is 0).
    bandwidth_gbs:
        Sequential read bandwidth, decimal GB/s.
    dollars_per_gb:
        Capital cost of provisioned capacity, $/decimal-GB.
    local:
        True when the tier sits on the serving replica's side of the
        fabric (HBM/DRAM/SSD); False for the remote parameter server,
        whose accesses additionally cross the NIC.
    """

    name: str
    capacity_gb: float
    latency_s: float
    bandwidth_gbs: float
    dollars_per_gb: float
    local: bool = True

    def __post_init__(self) -> None:
        if self.name not in TIER_ORDER:
            raise ValueError(
                f"unknown memory tier {self.name!r}; expected one of {TIER_ORDER}"
            )
        if self.capacity_gb <= 0:
            raise ValueError(f"tier {self.name!r}: capacity_gb must be positive")
        if self.bandwidth_gbs <= 0:
            raise ValueError(f"tier {self.name!r}: bandwidth_gbs must be positive")
        if self.latency_s < 0:
            raise ValueError(f"tier {self.name!r}: latency_s must be >= 0")
        if self.dollars_per_gb < 0:
            raise ValueError(f"tier {self.name!r}: dollars_per_gb must be >= 0")

    @property
    def capacity_bytes(self) -> float:
        """Capacity in bytes (decimal-GB convention)."""
        return self.capacity_gb * GB

    @property
    def bytes_per_s(self) -> float:
        """Bandwidth in bytes/s (decimal-GB convention)."""
        return self.bandwidth_gbs * GB


def memory_tiers(generation: "GPUGeneration | str") -> Dict[str, MemoryTierSpec]:
    """Per-generation presets for the embedding storage hierarchy.

    HBM numbers come from :func:`get_spec`; DRAM/SSD/remote are
    representative datacenter figures (DDR4/DDR5 host memory, NVMe
    flash, and a DRAM-backed parameter-server tier reached over the
    generation's NIC).  $/GB figures are coarse 2023 street prices —
    they only need the right *ordering* (HBM >> DRAM > SSD) for the
    capacity-driven placement argument.  Going down the local tiers,
    latency and capacity never fall and bandwidth never rises; the
    remote tier is exempt, since its real cost is the NIC hop the
    serving plane prices separately.
    """
    spec = get_spec(generation)
    return {
        "hbm": MemoryTierSpec(
            name="hbm",
            capacity_gb=spec.hbm_capacity_gb,
            latency_s=0.0,
            bandwidth_gbs=spec.hbm_gbs,
            dollars_per_gb=25.0,
            local=True,
        ),
        "dram": MemoryTierSpec(
            name="dram",
            capacity_gb=2000.0,
            latency_s=2e-6,
            bandwidth_gbs=100.0,
            dollars_per_gb=4.0,
            local=True,
        ),
        "ssd": MemoryTierSpec(
            name="ssd",
            capacity_gb=16000.0,
            latency_s=100e-6,
            bandwidth_gbs=7.0,
            dollars_per_gb=0.10,
            local=True,
        ),
        "remote": MemoryTierSpec(
            name="remote",
            capacity_gb=8000.0,
            latency_s=50e-6,
            bandwidth_gbs=spec.scale_out_gbs,
            dollars_per_gb=4.0,
            local=False,
        ),
    }
