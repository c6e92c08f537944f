"""Per-iteration latency breakdowns for hybrid-parallel and DMT training.

This is the engine behind Figures 1, 10, 11, 12, and 13.  The
components mirror the paper's buckets:

- **compute**: embedding lookup (HBM-bound), dense forward+backward
  (~3x forward flops), tower modules, and the SPTT data shuffles;
- **exposed embedding communication**: the AlltoAll family, discounted
  by the paradigm's overlap fraction;
- **exposed dense synchronization**: gradient AllReduce(s), discounted
  by backward-overlap;
- **others**: fixed per-iteration host overhead.

:meth:`IterationLatencyModel.dmt` is the one DMT price, with no
switches.  Of the paper's four §3.1.3 specializations of the base
transform it prices K-host towers, which follow from the profile's
tower count; the executed step implements none of the other three (a
ReduceScatter for multi-hot step (d), swapping steps (b)/(c), virtual
peer order), so neither does the price.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.comm.cost_model import CollectiveCostModel
from repro.comm.process_group import global_group, tower_groups
from repro.hardware.topology import Cluster
from repro.perf.paradigms import PerfCalibration, default_perf_calibration
from repro.perf.profiles import ModelProfile


@dataclass(frozen=True)
class IterationBreakdown:
    """One modeled training iteration, per GPU (seconds)."""

    name: str
    compute_s: float
    exposed_emb_s: float
    exposed_dense_s: float
    other_s: float
    emb_comm_total_s: float  # pre-overlap, for analysis
    dense_sync_total_s: float

    @property
    def total_s(self) -> float:
        return (
            self.compute_s
            + self.exposed_emb_s
            + self.exposed_dense_s
            + self.other_s
        )

    def percentages(self) -> Dict[str, float]:
        """The Figure 1 shares."""
        t = self.total_s
        return {
            "compute": 100.0 * self.compute_s / t,
            "exposed_emb_comm": 100.0 * self.exposed_emb_s / t,
            "exposed_dense_sync": 100.0 * self.exposed_dense_s / t,
            "others": 100.0 * self.other_s / t,
        }

    def speedup_over(self, other: "IterationBreakdown") -> float:
        """other.total / self.total (how much faster self is)."""
        return other.total_s / self.total_s

    def format_row(self) -> str:
        return (
            f"{self.name:<22} compute={self.compute_s * 1e3:7.2f}ms "
            f"emb={self.exposed_emb_s * 1e3:6.2f}ms "
            f"dense={self.exposed_dense_s * 1e3:5.2f}ms "
            f"other={self.other_s * 1e3:5.2f}ms "
            f"total={self.total_s * 1e3:7.2f}ms"
        )


class IterationLatencyModel:
    """Prices one training iteration under each paradigm.

    Examples
    --------
    >>> from repro.hardware import Cluster
    >>> from repro.perf.profiles import paper_dcn_profile
    >>> model = IterationLatencyModel()
    >>> bd = model.hybrid(paper_dcn_profile(),
    ...                   Cluster(8, 8, "H100"), local_batch=16384)
    >>> 0.55 < bd.percentages()["compute"] / 100 < 0.85  # Figure 1 shape
    True
    """

    def __init__(
        self,
        calibration: Optional[PerfCalibration] = None,
        cost_model: Optional[CollectiveCostModel] = None,
    ):
        self.cal = calibration or default_perf_calibration()
        self.cost = cost_model or CollectiveCostModel()

    # ------------------------------------------------------------------
    # Shared terms
    # ------------------------------------------------------------------
    def _check(self, batch: int) -> None:
        if batch <= 0:
            raise ValueError(f"local batch must be positive, got {batch}")

    def _lookup_s(
        self, profile: ModelProfile, cluster: Cluster, batch: int
    ) -> float:
        """Embedding lookup + backward scatter: HBM traffic, balanced
        across ranks (each holds ~1/G of tables for the global batch)."""
        spec = cluster.spec
        bytes_fwd = (
            batch
            * profile.num_sparse
            * profile.pooling
            * profile.embedding_dim
            * self.cal.emb_wire_itemsize
        )
        return 2.0 * bytes_fwd / spec.hbm_bytes_per_s  # fwd read + bwd scatter

    def _dense_s(
        self, mflops: float, cluster: Cluster, batch: int
    ) -> float:
        spec = cluster.spec
        util = self.cal.dense_utilization[spec.generation]
        return 3.0 * mflops * 1e6 * batch / (spec.peak_flops * util)

    def _other_s(self, cluster: Cluster) -> float:
        return self.cal.other_ms[cluster.spec.generation] * 1e-3

    def _id_bytes(self, profile: ModelProfile, batch: int) -> int:
        """Per-rank sparse-id payload of the input distribution (step a)."""
        return batch * profile.num_sparse * profile.pooling * self.cal.id_wire_bytes

    # ------------------------------------------------------------------
    # Paradigms
    # ------------------------------------------------------------------
    def hybrid(
        self, profile: ModelProfile, cluster: Cluster, local_batch: int
    ) -> IterationBreakdown:
        """Classic TorchRec-style hybrid parallelism (Figure 4)."""
        self._check(local_batch)
        world = global_group(cluster)
        S_emb = local_batch * profile.emb_bytes_per_sample(
            self.cal.emb_wire_itemsize
        )
        t_in = self.cost.alltoall(world, self._id_bytes(profile, local_batch)).seconds
        t_out = self.cost.alltoall(world, S_emb).seconds
        t_grad = self.cost.alltoall(world, S_emb).seconds
        emb_total = t_in + t_out + t_grad

        compute = self._lookup_s(profile, cluster, local_batch) + self._dense_s(
            profile.total_mflops, cluster, local_batch
        )
        ar = self.cost.allreduce(world, profile.dense_param_bytes).seconds
        return IterationBreakdown(
            name=f"hybrid/{profile.name}",
            compute_s=compute,
            exposed_emb_s=emb_total * (1.0 - self.cal.overlap_hybrid),
            exposed_dense_s=ar * (1.0 - self.cal.allreduce_overlap),
            other_s=self._other_s(cluster),
            emb_comm_total_s=emb_total,
            dense_sync_total_s=ar,
        )

    def dmt(
        self,
        profile: ModelProfile,
        cluster: Cluster,
        local_batch: int,
    ) -> IterationBreakdown:
        """DMT: SPTT steps + tower modules (Figure 7).

        Each of the ``profile.num_towers`` towers spans ``K = H/T`` hosts
        (:func:`repro.comm.tower_groups`, as in the executed step);
        ``K = 1`` is the paper's §5.1 configuration.

        >>> from repro.hardware import Cluster
        >>> from repro.perf.profiles import dmt_dlrm_profile
        >>> cluster = Cluster(num_hosts=8, gpus_per_host=8, generation="A100")
        >>> bd = IterationLatencyModel().dmt(dmt_dlrm_profile(4), cluster, 16384)
        >>> bd.name, bd.total_s > 0
        ('dmt-K2/DMT-4T-DLRM', True)
        """
        self._check(local_batch)
        if not profile.is_dmt:
            raise ValueError(
                f"profile {profile.name} has no towers; use hybrid() or a "
                f"DMT/SPTT profile"
            )
        towers, peers = tower_groups(cluster, profile.num_towers)
        tower_group, peer_group = towers[0], peers[0]
        K = tower_group.hosts_spanned
        world = global_group(cluster)
        hbm = cluster.spec.hbm_bytes_per_s
        S_emb = local_batch * profile.emb_bytes_per_sample(
            self.cal.emb_wire_itemsize
        )
        S_peer = int(S_emb / profile.compression_ratio)

        # Communication: step (a) + 2x step (d) + 2x step (f).  Step (d)
        # runs within the tower, step (f) in a peer world of H/K.
        t_in = self.cost.alltoall(world, self._id_bytes(profile, local_batch)).seconds
        t_d = self.cost.alltoall(tower_group, S_emb).seconds
        t_f = self.cost.alltoall(peer_group, S_peer).seconds
        emb_total = t_in + 2.0 * t_d + 2.0 * t_f

        # Compute: lookup + overarch + TM + shuffles (steps c, e, fwd+bwd).
        # Tower-module kernels are fragmented (one small GEMM per
        # tower) and achieve a lower fraction of peak than monolithic
        # baseline GEMMs; the overarch runs the same kernels as the
        # baseline and pays no penalty.  Steps (c) and (e) each permute
        # the embeddings once forward and once backward.
        shuffle = 2.0 * S_emb / hbm
        shuffles = 2.0 * (shuffle + shuffle)
        compute = (
            self._lookup_s(profile, cluster, local_batch)
            + self._dense_s(profile.overarch_mflops, cluster, local_batch)
            + self._dense_s(profile.tower_mflops, cluster, local_batch)
            / self.cal.dmt_compute_efficiency
            + shuffles
        )

        # Dense sync: global AllReduce for the overarch + concurrent
        # per-tower AllReduces for tower modules (NVLink when K = 1).
        ar = self.cost.allreduce(world, profile.dense_param_bytes).seconds
        if profile.tower_param_bytes > 0 and tower_group.world_size > 1:
            per_tower = profile.tower_param_bytes // max(profile.num_towers, 1)
            ar += self.cost.allreduce(tower_group, per_tower).seconds
        overlap = self.cal.dmt_overlap_at(profile.num_towers)
        variant = "dmt" if K == 1 else f"dmt-K{K}"
        return IterationBreakdown(
            name=f"{variant}/{profile.name}",
            compute_s=compute,
            exposed_emb_s=emb_total * (1.0 - overlap),
            exposed_dense_s=ar * (1.0 - self.cal.allreduce_overlap),
            other_s=self._other_s(cluster) + self.cal.dmt_extra_ms * 1e-3,
            emb_comm_total_s=emb_total,
            dense_sync_total_s=ar,
        )

    # ------------------------------------------------------------------
    def speedup(
        self,
        baseline_profile: ModelProfile,
        dmt_profile: ModelProfile,
        cluster: Cluster,
        local_batch: int,
    ) -> float:
        """Figure 10's quantity: hybrid(baseline) time / dmt time."""
        base = self.hybrid(baseline_profile, cluster, local_batch)
        dmt = self.dmt(dmt_profile, cluster, local_batch)
        return dmt.speedup_over(base)
