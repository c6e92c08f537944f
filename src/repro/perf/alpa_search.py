"""Alpa-style parallelism enumeration for the dense part (Figure 6).

§2.4: the paper used Alpa to search (data, tensor, pipeline) meshes for
DLRM's dense arch on 64 A100s and found plain data parallelism fastest,
concluding hybrid parallelism is near-optimal in the known search
space.  We reproduce the argument by enumerating every ``dp*tp*pp = G``
factorization and pricing it:

- **compute** divides perfectly across GPUs but pays the pipeline
  bubble ``1 + (pp - 1) / MICROBATCHES``;
- **tensor parallelism** synchronizes activations twice per layer
  across the tp group — for recommendation models the batch is huge
  (16K/GPU) and parameters tiny (~60 MB), so activation traffic dwarfs
  the parameter AllReduce it saves;
- **pipeline parallelism** adds stage-boundary activation transfers
  plus the bubble;
- **data parallelism** pays one parameter-gradient AllReduce.

Mesh construction mirrors Alpa's device-mesh preference: tp innermost
(consecutive ranks, NVLink when tp <= GPUs/host), dp outermost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.comm.cost_model import CollectiveCostModel
from repro.comm.process_group import ProcessGroup
from repro.hardware.topology import Cluster
from repro.perf.paradigms import PerfCalibration, default_perf_calibration
from repro.perf.profiles import ModelProfile

# The dense arch being meshed: LAYERS layers of HIDDEN_WIDTH fp32
# activations, pipelined in MICROBATCHES microbatches.
LAYERS = 6
HIDDEN_WIDTH = 2048
MICROBATCHES = 8


@dataclass(frozen=True)
class ParallelismConfig:
    """One point in the (dp, tp, pp) search space with its latency."""

    dp: int
    tp: int
    pp: int
    iteration_seconds: float

    @property
    def label(self) -> str:
        return f"dp{self.dp}-tp{self.tp}-pp{self.pp}"

    @property
    def is_pure_data_parallel(self) -> bool:
        return self.tp == 1 and self.pp == 1


def _factorizations(world: int) -> List["tuple[int, int, int]"]:
    out = []
    for tp in range(1, world + 1):
        if world % tp:
            continue
        rest = world // tp
        for pp in range(1, rest + 1):
            if rest % pp:
                continue
            out.append((rest // pp, tp, pp))
    return out


def slowest_stage_boundary(
    cost: CollectiveCostModel, cluster: Cluster, tp: int, pp: int, nbytes: int
) -> float:
    """Seconds of the slowest pipeline-stage boundary transfer of
    ``nbytes`` in the mesh (tp contiguous, then pp, then dp): rank ``r``
    of stage ``s < pp - 1`` sends to rank ``r + tp``, over NVLink when
    both sit on one host and over the NIC otherwise."""
    world = ProcessGroup(cluster, tuple(range(cluster.world_size)))
    return max(
        cost.point_to_point(world, r, r + tp, nbytes).seconds
        for r in range(cluster.world_size)
        if (r // tp) % pp != pp - 1
    )


def enumerate_dense_parallelism(
    profile: ModelProfile,
    cluster: Cluster,
    local_batch: int,
    calibration: Optional[PerfCalibration] = None,
    cost_model: Optional[CollectiveCostModel] = None,
) -> List[ParallelismConfig]:
    """Price every (dp, tp, pp) mesh for the dense part.

    Returns configs sorted fastest-first.  ``local_batch`` is the
    per-GPU batch of the equivalent data-parallel run; the global batch
    ``G * local_batch`` is fixed across configs (what Alpa holds
    constant when comparing parallelisms).
    """
    if local_batch <= 0:
        raise ValueError(f"local_batch must be positive, got {local_batch}")
    cal = calibration or default_perf_calibration()
    cost = cost_model or CollectiveCostModel()
    G = cluster.world_size
    spec = cluster.spec
    util = cal.dense_utilization[spec.generation]
    global_batch = G * local_batch
    flops_total = 3.0 * profile.total_mflops * 1e6 * global_batch

    results = []
    for dp, tp, pp in _factorizations(G):
        # Mesh: ranks [0..G) with tp contiguous, then pp, then dp.
        tp_group = ProcessGroup(cluster, tuple(range(tp)))
        dp_stride = tp * pp
        dp_group = ProcessGroup(
            cluster, tuple(range(0, dp * dp_stride, dp_stride))
        )

        bubble = 1.0 + (pp - 1) / MICROBATCHES
        compute = flops_total / G / (spec.peak_flops * util) * bubble

        batch_per_replica = global_batch // dp
        act_bytes = batch_per_replica * HIDDEN_WIDTH * 4

        tp_comm = 0.0
        if tp > 1:
            # Two activation AllReduces per layer (fwd + bwd), layers
            # split across pipeline stages.
            per_stage_layers = max(LAYERS // pp, 1)
            tp_comm = (
                2.0
                * per_stage_layers
                * cost.allreduce(tp_group, act_bytes // MICROBATCHES).seconds
                * MICROBATCHES
            )

        pp_comm = 0.0
        if pp > 1:
            # Stage boundary transfers: fwd + bwd per microbatch.
            per_micro = slowest_stage_boundary(
                cost, cluster, tp, pp, act_bytes // MICROBATCHES
            )
            pp_comm = 2.0 * (pp - 1) * per_micro * MICROBATCHES / pp

        dp_comm = 0.0
        if dp > 1:
            shard_params = profile.dense_param_bytes // (tp * pp)
            dp_comm = (
                cost.allreduce(dp_group, shard_params).seconds
                * (1.0 - cal.allreduce_overlap)
            )

        total = compute + tp_comm + pp_comm + dp_comm
        results.append(
            ParallelismConfig(dp=dp, tp=tp, pp=pp, iteration_seconds=total)
        )
    results.sort(key=lambda c: c.iteration_seconds)
    return results


def latency_cdf(configs: List[ParallelismConfig]) -> "tuple[np.ndarray, np.ndarray]":
    """(sorted latencies, cumulative fraction) — the Figure 6 axes."""
    if not configs:
        raise ValueError("no configurations to summarize")
    lat = np.sort([c.iteration_seconds for c in configs])
    frac = np.arange(1, len(lat) + 1) / len(lat)
    return lat, frac
