"""SimCluster: functional collectives priced onto a timeline.

The simulated cluster is the execution substrate for the embedding
pipelines in :mod:`repro.core`.  Each collective call both *moves the
data* (delegating to :mod:`repro.comm.functional`) and *prices the
move* (delegating to :class:`~repro.comm.cost_model.CollectiveCostModel`),
appending to a :class:`~repro.sim.tracing.Timeline`.

Concurrency convention: collectives over *disjoint* groups that execute
in the same logical step (e.g. SPTT's ``L`` peer AlltoAlls) should be
priced as one parallel step — use :meth:`SimCluster.alltoall_concurrent`
which records ``max`` over groups rather than the sum.

Byte-accounting convention: every priced collective passes the **per-rank
input payload** — the bytes each rank holds *before* the collective runs
(maxed over ranks) — to the cost model and records that same number on
the timeline event.  AllGather included: its ``nbytes`` is the per-rank
shard being contributed, not the ``W``-times-larger gathered buffer, so
``Timeline.bytes_by_phase`` sums are comparable across collective kinds.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.comm import functional as F
from repro.comm.cost_model import CollectiveCostModel
from repro.comm.process_group import ProcessGroup, global_group
from repro.hardware.topology import Cluster
from repro.sim.tracing import Phase, Timeline


class SimCluster:
    """A cluster plus the machinery to execute and price collectives.

    Parameters
    ----------
    cluster:
        Hardware topology (hosts, GPUs, link speeds).
    cost_model:
        Collective pricing; defaults to the Figure 5-calibrated model.
    timeline:
        Destination for priced events; a fresh one is created if absent.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.hardware import Cluster
    >>> sim = SimCluster(Cluster(num_hosts=2, gpus_per_host=2))
    >>> out = sim.allreduce(sim.world, {r: np.ones(4) for r in range(4)},
    ...                     phase=Phase.DENSE_SYNC, label="grads")
    >>> float(out[0][0])
    4.0
    >>> len(sim.timeline)
    1
    """

    def __init__(
        self,
        cluster: Cluster,
        cost_model: Optional[CollectiveCostModel] = None,
        timeline: Optional[Timeline] = None,
    ):
        self.cluster = cluster
        self.cost_model = cost_model or CollectiveCostModel()
        self.timeline = timeline if timeline is not None else Timeline()
        self.world = global_group(cluster)

    # ------------------------------------------------------------------
    # Geometry passthroughs
    # ------------------------------------------------------------------
    @property
    def world_size(self) -> int:
        return self.cluster.world_size

    @property
    def num_hosts(self) -> int:
        return self.cluster.num_hosts

    @property
    def gpus_per_host(self) -> int:
        return self.cluster.gpus_per_host

    # ------------------------------------------------------------------
    # Priced collectives
    # ------------------------------------------------------------------
    @staticmethod
    def _buffer_bytes(buffers: Mapping[int, object]) -> int:
        """Max per-rank payload size (collectives are sized by the
        largest participant; uniform in all our pipelines)."""
        sizes = []
        for buf in buffers.values():
            if isinstance(buf, np.ndarray):
                sizes.append(buf.nbytes)
            else:  # list-form alltoall
                sizes.append(sum(np.asarray(b).nbytes for b in buf))
        return max(sizes) if sizes else 0

    def _concurrent(
        self,
        kind: str,
        groups: Sequence[ProcessGroup],
        buffers: Mapping[int, object],
        phase: Phase,
        label: str,
    ) -> Dict[int, object]:
        """Collective ``kind`` over disjoint groups as one parallel step:
        buffers cover exactly the groups' union (checked before pricing),
        data moves per group, and the timeline records the slowest group
        and the largest per-rank buffer (the groups overlap in time)."""
        ranks_seen: set = set()
        for g in groups:
            overlap = ranks_seen & set(g.ranks)
            if overlap:
                raise ValueError(
                    f"concurrent {kind} groups must be disjoint; ranks "
                    f"{sorted(overlap)} appear twice"
                )
            ranks_seen |= set(g.ranks)
        union = ProcessGroup(self.cluster, tuple(sorted(ranks_seen)))
        F.check_membership(union, buffers)
        out: Dict[int, object] = {}
        worst = 0.0
        worst_bytes = 0
        for g in groups:
            sub = {r: buffers[r] for r in g.ranks}
            nbytes = self._buffer_bytes(sub)
            timing = getattr(self.cost_model, kind)(g, nbytes)
            worst = max(worst, timing.seconds)
            worst_bytes = max(worst_bytes, nbytes)
            out.update(getattr(F, kind)(g, sub))
        self.timeline.add(
            phase,
            label,
            worst,
            worst_bytes,
            max((g.world_size for g in groups), default=1),
        )
        return out

    def _priced(
        self,
        price: str,
        move,
        group: ProcessGroup,
        buffers: Mapping[int, object],
        phase: Phase,
        label: str,
        **kwargs,
    ):
        """One collective over ``group``: membership checked (typed,
        before any pricing), the per-rank payload priced by the cost
        model's ``price`` and recorded on the timeline, then the data
        moved by ``move(group, buffers, **kwargs)``."""
        F.check_membership(group, buffers)
        nbytes = self._buffer_bytes(buffers)
        timing = getattr(self.cost_model, price)(group, nbytes)
        self.timeline.add(phase, label, timing.seconds, nbytes, group.world_size)
        return move(group, buffers, **kwargs)

    def alltoall(
        self,
        group: ProcessGroup,
        buffers: Mapping[int, Sequence[np.ndarray]],
        phase: Phase,
        label: str,
    ) -> Dict[int, List[np.ndarray]]:
        return self._priced("alltoall", F.alltoall, group, buffers, phase, label)

    def alltoall_single(
        self,
        group: ProcessGroup,
        buffers: Mapping[int, np.ndarray],
        phase: Phase,
        label: str,
        axis: int = 0,
    ) -> Dict[int, np.ndarray]:
        return self._priced(
            "alltoall", F.alltoall_single, group, buffers, phase, label,
            axis=axis,
        )

    def alltoall_concurrent(
        self,
        groups: Sequence[ProcessGroup],
        buffers: Mapping[int, Sequence[np.ndarray]],
        phase: Phase,
        label: str,
    ) -> Dict[int, List[np.ndarray]]:
        """AlltoAll over disjoint groups as one parallel step (the SPTT
        step (f) pattern of ``L`` concurrent peer AlltoAlls)."""
        return self._concurrent("alltoall", groups, buffers, phase, label)

    def allreduce(
        self,
        group: ProcessGroup,
        buffers: Mapping[int, np.ndarray],
        phase: Phase,
        label: str,
    ) -> Dict[int, np.ndarray]:
        return self._priced("allreduce", F.allreduce, group, buffers, phase, label)

    def allreduce_concurrent(
        self,
        groups: Sequence[ProcessGroup],
        buffers: Mapping[int, np.ndarray],
        phase: Phase,
        label: str,
    ) -> Dict[int, np.ndarray]:
        """AllReduce over disjoint groups as one parallel step (e.g. one
        NVLink AllReduce per host)."""
        return self._concurrent("allreduce", groups, buffers, phase, label)

    def reducescatter(
        self,
        group: ProcessGroup,
        buffers: Mapping[int, np.ndarray],
        phase: Phase,
        label: str,
        axis: int = 0,
    ) -> Dict[int, np.ndarray]:
        return self._priced(
            "reducescatter", F.reducescatter, group, buffers, phase, label,
            axis=axis,
        )

    def allgather(
        self,
        group: ProcessGroup,
        buffers: Mapping[int, np.ndarray],
        phase: Phase,
        label: str,
        axis: int = 0,
    ) -> Dict[int, np.ndarray]:
        return self._priced(
            "allgather", F.allgather, group, buffers, phase, label, axis=axis
        )

    # ------------------------------------------------------------------
    # Local (per-rank) priced operations
    # ------------------------------------------------------------------
    def shuffle(self, nbytes_per_rank: int, label: str) -> None:
        """Record an on-device data shuffle (SPTT steps c/e).

        All ranks shuffle concurrently, so one event of the per-rank
        duration is recorded.
        """
        seconds = self.cost_model.device_shuffle(self.world, nbytes_per_rank)
        self.timeline.add(Phase.SHUFFLE, label, seconds, nbytes_per_rank, 1)

    def compute(self, seconds: float, label: str, flops: int = 0) -> None:
        """Record a compute block executing concurrently on every rank."""
        self.timeline.add(Phase.COMPUTE, label, seconds, 0, 1, flops=flops)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimCluster({self.cluster!r}, events={len(self.timeline)})"
