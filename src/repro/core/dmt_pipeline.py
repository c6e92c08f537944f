"""Distributed training steps: hybrid-parallel baseline and DMT.

Both are *step executors*: ``Trainer(model, config, step=executor)``
owns the loop and the optimizers and calls ``train_step``, then
``sync_replicas`` after its optimizer step.  They run *real math* over
the simulated cluster: model parallelism for tables (via the
exchanges), data parallelism for the dense plane (rank-sequential
execution with gradient accumulation — numerically the AllReduce sum),
and for DMT the tower modules are replicated per rank within their
tower group and synchronized over it exactly as §3.2 prescribes.

Neither executor states any model math.  What they share — splitting
the global batch, the per-rank loss/grad loop over the dense plane,
pricing it over the model's tower-output seam (``overarch_features`` /
``overarch_backward``, see :mod:`repro.models.dmt`), the global dense
AllReduce — is :class:`_DataParallelStep`.  Each trainer adds only the
exchange it owns and the towers around it: the hybrid passes the flat
exchange's (B, F, N) embeddings through the flat model's one
pass-through tower, DMT runs each rank's tower replica on its SPTT peer
block before step (f).

The integration tests assert these executors match single-process
training on the concatenated global batch to float tolerance, which is
the strongest form of the paper's "semantic preserving" claim: an
equality of two dataflows over one statement of the math.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Sequence

import numpy as np

from repro.core.flat_pipeline import FlatEmbeddingExchange
from repro.core.sptt import SPTTEmbeddingExchange
from repro.nn import functional as F
from repro.nn.module import Module
from repro.sim.cluster import SimCluster
from repro.sim.tracing import Phase

WIRE_ITEMSIZE = 4  # gradients synchronized in fp32 on the wire


def grad_wire_bytes(params: Sequence) -> int:
    """Bytes an AllReduce of ``params``' gradients moves: fp32 on the
    wire, whatever the parameters' own dtype (the executed step and the
    latency model's profiles both price this)."""
    return sum(p.size for p in params) * WIRE_ITEMSIZE


class _DataParallelStep:
    """One iteration over the global batch, shared by both trainers.

    Subclasses own an embedding exchange and define its two halves
    around the data-parallel dense plane: ``_exchange_forward`` delivers
    each rank's per-tower outputs, ``_exchange_backward`` takes their
    gradients.  The plane is the overarch and ``top`` on one rank's batch.
    """

    _dense_label: str

    def __init__(self, sim: SimCluster, model: Module):
        self.sim = sim
        self.model = model

    def train_step(
        self, dense: np.ndarray, ids: np.ndarray, labels: np.ndarray
    ) -> float:
        """One iteration over the global batch; accumulates gradients.

        Returns the global mean BCE loss.  The caller owns zero_grad
        and the optimizer step (on the model's parameters).
        """
        sim = self.sim
        G = sim.world_size
        dense = np.asarray(dense, dtype=np.float64)
        ids = np.asarray(ids)
        labels = np.asarray(labels, dtype=np.float64).reshape(-1)
        total = labels.shape[0]
        for name, array in (("dense", dense), ("ids", ids)):
            if array.shape[:1] != (total,):
                raise ValueError(
                    f"{name} has shape {array.shape} but labels has "
                    f"{total} rows"
                )
        if total % G != 0:
            raise ValueError(
                f"global batch {total} not divisible by world {G}"
            )
        B_local = total // G
        rows = [slice(r * B_local, (r + 1) * B_local) for r in range(G)]

        inputs = self._exchange_forward({r: ids[rows[r]] for r in range(G)})

        # Data-parallel dense plane: rank-sequential execution; grad
        # accumulation across ranks is numerically the AllReduce sum.
        loss_sum = 0.0
        grads: Dict[int, Any] = {}
        for r in range(G):
            logits = self._dense_forward(dense[rows[r]], inputs[r])
            loss_sum += float(F.bce_with_logits(logits, labels[rows[r]]).sum())
            grads[r] = self._dense_backward(
                F.bce_with_logits_grad(logits, labels[rows[r]]) / total
            )
        # Price the (concurrent) dense compute: fwd + bwd ~ 3x forward.
        sim.compute(
            3 * self._dense_flops() * B_local
            / sim.cluster.spec.effective_flops,
            label=self._dense_label,
        )

        self._exchange_backward(grads)

        # Global dense AllReduce (grads already summed by accumulation;
        # record the collective's cost).
        nbytes = grad_wire_bytes(self.model.dense_parameters())
        timing = sim.cost_model.allreduce(sim.world, nbytes)
        sim.timeline.add(
            Phase.DENSE_SYNC, "dense_allreduce", timing.seconds, nbytes, G
        )
        return loss_sum / total

    def _dense_forward(self, dense, tower_outs):
        model = self.model
        return model.top(model.overarch_features(dense, tower_outs)).reshape(-1)

    def _dense_backward(self, grad_logits):
        model = self.model
        return model.overarch_backward(
            model.top.backward(grad_logits.reshape(-1, 1))
        )[1]

    def _dense_flops(self) -> int:
        return (
            self.model.flops_per_sample() - self.model.tower_flops_per_sample()
        )

    def sync_replicas(self) -> None:
        """Refresh per-rank copies after the optimizer step (none here)."""


class DistributedHybridTrainer(_DataParallelStep):
    """The state-of-the-art baseline: TorchRec-style hybrid parallelism.

    Embedding tables are model-parallel through the flat exchange,
    whose (B, F, N) embeddings feed the flat model's one pass-through
    tower; the dense arch is data-parallel with a global AllReduce.
    """

    _dense_label = "dense_fwd_bwd"

    def __init__(self, sim: SimCluster, model: Module):
        # Imported here: repro.core sits below repro.models.
        from repro.models.tower_module import PassThroughTower

        towers = getattr(model, "towers", [])
        if len(towers) != 1 or type(towers[0]) is not PassThroughTower:
            raise TypeError(
                f"{type(model).__name__} is not a one-tower pass-through "
                "model; DistributedDMTTrainer replicates other towers"
            )
        super().__init__(sim, model)
        self.tower = towers[0]
        self.exchange = FlatEmbeddingExchange(sim, model.embeddings)

    def _exchange_forward(self, ids_parts):
        embs = self.exchange.forward(ids_parts)
        return {r: [self.tower(e)] for r, e in embs.items()}

    def _exchange_backward(self, tower_out_grads):
        self.exchange.backward(
            {r: self.tower.backward(g) for r, (g,) in tower_out_grads.items()}
        )


class DistributedDMTTrainer(_DataParallelStep):
    """DMT training: SPTT exchange + per-tower modules + hybrid dense
    parallelism.

    Tower module placement (§3.2): tower ``t``'s module is replicated
    on the ``K*L`` ranks of its tower group; each replica processes its
    rank's (T*B, F_t, N) peer block; gradients are summed over the group
    (an NVLink AllReduce when ``K = 1``) into the canonical module.
    After the optimizer step, :meth:`sync_replicas` refreshes the
    replicas; ``Trainer`` calls it, and :meth:`fit_step` is the same
    step with caller-held optimizers.
    """

    _dense_label = "overarch_fwd_bwd"

    def __init__(self, sim: SimCluster, model: Module):
        if getattr(model, "overarch_features", None) is None:
            raise TypeError(
                f"{type(model).__name__} does not expose the "
                "overarch_features / overarch_backward tower-output seam"
            )
        super().__init__(sim, model)
        self.exchange = SPTTEmbeddingExchange(
            sim, model.embeddings, model.partition
        )
        # Per-rank tower replicas (tower t's group replicates tower t).
        self.replicas: Dict[int, Module] = {
            r: copy.deepcopy(model.towers[t])
            for r, t in self.exchange.tower_of.items()
        }

    # ------------------------------------------------------------------
    def sync_replicas(self) -> None:
        """Broadcast canonical tower parameters to their replicas."""
        for r, replica in self.replicas.items():
            tower = self.model.towers[self.exchange.tower_of[r]]
            replica.load_state_dict(tower.state_dict())

    def fit_step(
        self,
        dense: np.ndarray,
        ids: np.ndarray,
        labels: np.ndarray,
        optimizers: Sequence,
    ) -> float:
        """train_step + optimizer steps + replica refresh."""
        for opt in optimizers:
            opt.zero_grad()
        loss = self.train_step(dense, ids, labels)
        for opt in optimizers:
            opt.step()
        self.sync_replicas()
        return loss

    # ------------------------------------------------------------------
    def _exchange_forward(self, ids_parts):
        """Steps (a)-(e), tower modules on each rank's peer block, then
        step (f) on their (compressed) outputs."""
        sim = self.sim
        tower_blocks = self.exchange.forward_to_towers(ids_parts)
        tm_out: Dict[int, np.ndarray] = {}
        tm_flops = 0
        for r, replica in self.replicas.items():
            # Blocks arrive in partition order, the order towers consume.
            block = tower_blocks[r]
            tm_out[r] = replica(block)
            tm_flops = max(
                tm_flops, replica.flops_per_sample() * block.shape[0]
            )
        sim.compute(
            3 * tm_flops / sim.cluster.spec.effective_flops,
            label="tower_modules",
        )
        return self.exchange.exchange_tower_outputs(tm_out)

    def _exchange_backward(self, tower_out_grads):
        """Reverse step (f), tower-module backward per replica, reverse
        (e)-(b), then the tower gradient sync."""
        sim = self.sim
        grad_tm_out = self.exchange.backward_tower_exchange(tower_out_grads)
        self.exchange.backward_from_towers(
            {
                r: replica.backward(grad_tm_out[r])
                for r, replica in self.replicas.items()
            }
        )

        # Tower gradient sync: sum replica grads over each tower group
        # (priced as concurrent AllReduces) into the canonical modules.
        groups = self.exchange.tower_groups
        tm_bytes = 0
        for tower, group in zip(self.model.towers, groups):
            canonical = list(tower.parameters())
            for r in group.ranks:
                for p_c, p_r in zip(canonical, self.replicas[r].parameters()):
                    # Tower modules are dense MLPs, but route through
                    # has_grad so a sparse replica grad would densify
                    # instead of being silently dropped.
                    if p_r.has_grad:
                        p_c.add_grad(p_r.grad)
                        p_r.zero_grad()
            tm_bytes = max(tm_bytes, grad_wire_bytes(canonical))
        if tm_bytes and groups[0].world_size > 1:
            timing = sim.cost_model.allreduce(groups[0], tm_bytes)
            sim.timeline.add(
                Phase.DENSE_SYNC, "tower_allreduce", timing.seconds,
                tm_bytes, groups[0].world_size,
            )
