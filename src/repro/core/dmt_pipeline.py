"""Distributed training steps: hybrid-parallel baseline and DMT.

Both are *step executors*: ``Trainer(model, config, step=executor)``
owns the loop, the loss and the optimizers, and runs
``executor(dense, ids)`` / ``executor.backward(grad_logits)`` where it
would run the model's.  They are the model's own forward/backward over
the simulated cluster: every module runs *once*, over the global batch,
in batch order, so simulated training equals single-process training
bit for bit.  Ranks exist only inside the exchanges (model-parallel
tables, real data moved per rank) and the priced collectives and
compute: the dense plane is priced data-parallel, and each tower
group's one tower module has its gradient AllReduce priced over the
group (§3.2) — the module already holds the sum.

Neither executor states any model math.  What they share — the global
batch checks, the overarch and logit head around the model's
tower-output seam (``overarch_features`` / ``overarch_backward``, see
:mod:`repro.models.dmt`; a :class:`~repro.models.multitask.MultiTaskModel`'s
is its ``base``'s) and the priced sync — is :class:`_DataParallelStep`.
Each trainer adds only its exchange and the towers around it: the
hybrid runs the flat model's one pass-through tower on the flat
exchange's embeddings, DMT each tower on its SPTT block before step (f).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.flat_pipeline import FlatEmbeddingExchange
from repro.core.sptt import SPTTEmbeddingExchange
from repro.nn.loss import BCEWithLogitsLoss
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
    """The model's forward/backward over the global batch, shared by
    both trainers.

    Subclasses own an embedding exchange and define its two halves
    around the dense plane: ``_exchange_forward`` delivers each tower's
    outputs for the global batch, in batch order, ``_exchange_backward``
    takes their gradients.  The plane is the overarch and the model's
    logit head, run once.
    """

    _dense_label: str

    def __init__(self, sim: SimCluster, model: Module):
        self.sim = sim
        self.model = model
        # The tower seam; a MultiTaskModel's is its base model's.
        self.base = getattr(model, "base", model)

    def __call__(self, dense: np.ndarray, ids: np.ndarray) -> np.ndarray:
        return self.forward(dense, ids)

    def forward(self, dense: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Logits of the global batch, as ``model(dense, ids)``."""
        sim = self.sim
        G = sim.world_size
        dense = np.asarray(dense)
        ids = np.asarray(ids)
        total = ids.shape[0]
        if dense.shape[:1] != (total,):
            raise ValueError(
                f"dense has shape {dense.shape} but ids has {total} rows"
            )
        if total % G != 0:
            raise ValueError(
                f"global batch {total} not divisible by world {G}"
            )
        B_local = total // G
        tower_outs = self._exchange_forward(
            {r: ids[r * B_local : (r + 1) * B_local] for r in range(G)}
        )
        # Price the (concurrent, per-rank) dense compute: fwd + bwd ~ 3x
        # forward.
        sim.compute(
            3 * self._dense_flops() * B_local
            / sim.cluster.spec.effective_flops,
            label=self._dense_label,
        )
        return self.model.logits(self.base.overarch_features(dense, tower_outs))

    def backward(self, grad_logits: np.ndarray) -> None:
        """Gradients of the global batch into every parameter, then the
        priced gradient sync."""
        _, tower_grads = self.base.overarch_backward(
            self.model.logits_backward(grad_logits)
        )
        self._exchange_backward(tower_grads)
        self.sync_replicas()

    def train_step(
        self, dense: np.ndarray, ids: np.ndarray, labels: np.ndarray
    ) -> float:
        """forward, mean BCE and backward over the global batch; returns
        the loss.  The caller owns zero_grad and the optimizer step."""
        labels = np.asarray(labels).reshape(-1)
        for name, array in (("dense", dense), ("ids", ids)):
            if np.shape(array)[:1] != labels.shape:
                raise ValueError(
                    f"{name} has shape {np.shape(array)} but labels has "
                    f"{labels.shape[0]} rows"
                )
        loss = BCEWithLogitsLoss()
        value = loss(self.forward(dense, ids), labels)
        self.backward(loss.backward())
        return value

    def sync_replicas(self) -> None:
        """The priced §3.2 gradient sync: the dense AllReduce over the
        world.  Every module ran once over the global batch, so its
        gradient already is the sum; nothing is copied."""
        self._price_allreduce(
            self.sim.world,
            grad_wire_bytes(self.model.dense_parameters()),
            "dense_allreduce",
        )

    def _price_allreduce(self, group, nbytes: int, label: str) -> None:
        timing = self.sim.cost_model.allreduce(group, nbytes)
        self.sim.timeline.add(
            Phase.DENSE_SYNC, label, timing.seconds, nbytes, group.world_size
        )

    def _dense_flops(self) -> int:
        return (
            self.model.flops_per_sample() - self.base.tower_flops_per_sample()
        )


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

        super().__init__(sim, model)
        towers = getattr(self.base, "towers", [])
        if len(towers) != 1 or type(towers[0]) is not PassThroughTower:
            raise TypeError(
                f"{type(self.base).__name__} is not a one-tower pass-through "
                "model; DistributedDMTTrainer runs other towers"
            )
        self.tower = towers[0]
        self.exchange = FlatEmbeddingExchange(sim, self.base.embeddings)

    def _exchange_forward(self, ids_parts):
        embs = self.exchange.forward(ids_parts)
        return [self.tower(np.concatenate([embs[r] for r in sorted(embs)]))]

    def _exchange_backward(self, tower_out_grads):
        (grad,) = tower_out_grads
        g_embs = self.tower.backward(grad)
        G = self.sim.world_size
        B = len(g_embs) // G
        self.exchange.backward(
            {r: g_embs[r * B : (r + 1) * B] for r in range(G)}
        )


class DistributedDMTTrainer(_DataParallelStep):
    """DMT training: SPTT exchange + per-tower modules + hybrid dense
    parallelism.

    Tower module placement (§3.2): tower ``t``'s module serves the
    ``K*L`` ranks of its tower group.  Each rank's (T*B, F_t, N) peer
    block is its column of the group's one batch-ordered buffer, so the
    canonical module runs once over the buffer, and its gradient is the
    group's sum; :meth:`sync_replicas` prices that AllReduce (an NVLink
    one when ``K = 1``).  :meth:`fit_step` is the step with caller-held
    optimizers.
    """

    _dense_label = "overarch_fwd_bwd"

    def __init__(self, sim: SimCluster, model: Module):
        super().__init__(sim, model)
        self.exchange = SPTTEmbeddingExchange(
            sim, self.base.embeddings, self.base.partition
        )

    # ------------------------------------------------------------------
    def sync_replicas(self) -> None:
        """The priced tower AllReduce over each tower group (concurrent;
        none on a one-rank tower), then the dense one."""
        groups = self.exchange.tower_groups
        tm_bytes = max(
            grad_wire_bytes(list(t.parameters())) for t in self.base.towers
        )
        if tm_bytes and groups[0].world_size > 1:
            self._price_allreduce(groups[0], tm_bytes, "tower_allreduce")
        super().sync_replicas()

    def fit_step(
        self,
        dense: np.ndarray,
        ids: np.ndarray,
        labels: np.ndarray,
        optimizers: Sequence,
    ) -> float:
        """train_step between zero_grad and the optimizer steps."""
        for opt in optimizers:
            opt.zero_grad()
        loss = self.train_step(dense, ids, labels)
        for opt in optimizers:
            opt.step()
        return loss

    # ------------------------------------------------------------------
    def _exchange_forward(self, ids_parts) -> List[np.ndarray]:
        """Steps (a)-(e), each tower module once on its group's
        batch-ordered rows, then step (f) on their (compressed)
        outputs."""
        sim = self.sim
        blocks = self.exchange.forward_to_towers(ids_parts)
        towers = self.base.towers
        outs = [tower(block) for tower, block in zip(towers, blocks)]
        # Price the (concurrent) tower compute per rank: its T*B rows.
        M = self.exchange.tower_groups[0].world_size
        tm_flops = max(
            t.flops_per_sample() * (len(b) // M) for t, b in zip(towers, blocks)
        )
        sim.compute(
            3 * tm_flops / sim.cluster.spec.effective_flops,
            label="tower_modules",
        )
        return self.exchange.exchange_tower_outputs(outs)

    def _exchange_backward(self, tower_out_grads) -> None:
        """Reverse step (f), each tower module's backward once, reverse
        (e)-(b)."""
        grads = self.exchange.backward_tower_exchange(tower_out_grads)
        self.exchange.backward_from_towers(
            [t.backward(g) for t, g in zip(self.base.towers, grads)]
        )
