"""The classic (flat) embedding exchange — Figure 4, the baseline.

Steps, executed over a :class:`~repro.sim.SimCluster`:

(a) global AlltoAll distributing each rank's sparse ids to the rank
    owning the feature's table;
(b) local lookup of the global batch for owned features;
(c) global AlltoAll returning embeddings to the data-parallel ranks.

The backward pass routes embedding gradients through the mirror of (c)
and scatter-adds into the tables.

Tables are *shared* with a reference
:class:`~repro.nn.embedding.EmbeddingBagCollection` (model parallelism:
exactly one owner per table), so optimizer steps on the collection
apply to the distributed view too — this is what lets the tests prove
distributed == single-process training exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.nn.embedding import EmbeddingBagCollection, normalize_ids
from repro.sim.cluster import SimCluster
from repro.sim.tracing import Phase

ID_BYTES = 8  # int64 ids on the wire
EMB_ITEMSIZE = 4  # the paper's models train embeddings in fp32


def round_robin_plan(num_features: int, world_size: int) -> List[int]:
    """Default table-wise sharding: feature f -> rank f % world."""
    return [f % world_size for f in range(num_features)]


class FlatEmbeddingExchange:
    """Flat-paradigm embedding lookup over a simulated cluster.

    Parameters
    ----------
    sim:
        Simulated cluster (data movement + pricing).
    ebc:
        The reference embedding collection; its tables are placed on
        ranks according to ``plan``.
    plan:
        ``plan[f]`` is the global rank owning feature ``f``'s table.
    """

    def __init__(
        self,
        sim: SimCluster,
        ebc: EmbeddingBagCollection,
        plan: Optional[Sequence[int]] = None,
    ):
        self.sim = sim
        self.ebc = ebc
        self.num_features = ebc.num_features
        self.dim = ebc.dim
        plan = list(plan) if plan is not None else round_robin_plan(
            self.num_features, sim.world_size
        )
        if len(plan) != self.num_features:
            raise ValueError(
                f"plan covers {len(plan)} features, expected {self.num_features}"
            )
        for f, owner in enumerate(plan):
            if not 0 <= owner < sim.world_size:
                raise ValueError(f"feature {f} assigned to invalid rank {owner}")
        self.plan = plan
        self.features_of: Dict[int, List[int]] = {
            r: [] for r in range(sim.world_size)
        }
        for f, owner in enumerate(plan):
            self.features_of[owner].append(f)
        self._batch: Optional[int] = None

    # ------------------------------------------------------------------
    def forward(self, ids: Dict[int, np.ndarray]) -> Dict[int, np.ndarray]:
        """Run steps (a)-(c); returns (B, F, N) embeddings per rank."""
        sim = self.sim
        world = sim.world
        ids = {
            r: normalize_ids(a, self.num_features) for r, a in ids.items()
        }
        batches = {a.shape[0] for a in ids.values()}
        if len(batches) != 1:
            raise ValueError(f"local batch sizes differ: {batches}")
        B = batches.pop()
        self._batch = B

        # Step (a): feature distribution.  Bucket for owner o holds the
        # id columns of o's features.
        send = {
            r: [
                np.ascontiguousarray(ids[r][:, self.features_of[o], :])
                for o in range(sim.world_size)
            ]
            for r in ids
        }
        recv = sim.alltoall(
            world, send, phase=Phase.EMBEDDING_COMM, label="input_dist"
        )

        # Step (b): lookup for the global batch, in group-rank order.
        lookups: Dict[int, np.ndarray] = {}
        lookup_bytes = 0
        for o in range(sim.world_size):
            feats = self.features_of[o]
            global_ids = np.concatenate(recv[o], axis=0)  # (G*B, F_o, P)
            per_feature = [
                self.ebc.tables[f](global_ids[:, i]) for i, f in enumerate(feats)
            ]
            # (F_o, G*B, N); empty ownership yields a (0, G*B, N) block.
            lookups[o] = (
                np.stack(per_feature, axis=0)
                if per_feature
                else np.zeros((0, sim.world_size * B, self.dim))
            )
            lookup_bytes += sum(
                self.ebc.tables[f].bytes_per_sample(EMB_ITEMSIZE) for f in feats
            ) * sim.world_size * B
        # All ranks look up concurrently; price the heaviest.
        sim.compute(
            lookup_bytes / max(len(self.features_of), 1)
            / sim.cluster.spec.hbm_bytes_per_s,
            label="embedding_lookup",
        )

        # Step (c): return embeddings to data-parallel ranks.
        send_back = {
            o: [
                np.ascontiguousarray(lookups[o][:, r * B : (r + 1) * B, :])
                for r in range(sim.world_size)
            ]
            for o in range(sim.world_size)
        }
        recv_back = sim.alltoall(
            world, send_back, phase=Phase.EMBEDDING_COMM, label="output_dist"
        )

        out: Dict[int, np.ndarray] = {}
        for r in range(sim.world_size):
            embs = np.empty((B, self.num_features, self.dim))
            for o in range(sim.world_size):
                block = recv_back[r][o]  # (F_o, B, N)
                for i, f in enumerate(self.features_of[o]):
                    embs[:, f, :] = block[i]
            out[r] = embs
        return out

    def backward(self, grads: Dict[int, np.ndarray]) -> None:
        """Mirror of step (c) for gradients + scatter-add into tables."""
        sim = self.sim
        if self._batch is None:
            raise RuntimeError("backward called before forward")
        B = self._batch
        send = {}
        for r, g in grads.items():
            g = np.asarray(g, dtype=np.float64)
            if g.shape != (B, self.num_features, self.dim):
                raise ValueError(
                    f"rank {r}: grad shape {g.shape} != "
                    f"({B}, {self.num_features}, {self.dim})"
                )
            # Bucket for owner o: (F_o, B, N) in o's feature order.
            send[r] = [
                np.ascontiguousarray(
                    g[:, self.features_of[o], :].transpose(1, 0, 2)
                )
                for o in range(sim.world_size)
            ]
        recv = sim.alltoall(
            sim.world, send, phase=Phase.EMBEDDING_COMM, label="grad_dist"
        )
        scatter_bytes = 0
        for o in range(sim.world_size):
            feats = self.features_of[o]
            if not feats:
                continue
            # Recover (F_o, G*B, N) in the same source order as forward.
            stacked = np.concatenate(recv[o], axis=1)
            for i, f in enumerate(feats):
                self.ebc.tables[f].backward(stacked[i])
                scatter_bytes += stacked[i].nbytes
        sim.compute(
            scatter_bytes / max(sim.world_size, 1)
            / sim.cluster.spec.hbm_bytes_per_s,
            label="embedding_grad_scatter",
        )
