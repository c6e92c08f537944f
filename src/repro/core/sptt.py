"""SPTT — the Semantic-Preserving Tower Transform (Figure 7, §3.1).

The transform decomposes the flat paradigm's global embedding AlltoAll
into topology-aware steps:

(a) global feature-distribution AlltoAll (ids; unchanged from flat);
(b) local embedding lookup of the global batch for owned features;
(c) **peer permute**: reorder the received-source axis into peer order;
(d) **intra-host AlltoAll** (NVLink): afterwards each rank holds *all
    its tower's features* for *its peer group's* batch slices;
(e) **local data shuffle**: view (features, peers) -> transpose ->
    (peers, features) -> flatten;
(f) **concurrent peer AlltoAlls**: ``L`` disjoint AlltoAlls of world
    size ``T = G/L`` exchange tower blocks so each rank ends with all
    features for its own local batch.

Tower modules slot in between (e) and (f): `forward_to_towers` stops
after (e) handing each rank a (H*B, F_t, N) block — the full tower
feature set for every peer — and `exchange_tower_outputs` performs (f)
on the (possibly compressed) module outputs.  The plain
:meth:`SPTTEmbeddingExchange.forward` wires the two with pass-through
towers and must agree *bit-exactly* with the flat pipeline — that is
the "semantic-preserving" claim (Table 3), enforced in tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.partition import FeaturePartition
from repro.core.peer import inverse_permutation, peer_permutation
from repro.core.flat_pipeline import EMB_ITEMSIZE
from repro.nn.embedding import EmbeddingBagCollection, normalize_ids
from repro.sim.cluster import SimCluster
from repro.sim.tracing import Phase


class SPTTEmbeddingExchange:
    """Topology-aware embedding exchange over a simulated cluster.

    Parameters
    ----------
    sim:
        Simulated cluster; ``sim.num_hosts`` must equal
        ``partition.num_towers`` (tower t lives on host t).
    ebc:
        Reference embedding collection (tables shared, model-parallel).
    partition:
        Feature-to-tower assignment, typically produced by the tower
        partitioner.
    """

    def __init__(
        self,
        sim: SimCluster,
        ebc: EmbeddingBagCollection,
        partition: FeaturePartition,
    ):
        if partition.num_towers != sim.num_hosts:
            raise ValueError(
                f"partition has {partition.num_towers} towers but cluster has "
                f"{sim.num_hosts} hosts; SPTT pins one tower per host"
            )
        if partition.num_features != ebc.num_features:
            raise ValueError(
                f"partition covers {partition.num_features} features, "
                f"collection has {ebc.num_features}"
            )
        self.sim = sim
        self.ebc = ebc
        self.partition = partition
        self.dim = ebc.dim
        self.num_features = ebc.num_features

        L = sim.gpus_per_host
        # Owner plan: tower t's features round-robin over host t's ranks.
        self.features_of: Dict[int, List[int]] = {
            r: [] for r in range(sim.world_size)
        }
        for t, group in enumerate(partition.groups):
            host_ranks = sim.cluster.ranks_on_host(t)
            for i, f in enumerate(group):
                self.features_of[host_ranks[i % L]].append(f)
        # Assembly order of tower t's features after step (d):
        # local rank 0's features, then local rank 1's, etc.
        self.tower_feature_order: List[List[int]] = [
            [
                f
                for r in sim.cluster.ranks_on_host(t)
                for f in self.features_of[r]
            ]
            for t in range(sim.num_hosts)
        ]
        self._peer_order = peer_permutation(sim.cluster)
        self._inv_peer_order = inverse_permutation(self._peer_order)
        self._batch: Optional[int] = None

    # ------------------------------------------------------------------
    def tower_num_features(self, tower: int) -> int:
        return len(self.tower_feature_order[tower])

    # ------------------------------------------------------------------
    # Forward half 1: steps (a)-(e)
    # ------------------------------------------------------------------
    def forward_to_towers(self, ids: Dict[int, np.ndarray]) -> Dict[int, np.ndarray]:
        """Steps (a)-(e); returns per rank the (H*B, F_t, N) tower block.

        Row layout of the output: peer-host-major — rows
        ``[j*B:(j+1)*B]`` are the batch of this rank's peer on host j.
        """
        sim = self.sim
        G, H, L = sim.world_size, sim.num_hosts, sim.gpus_per_host
        ids = {
            r: normalize_ids(a, self.num_features) for r, a in ids.items()
        }
        batches = {a.shape[0] for a in ids.values()}
        if len(batches) != 1:
            raise ValueError(f"local batch sizes differ: {batches}")
        B = batches.pop()
        self._batch = B

        # Step (a): global feature distribution (identical to flat).
        send = {
            r: [
                np.ascontiguousarray(ids[r][:, self.features_of[o], :])
                for o in range(G)
            ]
            for r in ids
        }
        recv = sim.alltoall(
            sim.world, send, phase=Phase.EMBEDDING_COMM, label="sptt.input_dist"
        )

        # Step (b): lookup, keeping the source-rank axis explicit.
        lookups: Dict[int, np.ndarray] = {}
        lookup_bytes = 0
        for o in range(G):
            feats = self.features_of[o]
            global_ids = np.concatenate(recv[o], axis=0)  # (G*B, F_o, P)
            per_feature = [
                self.ebc.tables[f](global_ids[:, i]).reshape(G, B, self.dim)
                for i, f in enumerate(feats)
            ]
            lookups[o] = (
                np.stack(per_feature, axis=0)
                if per_feature
                else np.zeros((0, G, B, self.dim))
            )
            lookup_bytes += sum(
                self.ebc.tables[f].bytes_per_sample(EMB_ITEMSIZE) for f in feats
            ) * G * B
        sim.compute(
            lookup_bytes / max(G, 1) / sim.cluster.spec.hbm_bytes_per_s,
            label="sptt.embedding_lookup",
        )

        # Step (c): peer permute the source axis.
        permuted = {o: a[:, self._peer_order] for o, a in lookups.items()}
        sim.shuffle(
            max(a.nbytes for a in permuted.values()), label="sptt.peer_permute"
        )

        # Step (d): intra-host AlltoAll (concurrent across hosts).
        # Bucket for local rank j: the j-th peer-group block of H sources.
        send_d = {
            o: [
                np.ascontiguousarray(permuted[o][:, j * H : (j + 1) * H])
                for j in range(L)
            ]
            for o in permuted
        }
        recv_d = sim.alltoall_concurrent(
            sim.host_groups, send_d, phase=Phase.EMBEDDING_COMM, label="sptt.intra_host"
        )

        # Assemble tower blocks: concat local ranks' features in order.
        towers: Dict[int, np.ndarray] = {}
        shuffle_bytes = 0
        for r in range(G):
            block = np.concatenate(recv_d[r], axis=0)  # (F_t, H, B, N)
            # Step (e): (features, peers) -> (peers, features), then
            # bring batch next to peers for the tower module view.
            reshaped = np.ascontiguousarray(block.transpose(1, 2, 0, 3)).reshape(
                H * B, block.shape[0], self.dim
            )
            towers[r] = reshaped
            shuffle_bytes = max(shuffle_bytes, reshaped.nbytes)
        sim.shuffle(shuffle_bytes, label="sptt.local_shuffle")
        return towers

    # ------------------------------------------------------------------
    # Forward half 2: step (f) on tower-module outputs
    # ------------------------------------------------------------------
    def exchange_tower_outputs(
        self, outputs: Dict[int, np.ndarray]
    ) -> Dict[int, List[np.ndarray]]:
        """Concurrent peer AlltoAlls of (H*B, O_t) tower outputs.

        Returns per rank a list indexed by tower with that tower's
        (B, O_t) output for the rank's own local batch.
        """
        sim = self.sim
        H = sim.num_hosts
        if self._batch is None:
            raise RuntimeError("exchange_tower_outputs before forward_to_towers")
        B = self._batch
        send = {}
        for r, out in outputs.items():
            out = np.asarray(out, dtype=np.float64)
            if out.ndim != 2 or out.shape[0] != H * B:
                raise ValueError(
                    f"rank {r}: tower output must be ({H * B}, O), got {out.shape}"
                )
            send[r] = [
                np.ascontiguousarray(out[j * B : (j + 1) * B]) for j in range(H)
            ]
        return sim.alltoall_concurrent(
            sim.peer_groups, send, phase=Phase.EMBEDDING_COMM, label="sptt.peer_a2a"
        )

    # ------------------------------------------------------------------
    # Backward halves (mirrors)
    # ------------------------------------------------------------------
    def backward_tower_exchange(
        self, grads: Dict[int, Sequence[np.ndarray]]
    ) -> Dict[int, np.ndarray]:
        """Mirror of step (f): per-tower output grads -> (H*B, O_t)."""
        sim = self.sim
        H = sim.num_hosts
        if self._batch is None:
            raise RuntimeError("backward before forward")
        B = self._batch
        send = {}
        for r, tower_grads in grads.items():
            if len(tower_grads) != H:
                raise ValueError(
                    f"rank {r}: need one grad per tower ({H}), got "
                    f"{len(tower_grads)}"
                )
            send[r] = [
                np.ascontiguousarray(np.asarray(g, dtype=np.float64))
                for g in tower_grads
            ]
        recv = sim.alltoall_concurrent(
            sim.peer_groups, send, phase=Phase.EMBEDDING_COMM,
            label="sptt.peer_a2a_bwd",
        )
        return {r: np.concatenate(blocks, axis=0) for r, blocks in recv.items()}

    def backward_from_towers(self, grad_towers: Dict[int, np.ndarray]) -> None:
        """Mirror of steps (e)-(b): tower-block grads into the tables."""
        sim = self.sim
        G, H, L = sim.world_size, sim.num_hosts, sim.gpus_per_host
        if self._batch is None:
            raise RuntimeError("backward before forward")
        B = self._batch

        # Reverse step (e): (H*B, F_t, N) -> (F_t, H, B, N).
        unshuffled: Dict[int, np.ndarray] = {}
        shuffle_bytes = 0
        for r, g in grad_towers.items():
            g = np.asarray(g, dtype=np.float64)
            F_t = self.tower_num_features(sim.cluster.host_of(r))
            if g.shape != (H * B, F_t, self.dim):
                raise ValueError(
                    f"rank {r}: expected ({H * B}, {F_t}, {self.dim}), "
                    f"got {g.shape}"
                )
            unshuffled[r] = np.ascontiguousarray(
                g.reshape(H, B, F_t, self.dim).transpose(2, 0, 1, 3)
            )
            shuffle_bytes = max(shuffle_bytes, g.nbytes)
        sim.shuffle(shuffle_bytes, label="sptt.local_shuffle_bwd")

        # Reverse step (d): return each local rank's feature rows.
        send = {}
        for r in range(G):
            host = sim.cluster.host_of(r)
            host_ranks = sim.cluster.ranks_on_host(host)
            buckets, start = [], 0
            for peer_local in host_ranks:
                n_own = len(self.features_of[peer_local])
                buckets.append(
                    np.ascontiguousarray(unshuffled[r][start : start + n_own])
                )
                start += n_own
            send[r] = buckets
        recv = sim.alltoall_concurrent(
            sim.host_groups, send, phase=Phase.EMBEDDING_COMM,
            label="sptt.intra_host_bwd",
        )

        # Reassemble the peer-ordered source axis, reverse step (c),
        # then scatter into tables (reverse step (b)).
        scatter_bytes = 0
        for o in range(G):
            feats = self.features_of[o]
            if not feats:
                continue
            # recv[o][j] is (F_own, H, B, N): grads for peer group j.
            peer_ordered = np.concatenate(recv[o], axis=1)  # (F_own, G, B, N)
            rank_ordered = peer_ordered[:, self._inv_peer_order]
            flat = rank_ordered.reshape(len(feats), G * B, self.dim)
            for i, f in enumerate(feats):
                self.ebc.tables[f].backward(flat[i])
                scatter_bytes += flat[i].nbytes
        sim.shuffle(
            max(a.nbytes for a in grad_towers.values()), label="sptt.peer_permute_bwd"
        )
        sim.compute(
            scatter_bytes / max(G, 1) / sim.cluster.spec.hbm_bytes_per_s,
            label="sptt.embedding_grad_scatter",
        )

    # ------------------------------------------------------------------
    # Pass-through end-to-end (the Table 3 configuration)
    # ------------------------------------------------------------------
    def forward(self, ids: Dict[int, np.ndarray]) -> Dict[int, np.ndarray]:
        """Full SPTT with identity towers; must equal the flat exchange."""
        sim = self.sim
        towers = self.forward_to_towers(ids)
        B = self._batch
        flat_out = {r: t.reshape(t.shape[0], -1) for r, t in towers.items()}
        exchanged = self.exchange_tower_outputs(flat_out)
        out: Dict[int, np.ndarray] = {}
        for r in range(sim.world_size):
            embs = np.empty((B, self.num_features, self.dim))
            for t, block in enumerate(exchanged[r]):
                feats = self.tower_feature_order[t]
                embs[:, feats, :] = block.reshape(B, len(feats), self.dim)
            out[r] = embs
        return out

    def backward(self, grads: Dict[int, np.ndarray]) -> None:
        """Full SPTT backward for the pass-through configuration."""
        sim = self.sim
        if self._batch is None:
            raise RuntimeError("backward called before forward")
        B = self._batch
        per_tower: Dict[int, List[np.ndarray]] = {}
        for r, g in grads.items():
            g = np.asarray(g, dtype=np.float64)
            if g.shape != (B, self.num_features, self.dim):
                raise ValueError(
                    f"rank {r}: grad shape {g.shape} != "
                    f"({B}, {self.num_features}, {self.dim})"
                )
            per_tower[r] = [
                np.ascontiguousarray(
                    g[:, self.tower_feature_order[t], :]
                ).reshape(B, -1)
                for t in range(sim.num_hosts)
            ]
        grad_towers_flat = self.backward_tower_exchange(per_tower)
        grad_towers = {
            r: gt.reshape(
                gt.shape[0],
                self.tower_num_features(sim.cluster.host_of(r)),
                self.dim,
            )
            for r, gt in grad_towers_flat.items()
        }
        self.backward_from_towers(grad_towers)
