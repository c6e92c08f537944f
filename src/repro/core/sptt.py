"""SPTT — the Semantic-Preserving Tower Transform (Figure 7, §3.1).

The transform decomposes the flat paradigm's global embedding AlltoAll
into topology-aware steps:

(a) global feature-distribution AlltoAll (ids; unchanged from flat);
(b) local embedding lookup of the global batch for owned features;
(c) **peer permute**: reorder the received-source axis into peer order;
(d) **intra-tower AlltoAll**: afterwards each rank holds *all its
    tower's features* for *its peer group's* batch slices;
(e) **local data shuffle**: (features, peers) -> (peers, features),
    flattened;
(f) **concurrent peer AlltoAlls**: ``K*L`` disjoint AlltoAlls of world
    size ``T`` exchange tower blocks so each rank ends with all
    features for its own local batch.  A tower spans ``K = H/T`` hosts
    (:func:`repro.comm.tower_groups`; ``K = 1`` is one per host).

Tower modules slot in between (e) and (f): `forward_to_towers` stops
after (e) handing each rank a (T*B, F_t, N) block — the full tower
feature set, in the partition's own order, for every peer — and
`exchange_tower_outputs` performs (f) on the (possibly compressed)
module outputs.

Every step is still priced where Figure 7 has it, but the host moves an
activation once per *hop*: peer group ``j`` is the arithmetic
progression ``j, j + KL, j + 2KL, ...`` of ranks, so step (c)+(d)'s
bucket for tower position ``j`` is the strided view ``[:, j::KL]`` of
the lookup buffer, and the receiver's one write into its tower block is
step (e).  Steps (a)/(b) and the reverse-(b) scatter are
:class:`~repro.core.flat_pipeline.TableOwnerExchange`'s, shared with the
flat exchange.  The plain
:meth:`SPTTEmbeddingExchange.forward` wires the two with pass-through
towers and must agree *bit-exactly* with the flat pipeline — that is
the "semantic-preserving" claim (Table 3), enforced in tests.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.comm.functional import check_membership
from repro.comm.process_group import tower_groups
from repro.core.partition import FeaturePartition, feature_owners
from repro.core.flat_pipeline import TableOwnerExchange
from repro.nn.embedding import EmbeddingBagCollection
from repro.sim.cluster import SimCluster
from repro.sim.tracing import Phase


class SPTTEmbeddingExchange(TableOwnerExchange):
    """Topology-aware embedding exchange over a simulated cluster.

    Parameters
    ----------
    sim:
        Simulated cluster; ``partition.num_towers`` must divide
        ``sim.num_hosts``.
    ebc:
        Reference embedding collection (tables shared, model-parallel).
    partition:
        Feature-to-tower assignment, typically produced by the tower
        partitioner.
    """

    _label_prefix = "sptt."

    def __init__(
        self,
        sim: SimCluster,
        ebc: EmbeddingBagCollection,
        partition: FeaturePartition,
    ):
        self.tower_groups, self.peer_groups = tower_groups(
            sim.cluster, partition.num_towers
        )
        super().__init__(sim, ebc)
        self.features_of = feature_owners(
            sim.cluster, ebc.num_features, partition
        )
        self.partition = partition

        M = self.tower_groups[0].world_size  # K*L ranks per tower
        self.tower_of = {
            r: t for t, g in enumerate(self.tower_groups) for r in g.ranks
        }
        # Feature order of a tower block: the partition's own.
        self.tower_feature_order: List[List[int]] = [
            list(group) for group in partition.groups
        ]
        # Peer group j on the source-rank axis (peer order, blockwise).
        self._peer_blocks = [slice(j, None, M) for j in range(M)]

    # ------------------------------------------------------------------
    def tower_num_features(self, tower: int) -> int:
        return len(self.tower_feature_order[tower])

    # ------------------------------------------------------------------
    # Forward half 1: steps (a)-(e)
    # ------------------------------------------------------------------
    def forward_to_towers(self, ids: Dict[int, np.ndarray]) -> Dict[int, np.ndarray]:
        """Steps (a)-(e); returns per rank the (T*B, F_t, N) tower block,
        features in partition order.

        Row layout of the output: peer-tower-major — rows
        ``[j*B:(j+1)*B]`` are the batch of this rank's peer in tower j.
        """
        sim = self.sim
        T, M = len(self.tower_groups), len(self._peer_blocks)
        lookups = self._lookup_global_batch(ids)
        B = self._batch

        # Step (c): peer permute the source axis — priced here, moved
        # by step (d)'s strided buckets.
        sim.shuffle(
            max(a.nbytes for a in lookups.values()), label="sptt.peer_permute"
        )

        # Step (d): intra-tower AlltoAll (concurrent across towers).
        # Bucket for tower position j: peer group j's T sources.
        send = {
            o: [a[:, block] for block in self._peer_blocks]
            for o, a in lookups.items()
        }
        recv = sim.alltoall_concurrent(
            self.tower_groups, send, phase=Phase.EMBEDDING_COMM,
            label="sptt.intra_host",
        )

        # Step (e): tower position i's (F_i, T, B, N) piece lands at the
        # tower's positions i::M as (peers, batch, features).
        towers: Dict[int, np.ndarray] = {}
        for r, t in self.tower_of.items():
            F_t = self.tower_num_features(t)
            block = np.empty((T, B, F_t, self.dim), self.dtype)
            for i, piece in enumerate(recv[r]):
                block[:, :, i::M] = piece.transpose(1, 2, 0, 3)
            towers[r] = block.reshape(T * B, F_t, self.dim)
        sim.shuffle(
            max(t.nbytes for t in towers.values()), label="sptt.local_shuffle"
        )
        return towers

    # ------------------------------------------------------------------
    # Forward half 2: step (f) on tower-module outputs
    # ------------------------------------------------------------------
    def exchange_tower_outputs(
        self, outputs: Dict[int, np.ndarray]
    ) -> Dict[int, List[np.ndarray]]:
        """Concurrent peer AlltoAlls of (T*B, O_t) tower outputs.

        Returns per rank a list indexed by tower with that tower's
        (B, O_t) output for the rank's own local batch — row slices of
        the arrays passed in.
        """
        sim = self.sim
        T = len(self.tower_groups)
        B = self._require_forward("exchange_tower_outputs")
        check_membership(sim.world, outputs)
        send = {}
        for r, out in outputs.items():
            out = np.asarray(out, dtype=self.dtype)
            if out.ndim != 2 or out.shape[0] != T * B:
                raise ValueError(
                    f"rank {r}: tower output must be ({T * B}, O), got {out.shape}"
                )
            send[r] = [out[j * B : (j + 1) * B] for j in range(T)]
        return sim.alltoall_concurrent(
            self.peer_groups, send, phase=Phase.EMBEDDING_COMM, label="sptt.peer_a2a"
        )

    # ------------------------------------------------------------------
    # Backward halves (mirrors)
    # ------------------------------------------------------------------
    def backward_tower_exchange(
        self, grads: Dict[int, Sequence[np.ndarray]]
    ) -> Dict[int, np.ndarray]:
        """Mirror of step (f): per-tower output grads -> (T*B, O_t)."""
        sim = self.sim
        T = len(self.tower_groups)
        self._require_forward("backward_tower_exchange")
        check_membership(sim.world, grads)
        send = {}
        for r, tower_grads in grads.items():
            if len(tower_grads) != T:
                raise ValueError(
                    f"rank {r}: need one grad per tower ({T}), got "
                    f"{len(tower_grads)}"
                )
            send[r] = [np.asarray(g, dtype=self.dtype) for g in tower_grads]
        recv = sim.alltoall_concurrent(
            self.peer_groups, send, phase=Phase.EMBEDDING_COMM,
            label="sptt.peer_a2a_bwd",
        )
        return {r: np.concatenate(blocks, axis=0) for r, blocks in recv.items()}

    def backward_from_towers(self, grad_towers: Dict[int, np.ndarray]) -> None:
        """Mirror of steps (e)-(b): tower-block grads into the tables."""
        sim = self.sim
        T, M = len(self.tower_groups), len(self._peer_blocks)
        B = self._require_forward("backward_from_towers")
        check_membership(sim.world, grad_towers)

        # Reverse steps (e)+(d): tower position i gets back its
        # features' rows, positions i::M of the block, as (F_i, T, B, N).
        send = {}
        shuffle_bytes = 0
        for r, g in grad_towers.items():
            g = np.asarray(g, dtype=self.dtype)
            F_t = self.tower_num_features(self.tower_of[r])
            if g.shape != (T * B, F_t, self.dim):
                raise ValueError(
                    f"rank {r}: expected ({T * B}, {F_t}, {self.dim}), "
                    f"got {g.shape}"
                )
            peers = g.reshape(T, B, F_t, self.dim)
            send[r] = [peers[:, :, i::M].transpose(2, 0, 1, 3) for i in range(M)]
            shuffle_bytes = max(shuffle_bytes, g.nbytes)
        sim.shuffle(shuffle_bytes, label="sptt.local_shuffle_bwd")
        recv = sim.alltoall_concurrent(
            self.tower_groups, send, phase=Phase.EMBEDDING_COMM,
            label="sptt.intra_host_bwd",
        )

        # Reverse step (c) is the write of peer group j's piece at
        # [:, j::M] of the owner's source axis; then reverse step (b).
        sim.shuffle(shuffle_bytes, label="sptt.peer_permute_bwd")
        self._scatter_into_tables(recv, self._peer_blocks)

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
            embs = np.empty((B, self.num_features, self.dim), self.dtype)
            for t, block in enumerate(exchanged[r]):
                feats = self.tower_feature_order[t]
                embs[:, feats, :] = block.reshape(B, len(feats), self.dim)
            out[r] = embs
        return out

    def backward(self, grads: Dict[int, np.ndarray]) -> None:
        """Full SPTT backward for the pass-through configuration."""
        B = self._require_forward("backward")
        per_tower: Dict[int, List[np.ndarray]] = {}
        for r, g in grads.items():
            g = np.asarray(g, dtype=self.dtype)
            if g.shape != (B, self.num_features, self.dim):
                raise ValueError(
                    f"rank {r}: grad shape {g.shape} != "
                    f"({B}, {self.num_features}, {self.dim})"
                )
            per_tower[r] = [
                g[:, feats, :].reshape(B, -1)
                for feats in self.tower_feature_order
            ]
        grad_towers_flat = self.backward_tower_exchange(per_tower)
        self.backward_from_towers(
            {
                r: gt.reshape(
                    gt.shape[0], self.tower_num_features(self.tower_of[r]), self.dim
                )
                for r, gt in grad_towers_flat.items()
            }
        )
