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
after (e) with each rank's (T*B, F_t, N) block — the full tower
feature set, in the partition's own order, for every peer — written
as its column of one batch-ordered (G*B, F_t, N) buffer per tower, so
a tower module runs once over its group's rows; and
`exchange_tower_outputs` performs (f) on the (possibly compressed)
module outputs, receiving into one batch-ordered buffer per tower.

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
    def forward_to_towers(self, ids: Dict[int, np.ndarray]) -> List[np.ndarray]:
        """Steps (a)-(e); returns per tower its group's (G*B, F_t, N)
        block, features in partition order, rows in batch order.

        The block is one ``(T, M, B, F_t, N)`` buffer: rank ``(t, i)``
        (position ``i`` of tower ``t``'s group) holds column ``[:, i]``,
        its (T*B, F_t, N) peer block, whose rows ``[j*B:(j+1)*B]`` are
        the batch of its peer in tower ``j`` — rank ``j*M + i``.
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

        # Step (e): at rank (t, i), tower position k's (F_k, T, B, N)
        # piece lands at the tower's features k::M of its column.
        blocks = [
            np.empty((T * M * B, self.tower_num_features(t), self.dim), self.dtype)
            for t in range(T)
        ]
        for r, column in self._columns(blocks):
            for k, piece in enumerate(recv[r]):
                column[:, :, k::M] = piece.transpose(1, 2, 0, 3)
        sim.shuffle(
            max(b.nbytes for b in blocks) // M, label="sptt.local_shuffle"
        )
        return blocks

    # ------------------------------------------------------------------
    # Forward half 2: step (f) on tower-module outputs
    # ------------------------------------------------------------------
    def exchange_tower_outputs(
        self, outputs: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """Concurrent peer AlltoAlls of the (G*B, O_t) tower outputs:
        each rank sends its peers their rows of its column, and
        receives its B rows of every tower into one batch-ordered
        (G*B, O_t) buffer per tower, which is returned."""
        outputs = self._per_tower(outputs, "output", "exchange_tower_outputs")
        recv = self.sim.alltoall_concurrent(
            self.peer_groups,
            {r: list(column) for r, column in self._columns(outputs)},
            phase=Phase.EMBEDDING_COMM, label="sptt.peer_a2a",
        )
        B = self._batch
        received = [np.empty_like(out) for out in outputs]
        for r, pieces in recv.items():
            for buf, piece in zip(received, pieces):
                buf[r * B : (r + 1) * B] = piece
        return received

    # ------------------------------------------------------------------
    # Backward halves (mirrors)
    # ------------------------------------------------------------------
    def backward_tower_exchange(
        self, grads: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """Mirror of step (f): per-tower (G*B, O_t) output grads back
        into each rank's column of one batch-ordered buffer per tower."""
        grads = self._per_tower(grads, "gradient", "backward_tower_exchange")
        B = self._batch
        recv = self.sim.alltoall_concurrent(
            self.peer_groups,
            {
                r: [g[r * B : (r + 1) * B] for g in grads]
                for r in range(self.sim.world_size)
            },
            phase=Phase.EMBEDDING_COMM, label="sptt.peer_a2a_bwd",
        )
        received = [np.empty_like(g) for g in grads]
        for r, column in self._columns(received):
            for j, piece in enumerate(recv[r]):
                column[j] = piece
        return received

    def backward_from_towers(self, grad_towers: Sequence[np.ndarray]) -> None:
        """Mirror of steps (e)-(b): per-tower (G*B, F_t, N) block grads,
        in :meth:`forward_to_towers`' layout, into the tables."""
        sim = self.sim
        M = len(self._peer_blocks)
        grads = self._per_tower(grad_towers, "block gradient", "backward_from_towers")
        for t, g in enumerate(grads):
            if g.shape[1:] != (self.tower_num_features(t), self.dim):
                raise ValueError(
                    f"tower {t}: block gradient {g.shape} is not "
                    f"(G*B, {self.tower_num_features(t)}, {self.dim})"
                )

        # Reverse steps (e)+(d): rank (t, i) sends tower position k its
        # features' rows, k::M of its column, as (F_k, T, B, N).
        shuffle_bytes = max(g.nbytes for g in grads) // M
        sim.shuffle(shuffle_bytes, label="sptt.local_shuffle_bwd")
        recv = sim.alltoall_concurrent(
            self.tower_groups,
            {
                r: [column[:, :, k::M].transpose(2, 0, 1, 3) for k in range(M)]
                for r, column in self._columns(grads)
            },
            phase=Phase.EMBEDDING_COMM, label="sptt.intra_host_bwd",
        )

        # Reverse step (c) is the write of peer group j's piece at
        # [:, j::M] of the owner's source axis; then reverse step (b).
        sim.shuffle(shuffle_bytes, label="sptt.peer_permute_bwd")
        self._scatter_into_tables(recv, self._peer_blocks)

    # ------------------------------------------------------------------
    def _columns(self, arrays: Sequence[np.ndarray]):
        """``(rank, column)`` of every rank ``(t, i)``: the (T, B, ...)
        view ``[:, i]`` of tower ``t``'s batch-ordered array as
        ``(T, M, B, ...)``; peer ``j``'s (rank ``j*M + i``'s) rows at
        ``[j]``."""
        T, M = len(self.tower_groups), len(self._peer_blocks)
        for a, group in zip(arrays, self.tower_groups):
            peers = a.reshape(T, M, self._batch, *a.shape[1:])
            for i, r in enumerate(group.ranks):
                yield r, peers[:, i]

    def _per_tower(self, arrays, what: str, caller: str) -> List[np.ndarray]:
        """One (G*B, ...) array per tower in the tables' dtype, checked
        before any event is priced."""
        rows = self.sim.world_size * self._require_forward(caller)
        T = len(self.tower_groups)
        if len(arrays) != T:
            raise ValueError(f"need one {what} per tower ({T}), got {len(arrays)}")
        arrays = [np.asarray(a, dtype=self.dtype) for a in arrays]
        for t, a in enumerate(arrays):
            if a.ndim < 2 or len(a) != rows:
                raise ValueError(f"tower {t}: {what} {a.shape} has not {rows} rows")
        return arrays

    # ------------------------------------------------------------------
    # Pass-through end-to-end (the Table 3 configuration)
    # ------------------------------------------------------------------
    def forward(self, ids: Dict[int, np.ndarray]) -> Dict[int, np.ndarray]:
        """Full SPTT with identity towers; must equal the flat exchange."""
        blocks = self.forward_to_towers(ids)
        exchanged = self.exchange_tower_outputs(
            [b.reshape(len(b), -1) for b in blocks]
        )
        B = self._batch
        embs = np.empty((len(blocks[0]), self.num_features, self.dim), self.dtype)
        for feats, block in zip(self.tower_feature_order, exchanged):
            embs[:, feats, :] = block.reshape(len(block), len(feats), self.dim)
        return {r: embs[r * B : (r + 1) * B] for r in range(self.sim.world_size)}

    def backward(self, grads: Dict[int, np.ndarray]) -> None:
        """Full SPTT backward for the pass-through configuration."""
        sim = self.sim
        B = self._require_forward("backward")
        check_membership(sim.world, grads)
        shape = (B, self.num_features, self.dim)
        for r, g in grads.items():
            if np.shape(g) != shape:
                raise ValueError(f"rank {r}: grad shape {np.shape(g)} != {shape}")
        g = np.concatenate([grads[r] for r in range(sim.world_size)])
        grad_towers = self.backward_tower_exchange(
            [g[:, feats, :].reshape(len(g), -1) for feats in self.tower_feature_order]
        )
        self.backward_from_towers(
            [gt.reshape(len(gt), -1, self.dim) for gt in grad_towers]
        )
