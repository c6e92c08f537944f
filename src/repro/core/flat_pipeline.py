"""The classic (flat) embedding exchange — Figure 4, the baseline.

Steps, executed over a :class:`~repro.sim.SimCluster`:

(a) global AlltoAll distributing each rank's sparse ids to the rank
    owning the feature's table;
(b) local lookup of the global batch for owned features;
(c) global AlltoAll returning embeddings to the data-parallel ranks.

The backward pass routes embedding gradients through the mirror of (c)
and scatter-adds into the tables.

Steps (a)/(b) and the reverse-(b) table scatter are Figure 7's too, so
they are stated once, on :class:`TableOwnerExchange`, and the SPTT
exchange (:mod:`repro.core.sptt`) inherits them.

Tables are *shared* with a reference
:class:`~repro.nn.embedding.EmbeddingBagCollection` (model parallelism:
exactly one owner per table), so optimizer steps on the collection
apply to the distributed view too — this is what lets the tests prove
distributed == single-process training exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.comm.functional import check_membership
from repro.core.partition import feature_owners
from repro.nn.embedding import EmbeddingBagCollection, normalize_ids
from repro.sim.cluster import SimCluster
from repro.sim.tracing import Phase


class TableOwnerExchange:
    """What an exchange does on the ranks that own the tables.

    Figures 4 and 7 share it: ids travel to the owners (a), each owner
    looks up the *global* batch (b), and in backward each owner
    scatters the returned gradients into its tables (reverse b).  A
    subclass sets ``features_of`` (owner rank -> its features, in
    lookup order; :func:`~repro.core.partition.feature_owners`) and
    ``_label_prefix``, and routes the lookups.

    Buffer contract (docs/invariants.md): the buckets handed to a
    collective are views of the buffers built here; a receiver copies
    what it received into memory of its own and never writes into it.
    Every buffer an exchange moves is in the tables' dtype (``dtype``).
    """

    _label_prefix = ""
    features_of: Dict[int, List[int]]

    def __init__(self, sim: SimCluster, ebc: EmbeddingBagCollection):
        self.sim = sim
        self.ebc = ebc
        self.num_features = ebc.num_features
        self.dim = ebc.dim
        self.dtype = ebc.dtype
        self._batch: Optional[int] = None

    def _require_forward(self, what: str) -> int:
        """The local batch size the last forward fixed."""
        if self._batch is None:
            raise RuntimeError(f"{what} called before forward")
        return self._batch

    def _lookup_global_batch(
        self, ids: Dict[int, np.ndarray]
    ) -> Dict[int, np.ndarray]:
        """Steps (a)-(b): per owner ``o`` the ``(F_o, G, B, N)`` lookups
        of its features, source rank on axis 1."""
        sim = self.sim
        G = sim.world_size
        check_membership(sim.world, ids)
        ids = {
            r: normalize_ids(a, self.num_features) for r, a in ids.items()
        }
        batches = {a.shape[0] for a in ids.values()}
        if len(batches) != 1:
            raise ValueError(f"local batch sizes differ: {batches}")
        B = self._batch = batches.pop()

        # Step (a): feature distribution.  Bucket for owner o holds the
        # id columns of o's features.
        send = {
            r: [ids[r][:, self.features_of[o], :] for o in range(G)]
            for r in ids
        }
        recv = sim.alltoall(
            sim.world, send, phase=Phase.EMBEDDING_COMM,
            label=self._label_prefix + "input_dist",
        )

        # Step (b): each table writes its global-batch lookup into the
        # owner's buffer, in group-rank (source) order.
        lookups: Dict[int, np.ndarray] = {}
        lookup_bytes = 0
        for o in range(G):
            feats = self.features_of[o]
            global_ids = np.concatenate(recv[o], axis=0)  # (G*B, F_o, P)
            lookups[o] = np.empty((len(feats), G, B, self.dim), self.dtype)
            rows = lookups[o].reshape(len(feats), G * B, self.dim)
            for i, f in enumerate(feats):
                table = self.ebc.tables[f]
                rows[i] = table(global_ids[:, i])
                lookup_bytes += table.bytes_per_sample() * G * B
        # All ranks look up concurrently; price the heaviest.
        sim.compute(
            lookup_bytes / G / sim.cluster.spec.hbm_bytes_per_s,
            label=self._label_prefix + "embedding_lookup",
        )
        return lookups

    def _scatter_into_tables(
        self, recv: Dict[int, Sequence[np.ndarray]], sources: Sequence
    ) -> None:
        """Reverse step (b).  ``recv[o][k]`` holds owner ``o``'s
        ``(F_o, ..., B, N)`` gradients for the source ranks
        ``sources[k]`` — an index or slice of the ``G`` axis; together
        the ``sources`` cover it, restoring forward's source order."""
        sim = self.sim
        G, B = sim.world_size, self._batch
        scatter_bytes = 0
        for o in range(G):
            feats = self.features_of[o]
            grad = np.empty((len(feats), G, B, self.dim), self.dtype)
            for piece, source in zip(recv[o], sources):
                grad[:, source] = piece
            rows = grad.reshape(len(feats), G * B, self.dim)
            for i, f in enumerate(feats):
                self.ebc.tables[f].backward(rows[i])
                scatter_bytes += rows[i].nbytes
        sim.compute(
            scatter_bytes / G / sim.cluster.spec.hbm_bytes_per_s,
            label=self._label_prefix + "embedding_grad_scatter",
        )


class FlatEmbeddingExchange(TableOwnerExchange):
    """Flat-paradigm embedding lookup over a simulated cluster.

    Parameters
    ----------
    sim:
        Simulated cluster (data movement + pricing).
    ebc:
        The reference embedding collection; its tables are placed on
        ranks according to ``plan``.
    plan:
        ``plan[f]`` is the global rank owning feature ``f``'s table;
        by default rank ``f % G`` (:func:`feature_owners`).
    """

    def __init__(
        self,
        sim: SimCluster,
        ebc: EmbeddingBagCollection,
        plan: Optional[Sequence[int]] = None,
    ):
        super().__init__(sim, ebc)
        if plan is None:
            self.features_of = feature_owners(sim.cluster, self.num_features)
        elif len(plan) != self.num_features:
            raise ValueError(
                f"plan covers {len(plan)} features, expected {self.num_features}"
            )
        else:
            self.features_of = {r: [] for r in range(sim.world_size)}
            for f, owner in enumerate(plan):
                if owner not in self.features_of:
                    raise ValueError(
                        f"feature {f} assigned to invalid rank {owner}"
                    )
                self.features_of[owner].append(f)

    # ------------------------------------------------------------------
    def forward(self, ids: Dict[int, np.ndarray]) -> Dict[int, np.ndarray]:
        """Run steps (a)-(c); returns (B, F, N) embeddings per rank."""
        sim = self.sim
        G = sim.world_size
        lookups = self._lookup_global_batch(ids)

        # Step (c): return embeddings to data-parallel ranks — rank r's
        # bucket is its (F_o, B, N) slice of the source axis.
        send_back = {o: [lookups[o][:, r] for r in range(G)] for o in range(G)}
        recv_back = sim.alltoall(
            sim.world, send_back, phase=Phase.EMBEDDING_COMM, label="output_dist"
        )

        out: Dict[int, np.ndarray] = {}
        for r in range(G):
            embs = np.empty((self._batch, self.num_features, self.dim), self.dtype)
            for o in range(G):
                embs[:, self.features_of[o], :] = recv_back[r][o].transpose(1, 0, 2)
            out[r] = embs
        return out

    def backward(self, grads: Dict[int, np.ndarray]) -> None:
        """Mirror of step (c) for gradients + scatter-add into tables."""
        sim = self.sim
        G, B = sim.world_size, self._require_forward("backward")
        send = {}
        for r, g in grads.items():
            g = np.asarray(g, dtype=self.dtype)
            if g.shape != (B, self.num_features, self.dim):
                raise ValueError(
                    f"rank {r}: grad shape {g.shape} != "
                    f"({B}, {self.num_features}, {self.dim})"
                )
            # Bucket for owner o: (F_o, B, N) in o's feature order.
            send[r] = [
                g[:, self.features_of[o], :].transpose(1, 0, 2)
                for o in range(G)
            ]
        recv = sim.alltoall(
            sim.world, send, phase=Phase.EMBEDDING_COMM, label="grad_dist"
        )
        self._scatter_into_tables(recv, range(G))
