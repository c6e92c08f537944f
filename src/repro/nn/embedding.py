"""Embedding tables and collections (the sparse component).

An :class:`EmbeddingTable` converts integer ids into dense vectors with
sum pooling over the hotness axis; an :class:`EmbeddingBagCollection`
owns one table per sparse feature — the unsharded counterpart of the
model-parallel layout that :mod:`repro.core` distributes across ranks.

The collection is *fused*: all tables (which share ``dim``) live in one
stacked ``(sum(rows), dim)`` matrix with per-feature row offsets, so a
collection lookup is a single gather and a collection backward is a
single ordered segment-sum — no Python loop over F tables on the hot
path.  Each table's :class:`~repro.nn.module.Parameter` is a row-slice
view into the stacked matrix, so parameter names, sharding plans, and
per-table use by the distributed exchanges are unchanged.

The fused matrix is the only layout a collection runs: a table whose
``weight.data`` no longer views it is an error at ``forward``, not a
second path.  Gradients are always the compact row-wise representation
(:class:`~repro.nn.sparse.RowwiseGrad`): a batch touches at most
``B * pooling`` rows, and materializing the table-sized dense gradient
is exactly the memory-bound waste the paper's embedding plane must
avoid.  A dense optimizer still works: reading ``Parameter.grad``
densifies the pending row-wise gradient.

Tables are :data:`~repro.nn.module.DTYPE` (float32, the paper's
precision), and every byte count of a table derives from it.  Lookup is
modeled as memory traffic, not flops (the paper's MFlops/sample numbers
cover the dense arch); ``bytes_per_sample`` feeds the iteration latency
model's HBM term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.nn.init import uniform_embedding_init
from repro.nn.module import DTYPE, Module, Parameter
from repro.nn.sparse import RowwiseGrad


def _check_ids_in_range(ids: np.ndarray, limit: int, name: str) -> None:
    """Single-pass bounds check of integer ids against ``[0, limit)``.

    Casting to unsigned folds the two comparisons (``< 0`` and
    ``>= limit``) into one: negative ids wrap to huge values, so one
    ``>= limit`` scan catches both ends.
    """
    if (ids.astype(np.uint64, copy=False) >= np.uint64(limit)).any():
        raise IndexError(f"ids out of range [0, {limit}) for table {name}")


def _bags_of_one(weight: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Sum-pooled lookup when every bag holds one row: the gather
    itself, without a ``(..., 1, N)`` intermediate to reduce.  A sum
    starts from +0.0, so a stored ``-0.0`` pools to ``+0.0``; adding
    0.0 keeps that."""
    out = weight[rows]
    out += 0.0
    return out


def normalize_ids(ids: np.ndarray, num_features: int) -> np.ndarray:
    """Sparse ids as int64 ``(B, num_features, P)``; ``(B, F)`` means
    ``P == 1``.  The one statement of the id layout, shared by the
    collection and both embedding exchanges."""
    ids = np.asarray(ids)
    if ids.ndim == 2:
        ids = ids[:, :, None]
    if ids.ndim != 3 or ids.shape[1] != num_features:
        raise ValueError(
            f"ids must be (B, {num_features}[, P]), got {ids.shape}"
        )
    return ids.astype(np.int64, copy=False)


def tower_blocks(
    buffer: np.ndarray, groups: Sequence[Sequence[int]]
) -> List[np.ndarray]:
    """The ``(B, len(g), N)`` block views of a tower-major ``(B*F, N)``
    buffer, one per group, in group order."""
    batch = buffer.shape[0] // sum(len(g) for g in groups)
    blocks, start = [], 0
    for group in groups:
        stop = start + batch * len(group)
        blocks.append(buffer[start:stop].reshape(batch, len(group), -1))
        start = stop
    return blocks


@dataclass(frozen=True)
class TableConfig:
    """Configuration of one embedding table.

    Attributes
    ----------
    name:
        Feature name (also the table's identity in sharding plans).
    num_embeddings:
        Row count (hash-space cardinality).
    dim:
        Embedding dimension ``N``; the paper's open-source models use
        a global N=128.
    pooling:
        Multi-hot pooling factor: ids per sample for this feature.
    """

    name: str
    num_embeddings: int
    dim: int
    pooling: int = 1

    def __post_init__(self) -> None:
        if self.num_embeddings <= 0:
            raise ValueError(f"{self.name}: num_embeddings must be > 0")
        if self.dim <= 0:
            raise ValueError(f"{self.name}: dim must be > 0")
        if self.pooling <= 0:
            raise ValueError(f"{self.name}: pooling must be > 0")

    @property
    def num_parameters(self) -> int:
        return self.num_embeddings * self.dim

    @property
    def row_bytes(self) -> int:
        """Bytes of one row in :data:`~repro.nn.module.DTYPE`."""
        return self.dim * DTYPE.itemsize

    @property
    def storage_bytes(self) -> int:
        """Bytes of the whole table."""
        return self.num_embeddings * self.row_bytes

    def bytes_per_sample(self) -> int:
        """HBM bytes touched per sample: pooled rows read (+written in
        the backward scatter, accounted by the caller)."""
        return self.pooling * self.row_bytes


class EmbeddingTable(Module):
    """One sum-pooled embedding bag.

    Input ids have shape (B,) or (B, pooling); output is (B, dim).

    ``weight`` may be supplied by a fused collection (a row-slice view
    into the stacked matrix); standalone tables allocate and initialize
    their own.
    """

    def __init__(
        self,
        config: TableConfig,
        rng: Optional[np.random.Generator] = None,
        weight: Optional[Parameter] = None,
    ):
        self.config = config
        if weight is not None:
            if weight.shape != (config.num_embeddings, config.dim):
                raise ValueError(
                    f"supplied weight shape {weight.shape} != "
                    f"({config.num_embeddings}, {config.dim})"
                )
            self.weight = weight
        else:
            rng = rng or np.random.default_rng(0)
            self.weight = Parameter(
                uniform_embedding_init(
                    rng, config.num_embeddings, config.dim
                ).astype(DTYPE),
                name=f"emb.{config.name}",
            )
        self._ids: Optional[np.ndarray] = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.ndim == 1:
            ids = ids[:, None]
        if ids.ndim != 2:
            raise ValueError(f"ids must be (B,) or (B, pooling), got {ids.shape}")
        _check_ids_in_range(ids, self.config.num_embeddings, self.config.name)
        self._ids = ids
        if ids.shape[1] == 1:
            return _bags_of_one(self.weight.data, ids[:, 0])
        # (B, P, N) gather then sum-pool over P.
        return self.weight.data[ids].sum(axis=1)

    def backward(self, grad_output: np.ndarray) -> None:
        """Route pooled gradients into the table rows as one
        :class:`RowwiseGrad` over the touched rows, never materializing
        the (num_embeddings, dim) array.  Returns None: ids are
        integers, there is no upstream gradient.
        """
        if self._ids is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=self.weight.data.dtype)
        B = self._ids.shape[0]
        if grad_output.shape != (B, self.config.dim):
            raise ValueError(
                f"grad shape {grad_output.shape} != ({B}, {self.config.dim})"
            )
        self.weight.add_row_grad(RowwiseGrad.from_pooled(self._ids, grad_output))

    def flops_per_sample(self) -> int:
        return 0  # memory-bound; see bytes_per_sample

    def bytes_per_sample(self) -> int:
        return self.config.bytes_per_sample()


class EmbeddingBagCollection(Module):
    """One table per sparse feature; the model-parallel unit of DLRM.

    Input ids: (B, F) single-hot or (B, F, P) multi-hot (uniform P);
    output: (B, F, N), or tower-major when ``forward`` is given the
    feature groups of a tower partition.  All tables must share ``dim``
    — the paper's models use a uniform N so embeddings stack into one
    dense tensor for the interaction arch — which is also what lets the
    collection fuse every table into one weight matrix with per-feature
    row offsets (a single gather forward, a single segment-sum
    backward).
    """

    def __init__(
        self,
        configs: Sequence[TableConfig],
        rng: Optional[np.random.Generator] = None,
    ):
        if not configs:
            raise ValueError("collection needs at least one table")
        dims = {c.dim for c in configs}
        if len(dims) != 1:
            raise ValueError(f"all tables must share dim, got {sorted(dims)}")
        names = [c.name for c in configs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate table names: {names}")
        rng = rng or np.random.default_rng(0)
        self.configs = list(configs)

        # Fused storage: one stacked matrix; table f owns rows
        # [offset[f], offset[f] + cardinality[f]).  Per-table blocks
        # are initialized in table order with the shared rng — the same
        # draw sequence as independently allocated tables.
        cards = np.array([c.num_embeddings for c in configs], dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(cards)[:-1]))
        stacked = np.empty((int(cards.sum()), configs[0].dim), DTYPE)
        tables = []
        for c, off in zip(configs, offsets):
            block = stacked[off : off + c.num_embeddings]
            block[:] = uniform_embedding_init(rng, c.num_embeddings, c.dim)
            tables.append(
                EmbeddingTable(
                    c, weight=Parameter(block, name=f"emb.{c.name}")
                )
            )
        self.tables = tables
        self._stacked = stacked
        self._offsets = offsets
        self._cards = cards
        self._batch: Optional[int] = None
        self._groups: Optional[List[List[int]]] = None
        self._rows: Optional[np.ndarray] = None

    @property
    def num_features(self) -> int:
        return len(self.tables)

    @property
    def dim(self) -> int:
        return self.configs[0].dim

    @property
    def dtype(self) -> np.dtype:
        """The stacked matrix's dtype (:data:`~repro.nn.module.DTYPE`),
        which every embedding buffer of the lookup, its gradient and the
        exchanges carries."""
        return self._stacked.dtype

    @property
    def total_rows(self) -> int:
        return self._stacked.shape[0]

    def geometry(self) -> List[dict]:
        """Table geometry as plain JSON-able dicts.

        This is the identity a checkpoint manifest records and validates
        against at restore time: loading saved tables into a collection
        with different cardinalities must fail loudly, not reinterpret
        rows.
        """
        return [
            {
                "name": c.name,
                "num_embeddings": c.num_embeddings,
                "dim": c.dim,
                "pooling": c.pooling,
            }
            for c in self.configs
        ]

    def _check_fused(self) -> None:
        """Every table parameter must still view the stacked matrix:
        the lookup and the gradient run on it alone, so a rebound
        ``weight.data`` would be read stale and never trained."""
        for table in self.tables:
            if table.weight.data.base is not self._stacked:
                raise RuntimeError(
                    f"table {table.config.name}'s weight no longer views "
                    f"the collection's stacked matrix; write into "
                    f"weight.data in place instead of rebinding it"
                )

    def forward(
        self, ids: np.ndarray, groups: Optional[Sequence[Sequence[int]]] = None
    ) -> np.ndarray:
        """(B, F, N) pooled embeddings; given a tower partition's feature
        ``groups``, the batch *tower-major* instead: one (B*F, N) buffer
        of contiguous (B, F_t, N) blocks in group order (see
        :func:`tower_blocks`).  ``backward`` takes the same layout."""
        ids = normalize_ids(ids, self.num_features)
        B, F, P = ids.shape
        layout = [list(range(F))] if groups is None else [list(g) for g in groups]
        if sorted(f for g in layout for f in g) != list(range(F)):
            raise ValueError(f"groups must partition the {F} features: {groups}")
        self._check_fused()
        # One fused validation against the stacked cardinalities (no
        # per-table scans), then one gather over the stacked matrix.
        bounds = self._cards.astype(np.uint64)[None, :, None]
        if (ids.astype(np.uint64, copy=False) >= bounds).any():
            bad = np.argwhere(ids.astype(np.uint64) >= bounds)[0]
            f = int(bad[1])
            raise IndexError(
                f"ids out of range [0, {int(self._cards[f])}) for table "
                f"{self.configs[f].name}"
            )
        # The layout backward expects.
        self._batch, self._groups = B, None if groups is None else layout
        # Every (sample, feature) bag in output order, the groups' blocks
        # one after another: (B*F, P) stacked rows.
        stacked_ids = ids + self._offsets[None, :, None]
        self._rows = rows = np.concatenate(
            [stacked_ids[:, g].reshape(-1, P) for g in layout]
        )
        if P == 1:
            pooled = _bags_of_one(self._stacked, rows[:, 0])
        else:
            # (B*F, P, N) gather then sum-pool over P.
            pooled = self._stacked[rows].sum(axis=1)
        return pooled.reshape(B, F, self.dim) if groups is None else pooled

    def backward(self, grad_output: np.ndarray) -> None:
        if self._batch is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output)
        F, N, B = self.num_features, self.dim, self._batch
        want, shape = (B, F, N), f"(B, {F}, {N})"
        if self._groups is not None:
            want, shape = (B * F, N), f"tower-major (B*{F}, {N})"
        if grad_output.shape != want:
            raise ValueError(f"grad must be {shape} for B={B}, got {grad_output.shape}")
        # One ordered segment-sum over the stacked row space: every bag
        # is P stacked rows.  A table's bags keep sample order in either
        # layout, so its sums are the same bits ...
        grads = grad_output.astype(self.dtype, copy=False).reshape(-1, N)
        stacked = RowwiseGrad.from_pooled(self._rows, grads)
        uniq, seg = stacked.rows, stacked.grads
        # ... then split at table boundaries (uniq is sorted, so each
        # table's rows form one contiguous slice — O(F) bookkeeping).
        starts = np.searchsorted(uniq, self._offsets)
        ends = np.searchsorted(uniq, self._offsets + self._cards)
        for f, table in enumerate(self.tables):
            s, e = int(starts[f]), int(ends[f])
            if s == e:
                continue
            table.weight.add_row_grad(
                RowwiseGrad(rows=uniq[s:e] - self._offsets[f], grads=seg[s:e])
            )

    def bytes_per_sample(self) -> int:
        return sum(t.bytes_per_sample() for t in self.tables)

    def flops_per_sample(self) -> int:
        return 0

