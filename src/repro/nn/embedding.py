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

Gradients default to the compact row-wise representation
(:class:`~repro.nn.sparse.RowwiseGrad`): a batch touches at most
``B * pooling`` rows, and materializing the table-sized dense gradient
is exactly the memory-bound waste the paper's embedding plane must
avoid.  ``sparse_grad_mode="dense"`` keeps the original dense
scatter-add as the reference implementation.

Lookup is modeled as memory traffic, not flops (the paper's
MFlops/sample numbers cover the dense arch); ``bytes_per_sample`` feeds
the iteration latency model's HBM term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.nn.init import uniform_embedding_init
from repro.nn.module import Module, Parameter
from repro.nn.sparse import RowwiseGrad

#: Valid values of the ``sparse_grad_mode`` knob.
SPARSE_GRAD_MODES = ("rowwise", "dense")


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

    def bytes_per_sample(self, itemsize: int = 4) -> int:
        """HBM bytes touched per sample: pooled rows read (+written in
        the backward scatter, accounted by the caller)."""
        return self.pooling * self.dim * itemsize


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
                ).astype(np.float32),
                name=f"emb.{config.name}",
            )
        self.sparse_grad_mode = "rowwise"
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
        """Route pooled gradients into the table rows.

        Row-wise mode (default) compacts to the touched rows without
        ever materializing the (num_embeddings, dim) array; dense mode
        is the original scatter-add reference.  Returns None: ids are
        integers, there is no upstream gradient.
        """
        if self._ids is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=self.weight.data.dtype)
        B, P = self._ids.shape
        if grad_output.shape != (B, self.config.dim):
            raise ValueError(
                f"grad shape {grad_output.shape} != ({B}, {self.config.dim})"
            )
        if self.sparse_grad_mode == "rowwise":
            self.weight.add_row_grad(
                RowwiseGrad.from_pooled(self._ids, grad_output)
            )
            return
        grad_table = np.zeros_like(self.weight.data)
        # Sum pooling: every pooled id receives the full output gradient.
        flat_ids = self._ids.reshape(-1)
        np.add.at(grad_table, flat_ids, np.repeat(grad_output, P, axis=0))
        self.weight.add_grad(grad_table)

    def flops_per_sample(self) -> int:
        return 0  # memory-bound; see bytes_per_sample

    def bytes_per_sample(self, itemsize: int = 4) -> int:
        return self.config.bytes_per_sample(itemsize)


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
        stacked = np.empty((int(cards.sum()), configs[0].dim), dtype=np.float32)
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
        self.sparse_grad_mode = "rowwise"
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
        """The tables' dtype (float32), which every embedding buffer of
        the lookup, its gradient and the exchanges carries."""
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

    def set_sparse_grad_mode(self, mode: str) -> None:
        if mode not in SPARSE_GRAD_MODES:
            raise ValueError(
                f"sparse_grad_mode must be one of {SPARSE_GRAD_MODES}, "
                f"got {mode!r}"
            )
        self.sparse_grad_mode = mode
        for table in self.tables:
            table.sparse_grad_mode = mode

    def _fused_intact(self) -> bool:
        """True while every table parameter still aliases the stacked
        matrix.  External code may temporarily rebind ``weight.data``
        (numeric gradient checks do); the collection then falls back to
        the per-table path until the alias is restored."""
        return all(t.weight.data.base is self._stacked for t in self.tables)

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
        # The layout backward expects; ``_rows`` is None on the fallback.
        self._batch, self._groups = B, None if groups is None else layout

        def major(a: np.ndarray) -> np.ndarray:
            """(B, F, X) -> (B*F, X), the groups' blocks one after another."""
            return np.concatenate([a[:, g].reshape(-1, a.shape[2]) for g in layout])

        if not self._fused_intact():
            self._rows = None
            embs = [t(ids[:, f]) for f, t in enumerate(self.tables)]
            pooled = major(np.stack(embs, axis=1))
        else:
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
            # Every (sample, feature) bag in output order: (B*F, P) rows.
            self._rows = rows = major(ids + self._offsets[None, :, None])
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
        if self._rows is None:
            # Forward ran on the per-table fallback path (see
            # _fused_intact); route gradients per table too, each
            # rounded to its own table's dtype.
            layout = self._groups or [list(range(F))]
            grads = grad_output.reshape(-1, N)
            for g, block in zip(layout, tower_blocks(grads, layout)):
                for j, f in enumerate(g):
                    self.tables[f].backward(block[:, j])
            return
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
            row_grad = RowwiseGrad(
                rows=uniq[s:e] - self._offsets[f], grads=seg[s:e]
            )
            if self.sparse_grad_mode == "rowwise":
                table.weight.add_row_grad(row_grad)
            else:
                table.weight.add_grad(row_grad.to_dense(table.weight.shape))

    def bytes_per_sample(self, itemsize: int = 4) -> int:
        return sum(t.bytes_per_sample(itemsize) for t in self.tables)

    def flops_per_sample(self) -> int:
        return 0


def set_sparse_grad_mode(module: Module, mode: str) -> None:
    """Set the gradient representation on every embedding in a model.

    Walks the module tree and flips each :class:`EmbeddingBagCollection`
    (and standalone :class:`EmbeddingTable`) to ``mode``; the trainer
    calls this once from its config knob.
    """
    if mode not in SPARSE_GRAD_MODES:
        raise ValueError(
            f"sparse_grad_mode must be one of {SPARSE_GRAD_MODES}, got {mode!r}"
        )
    for m in module.modules():
        if isinstance(m, EmbeddingBagCollection):
            m.set_sparse_grad_mode(mode)
        elif isinstance(m, EmbeddingTable):
            m.sparse_grad_mode = mode
