"""Row-wise sparse gradients for the embedding plane.

A training batch touches at most ``B * pooling`` rows per table, yet a
dense gradient is ``(num_embeddings, dim)`` — at paper scale (1M-row
tables, N=128) that is a ~1 GB zero-filled array per table per step,
all of which the optimizer then squares, sqrts and rewrites.
:class:`RowwiseGrad` is the compact alternative: the unique touched row
ids plus one summed gradient per touched row, produced by one ordered
segment-sum (:meth:`RowwiseGrad.from_pooled`).

The invariant is about *order*, not about which numpy call does the
adding: every touched row's gradient is the sum of its occurrences'
gradients, **starting from +0.0 and added one at a time in occurrence
order** (flat ``(b, p)`` order of the ids) — exactly the float
operations a dense scatter-add (sequential, unbuffered adds into a
zero-filled table) performs, so the row-wise gradient, densified, is
*bit-identical* to that reference, not merely close.  The segment-sum keeps it with a
sort instead of ``np.ufunc.at``: a *stable* argsort groups equal ids
while preserving occurrence order inside each group, the first
occurrence of every row is gathered and has ``+0.0`` added (which is
what turns a ``-0.0`` gradient into the ``+0.0`` a sum from zero
yields), and then one fancy ``+=`` per occurrence *rank* k = 1, 2, …
adds the k-th occurrence to every row that has one.  Row indices are
unique within a rank pass, so each pass is a plain elementwise add, and
passes run in rank order, so each row still sees its addends in
occurrence order.  A pass costs a fixed few microseconds however few
rows are still live, so once only a handful of hot rows remain (skewed
ids: a few rows hold most occurrences) their tails are folded in one
row at a time, in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: Rank passes vectorize across rows; below this many rows still
#: receiving addends, one numpy call per occurrence is cheaper.
_FEW_ROWS = 16


@dataclass
class RowwiseGrad:
    """Compacted sparse gradient: ``grads[i]`` belongs to row ``rows[i]``.

    Attributes
    ----------
    rows:
        ``(U,)`` int64, strictly increasing unique row indices.
    grads:
        ``(U, dim)``, the summed gradient of each touched row, in the
        dtype of the gradient it was compacted from (the table's).
    """

    rows: np.ndarray
    grads: np.ndarray

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.grads = np.asarray(self.grads)
        if self.rows.ndim != 1 or self.grads.ndim != 2:
            raise ValueError(
                f"rows must be (U,) and grads (U, dim), got "
                f"{self.rows.shape} / {self.grads.shape}"
            )
        if self.rows.shape[0] != self.grads.shape[0]:
            raise ValueError(
                f"{self.rows.shape[0]} rows vs {self.grads.shape[0]} grads"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_pooled(
        cls, ids: np.ndarray, grad_output: np.ndarray
    ) -> "RowwiseGrad":
        """Compact the gradient of a sum-pooled lookup.

        ``ids`` is (B, P); every pooled id of sample ``b`` receives the
        full output gradient ``grad_output[b]`` (shape (B, N)).  This is
        the one ordered segment-sum of the embedding plane (see the
        module docstring for the order it guarantees); occurrences
        read their sample's gradient row in place, so the dense path's
        ``np.repeat`` copy is never materialized.
        """
        ids = np.asarray(ids)
        B, P = ids.shape
        grad_output = np.asarray(grad_output)
        if grad_output.ndim != 2 or grad_output.shape[0] != B:
            raise ValueError(
                f"grad_output must be ({B}, N) for ids {ids.shape}, "
                f"got {grad_output.shape}"
            )
        flat = ids.reshape(-1)
        order = np.argsort(flat, kind="stable")
        sorted_ids = flat[order]
        is_head = np.empty(flat.shape[0], dtype=bool)
        is_head[:1] = True
        np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=is_head[1:])
        heads = np.flatnonzero(is_head)
        # Sample whose gradient each sorted occurrence receives.
        sample = order if P == 1 else order // P
        seg = np.take(grad_output, sample[heads], axis=0)
        seg += 0.0
        counts = np.diff(heads, append=flat.shape[0])
        live = np.flatnonzero(counts > 1)
        rank = 1
        while live.size > _FEW_ROWS:
            seg[live] += grad_output[sample[heads[live] + rank]]
            rank += 1
            live = live[counts[live] > rank]
        # What is left is a few hot rows with long tails (skewed ids):
        # a pass per rank would be all fixed cost, so fold each tail
        # into its row directly — still in occurrence order.
        for row in live.tolist():
            total = seg[row]
            tail = sample[heads[row] + rank : heads[row] + counts[row]]
            for b in tail.tolist():
                total += grad_output[b]
        return cls(rows=sorted_ids[heads], grads=seg)

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return int(self.rows.shape[0])

    @property
    def dim(self) -> int:
        return int(self.grads.shape[1])

    @property
    def nbytes(self) -> int:
        return int(self.rows.nbytes + self.grads.nbytes)

    # ------------------------------------------------------------------
    def merge(self, other: "RowwiseGrad") -> "RowwiseGrad":
        """Row-union sum of two compacted gradients (accumulation).

        Equivalent to the dense path's ``grad += grad_new``: each
        operand is already internally summed, so overlapping rows add
        one pre-summed vector to another — the same float ops in the
        same order as the dense accumulation.  It is the segment-sum
        of :meth:`from_pooled` over ``self``'s rows followed by
        ``other``'s.
        """
        if other.dim != self.dim:
            raise ValueError(f"dim mismatch: {self.dim} vs {other.dim}")
        return RowwiseGrad.from_pooled(
            np.concatenate([self.rows, other.rows])[:, None],
            np.concatenate([self.grads, other.grads]),
        )

    def to_dense(self, shape: Tuple[int, ...]) -> np.ndarray:
        """Materialize the full (num_embeddings, dim) gradient."""
        if len(shape) != 2 or shape[1] != self.dim:
            raise ValueError(f"cannot densify dim-{self.dim} grad to {shape}")
        if self.num_rows and int(self.rows[-1]) >= shape[0]:
            raise ValueError(
                f"row {int(self.rows[-1])} out of range for {shape}"
            )
        dense = np.zeros(shape, dtype=self.grads.dtype)
        dense[self.rows] = self.grads
        return dense

    def scatter_into(self, dense: np.ndarray) -> None:
        """Add into an existing dense gradient array, in place (rows are
        unique, so one fancy ``+=`` adds each row once)."""
        dense[self.rows] += self.grads
