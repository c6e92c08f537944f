"""Multi-task towers over the shared embedding plane.

Production recommenders are multi-objective: the same embedding plane
feeds a CTR tower and a CVR tower, where conversion labels exist only
on clicked impressions.  This module composes extra task towers onto
the single-process seam every base model shares, ``features(dense,
ids)`` / ``features_backward`` (DLRM, DCN, DMT-DLRM, DMT-DCN), so a
multi-task step runs the same tower-major gather and embedding
backward as a single-task one:

- **shared_bottom** — each auxiliary task gets its own small MLP tower
  over the shared interaction features; tasks interact only through
  the shared representation.
- **dbmtl** — like shared_bottom plus a learned scalar residual link
  from the primary (CTR) logit into each auxiliary logit
  (``logit_aux = tower_aux(x) + link * logit_ctr``), a simplification
  of DBMTL's Bayesian p(cvr | x, ctr) coupling: the well-estimated
  all-impressions CTR ranking transfers into the clicks-only CVR task.

The primary task's tower IS the base model's ``top`` MLP.  A one-task
list is the base model itself (what ``Session`` builds for it), so a
``MultiTaskModel`` always has at least two tasks and an auxiliary head.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.criteo import TASKS
from repro.nn.mlp import MLP
from repro.nn.module import DTYPE, Module, Parameter

#: Multi-task head architectures.
HEAD_MODES = ("shared_bottom", "dbmtl")


class MultiTaskHead(Module):
    """Auxiliary task towers over shared interaction features.

    Holds one logit tower per *auxiliary* task (the primary task's
    tower lives in the base model).  In ``dbmtl`` mode each tower also
    owns a scalar residual link from the primary logit, initialized at
    1.0 — the strongest-coupling prior; training anneals it.
    """

    def __init__(
        self,
        in_features: int,
        tasks: Sequence[str],
        mode: str = "shared_bottom",
        hidden: Sequence[int] = (32,),
        rng: Optional[np.random.Generator] = None,
    ):
        if mode not in HEAD_MODES:
            raise ValueError(f"head mode {mode!r} not in {HEAD_MODES}")
        if not tasks:
            raise ValueError("MultiTaskHead needs at least one task")
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.tasks = tuple(tasks)
        self.mode = mode
        self.towers = [
            MLP(
                [in_features, *hidden, 1],
                rng=rng,
                final_activation=False,
                name=f"tower_{t}",
            )
            for t in self.tasks
        ]
        self.links: List[Parameter] = (
            [Parameter(np.ones(1, DTYPE), name=f"link_{t}") for t in self.tasks]
            if mode == "dbmtl"
            else []
        )
        self._primary: Optional[np.ndarray] = None

    def forward(
        self, features: np.ndarray, primary_logits: np.ndarray
    ) -> np.ndarray:
        """Per-auxiliary-task logits, shape (B, len(tasks))."""
        self._primary = np.asarray(primary_logits).reshape(-1)
        cols = []
        for i, tower in enumerate(self.towers):
            logit = tower(features).reshape(-1)
            if self.links:
                logit = logit + self.links[i].data[0] * self._primary
            cols.append(logit)
        return np.stack(cols, axis=1)

    def backward(self, grad: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Returns (g_features, g_primary_logits).

        ``g_primary_logits`` is the residual-link contribution flowing
        back into the primary tower (zero in shared_bottom mode).
        """
        if self._primary is None:
            raise RuntimeError("backward called before forward")
        grad = np.asarray(grad)
        # In the plane's dtype, the primary logits'.
        dtype = self._primary.dtype
        g_features = np.zeros((grad.shape[0], self.in_features), dtype)
        g_primary = np.zeros(grad.shape[0], dtype)
        for i, tower in enumerate(self.towers):
            g_i = grad[:, i]
            g_features += tower.backward(g_i.reshape(-1, 1))
            if self.links:
                self.links[i].add_grad(
                    np.array([float(np.dot(g_i, self._primary))])
                )
                g_primary += self.links[i].data[0] * g_i
        return g_features, g_primary

    def flops_per_sample(self) -> int:
        flops = sum(t.flops_per_sample() for t in self.towers)
        if self.links:
            flops += 2 * len(self.links)  # scale + add per residual link
        return flops


class MultiTaskModel(Module):
    """A base model plus auxiliary task towers sharing its embeddings.

    ``forward`` returns (B, T) logits with column order = ``tasks``;
    column 0 is the primary task produced by the base model's own top
    MLP.  ``backward`` accepts the matching (B, T) gradient (from
    :class:`~repro.nn.loss.MultiLoss`).

    ``task_gates`` maps the CVR column to the CTR column so the loss
    restricts conversion terms to clicked rows.
    """

    def __init__(
        self,
        base: Module,
        tasks: Sequence[str],
        head: str = "shared_bottom",
        head_mlp: Sequence[int] = (32,),
        task_weights: Optional[Sequence[float]] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        tasks = tuple(tasks)
        if len(tasks) < 2:
            raise ValueError(
                f"MultiTaskModel needs at least two tasks, got {tasks}; "
                "one task is the base model itself"
            )
        if len(set(tasks)) != len(tasks):
            raise ValueError(f"duplicate tasks in {tasks}")
        unknown = set(tasks) - set(TASKS)
        if unknown:
            raise ValueError(f"unknown tasks {sorted(unknown)}")
        if not hasattr(base, "features_backward"):
            raise TypeError(
                f"{type(base).__name__} does not expose the "
                "features / features_backward seam"
            )
        self.base = base
        self.tasks = tasks
        self.head_mode = head
        self.task_weights: Tuple[float, ...] = (
            tuple(float(w) for w in task_weights)
            if task_weights is not None
            else (1.0,) * len(tasks)
        )
        if len(self.task_weights) != len(tasks):
            raise ValueError(
                f"{len(self.task_weights)} weights for {len(tasks)} tasks"
            )
        # Conversion is defined only on clicks: gate cvr on ctr.
        self.task_gates: Dict[int, int] = {
            i: tasks.index("ctr")
            for i, t in enumerate(tasks)
            if t == "cvr" and "ctr" in tasks
        }
        self.head = MultiTaskHead(
            base.top_in_features, tasks[1:], mode=head, hidden=head_mlp, rng=rng
        )

    # ------------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def num_dense(self) -> int:
        return self.base.num_dense

    @property
    def num_sparse(self) -> int:
        return self.base.num_sparse

    @property
    def embedding_dim(self) -> int:
        return self.base.embedding_dim

    @property
    def embeddings(self):
        return self.base.embeddings

    # ------------------------------------------------------------------
    def forward(self, dense: np.ndarray, ids: np.ndarray) -> np.ndarray:
        return self.logits(self.base.features(dense, ids))

    def backward(self, grad_logits: np.ndarray) -> np.ndarray:
        return self.base.features_backward(self.logits_backward(grad_logits))

    def logits(self, features: np.ndarray) -> np.ndarray:
        """The (B, T) logits over the base model's top-MLP input."""
        primary = self.base.logits(features)
        aux = self.head(features, primary)
        return np.concatenate([primary[:, None], aux], axis=1)

    def logits_backward(self, grad_logits: np.ndarray) -> np.ndarray:
        grad_logits = np.asarray(grad_logits)
        if grad_logits.ndim != 2 or grad_logits.shape[1] != self.num_tasks:
            raise ValueError(
                f"expected (B, {self.num_tasks}) grad, got {grad_logits.shape}"
            )
        g_features_aux, g_primary_link = self.head.backward(grad_logits[:, 1:])
        g_primary = grad_logits[:, 0] + g_primary_link
        return self.base.logits_backward(g_primary) + g_features_aux

    # ------------------------------------------------------------------
    def dense_parameters(self) -> List:
        return list(self.base.dense_parameters()) + self.head.parameters()

    def tower_parameters(self) -> List:
        """DMT tower-local parameters of the base model, if any."""
        return self.base.tower_parameters()

    def sparse_parameters(self) -> List:
        return self.base.sparse_parameters()

    def flops_per_sample(self) -> int:
        return self.base.flops_per_sample() + self.head.flops_per_sample()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MultiTaskModel(tasks={self.tasks}, head={self.head_mode!r}, "
            f"base={self.base!r})"
        )
