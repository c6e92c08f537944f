"""Training losses."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.module import Module


class BCEWithLogitsLoss(Module):
    """Mean binary cross entropy from logits (CTR training loss).

    ``forward(logits, targets)`` returns a scalar; ``backward()``
    returns d(mean loss)/d(logits).  The loss computes in float64
    whatever the logits' dtype: its mean is an accumulator over the
    batch.  The dense layers round the gradient to their own dtype.
    """

    def __init__(self) -> None:
        self._logits: Optional[np.ndarray] = None
        self._targets: Optional[np.ndarray] = None

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        # Float64: the mean below is an accumulator over the batch.
        logits = np.asarray(logits, dtype=np.float64).reshape(-1)
        targets = np.asarray(targets, dtype=np.float64).reshape(-1)
        if logits.shape != targets.shape:
            raise ValueError(
                f"logits {logits.shape} and targets {targets.shape} mismatch"
            )
        if targets.size and (targets.min() < 0 or targets.max() > 1):
            raise ValueError("targets must lie in [0, 1]")
        self._logits = logits
        self._targets = targets
        return float(F.bce_with_logits(logits, targets).mean())

    def backward(self) -> np.ndarray:
        if self._logits is None or self._targets is None:
            raise RuntimeError("backward called before forward")
        n = self._logits.size
        return F.bce_with_logits_grad(self._logits, self._targets) / n

    def flops_per_sample(self) -> int:
        return 0


class MultiLoss(Module):
    """Weighted sum of per-task :class:`BCEWithLogitsLoss` terms.

    ``forward(logits, targets)`` takes (B, T) arrays and returns the
    scalar ``sum_t w_t * mean-BCE_t``.  ``backward()`` returns the (B, T)
    gradient of that scalar w.r.t. the logits, each column scaled by
    its task weight.

    ``gates`` maps a task index to the index of the task that gates
    it: gated rows are those where the gating task's label is 1 (CVR
    is defined only on clicked impressions).  Ungated rows contribute
    neither loss nor gradient; a window with no gated rows yields a
    NaN entry in ``task_losses`` and a zero loss/grad contribution.
    A single-logit model trains with :class:`BCEWithLogitsLoss` itself.
    """

    def __init__(
        self,
        num_tasks: int,
        weights: Optional[Sequence[float]] = None,
        gates: Optional[Dict[int, int]] = None,
        names: Optional[Sequence[str]] = None,
    ) -> None:
        if num_tasks < 1:
            raise ValueError("MultiLoss needs at least one task")
        self.num_tasks = num_tasks
        self.weights: Tuple[float, ...] = (
            tuple(float(w) for w in weights)
            if weights is not None
            else (1.0,) * num_tasks
        )
        if len(self.weights) != num_tasks:
            raise ValueError(
                f"{len(self.weights)} weights for {num_tasks} tasks"
            )
        if not all(np.isfinite(w) for w in self.weights):
            raise ValueError("task weights must be finite")
        self.gates: Dict[int, int] = dict(gates or {})
        for task, gate in self.gates.items():
            if not 0 <= task < num_tasks or not 0 <= gate < num_tasks:
                raise ValueError(f"gate {task}->{gate} out of range")
            if task == gate:
                raise ValueError(f"task {task} cannot gate itself")
        self.names: Tuple[str, ...] = (
            tuple(names)
            if names is not None
            else tuple(f"task{i}" for i in range(num_tasks))
        )
        if len(self.names) != num_tasks:
            raise ValueError(f"{len(self.names)} names for {num_tasks} tasks")
        self.losses = [BCEWithLogitsLoss() for _ in range(num_tasks)]
        self.task_losses: List[float] = []
        self._masks: List[Optional[np.ndarray]] = []
        self._shape: Optional[Tuple[int, int]] = None

    def forward(self, logits: np.ndarray, targets: np.ndarray) -> float:
        # Float64, as BCEWithLogitsLoss: the loss is an accumulator.
        logits = np.asarray(logits, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if logits.shape != targets.shape:
            raise ValueError(
                f"logits {logits.shape} and targets {targets.shape} mismatch"
            )
        if logits.ndim != 2 or logits.shape[1] != self.num_tasks:
            raise ValueError(
                f"expected (B, {self.num_tasks}) logits, got {logits.shape}"
            )
        self._shape = logits.shape
        self.task_losses = []
        self._masks = []
        total = 0.0
        for t in range(self.num_tasks):
            gate = self.gates.get(t)
            mask = None if gate is None else targets[:, gate] > 0.5
            if mask is not None and not mask.any():
                # No gated rows in this window: the task is silent.
                self._masks.append(mask)
                self.task_losses.append(float("nan"))
                continue
            col_logits = logits[:, t] if mask is None else logits[mask, t]
            col_targets = targets[:, t] if mask is None else targets[mask, t]
            loss_t = self.losses[t](col_logits, col_targets)
            self._masks.append(mask)
            self.task_losses.append(loss_t)
            total += self.weights[t] * loss_t
        return float(total)

    def backward(self) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        grad = np.zeros(self._shape)  # float64, the loss's accumulator
        for t in range(self.num_tasks):
            mask = self._masks[t]
            if mask is not None and not mask.any():
                continue
            g = self.weights[t] * self.losses[t].backward()
            if mask is None:
                grad[:, t] = g
            else:
                grad[mask, t] = g
        return grad

    def flops_per_sample(self) -> int:
        return 0
