"""The training loop: every executed training step in the repo.

One :class:`Trainer` wraps a model with separate dense and sparse
optimizers (Adam for the dense arch — the paper's §5.1 choice — and
Adagrad for embedding tables, the standard DLRM recipe), an optional
warmup/decay schedule (the "Strong Baseline" ingredient of Table 2),
and deterministic epoch iteration.  Forward and backward run in a step
executor: the model itself, or a :mod:`repro.core.dmt_pipeline`
trainer over a simulated cluster (§3.1: the same step, distributed).
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.data.loader import BatchIterator
from repro.nn.loss import BCEWithLogitsLoss, MultiLoss
from repro.nn.optim import Adam, RowwiseAdagrad, SGD, WarmupDecaySchedule
from repro.training.metrics import auc, log_loss, normalized_entropy

_MASK64 = (1 << 64) - 1


def _mix_epoch_seed(seed: int, epoch: int) -> int:
    """Collision-free per-epoch shuffle seed.

    The old ``seed + epoch`` scheme aliased across runs — (seed=0,
    epoch=1) and (seed=1, epoch=0) replayed the identical batch order,
    contaminating seed-sweep confidence once epochs double as online
    stream windows.  Mixing the pair through a splitmix64 finalizer
    (the same hash the serving routers use for ring placement) spreads
    neighbouring (seed, epoch) pairs across the full 64-bit space.
    """
    x = (seed * 0x51_7C_C1_B7_27_22_0A_95 + epoch) & _MASK64
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run.

    The embedding plane emits row-wise gradients and the tables have
    one optimizer, :class:`~repro.nn.optim.RowwiseAdagrad` at
    ``sparse_lr``, which updates only the rows a batch touched.
    """

    batch_size: int = 256
    epochs: int = 1
    dense_lr: float = 1e-3
    sparse_lr: float = 0.03
    dense_optimizer: str = "adam"  # "adam" | "sgd"
    warmup_steps: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.batch_size >= 1 and self.epochs >= 1):
            raise ValueError("batch_size and epochs must be positive")
        if not (self.dense_lr > 0 and self.sparse_lr > 0):
            raise ValueError("learning rates must be positive")
        if self.dense_optimizer not in ("adam", "sgd"):
            raise ValueError(
                f"unknown dense optimizer {self.dense_optimizer!r}"
            )
        if not self.warmup_steps >= 0:
            raise ValueError("warmup_steps must be >= 0")


@dataclass
class EvalResult:
    """Evaluation metrics on a held-out set.

    ``auc_skipped`` flags a window where AUC (and NE) were undefined —
    only one class present — and the caller asked for a typed skip
    (NaN) instead of an exception.
    """

    auc: float
    log_loss: float
    normalized_entropy: float
    num_samples: int
    auc_skipped: bool = False

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AUC={self.auc:.4f} LogLoss={self.log_loss:.4f} "
            f"NE={self.normalized_entropy:.4f} (n={self.num_samples})"
        )


@dataclass
class MultiTaskEvalResult:
    """Per-task evaluation metrics for a multi-task model.

    ``by_task`` maps task name to its :class:`EvalResult`; gated tasks
    (CVR) are scored only on the rows where the gate fired.  The
    scalar properties delegate to the primary task so every consumer
    written against :class:`EvalResult` (the online driver, artifact
    summaries) keeps working unchanged.
    """

    by_task: Dict[str, EvalResult]
    primary: str

    @property
    def auc(self) -> float:
        return self.by_task[self.primary].auc

    @property
    def log_loss(self) -> float:
        return self.by_task[self.primary].log_loss

    @property
    def normalized_entropy(self) -> float:
        return self.by_task[self.primary].normalized_entropy

    @property
    def num_samples(self) -> int:
        return self.by_task[self.primary].num_samples

    @property
    def auc_skipped(self) -> bool:
        return self.by_task[self.primary].auc_skipped

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return " | ".join(
            f"{name}: {res}" for name, res in self.by_task.items()
        )


class Trainer:
    """Train/evaluate a recommendation model on in-memory data.

    The model must expose ``dense_parameters()``, ``tower_parameters()``,
    ``sparse_parameters()``, ``forward(dense, ids)`` and
    ``backward(grad_logits)`` — all of DLRM, DCN, the DMT variants and
    ``MultiTaskModel`` do.  Tower-module parameters (``[]`` on a flat
    model) are folded into the dense optimizer: single-process training
    syncs nothing.

    ``step`` is the step executor (``None``: the model itself), e.g. a
    ``DistributedDMTTrainer``: it runs where the model would,
    ``step(dense, ids)`` then ``step.backward(grad_logits)``, around
    this trainer's one loss (``BCEWithLogitsLoss``, or ``MultiLoss``
    for a multi-task model).  The executor changes who computes a step,
    never the recipe or the numbers: both optimizers come from
    ``config``, and the step equals the model's own bit for bit.
    """

    def __init__(self, model, config: TrainConfig, step=None):
        self.model = model
        self.config = config
        self.step = step
        # Who runs forward/backward: the model, or the executor.
        self.runner = model if step is None else step
        dense = Adam if config.dense_optimizer == "adam" else SGD
        self.dense_opt = dense(
            list(model.dense_parameters()) + list(model.tower_parameters()),
            lr=config.dense_lr,
        )
        self.sparse_opt = RowwiseAdagrad(model.sparse_parameters(), lr=config.sparse_lr)
        self.schedule = (
            WarmupDecaySchedule(config.dense_lr, config.warmup_steps)
            if config.warmup_steps > 0
            else None
        )
        # Multi-task models announce their task list; everything else
        # trains the original single-logit CTR path, byte-untouched.
        tasks = getattr(model, "tasks", None)
        self.tasks: Optional[tuple] = tuple(tasks) if tasks is not None else None
        self.task_gates: Dict[int, int] = dict(
            getattr(model, "task_gates", None) or {}
        )
        if self.tasks is not None:
            self.loss_module = MultiLoss(
                len(self.tasks),
                weights=getattr(model, "task_weights", None),
                gates=self.task_gates,
                names=self.tasks,
            )
            self.task_loss_history: Dict[str, List[float]] = {
                t: [] for t in self.tasks
            }
        else:
            self.loss_module = BCEWithLogitsLoss()
            self.task_loss_history = {}
        self.global_step = 0
        self.loss_history: List[float] = []
        #: Epochs fully completed (the next epoch :meth:`fit` runs).
        self.epoch = 0
        #: Mean batch loss of every completed epoch.
        self.epoch_losses: List[float] = []
        # Mid-epoch bookkeeping for checkpoint/resume: batch losses of
        # the in-flight epoch, its iterator, and iterator state restored
        # by load_state_dict but not yet applied (fit applies it to the
        # fresh iterator it builds for the current epoch).
        self._epoch_batch_losses: List[float] = []
        self._epoch_iterator: Optional[BatchIterator] = None
        self._pending_iterator_state: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    def train_batch(
        self, dense: np.ndarray, ids: np.ndarray, labels: np.ndarray
    ) -> float:
        if self.schedule is not None:
            self.schedule.apply(self.dense_opt, self.global_step)
        self.dense_opt.zero_grad()
        self.sparse_opt.zero_grad()
        logits = self.runner(dense, ids)
        loss = self.loss_module(logits, labels)
        self.runner.backward(self.loss_module.backward())
        self.dense_opt.step()
        self.sparse_opt.step()
        self.global_step += 1
        self.loss_history.append(loss)
        if self.tasks is not None:
            for name, task_loss in zip(self.tasks, self.loss_module.task_losses):
                self.task_loss_history[name].append(task_loss)
        return loss

    def _run_epoch(
        self,
        dense: np.ndarray,
        ids: np.ndarray,
        labels: np.ndarray,
        on_step_end: Optional[Callable[["Trainer"], None]] = None,
    ) -> float:
        """One full bookkept pass over the data: builds the epoch's
        seeded iterator (applying any restored mid-epoch state), records
        batch losses, advances ``epoch``/``epoch_losses``, and returns
        the epoch's mean batch loss.  Every training entry point routes
        through here so ``state_dict()`` always reflects true progress.
        """
        batches = BatchIterator(
            dense,
            ids,
            labels,
            batch_size=self.config.batch_size,
            seed=_mix_epoch_seed(self.config.seed, self.epoch),
        )
        if self._pending_iterator_state is not None:
            batches.load_state_dict(self._pending_iterator_state)
            self._pending_iterator_state = None
        self._epoch_iterator = batches
        for batch in batches:
            loss = self.train_batch(*batch)
            self._epoch_batch_losses.append(loss)
            if on_step_end is not None:
                on_step_end(self)
        if not self._epoch_batch_losses:
            raise ValueError("iterator produced no batches")
        epoch_loss = float(np.mean(self._epoch_batch_losses))
        self.epoch_losses.append(epoch_loss)
        self._epoch_batch_losses = []
        self._epoch_iterator = None
        self.epoch += 1
        return epoch_loss

    def train_window(
        self,
        dense: np.ndarray,
        ids: np.ndarray,
        labels: np.ndarray,
        on_step_end: Optional[Callable[["Trainer"], None]] = None,
    ) -> float:
        """One pass over a stream window; returns the mean batch loss.

        The online-training entry point: unlike :meth:`fit` it ignores
        ``config.epochs`` and trains exactly one pass over whatever
        window of the stream the caller hands it, but it runs through
        the same internals, so ``epoch`` counts windows, the loss
        history accrues, and a checkpoint saved mid-window resumes
        bit-identically.  (This replaces the old ``train_epoch``, which
        bypassed all resume bookkeeping and recorded stale progress.)
        """
        return self._run_epoch(dense, ids, labels, on_step_end=on_step_end)

    def fit(
        self,
        dense: np.ndarray,
        ids: np.ndarray,
        labels: np.ndarray,
        on_step_end: Optional[Callable[["Trainer"], None]] = None,
    ) -> List[float]:
        """Full training run per the config; returns per-epoch losses.

        Resumable: after :meth:`load_state_dict`, ``fit`` continues from
        the restored epoch and mid-epoch batch position (the epoch's
        shuffle order is replayed bit-exactly from the saved iterator
        state) and returns the complete per-epoch loss list, including
        the epochs trained before the interruption.  ``on_step_end``
        fires after every optimizer step with the trainer itself — the
        hook periodic checkpointing is wired through.
        """
        while self.epoch < self.config.epochs:
            self._run_epoch(dense, ids, labels, on_step_end=on_step_end)
        return list(self.epoch_losses)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Everything needed to resume bit-identically (except the model
        weights, which :class:`repro.nn.module.Module` snapshots): the
        config echo, step/epoch progress, loss history, the in-flight
        epoch's batch losses and data-iterator state, and both optimizer
        states (the schedule is a pure function of ``global_step``)."""
        if self._epoch_iterator is not None:
            iterator = self._epoch_iterator.state_dict()
        else:
            iterator = copy.deepcopy(self._pending_iterator_state)
        return {
            "config": dataclasses.asdict(self.config),
            "epoch": int(self.epoch),
            "global_step": int(self.global_step),
            "loss_history": [float(x) for x in self.loss_history],
            "epoch_losses": [float(x) for x in self.epoch_losses],
            "epoch_batch_losses": [
                float(x) for x in self._epoch_batch_losses
            ],
            # Per-task loss history ({} on single-task trainers).  Not
            # in the required-field set so pre-multi-task checkpoints
            # keep loading.
            "task_loss_history": {
                name: [float(x) for x in losses]
                for name, losses in self.task_loss_history.items()
            },
            "iterator": iterator,
            "dense_opt": self.dense_opt.state_dict(),
            "sparse_opt": self.sparse_opt.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot.

        The trainer must have been constructed with the *same*
        :class:`TrainConfig` the snapshot was saved under — resuming
        under a different protocol cannot be bit-identical, so a
        mismatch is an error rather than a silent drift.
        """
        self.validate_state_dict(state)
        self.dense_opt.load_state_dict(state["dense_opt"])
        self.sparse_opt.load_state_dict(state["sparse_opt"])
        self.epoch = int(state["epoch"])
        self.global_step = int(state["global_step"])
        self.loss_history = [float(x) for x in state["loss_history"]]
        self.epoch_losses = [float(x) for x in state["epoch_losses"]]
        self._epoch_batch_losses = [
            float(x) for x in state["epoch_batch_losses"]
        ]
        self.task_loss_history = {
            str(name): [float(x) for x in losses]
            for name, losses in state.get("task_loss_history", {}).items()
        }
        if self.tasks is not None:
            for name in self.tasks:
                self.task_loss_history.setdefault(name, [])
        self._epoch_iterator = None
        self._pending_iterator_state = copy.deepcopy(state["iterator"])

    def validate_state_dict(self, state: Dict[str, Any]) -> None:
        """Check a snapshot fits this trainer without mutating anything
        (structure, config echo, both optimizer states)."""
        missing = {
            "config",
            "epoch",
            "global_step",
            "loss_history",
            "epoch_losses",
            "epoch_batch_losses",
            "iterator",
            "dense_opt",
            "sparse_opt",
        } - set(state)
        if missing:
            raise ValueError(
                f"trainer state missing field(s): {sorted(missing)}"
            )
        saved_config = state["config"]
        own_config = dataclasses.asdict(self.config)
        if saved_config != own_config:
            diff = sorted(
                k
                for k in set(saved_config) | set(own_config)
                if saved_config.get(k) != own_config.get(k)
            )
            raise ValueError(
                f"train config mismatch on {diff}: checkpoint saved "
                f"{ {k: saved_config.get(k) for k in diff} }, trainer has "
                f"{ {k: own_config.get(k) for k in diff} }"
            )
        self.dense_opt.validate_state_dict(state["dense_opt"])
        self.sparse_opt.validate_state_dict(state["sparse_opt"])

    # ------------------------------------------------------------------
    def evaluate(
        self,
        dense: np.ndarray,
        ids: np.ndarray,
        labels: np.ndarray,
        batch_size: int = 4096,
        single_class: str = "raise",
    ) -> "EvalResult | MultiTaskEvalResult":
        """Metrics on held-out data (batched to bound memory).

        ``single_class`` is forwarded to :func:`~repro.training.metrics.auc`
        for ungated tasks; gated tasks (CVR on clicks) always use the
        NaN typed-skip policy because their scored subset's class
        balance is data-dependent and not under the caller's control.
        Multi-task models return a :class:`MultiTaskEvalResult`.
        """
        if len(labels) == 0:
            raise ValueError(
                "cannot evaluate on an empty eval set; check the "
                "eval_fraction / split producing these arrays"
            )
        # One preallocated logits array, filled in place: (n,) for a
        # single-logit model, (n, T) for a multi-task one.
        width = () if self.tasks is None else (len(self.tasks),)
        logits = np.empty((len(labels),) + width)
        for i in range(0, len(labels), batch_size):
            logits[i : i + batch_size] = self.model(
                dense[i : i + batch_size], ids[i : i + batch_size]
            )
        if self.tasks is None:
            return self._metrics(labels, logits, single_class)
        labels = np.asarray(labels, dtype=np.float64)
        if labels.shape != logits.shape:
            raise ValueError(
                f"expected {logits.shape} labels for tasks {self.tasks}, "
                f"got {labels.shape}"
            )
        by_task: Dict[str, EvalResult] = {}
        for t, name in enumerate(self.tasks):
            gate = self.task_gates.get(t)
            if gate is None:
                task_labels, task_logits = labels[:, t], logits[:, t]
                policy = single_class
            else:
                mask = labels[:, gate] > 0.5
                task_labels, task_logits = labels[mask, t], logits[mask, t]
                policy = "nan"
            if len(task_labels) == 0:
                by_task[name] = EvalResult(
                    auc=float("nan"),
                    log_loss=float("nan"),
                    normalized_entropy=float("nan"),
                    num_samples=0,
                    auc_skipped=True,
                )
                continue
            by_task[name] = self._metrics(task_labels, task_logits, policy)
        return MultiTaskEvalResult(by_task=by_task, primary=self.tasks[0])

    @staticmethod
    def _metrics(
        labels: np.ndarray, logits: np.ndarray, single_class: str
    ) -> EvalResult:
        auc_value = auc(labels, logits, single_class=single_class)
        skipped = bool(np.isnan(auc_value))
        try:
            ne = normalized_entropy(labels, logits)
        except ValueError:
            # Single-class window: NE's base-rate entropy is zero.
            if single_class == "raise":
                raise
            ne = float("nan")
        return EvalResult(
            auc=auc_value,
            log_loss=log_loss(labels, logits),
            normalized_entropy=ne,
            num_samples=len(labels),
            auc_skipped=skipped,
        )
