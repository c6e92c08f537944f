"""Optimizers: SGD, Adam (the paper trains with Adam, §5.1) and the
row-wise Adagrad every embedding table trains with.

Optimizers hold references to :class:`~repro.nn.module.Parameter`
objects and update in place from accumulated ``grad`` fields.  State is
keyed by position, so a given (model init, data order, optimizer
config) triple is exactly reproducible — the foundation of the 9-seed
statistics in Tables 4-6.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.nn.module import Parameter


def _json_normal(value: Any) -> Any:
    """Round a config through JSON so tuples/lists compare equal."""
    return json.loads(json.dumps(value))


class Optimizer:
    """Base: tracks parameters and a mutable learning rate.

    Every optimizer round-trips through :meth:`state_dict` /
    :meth:`load_state_dict`: hyper-state (``lr``, ``step_count``, the
    subclass config) plus per-parameter state slots (momenta,
    accumulators), keyed by parameter position exactly like the update
    rule itself.  A restored optimizer continues bit-identically to one
    that never stopped — the contract :mod:`repro.checkpoint` builds on.
    """

    def __init__(self, params: Sequence[Parameter], lr: float):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self.step_count = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        for i, p in enumerate(self.params):
            # has_grad (not ``p.grad is not None``): reading .grad
            # densifies a pending row-wise gradient, which sparse-aware
            # optimizers must never trigger.
            if p.has_grad:
                self._update(i, p)

    def _update(self, index: int, param: Parameter) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _slot_dicts(self) -> Dict[str, Dict[int, np.ndarray]]:
        """The live per-parameter state dicts, keyed by slot name."""
        return {}

    def _config_state(self) -> Dict[str, Any]:
        """JSON-able hyperparameters that must match across a restore."""
        return {}

    def _expected_slot_shape(
        self, slot: str, param: Parameter
    ) -> Tuple[int, ...]:
        return param.data.shape

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot of the full optimizer state (arrays are copied)."""
        return {
            "type": type(self).__name__,
            "lr": float(self.lr),
            "step_count": int(self.step_count),
            "num_params": len(self.params),
            "config": self._config_state(),
            "slots": {
                slot: {
                    str(i): np.array(arr, copy=True)
                    for i, arr in entries.items()
                }
                for slot, entries in self._slot_dicts().items()
            },
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot, validating it against
        this optimizer's type, config, and parameter shapes."""
        restored = self.validate_state_dict(state)
        for slot, target in self._slot_dicts().items():
            target.clear()
            target.update(restored[slot])
        self.lr = float(state["lr"])
        self.step_count = int(state["step_count"])

    def validate_state_dict(
        self, state: Dict[str, Any]
    ) -> Dict[str, Dict[int, np.ndarray]]:
        """Validate a snapshot without mutating anything.

        Returns the staged slot arrays, copied; raises ``ValueError`` on
        any incompatibility, a slot whose dtype is not its parameter's
        included (a cast would resume rounded instead of exact).
        :meth:`load_state_dict` is exactly validate-then-commit, and callers that need
        whole-checkpoint atomicity (the checkpoint loader) validate
        every component up front before committing any of them.
        """
        if not isinstance(state, dict):
            raise ValueError(
                f"optimizer state must be a dict, got {type(state).__name__}"
            )
        if state.get("type") != type(self).__name__:
            raise ValueError(
                f"optimizer state is for {state.get('type')!r}, cannot "
                f"load into {type(self).__name__}"
            )
        if int(state.get("num_params", -1)) != len(self.params):
            raise ValueError(
                f"optimizer state covers {state.get('num_params')} "
                f"parameters, this optimizer has {len(self.params)}"
            )
        saved_config = _json_normal(state.get("config", {}))
        own_config = _json_normal(self._config_state())
        if saved_config != own_config:
            raise ValueError(
                f"optimizer config mismatch: saved {saved_config!r} vs "
                f"current {own_config!r}"
            )
        slots = state.get("slots", {})
        own_slots = self._slot_dicts()
        if set(slots) != set(own_slots):
            raise ValueError(
                f"optimizer slot mismatch: saved {sorted(slots)} vs "
                f"expected {sorted(own_slots)}"
            )
        restored: Dict[str, Dict[int, np.ndarray]] = {}
        for slot, entries in slots.items():
            new: Dict[int, np.ndarray] = {}
            for key, arr in entries.items():
                i = int(key)
                if not 0 <= i < len(self.params):
                    raise ValueError(
                        f"slot {slot!r} references parameter index {i}, "
                        f"out of range for {len(self.params)} parameters"
                    )
                arr = np.asarray(arr)
                want = self._expected_slot_shape(slot, self.params[i])
                if arr.shape != tuple(want):
                    raise ValueError(
                        f"slot {slot!r}[{i}] shape {arr.shape} != expected "
                        f"{tuple(want)} for parameter {self.params[i].name}"
                    )
                if arr.dtype != self.params[i].data.dtype:
                    raise ValueError(
                        f"slot {slot!r}[{i}] dtype {arr.dtype} != its "
                        f"parameter {self.params[i].name}'s "
                        f"{self.params[i].data.dtype}"
                    )
                new[i] = arr.copy()
            restored[slot] = new
        return restored


class SGD(Optimizer):
    """Plain SGD with optional momentum."""

    def __init__(
        self, params: Sequence[Parameter], lr: float, momentum: float = 0.0
    ):
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self._velocity: Dict[int, np.ndarray] = {}

    def _slot_dicts(self) -> Dict[str, Dict[int, np.ndarray]]:
        return {"velocity": self._velocity}

    def _config_state(self) -> Dict[str, float]:
        return {"momentum": float(self.momentum)}

    def _update(self, index: int, param: Parameter) -> None:
        g = param.grad
        if self.momentum > 0.0:
            v = self._velocity.get(index)
            v = g.copy() if v is None else self.momentum * v + g
            self._velocity[index] = v
            g = v
        param.data -= self.lr * g


class RowwiseAdagrad(Optimizer):
    """Adagrad that updates only the rows a batch touched.

    It consumes :class:`~repro.nn.sparse.RowwiseGrad` directly:
    accumulator and weight writes cost O(touched rows x dim) instead of
    O(table).  The state and arithmetic are dense Adagrad's (an
    untouched row is a strict no-op there: ``acc += 0`` then a zero
    update), so the two train bit-identically.  A parameter with a
    dense gradient is a ``TypeError``.
    """

    def __init__(
        self, params: Sequence[Parameter], lr: float, eps: float = 1e-10
    ):
        super().__init__(params, lr)
        self.eps = eps
        self._accum: Dict[int, np.ndarray] = {}

    def _slot_dicts(self) -> Dict[str, Dict[int, np.ndarray]]:
        return {"accum": self._accum}

    def _config_state(self) -> Dict[str, float]:
        return {"eps": float(self.eps)}

    def _update(self, index: int, param: Parameter) -> None:
        rg = param.row_grad
        if rg is None:
            raise TypeError(
                f"RowwiseAdagrad takes row-wise gradients; parameter "
                f"{param.name} has a dense one"
            )
        acc = self._accum.get(index)
        if acc is None:
            acc = self._accum[index] = np.zeros_like(param.data)
        rows, g = rg.rows, rg.grads
        # Each touched row is read once and written once per array
        # (rows are unique); ``state`` and ``update`` are the only two
        # (U, dim) temporaries.  The elementwise operations and their
        # order are Adagrad's.
        update = g * g
        state = acc[rows]
        state += update
        acc[rows] = state
        denom = np.sqrt(state, out=state)
        denom += self.eps
        np.multiply(self.lr, g, out=update)
        update /= denom
        weights = param.data[rows]
        weights -= update
        param.data[rows] = weights


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba)."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float,
        betas: "tuple[float, float]" = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        super().__init__(params, lr)
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.betas = betas
        self.eps = eps
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}

    def _slot_dicts(self) -> Dict[str, Dict[int, np.ndarray]]:
        return {"m": self._m, "v": self._v}

    def _config_state(self) -> Dict[str, Any]:
        return {"betas": list(self.betas), "eps": float(self.eps)}

    def _update(self, index: int, param: Parameter) -> None:
        b1, b2 = self.betas
        g = param.grad
        m = self._m.setdefault(index, np.zeros_like(param.data))
        v = self._v.setdefault(index, np.zeros_like(param.data))
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        mhat = m / (1 - b1**self.step_count)
        vhat = v / (1 - b2**self.step_count)
        param.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


class WarmupDecaySchedule:
    """Linear warmup to ``peak_lr`` then inverse-sqrt decay.

    The "tuned learning rate schedule" that turns the paper's stock
    TorchRec baseline into the Strong Baseline (Table 2).
    """

    def __init__(
        self, peak_lr: float, warmup_steps: int, decay_start: Optional[int] = None
    ):
        if peak_lr <= 0 or warmup_steps < 0:
            raise ValueError("peak_lr must be > 0 and warmup_steps >= 0")
        if decay_start is not None and decay_start < 0:
            raise ValueError(f"decay_start must be >= 0, got {decay_start}")
        self.peak_lr = peak_lr
        self.warmup_steps = warmup_steps
        # Clamp to >= 1: sqrt(decay_start / step) with decay_start=0
        # (e.g. warmup_steps=0) would zero the LR for every step >= 1.
        self.decay_start = max(
            1, decay_start if decay_start is not None else warmup_steps
        )

    def lr_at(self, step: int) -> float:
        if self.warmup_steps > 0 and step < self.warmup_steps:
            return self.peak_lr * (step + 1) / self.warmup_steps
        if step <= self.decay_start:
            return self.peak_lr
        # A Python float, so the update runs in the parameters' dtype.
        return self.peak_lr * math.sqrt(self.decay_start / step)

    def apply(self, optimizer: Optimizer, step: int) -> float:
        lr = self.lr_at(step)
        optimizer.lr = lr
        return lr
