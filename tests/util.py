"""Shared test helpers: numerical gradient checking, small models, the
dense Adagrad reference of the table optimizer and the per-key
reference of the serving cache."""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Tuple

import numpy as np

from repro.models.configs import DenseArch
from repro.nn import EmbeddingBagCollection, Module, Optimizer, Parameter
from repro.serving.cache import _LRUCacheBase
from repro.training import Trainer


class Adagrad(Optimizer):
    """Dense Adagrad: the reference :class:`~repro.nn.RowwiseAdagrad` is
    held to bit for bit.

    It reads each table's densified ``Parameter.grad`` and updates every
    row; an untouched row is a strict no-op (``acc += 0``, then a zero
    update), which is why the row-wise update may skip it.
    """

    def __init__(self, params, lr: float, eps: float = 1e-10):
        super().__init__(params, lr)
        self.eps = eps
        self._accum: Dict[int, np.ndarray] = {}

    def _slot_dicts(self) -> Dict[str, Dict[int, np.ndarray]]:
        return {"accum": self._accum}

    def _config_state(self) -> Dict[str, float]:
        return {"eps": float(self.eps)}

    def _update(self, index: int, param: Parameter) -> None:
        g = param.grad
        acc = self._accum.get(index)
        if acc is None:
            acc = np.zeros_like(param.data)
            self._accum[index] = acc
        acc += g * g
        param.data -= self.lr * g / (np.sqrt(acc) + self.eps)


def with_dense_adagrad(trainer: Trainer) -> Trainer:
    """``trainer`` with its tables' :class:`~repro.nn.RowwiseAdagrad`
    swapped for the dense :class:`Adagrad` reference (same ``sparse_lr``)."""
    trainer.sparse_opt = Adagrad(
        trainer.model.sparse_parameters(), lr=trainer.config.sparse_lr
    )
    return trainer


class ReferenceLRUCache(_LRUCacheBase):
    """Least-recently-used set of embedding row ids (reference walk).

    The per-key ``OrderedDict`` implementation: simple, obviously
    correct, and a Python-level operation per key.  It is the
    behavioural specification :class:`~repro.serving.LRUEmbeddingCache`
    reproduces bit for bit: the same hits, misses, ``contents()`` order
    and ``stats`` on any trace.
    """

    def __init__(self, capacity_rows: int):
        super().__init__(capacity_rows)
        self._rows: "OrderedDict[int, None]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._rows)

    def contents(self) -> np.ndarray:
        return np.fromiter(self._rows, dtype=np.int64, count=len(self._rows))

    def lookup(self, keys: np.ndarray) -> Tuple[int, np.ndarray]:
        """Dedupe the batch; touch the hits in ascending id order and
        return ``(num_hits, miss_keys)``."""
        unique = np.unique(self._as_ids(keys))
        if self.capacity_rows == 0:
            self._misses += len(unique)
            return 0, unique
        misses = []
        hits = 0
        for key in unique.tolist():
            if key in self._rows:
                self._rows.move_to_end(key)
                hits += 1
            else:
                misses.append(key)
        self._hits += hits
        self._misses += len(misses)
        return hits, np.asarray(misses, dtype=np.int64)

    def admit(self, keys: np.ndarray) -> None:
        """Insert fetched rows, evicting least-recently-used overflow."""
        keys = self._as_ids(keys)
        if self.capacity_rows == 0:
            return
        for key in keys.tolist():
            self._rows[key] = None
            self._rows.move_to_end(key)
        while len(self._rows) > self.capacity_rows:
            self._rows.popitem(last=False)


def tiny_dcn_arch(dim: int = 16) -> DenseArch:
    return DenseArch(
        embedding_dim=dim, bottom_mlp=(32,), top_mlp=(32,), cross_layers=2
    )


def upcast_float64(module: Module) -> None:
    """Rebuild every parameter of ``module`` in float64, in place.

    The training precision (float32) is too coarse for central
    differences; the layers compute in their parameters' dtype, so an
    upcast module runs its forward and backward in float64.  Embedding
    collections are re-stacked first, every table a view of the new
    stacked matrix, so lookups still run on the fused path.
    """
    for m in module.modules():
        if isinstance(m, EmbeddingBagCollection):
            m._stacked = m._stacked.astype(np.float64)
            for table, offset, rows in zip(m.tables, m._offsets, m._cards):
                table.weight.data = m._stacked[offset : offset + rows]
    for p in module.parameters():
        p.data = p.data.astype(np.float64, copy=False)


def numeric_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of a scalar function at x."""
    x = x.astype(np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def check_module_gradients(
    module, x: np.ndarray, rng: np.random.Generator, atol: float = 1e-6
) -> None:
    """Verify analytic input+parameter grads against central differences.

    Uses a random linear functional of the module output as the scalar
    loss so every output element participates.  The module is upcast to
    float64 first (:func:`upcast_float64`).
    """
    upcast_float64(module)
    out = module(x)
    proj = rng.standard_normal(out.shape)

    def loss_given_input(x_val: np.ndarray) -> float:
        return float((module(x_val) * proj).sum())

    module.zero_grad()
    module(x)
    grad_in = module.backward(proj)
    num_in = numeric_grad(loss_given_input, x.copy())
    np.testing.assert_allclose(grad_in, num_in, atol=atol, rtol=1e-4)

    for name, p in module.named_parameters():
        analytic = p.grad.copy() if p.grad is not None else np.zeros_like(p.data)

        def loss_given_param(val: np.ndarray, p=p) -> float:
            old = p.data
            p.data = val
            try:
                return float((module(x) * proj).sum())
            finally:
                p.data = old

        num_p = numeric_grad(loss_given_param, p.data.copy())
        np.testing.assert_allclose(
            analytic, num_p, atol=atol, rtol=1e-4, err_msg=f"param {name}"
        )
