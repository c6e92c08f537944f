"""Base classes: Parameter and Module."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.nn.sparse import RowwiseGrad

#: The one training precision, the paper's fp32: every embedding table,
#: dense parameter, activation, gradient, optimizer slot and exchange
#: buffer.  Table byte counts derive from its itemsize.
DTYPE = np.dtype(np.float32)


class Parameter:
    """A trainable array with an accumulated gradient.

    Gradients accumulate across ``backward`` calls (PyTorch semantics);
    optimizers read ``grad`` and the trainer zeroes it between steps.

    Embedding tables may instead accumulate a compact
    :class:`~repro.nn.sparse.RowwiseGrad` in ``row_grad`` (unique
    touched rows + per-row sums).  Sparse-aware optimizers consume
    ``row_grad`` directly and never pay for the full table; everything
    else keeps working unchanged because reading ``grad`` transparently
    densifies any pending row-wise gradient first.
    """

    __slots__ = ("data", "_grad", "row_grad", "name")

    def __init__(self, data: np.ndarray, name: str = "param"):
        # The dtype it is given: the layers build theirs at DTYPE.
        self.data = np.ascontiguousarray(data)
        if self.data.dtype.kind != "f":
            raise TypeError(
                f"parameter {name} must be floating, got {self.data.dtype}"
            )
        self._grad: Optional[np.ndarray] = None
        self.row_grad: Optional["RowwiseGrad"] = None
        self.name = name

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def grad(self) -> Optional[np.ndarray]:
        """Dense gradient view; densifies a pending row-wise gradient.

        The densification is the compatibility escape hatch for dense
        consumers (Adam on a whole model, tests poking ``weight.grad``);
        hot paths that care use ``row_grad`` / :meth:`has_grad` and
        never trigger it.
        """
        self._flush_row_grad()
        return self._grad

    @grad.setter
    def grad(self, value: Optional[np.ndarray]) -> None:
        self._grad = value
        self.row_grad = None

    def _flush_row_grad(self) -> None:
        if self.row_grad is None:
            return
        if self._grad is None:
            self._grad = self.row_grad.to_dense(self.data.shape)
        else:
            self.row_grad.scatter_into(self._grad)
        self.row_grad = None

    @property
    def has_grad(self) -> bool:
        """True when any gradient (dense or row-wise) is pending."""
        return self._grad is not None or self.row_grad is not None

    def zero_grad(self) -> None:
        self._grad = None
        self.row_grad = None

    def add_grad(self, grad: np.ndarray) -> None:
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match parameter "
                f"{self.name} shape {self.data.shape}"
            )
        self._flush_row_grad()
        if self._grad is None:
            self._grad = grad.astype(self.data.dtype, copy=True)
        else:
            self._grad += grad

    def add_row_grad(self, row_grad: "RowwiseGrad") -> None:
        """Accumulate a compacted row-wise gradient.

        Mirrors :meth:`add_grad` semantics: merges with whatever is
        already pending (row-wise with row-wise stays compact; into an
        existing dense gradient it scatter-adds).
        """
        if row_grad.dim != self.data.shape[-1]:
            raise ValueError(
                f"row gradient dim {row_grad.dim} does not match parameter "
                f"{self.name} shape {self.data.shape}"
            )
        if self._grad is not None:
            row_grad.scatter_into(self._grad)
        elif self.row_grad is None:
            self.row_grad = row_grad
        else:
            self.row_grad = self.row_grad.merge(row_grad)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter({self.name}, shape={self.data.shape})"


class Module:
    """Base class for all layers and models.

    Subclasses register parameters as attributes of type
    :class:`Parameter` and submodules as attributes of type
    :class:`Module` (or lists thereof); discovery walks ``__dict__`` in
    insertion order, which makes parameter ordering deterministic — a
    property the distributed trainer relies on when flattening
    gradients for AllReduce.
    """

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def backward(self, grad_output):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for attr, value in vars(self).items():
            path = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                yield path, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{path}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{path}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{path}.{i}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        """Total trainable scalar count (Table 4 'Parameters' column)."""
        return sum(p.size for p in self.parameters())

    def flops_per_sample(self) -> int:
        """Forward multiply-add flops for one sample (2 flops per MAC).

        Defaults to the sum over direct submodules; leaves override.
        """
        total = 0
        for value in vars(self).values():
            if isinstance(value, Module):
                total += value.flops_per_sample()
            elif isinstance(value, (list, tuple)):
                total += sum(
                    m.flops_per_sample() for m in value if isinstance(m, Module)
                )
        return total

    # ------------------------------------------------------------------
    # State dict (deterministic save/load for experiment repeatability)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing {sorted(missing)}, "
                f"unexpected {sorted(unexpected)}"
            )
        # Validate every shape and dtype before touching anything: a
        # mismatch surfacing mid-copy would leave the model half-loaded,
        # which the checkpoint layer's no-partial-load guarantee
        # forbids, and a cast would resume rounded instead of exact.
        for name, p in own.items():
            saved = np.asarray(state[name])
            if saved.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{saved.shape} vs {p.data.shape}"
                )
            if saved.dtype != p.data.dtype:
                raise ValueError(
                    f"dtype mismatch for {name}: {saved.dtype} vs {p.data.dtype}"
                )
        for name, p in own.items():
            # In-place copy (not rebinding): fused embedding collections
            # alias per-table parameters into one stacked matrix, and
            # loading state must not sever that aliasing.
            np.copyto(p.data, state[name])
