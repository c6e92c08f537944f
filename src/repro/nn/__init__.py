"""Minimal numpy neural-network stack (the PyTorch/TorchRec stand-in).

Design goals, in order:

1. **Exact, inspectable backprop** — every module implements
   ``forward``/``backward`` explicitly with cached activations, so the
   distributed pipelines can route gradients through simulated
   collectives and be checked against single-process execution
   bit-for-bit.
2. **Self-reporting complexity** — ``flops_per_sample()`` and
   ``num_parameters()`` on every module; the paper's Table 4 complexity
   columns are derived from the module tree, not transcribed.
3. **Vectorized numpy throughout** (see the ml-systems guide): no
   per-sample Python loops on hot paths.
"""

from repro.nn.module import DTYPE, Module, Parameter
from repro.nn.init import xavier_uniform, uniform_embedding_init
from repro.nn.layers import Identity, Linear, ReLU, Sequential, Sigmoid
from repro.nn.mlp import MLP
from repro.nn.embedding import EmbeddingBagCollection, EmbeddingTable, TableConfig
from repro.nn.sparse import RowwiseGrad
from repro.nn.interactions import CrossNet, DotInteraction
from repro.nn.loss import BCEWithLogitsLoss, MultiLoss
from repro.nn.optim import SGD, Adam, Optimizer, RowwiseAdagrad
from repro.nn import functional

__all__ = [
    "DTYPE",
    "Module",
    "Parameter",
    "Linear",
    "ReLU",
    "Sigmoid",
    "Identity",
    "Sequential",
    "MLP",
    "EmbeddingTable",
    "EmbeddingBagCollection",
    "TableConfig",
    "RowwiseGrad",
    "DotInteraction",
    "CrossNet",
    "BCEWithLogitsLoss",
    "MultiLoss",
    "Optimizer",
    "SGD",
    "Adam",
    "RowwiseAdagrad",
    "xavier_uniform",
    "uniform_embedding_init",
    "functional",
]
