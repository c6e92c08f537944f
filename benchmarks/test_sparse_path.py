"""Micro-benchmarks of the sparse embedding gradient path.

Times the embedding plane's three phases at a medium-large geometry —
the fused single-hot gather (forward), the ordered segment-sum
``RowwiseGrad.from_pooled`` plus the split into per-table row
gradients (backward), and ``RowwiseAdagrad``'s one read and one write
per touched row (optimizer) — and asserts the row-wise path's headline
properties against the dense Adagrad reference (``tests.util.Adagrad``
over the densified gradient, swapped into ``trainer.sparse_opt``): a
multiple-x train-step speedup and a collapse in per-step transient
allocation.
Train-step wall-clock with its per-layer split is ``perfbench/run.py``'s
``train_dmt`` workload, compared run against run with
``perfbench/compare.py`` — these stay small enough for every CI run.
"""

import time
import tracemalloc

import numpy as np
import pytest

from repro.data import random_batch
from repro.models import DLRM
from repro.models.configs import DenseArch
from repro.nn import EmbeddingBagCollection, RowwiseAdagrad, TableConfig
from repro.training import TrainConfig, Trainer
from tests.util import with_dense_adagrad

TABLES, ROWS, DIM, BATCH = 8, 100_000, 64, 256


def make_ebc():
    return EmbeddingBagCollection(
        [TableConfig(f"t{i}", ROWS, DIM) for i in range(TABLES)],
        rng=np.random.default_rng(0),
    )


@pytest.fixture(scope="module")
def batch_ids():
    return np.random.default_rng(1).integers(0, ROWS, size=(BATCH, TABLES))


@pytest.fixture(scope="module")
def grad_out():
    return np.random.default_rng(2).standard_normal((BATCH, TABLES, DIM))


def test_bench_fused_forward(benchmark, batch_ids):
    """One gather over the stacked matrix; single-hot ids skip the
    pooling reduction."""
    ebc = make_ebc()
    benchmark(ebc.forward, batch_ids)


def test_bench_rowwise_backward(benchmark, batch_ids, grad_out):
    """One sort-based segment-sum over all tables' rows, then O(F)
    slicing into per-table ``RowwiseGrad``s."""
    ebc = make_ebc()
    ebc(batch_ids)

    def bwd():
        for t in ebc.tables:
            t.weight.zero_grad()
        ebc.backward(grad_out)

    benchmark(bwd)


def test_bench_rowwise_optimizer_step(benchmark, batch_ids, grad_out):
    """Forward + backward + the touched-rows-only Adagrad update."""
    ebc = make_ebc()
    opt = RowwiseAdagrad([t.weight for t in ebc.tables], lr=0.01)

    def step():
        opt.zero_grad()
        ebc(batch_ids)
        ebc.backward(grad_out)
        opt.step()

    benchmark(step)


def _train_step_timer(dense_reference=False, steps=3):
    """Best-of seconds/step and peak transient bytes of a DLRM train
    step, its tables on ``RowwiseAdagrad`` or the dense reference.  Min
    over steps (not mean) so a contention spike on a busy CI runner
    cannot flip the speedup assertion."""
    arch = DenseArch(embedding_dim=DIM, bottom_mlp=(32,), top_mlp=(32,))
    model = DLRM(
        13,
        [TableConfig(f"t{i}", ROWS, DIM) for i in range(TABLES)],
        arch,
        rng=np.random.default_rng(0),
    )
    trainer = Trainer(model, TrainConfig(batch_size=BATCH))
    if dense_reference:
        with_dense_adagrad(trainer)
    dense_x, ids, labels = random_batch(
        BATCH, 13, TABLES, ROWS, rng=np.random.default_rng(3)
    )
    trainer.train_batch(dense_x, ids, labels)  # warmup: allocate state
    tracemalloc.start(1)
    tracemalloc.reset_peak()
    before, _ = tracemalloc.get_traced_memory()
    best = np.inf
    for _ in range(steps):
        t0 = time.perf_counter()
        trainer.train_batch(dense_x, ids, labels)
        best = min(best, time.perf_counter() - t0)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return best, peak - before


def test_rowwise_step_beats_dense(benchmark):
    dense_sec, dense_bytes = _train_step_timer(dense_reference=True)
    row_sec, row_bytes = benchmark.pedantic(
        _train_step_timer, iterations=1, rounds=1
    )
    speedup = dense_sec / row_sec
    mem_ratio = dense_bytes / max(row_bytes, 1)
    # At 8 x 100k x 64 the dense path rewrites ~400 MB of optimizer
    # state per step; even this mid-size config clears 3x / 5x easily.
    assert speedup > 3.0, f"rowwise only {speedup:.2f}x faster than dense"
    assert mem_ratio > 5.0, (
        f"rowwise transient allocation only {mem_ratio:.1f}x below dense"
    )


def test_rowwise_step_touches_only_batch_rows():
    """Transient allocation of a rowwise step is O(batch), not O(table)."""
    _, row_bytes = _train_step_timer(steps=1)
    table_bytes = TABLES * ROWS * DIM * 8
    assert row_bytes < table_bytes / 10
