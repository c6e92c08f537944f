"""Dense-vs-rowwise equivalence suite.

Training with the trainer's table optimizer (``RowwiseAdagrad`` on the
touched rows) must reproduce the dense reference (``tests.util.Adagrad``
over the densified row-wise gradient) exactly: identical loss history,
identical final weights, identical Adagrad accumulator state, identical
eval AUC — across seeds, pooling factors, duplicate-heavy id batches,
and multi-epoch runs.  The row-wise update is arithmetically the dense
one restricted to touched rows, so the tolerance here is essentially
bitwise (1e-12 guard for platform libm differences).
"""

import dataclasses

import numpy as np
import pytest

import repro.nn
from repro.data import random_batch, train_eval_split
from repro.models import DLRM, DMTDLRM, tiny_table_configs
from repro.models.configs import tiny_dlrm_arch
from repro.core.partition import FeaturePartition
from repro.nn import RowwiseAdagrad
from repro.training import TrainConfig, Trainer
from tests.util import with_dense_adagrad

DENSE, F, N, ROWS = 4, 6, 8, 32

TOL = dict(rtol=0.0, atol=1e-12)


def make_data(seed, n=512, pooling=1, cardinality=ROWS, duplicate_heavy=False):
    rng = np.random.default_rng(seed)
    dense, ids, labels = random_batch(
        n, DENSE, F, cardinality, pooling=pooling, rng=rng
    )
    if duplicate_heavy:
        # Zipf-like collapse onto a handful of hot rows: many duplicate
        # ids per batch and per bag, the worst case for compaction.
        ids = np.minimum(ids, rng.integers(0, 4, size=ids.shape))
    return train_eval_split(dense, ids, labels, eval_fraction=0.25)


def make_model(seed, pooling=1):
    tables = [
        dataclasses.replace(c, pooling=pooling)
        for c in tiny_table_configs(F, ROWS, N)
    ]
    return DLRM(DENSE, tables, tiny_dlrm_arch(N), rng=np.random.default_rng(seed))


def run_pair(config_kwargs, data_kwargs, model_seed=11):
    """Train twins under the dense reference and the row-wise table
    optimizer; return both trainers plus the shared eval split."""
    (td, ti, tl), (ed, ei, el) = make_data(**data_kwargs)
    trainers = []
    for swap in (with_dense_adagrad, lambda trainer: trainer):
        model = make_model(model_seed, pooling=data_kwargs.get("pooling", 1))
        trainer = swap(Trainer(model, TrainConfig(**config_kwargs)))
        trainer.fit(td, ti, tl)
        trainers.append(trainer)
    return trainers[0], trainers[1], (ed, ei, el)


def assert_equivalent(dense_tr, row_tr, eval_data):
    np.testing.assert_allclose(
        dense_tr.loss_history, row_tr.loss_history, **TOL
    )
    d_params = dict(dense_tr.model.named_parameters())
    for name, p in row_tr.model.named_parameters():
        np.testing.assert_allclose(
            p.data, d_params[name].data, err_msg=name, **TOL
        )
    d_acc, r_acc = dense_tr.sparse_opt._accum, row_tr.sparse_opt._accum
    assert set(d_acc) == set(r_acc)
    for idx in d_acc:
        np.testing.assert_allclose(
            r_acc[idx], d_acc[idx], err_msg=f"accum[{idx}]", **TOL
        )
    e_dense = dense_tr.evaluate(*eval_data)
    e_row = row_tr.evaluate(*eval_data)
    assert e_row.auc == pytest.approx(e_dense.auc, abs=1e-12)
    assert e_row.log_loss == pytest.approx(e_dense.log_loss, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_equivalence_across_seeds(seed):
    dense_tr, row_tr, ev = run_pair(
        {"batch_size": 64, "epochs": 1, "seed": seed},
        {"seed": seed},
        model_seed=seed + 11,
    )
    assert_equivalent(dense_tr, row_tr, ev)


@pytest.mark.parametrize("pooling", [1, 3])
def test_equivalence_across_pooling(pooling):
    dense_tr, row_tr, ev = run_pair(
        {"batch_size": 64, "epochs": 1, "seed": 4},
        {"seed": 4, "pooling": pooling},
    )
    assert_equivalent(dense_tr, row_tr, ev)


def test_equivalence_duplicate_heavy_batches():
    dense_tr, row_tr, ev = run_pair(
        {"batch_size": 32, "epochs": 1, "seed": 5},
        {"seed": 5, "pooling": 4, "duplicate_heavy": True},
    )
    assert_equivalent(dense_tr, row_tr, ev)


def test_equivalence_multi_epoch():
    dense_tr, row_tr, ev = run_pair(
        {"batch_size": 64, "epochs": 3, "seed": 6},
        {"seed": 6},
    )
    assert len(row_tr.loss_history) == 3 * (384 // 64)
    assert_equivalent(dense_tr, row_tr, ev)


def test_equivalence_dmt_model_with_towers():
    """The equality holds for embeddings nested inside DMT models too."""
    (td, ti, tl), (ed, ei, el) = make_data(seed=7)
    partition = FeaturePartition.contiguous(F, 2)
    trainers = []
    for swap in (with_dense_adagrad, lambda trainer: trainer):
        model = DMTDLRM(
            DENSE,
            tiny_table_configs(F, ROWS, N),
            partition,
            tiny_dlrm_arch(N),
            tower_dim=4,
            c=1,
            p=0,
            rng=np.random.default_rng(21),
        )
        trainer = swap(
            Trainer(model, TrainConfig(batch_size=64, epochs=1, seed=7))
        )
        trainer.fit(td, ti, tl)
        trainers.append(trainer)
    assert_equivalent(*trainers, (ed, ei, el))


def test_rowwise_is_the_default():
    """The tables have one optimizer, on every trainer."""
    model = make_model(1)
    trainer = Trainer(model, TrainConfig(batch_size=32))
    assert isinstance(trainer.sparse_opt, RowwiseAdagrad)
    assert not hasattr(repro.nn, "Adagrad")
