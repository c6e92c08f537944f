"""One training precision: float32 everywhere the step computes.

Tables, their row-wise gradients and Adagrad state, every buffer the
embedding exchanges move, and the whole dense plane -- MLPs,
interactions, tower modules, their activations and gradients, and
Adam's slots -- are float32 (``repro.nn.DTYPE``, the paper's fp32,
which the price's wire already assumes).  Only the loss's mean and
sigmoid accumulate in float64, and the tower partitioner's MDS, which
is not part of the step, keeps float64.  These tests hold that through
a single-process DMT step, a simulated SPTT step and a checkpoint round
trip, and check the executed wire against float32 byte counts at
``train_sptt_sim``'s geometry (4x2 A100, global batch 1024, 26 tables x
dim 32, 4 towers).
"""

import dataclasses

import numpy as np
import pytest

import repro.comm.functional as comm_functional
from repro.checkpoint import (
    CheckpointMismatchError,
    load_training_checkpoint,
    save_training_checkpoint,
)
from repro.core import DistributedDMTTrainer, FeaturePartition
from repro.data import random_batch
from repro.hardware import Cluster
from repro.models import DLRM, DMTDLRM, paper_dlrm_arch, tiny_table_configs
from repro.nn import DTYPE, Adam, Parameter, RowwiseAdagrad
from repro.nn.loss import BCEWithLogitsLoss
from repro.partitioner.mds import mds_embed
from repro.sim import Phase, SimCluster
from repro.training import TrainConfig, Trainer
from tests.util import upcast_float64

F32, F64 = np.dtype(np.float32), np.dtype(np.float64)
NUM_DENSE, NUM_SPARSE = 13, 26


def _arch(dim, bottom, top):
    return dataclasses.replace(
        paper_dlrm_arch(), embedding_dim=dim, bottom_mlp=bottom, top_mlp=top
    )


def _dense_modules(model):
    """Every module of the step but the model itself and the embedding
    plane: layers, MLPs, interactions, tower modules."""
    skip = {id(model), *map(id, model.embeddings.modules())}
    return [m for m in model.modules() if id(m) not in skip]


def _record_dtypes(model, mp):
    """Wrap (through the MonkeyPatch ``mp``) the forward and backward of
    every dense module and ``Parameter.add_grad``; the returned dict maps
    "forward", "backward" and "grad" to the set of dtypes each saw."""
    seen = {"forward": set(), "backward": set(), "grad": set()}
    add_grad = Parameter.add_grad

    def recording_add_grad(self, grad):
        seen["grad"].add(np.asarray(grad).dtype)
        return add_grad(self, grad)

    mp.setattr(Parameter, "add_grad", recording_add_grad)

    def wrap(m, attr):
        orig = getattr(m, attr)

        def call(*args, **kwargs):
            out = orig(*args, **kwargs)
            seen[attr].add(out.dtype)
            return out

        setattr(m, attr, call)

    for m in _dense_modules(model):
        wrap(m, "forward")
        wrap(m, "backward")
    return seen


ONE_PRECISION = {"forward": {F32}, "backward": {F32}, "grad": {F32}}


def _assert_one_precision(model, opts):
    """Every parameter and optimizer slot is float32."""
    dense_opt, sparse_opt = opts
    assert DTYPE == F32
    assert model.embeddings.dtype == F32
    for p in model.parameters():
        assert p.data.dtype == F32, p.name
    for acc in sparse_opt._accum.values():
        assert acc.dtype == F32
    for slot in (dense_opt._m, dense_opt._v):
        assert slot and all(a.dtype == F32 for a in slot.values())


# ----------------------------------------------------------------------
# Single process: train_dmt's model at smoke size
# ----------------------------------------------------------------------
def _train_dmt_trainer(seed=7):
    tables = tiny_table_configs(NUM_SPARSE, 2_000, 64)
    groups = [list(range(i, NUM_SPARSE, 8)) for i in range(8)]
    model = DMTDLRM(
        NUM_DENSE, tables, FeaturePartition.from_groups(groups),
        _arch(64, (128,), (256, 128)), tower_dim=32, c=1, p=0,
        rng=np.random.default_rng(seed),
    )
    return Trainer(model, TrainConfig(batch_size=256))


def _batch(n, rows, seed):
    return random_batch(
        n, NUM_DENSE, NUM_SPARSE, rows, rng=np.random.default_rng(seed)
    )


def test_single_process_step_runs_at_one_precision(monkeypatch):
    trainer = _train_dmt_trainer()
    model = trainer.model
    seen = _record_dtypes(model, monkeypatch)
    trainer.train_batch(*_batch(256, 2_000, 1))

    assert seen == ONE_PRECISION
    for table in model.embeddings.tables:
        assert table.weight.row_grad.grads.dtype == F32
    _assert_one_precision(model, (trainer.dense_opt, trainer.sparse_opt))


def test_the_loss_accumulates_in_float64():
    logits = np.linspace(-3, 3, 8, dtype=F32)
    loss = BCEWithLogitsLoss()
    assert isinstance(loss(logits, np.ones(8)), float)
    assert loss.backward().dtype == F64


def test_mds_keeps_float64():
    D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    res = mds_embed(D, dim=2, iterations=20, rng=np.random.default_rng(0))
    assert res.coordinates.dtype == F64


def test_checkpoint_round_trip_keeps_one_precision(tmp_path):
    trainer = _train_dmt_trainer()
    trainer.train_batch(*_batch(256, 2_000, 1))
    path = save_training_checkpoint(str(tmp_path / "ck"), trainer.model, trainer)

    fresh = _train_dmt_trainer(seed=99)
    load_training_checkpoint(path, fresh.model, fresh)
    _assert_one_precision(fresh.model, (fresh.dense_opt, fresh.sparse_opt))
    for a, b in zip(trainer.model.parameters(), fresh.model.parameters()):
        np.testing.assert_array_equal(a.data, b.data)
    stacked = fresh.model.embeddings._stacked
    assert all(t.weight.data.base is stacked for t in fresh.model.embeddings.tables)


def test_a_float64_checkpoint_is_a_typed_error_and_loads_nothing(tmp_path):
    """A checkpoint of float64 weights and Adam moments (what a float64
    dense plane wrote) does not resume rounded: both the model and the
    optimizers refuse it before anything is touched."""
    old = _train_dmt_trainer()
    upcast_float64(old.model)
    old.train_batch(*_batch(256, 2_000, 1))
    assert old.dense_opt._m[0].dtype == F64
    path = save_training_checkpoint(str(tmp_path / "f64"), old.model, old)

    trainer = _train_dmt_trainer(seed=99)
    trainer.train_batch(*_batch(256, 2_000, 2))
    params = {n: p.data.copy() for n, p in trainer.model.named_parameters()}
    opt_state = trainer.state_dict()
    with pytest.raises(CheckpointMismatchError, match="dtype"):
        load_training_checkpoint(path, trainer.model, trainer)
    with pytest.raises(CheckpointMismatchError, match="dtype"):
        load_training_checkpoint(path, trainer.model)
    for name, p in trainer.model.named_parameters():
        np.testing.assert_array_equal(p.data, params[name])
        assert p.data.dtype == F32
    after = trainer.state_dict()
    assert after["global_step"] == opt_state["global_step"] == 1
    for role in ("dense_opt", "sparse_opt"):
        for slot, entries in opt_state[role]["slots"].items():
            for i, arr in entries.items():
                got = after[role]["slots"][slot][i]
                assert got.dtype == F32
                np.testing.assert_array_equal(got, arr)


def test_an_optimizer_slot_of_another_dtype_is_refused():
    param = Parameter(np.zeros(3, F32), name="w")
    opt = Adam([param], lr=0.1)
    param.add_grad(np.ones(3, F32))
    opt.step()
    state = opt.state_dict()
    state["slots"]["v"]["0"] = state["slots"]["v"]["0"].astype(F64)
    m, v = opt._m[0].copy(), opt._v[0].copy()
    with pytest.raises(ValueError, match="dtype float64"):
        opt.load_state_dict(state)
    np.testing.assert_array_equal(opt._m[0], m)
    np.testing.assert_array_equal(opt._v[0], v)
    assert opt._v[0].dtype == F32


# ----------------------------------------------------------------------
# Optimizer slots keep their parameter's dtype
# ----------------------------------------------------------------------
def test_float32_rowwise_adagrad_state_round_trips_as_float32():
    model = DLRM(
        4, tiny_table_configs(3, 16, 8), _arch(8, (8,), (8,)),
        rng=np.random.default_rng(0),
    )
    params = model.sparse_parameters()
    opt = RowwiseAdagrad(params, lr=0.1)
    model.zero_grad()
    dense, ids, _ = random_batch(8, 4, 3, 16, rng=np.random.default_rng(1))
    model.backward(np.ones(len(model(dense, ids))))
    opt.step()
    state = opt.state_dict()
    assert {a.dtype for a in state["slots"]["accum"].values()} == {F32}

    restored = RowwiseAdagrad(params, lr=0.1)
    restored.load_state_dict(state)
    for i, acc in opt._accum.items():
        assert restored._accum[i].dtype == F32
        np.testing.assert_array_equal(restored._accum[i], acc)


def test_resume_on_float32_tables_is_bit_identical(tmp_path):
    def run(steps, start=0, path=None, save_at=None):
        trainer = _train_dmt_trainer()
        if path is not None and save_at is None:
            load_training_checkpoint(path, trainer.model, trainer)
        losses = []
        for step in range(start, steps):
            losses.append(trainer.train_batch(*_batch(128, 2_000, step)))
            if save_at == step + 1:
                save_training_checkpoint(path, trainer.model, trainer)
        return trainer, losses

    path = str(tmp_path / "mid")
    ref, ref_losses = run(4)
    _, first = run(2, path=path, save_at=2)
    resumed, rest = run(4, start=2, path=path)
    assert first + rest == ref_losses
    for a, b in zip(ref.model.parameters(), resumed.model.parameters()):
        assert a.data.dtype == b.data.dtype
        np.testing.assert_array_equal(a.data, b.data)
    for i, acc in ref.sparse_opt._accum.items():
        assert resumed.sparse_opt._accum[i].dtype == F32
        np.testing.assert_array_equal(resumed.sparse_opt._accum[i], acc)


# ----------------------------------------------------------------------
# Simulated SPTT: train_sptt_sim's geometry, every buffer on the wire
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sptt_step():
    """One ``fit_step`` at ``train_sptt_sim``'s geometry, with every
    buffer handed to an AlltoAll recorded by label order."""
    tables = tiny_table_configs(NUM_SPARSE, 2_000, 32)
    model = DMTDLRM(
        NUM_DENSE, tables, FeaturePartition.contiguous(NUM_SPARSE, 4),
        _arch(32, (64,), (64,)), tower_dim=16,
        rng=np.random.default_rng(7),
    )
    sim = SimCluster(Cluster(4, 2, "A100"))
    trainer = DistributedDMTTrainer(sim, model)
    opts = [
        Adam(model.dense_parameters() + model.tower_parameters(), lr=1e-3),
        RowwiseAdagrad(model.sparse_parameters(), lr=0.05),
    ]
    moved = []
    alltoall = comm_functional.alltoall
    mp = pytest.MonkeyPatch()
    seen = _record_dtypes(model, mp)

    def recording(group, buffers):
        moved.append({r: list(b) for r, b in buffers.items()})
        return alltoall(group, buffers)

    mp.setattr(comm_functional, "alltoall", recording)
    try:
        trainer.fit_step(*_batch(1024, 2_000, 7), opts)
    finally:
        mp.undo()
    return model, opts, sim.timeline.events, moved, seen


def _events_by_collective(events, moved):
    """Pair each EMBEDDING_COMM event with the buffers it moved: an
    event is one AlltoAll, or one per group when concurrent."""
    comm = [e for e in events if e.phase == Phase.EMBEDDING_COMM]
    pairs, i = [], 0
    for e in comm:
        n = 8 // e.world_size  # groups in one concurrent step
        calls, i = moved[i : i + n], i + n
        pairs.append((e, {r: b for call in calls for r, b in call.items()}))
    assert i == len(moved)
    return pairs


def test_sptt_step_moves_float32_at_one_precision(sptt_step):
    model, opts, events, moved, seen = sptt_step
    assert seen == ONE_PRECISION
    for label_event, buffers in _events_by_collective(events, moved):
        dtypes = {b.dtype for bufs in buffers.values() for b in bufs}
        want = {np.dtype(np.int64)} if label_event.label == "sptt.input_dist" else {F32}
        assert dtypes == want, label_event.label
    _assert_one_precision(model, opts)


def test_every_embedding_event_is_the_float32_size_of_its_buffers(sptt_step):
    _, _, events, moved, _ = sptt_step
    pairs = _events_by_collective(events, moved)
    for event, buffers in pairs:
        itemsize = 8 if event.label == "sptt.input_dist" else 4
        per_rank = [sum(b.size for b in bufs) * itemsize for bufs in buffers.values()]
        assert event.nbytes == max(per_rank), event.label
    step_d = next(e for e, _ in pairs if e.label == "sptt.intra_host")
    # The largest owner holds 4 of the 26 tables: 4 x 8 ranks x 128
    # samples x 32 dims x 4 B.  The price's mean owner is 3.25 tables
    # (425 984 B), so the executed/priced ratio 1.2308 is imbalance only.
    assert step_d.nbytes == 524_288
