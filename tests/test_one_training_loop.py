"""One training loop: every executed step is ``Trainer.train_batch``.

The distributed trainers are step executors ``Trainer`` calls, so a
simulated ``Session`` run trains, checkpoints and resumes through the
same loop as a single-process one.  Held here:

- ``Trainer(model, config, step=executor)`` equals the caller-held step
  (``fit_step`` with the config's ``(Adam, RowwiseAdagrad)`` pair) bit
  for bit on the SPTT-steps golden's 2x2 DMT and hybrid geometries;
- a simulated run autosaved at step 4 and resumed from that save equals
  the 8-step run bit for bit (losses, eval AUC, parameters);
- simulated autosave and the ``checkpoint-never-saves`` warning count
  the one step formula, ``(train_split // batch_size) * epochs``;
- a 2x2 save resumed on 2x1 continues bit for bit (zero drift: every
  module runs once over the global batch on any cluster) and records
  the elastic plan, and resumed on 4x1 (the same two towers, each
  spanning K = 2 hosts) continues bit for bit too; only a different
  *tower* count is a typed ``CheckpointMismatchError``;
- the elastic plan moves exactly the tables whose owner rank differs
  between the exchanges that execute on the saved and the new cluster.
"""

import numpy as np
import pytest

from repro.api import CheckpointSpec, ClusterSpec, Session, TrainSpec
from repro.api.presets import distributed_training_spec
from repro.checkpoint import (
    CheckpointManager,
    CheckpointMismatchError,
    plan_elastic_restore,
    save_training_checkpoint,
)
from repro.core import (
    DistributedDMTTrainer,
    DistributedHybridTrainer,
    FeaturePartition,
    FlatEmbeddingExchange,
    SPTTEmbeddingExchange,
)
from repro.hardware import Cluster
from repro.models import DCN, DLRM, DMTDCN, DMTDLRM, tiny_table_configs
from repro.models.configs import tiny_dlrm_arch
from repro.nn.optim import Adam, RowwiseAdagrad
from repro.sim import SimCluster
from repro.training import TrainConfig, Trainer
from tests.golden.gen_sptt_steps import (
    B_LOCAL,
    DENSE,
    GROUPS,
    F,
    N,
    ROWS,
    STEPS,
    params_sha256,
)
from tests.util import tiny_dcn_arch


def _executor(kind: str, family: str):
    """A fresh 2x2 executor on the golden's seeded geometry."""
    sim = SimCluster(Cluster(num_hosts=2, gpus_per_host=2, generation="A100"))
    rng = np.random.default_rng(17)
    arch = tiny_dlrm_arch(N) if family == "dlrm" else tiny_dcn_arch(N)
    if kind == "dmt":
        partition = FeaturePartition.from_groups(GROUPS[2])
        cls = DMTDLRM if family == "dlrm" else DMTDCN
        model = cls(
            DENSE, tiny_table_configs(partition.num_features, ROWS, N),
            partition, arch, tower_dim=4, rng=rng,
        )
        return DistributedDMTTrainer(sim, model)
    cls = DLRM if family == "dlrm" else DCN
    model = cls(DENSE, tiny_table_configs(F, ROWS, N), arch, rng=rng)
    return DistributedHybridTrainer(sim, model)


def _batches(executor):
    total = executor.sim.world_size * B_LOCAL
    for i in range(STEPS):
        rng = np.random.default_rng(100 + i)
        yield (
            rng.standard_normal((total, DENSE)),
            rng.integers(0, ROWS, size=(total, F)),
            rng.integers(0, 2, size=total).astype(float),
        )


@pytest.mark.parametrize("family", ["dlrm", "dcn"])
@pytest.mark.parametrize("kind", ["dmt", "hybrid"])
def test_trainer_step_equals_caller_held_step(kind, family):
    config = TrainConfig()
    held = _executor(kind, family)
    model = held.model
    opts = (
        Adam(
            list(model.dense_parameters()) + list(model.tower_parameters()),
            lr=config.dense_lr,
        ),
        RowwiseAdagrad(model.sparse_parameters(), lr=config.sparse_lr),
    )
    # The hybrid executor has no fit_step; DMT's is the loop it names.
    fit_step = DistributedDMTTrainer.fit_step
    held_losses = [fit_step(held, *b, opts) for b in _batches(held)]

    executor = _executor(kind, family)
    trainer = Trainer(executor.model, config, step=executor)
    losses = [trainer.train_batch(*b) for b in _batches(executor)]

    assert losses == held_losses
    assert trainer.loss_history == held_losses
    assert params_sha256(executor.model) == params_sha256(held.model)
    assert executor.sim.timeline.events == held.sim.timeline.events


# ----------------------------------------------------------------------
def _spec(tmp_path, **checkpoint):
    spec = distributed_training_spec()
    return spec.replace(
        checkpoint=CheckpointSpec(directory=str(tmp_path), **checkpoint)
    )


@pytest.fixture(scope="module")
def unbroken():
    return Session(distributed_training_spec()).train()


def _save_half(tmp_path) -> str:
    """The preset's run, autosaved every 4 of its 8 steps: the step-4
    save is the mid-epoch checkpoint."""
    spec = _spec(tmp_path, save_every_steps=4)
    Session(spec).train()
    return CheckpointManager(str(tmp_path / spec.name), 4).step_path(4)


def test_simulated_resume_is_bit_identical(tmp_path, unbroken):
    path = _save_half(tmp_path)
    spec = _spec(tmp_path, resume_from=path)
    session = Session(spec)
    art = session.resume()
    assert art.trainer.loss_history == unbroken.trainer.loss_history
    assert art.epoch_losses == unbroken.epoch_losses
    assert art.eval_result.auc == unbroken.eval_result.auc
    assert params_sha256(art.model) == params_sha256(unbroken.model)
    assert session.run().checkpoint["resumed_step"] == 4


def test_simulated_autosave_and_cadence_warning(tmp_path):
    spec = _spec(tmp_path, save_every_steps=3)
    session = Session(spec)
    session.train()
    manager = CheckpointManager(str(tmp_path / spec.name), 3)
    assert manager.saved_steps() == [3, 6]
    assert session.run().checkpoint["saved_path"] == manager.step_path(6)
    codes = [d.code for d in session.analyze()]
    assert "checkpoint-never-saves" not in codes
    never = Session(_spec(tmp_path, save_every_steps=9))
    assert "checkpoint-never-saves" in [d.code for d in never.analyze()]


def test_resume_on_fewer_gpus_per_host_stays_within_drift(
    tmp_path, unbroken
):
    path = _save_half(tmp_path)
    spec = _spec(tmp_path, resume_from=path).replace(
        cluster=ClusterSpec(num_hosts=2, gpus_per_host=1, generation="A100")
    )
    session = Session(spec)
    art = session.resume()
    assert art.trainer.loss_history == unbroken.trainer.loss_history
    for p, q in zip(art.model.parameters(), unbroken.model.parameters()):
        np.testing.assert_array_equal(p.data, q.data)
    plan = session.elastic_plan()
    assert (plan.source_world, plan.target_world) == (4, 2)
    assert session.run().checkpoint["elastic"]["target_world"] == 2


def test_resume_with_towers_spanning_two_hosts_stays_within_drift(
    tmp_path, unbroken
):
    path = _save_half(tmp_path)
    spec = _spec(tmp_path, resume_from=path).replace(
        cluster=ClusterSpec(num_hosts=4, gpus_per_host=1, generation="A100")
    )
    assert spec.partition.num_towers == 2
    art = Session(spec).resume()
    assert art.trainer.loss_history == unbroken.trainer.loss_history
    for p, q in zip(art.model.parameters(), unbroken.model.parameters()):
        np.testing.assert_array_equal(p.data, q.data)


def test_resume_on_a_different_host_count_is_typed(tmp_path):
    path = _save_half(tmp_path)
    spec = _spec(tmp_path, resume_from=path)
    four_hosts = spec.replace(
        cluster=ClusterSpec(num_hosts=4, gpus_per_host=1, generation="A100"),
        partition=spec.partition.replace(num_towers=4),
    )
    with pytest.raises(CheckpointMismatchError):
        Session(four_hosts).resume()


def test_a_different_tower_count_is_one_typed_error(tmp_path):
    path = _save_half(tmp_path)
    spec = _spec(tmp_path, resume_from=path)
    four_towers = spec.replace(
        cluster=ClusterSpec(num_hosts=4, gpus_per_host=1, generation="A100"),
        partition=spec.partition.replace(num_towers=4),
    )
    message = r"2-tower model.*num_towers=4"
    with pytest.raises(CheckpointMismatchError, match=message):
        Session(four_towers).elastic_plan()
    with pytest.raises(CheckpointMismatchError, match=message):
        Session(four_towers).resume()
    # The same model cannot run where its towers do not divide the hosts.
    with pytest.raises(CheckpointMismatchError, match="do not divide the 3"):
        plan_elastic_restore(path, Cluster(3, 1, "A100"))


# ----------------------------------------------------------------------
def _flat_spec(tmp_path, **checkpoint):
    """The preset's data and tables in a flat DLRM (single-process)."""
    spec = _spec(tmp_path, **checkpoint)
    return spec.replace(
        model=spec.model.replace(variant="flat"),
        partition=None,
        train=TrainSpec(mode="single", batch_size=64, epochs=1),
    )


def _owners(exchange) -> dict:
    return {f: r for r, feats in exchange.features_of.items() for f in feats}


@pytest.mark.parametrize(
    "flat, hosts, gpus, moved_tables",
    [
        (False, 2, 1, 6),
        (False, 4, 2, 6),
        (False, 4, 1, 0),  # the same towers at K = 2: nothing moves
        (True, 4, 2, 4),
    ],
)
def test_elastic_plan_moves_the_executed_owner_changes(
    tmp_path, flat, hosts, gpus, moved_tables
):
    make = _flat_spec if flat else _spec
    saved = Session(make(tmp_path)).save_checkpoint(str(tmp_path / "src"))
    spec = make(tmp_path, resume_from=saved).replace(
        cluster=ClusterSpec(num_hosts=hosts, gpus_per_host=gpus)
    )
    plan = Session(spec).elastic_plan()

    model = Session(spec).build_model()

    def executed(num_hosts, gpus_per_host):
        sim = SimCluster(Cluster(num_hosts, gpus_per_host, "A100"))
        if flat:
            return _owners(FlatEmbeddingExchange(sim, model.embeddings))
        return _owners(
            SPTTEmbeddingExchange(sim, model.embeddings, model.partition)
        )

    old, new = executed(2, 2), executed(hosts, gpus)
    table_bytes = [
        t.config.num_embeddings * t.config.dim * 4
        for t in model.embeddings.tables
    ]
    oracle = sum(b for f, b in enumerate(table_bytes) if old[f] != new[f])
    assert plan.moved_bytes == oracle == moved_tables * 2048
    assert plan.num_towers == (None if flat else 2)
    assert (plan.source_world, plan.target_world) == (4, hosts * gpus)


def test_towers_that_never_spanned_the_saved_hosts_move_everything(tmp_path):
    """A single-process DMT run may have more towers than hosts; no
    exchange placed its tables, so the restore prices a full reshuffle."""
    spec = _spec(tmp_path).replace(
        partition=distributed_training_spec().partition.replace(num_towers=4),
        train=TrainSpec(mode="single", batch_size=64, epochs=1),
    )
    model = Session(spec).build_model()
    path = save_training_checkpoint(
        str(tmp_path / "single"), model, spec=spec, partition=model.partition
    )
    plan = plan_elastic_restore(path, Cluster(4, 1, "A100"))
    assert plan.num_towers == 4
    assert plan.moved_bytes == plan.total_bytes
