"""Distributed trainer tests: hybrid baseline and DMT vs single-process.

The strongest integration claim in the repo: one simulated distributed
training step (model-parallel tables + data-parallel dense + SPTT +
tower modules + intra-host tower sync) produces the same losses and the
same parameters as single-process training on the concatenated global
batch, bit for bit: the executors run every module once over the global
batch, in batch order.
"""

import numpy as np
import pytest

from repro.core.dmt_pipeline import DistributedDMTTrainer, DistributedHybridTrainer
from repro.core.partition import FeaturePartition
from repro.hardware import Cluster
from repro.models import (
    DCN,
    DLRM,
    DMTDCN,
    DMTDLRM,
    MultiTaskModel,
    tiny_table_configs,
)
from repro.models.configs import tiny_dlrm_arch
from repro.nn import Adam, BCEWithLogitsLoss, SGD
from repro.sim import SimCluster
from repro.training import TrainConfig, Trainer
from tests.util import tiny_dcn_arch

F, N, DENSE = 6, 8, 4
ROWS = 16


def make_cluster(hosts=2, gpus=2):
    return SimCluster(Cluster(num_hosts=hosts, gpus_per_host=gpus, generation="A100"))


def make_batch(sim, B_local=3, seed=2):
    rng = np.random.default_rng(seed)
    G = sim.world_size
    dense = rng.standard_normal((G * B_local, DENSE))
    ids = rng.integers(0, ROWS, size=(G * B_local, F))
    labels = rng.integers(0, 2, size=G * B_local).astype(float)
    return dense, ids, labels


def single_process_step(model, dense, ids, labels, lr=0.05):
    loss_mod = BCEWithLogitsLoss()
    model.zero_grad()
    logits = model(dense, ids)
    loss = loss_mod(logits, labels)
    model.backward(loss_mod.backward())
    return loss


def copy_model(ctor):
    """Construct twice with the same seed -> identical weights."""
    return ctor(np.random.default_rng(17)), ctor(np.random.default_rng(17))


class TestHybridTrainerEquivalence:
    @pytest.mark.parametrize("model_kind", ["dlrm", "dcn"])
    def test_losses_and_grads_match_single_process(self, model_kind):
        sim = make_cluster()

        def ctor(rng):
            if model_kind == "dlrm":
                return DLRM(
                    DENSE,
                    tiny_table_configs(F, ROWS, N),
                    tiny_dlrm_arch(N),
                    rng=rng,
                )
            return DCN(
                DENSE, tiny_table_configs(F, ROWS, N), tiny_dcn_arch(N), rng=rng
            )

        dist_model, ref_model = copy_model(ctor)
        trainer = DistributedHybridTrainer(sim, dist_model)
        dense, ids, labels = make_batch(sim)

        dist_model.zero_grad()
        dist_loss = trainer.train_step(dense, ids, labels)
        ref_loss = single_process_step(ref_model, dense, ids, labels)
        assert dist_loss == ref_loss

        ref_params = dict(ref_model.named_parameters())
        for name, p in dist_model.named_parameters():
            ref_grad = ref_params[name].grad
            if ref_grad is None:
                assert p.grad is None or not np.abs(p.grad).any()
            else:
                np.testing.assert_array_equal(p.grad, ref_grad, err_msg=name)

    def test_multi_step_training_stays_in_sync(self):
        sim = make_cluster()

        def ctor(rng):
            return DLRM(
                DENSE, tiny_table_configs(F, ROWS, N), tiny_dlrm_arch(N), rng=rng
            )

        dist_model, ref_model = copy_model(ctor)
        trainer = DistributedHybridTrainer(sim, dist_model)
        opt_d = SGD(dist_model.parameters(), lr=0.1)
        opt_r = SGD(ref_model.parameters(), lr=0.1)
        for step in range(4):
            dense, ids, labels = make_batch(sim, seed=step)
            opt_d.zero_grad()
            dist_loss = trainer.train_step(dense, ids, labels)
            opt_d.step()
            opt_r.zero_grad()
            ref_loss = single_process_step(ref_model, dense, ids, labels)
            opt_r.step()
            assert dist_loss == ref_loss
        for (n1, p1), (n2, p2) in zip(
            dist_model.named_parameters(), ref_model.named_parameters()
        ):
            np.testing.assert_array_equal(p1.data, p2.data, err_msg=n1)

    def test_timeline_has_three_alltoalls_and_allreduce(self):
        """§2.3.1: AlltoAll >= 3x, AllReduce >= 1x per iteration."""
        sim = make_cluster()
        model = DLRM(
            DENSE,
            tiny_table_configs(F, ROWS, N),
            tiny_dlrm_arch(N),
            rng=np.random.default_rng(0),
        )
        trainer = DistributedHybridTrainer(sim, model)
        trainer.train_step(*make_batch(sim))
        labels = [e.label for e in sim.timeline.events]
        assert labels.count("input_dist") == 1
        assert labels.count("output_dist") == 1
        assert labels.count("grad_dist") == 1
        assert labels.count("dense_allreduce") == 1

    def test_indivisible_batch_rejected(self):
        sim = make_cluster()
        model = DLRM(
            DENSE,
            tiny_table_configs(F, ROWS, N),
            tiny_dlrm_arch(N),
            rng=np.random.default_rng(0),
        )
        trainer = DistributedHybridTrainer(sim, model)
        with pytest.raises(ValueError, match="divisible"):
            trainer.train_step(
                np.zeros((5, DENSE)), np.zeros((5, F), dtype=int), np.zeros(5)
            )


class TestDMTTrainerEquivalence:
    @pytest.mark.parametrize(
        "model_kind,pass_through",
        [("dlrm", True), ("dlrm", False), ("dcn", True), ("dcn", False)],
    )
    def test_matches_single_process(self, model_kind, pass_through):
        sim = make_cluster(hosts=2, gpus=2)
        partition = FeaturePartition.contiguous(F, 2)

        def ctor(rng):
            if model_kind == "dlrm":
                return DMTDLRM(
                    DENSE,
                    tiny_table_configs(F, ROWS, N),
                    partition,
                    tiny_dlrm_arch(N),
                    tower_dim=4,
                    pass_through=pass_through,
                    rng=rng,
                )
            return DMTDCN(
                DENSE,
                tiny_table_configs(F, ROWS, N),
                partition,
                tiny_dcn_arch(N),
                tower_dim=4,
                pass_through=pass_through,
                rng=rng,
            )

        dist_model, ref_model = copy_model(ctor)
        trainer = DistributedDMTTrainer(sim, dist_model)
        dense, ids, labels = make_batch(sim)

        dist_model.zero_grad()
        dist_loss = trainer.train_step(dense, ids, labels)
        ref_loss = single_process_step(ref_model, dense, ids, labels)
        assert dist_loss == ref_loss

        ref_params = dict(ref_model.named_parameters())
        for name, p in dist_model.named_parameters():
            ref_grad = ref_params[name].grad
            if ref_grad is None:
                continue
            np.testing.assert_array_equal(
                p.grad if p.grad is not None else np.zeros_like(p.data),
                ref_grad,
                err_msg=name,
            )

    def test_multi_step_fit_matches_single_process(self):
        sim = make_cluster(hosts=2, gpus=2)
        partition = FeaturePartition.contiguous(F, 2)

        def ctor(rng):
            return DMTDLRM(
                DENSE,
                tiny_table_configs(F, ROWS, N),
                partition,
                tiny_dlrm_arch(N),
                tower_dim=4,
                rng=rng,
            )

        dist_model, ref_model = copy_model(ctor)
        trainer = DistributedDMTTrainer(sim, dist_model)
        opt_d = Adam(dist_model.parameters(), lr=0.01)
        opt_r = Adam(ref_model.parameters(), lr=0.01)
        loss_mod = BCEWithLogitsLoss()
        for step in range(3):
            dense, ids, labels = make_batch(sim, seed=10 + step)
            dist_loss = trainer.fit_step(dense, ids, labels, [opt_d])
            opt_r.zero_grad()
            logits = ref_model(dense, ids)
            ref_loss = loss_mod(logits, labels)
            ref_model.backward(loss_mod.backward())
            opt_r.step()
            assert dist_loss == ref_loss
        for (n1, p1), (n2, p2) in zip(
            dist_model.named_parameters(), ref_model.named_parameters()
        ):
            np.testing.assert_array_equal(p1.data, p2.data, err_msg=n1)

    @pytest.mark.parametrize("hosts,gpus", [(4, 2), (4, 1)])
    def test_towers_spanning_two_hosts_match_single_process(self, hosts, gpus):
        """Two towers on four hosts (K = 2): tower t serves its 2L ranks,
        runs once over their rows and its gradient sync is priced over
        them; four steps equal single-process training bit for bit."""
        sim = make_cluster(hosts=hosts, gpus=gpus)
        partition = FeaturePartition.contiguous(F, 2)

        def ctor(rng):
            return DMTDLRM(
                DENSE,
                tiny_table_configs(F, ROWS, N),
                partition,
                tiny_dlrm_arch(N),
                tower_dim=4,
                rng=rng,
            )

        dist_model, ref_model = copy_model(ctor)
        trainer = DistributedDMTTrainer(sim, dist_model)
        opt_d = Adam(dist_model.parameters(), lr=0.01)
        opt_r = Adam(ref_model.parameters(), lr=0.01)
        for step in range(4):
            dense, ids, labels = make_batch(sim, seed=20 + step)
            dist_loss = trainer.fit_step(dense, ids, labels, [opt_d])
            opt_r.zero_grad()
            ref_loss = single_process_step(ref_model, dense, ids, labels)
            opt_r.step()
            assert dist_loss == ref_loss
        for (n1, p1), (_, p2) in zip(
            dist_model.named_parameters(), ref_model.named_parameters()
        ):
            np.testing.assert_array_equal(p1.data, p2.data, err_msg=n1)

    def test_tower_sync_is_intra_host(self):
        """§3.2: tower-module gradients synchronize within a host only."""
        sim = make_cluster(hosts=2, gpus=2)
        partition = FeaturePartition.contiguous(F, 2)
        model = DMTDLRM(
            DENSE,
            tiny_table_configs(F, ROWS, N),
            partition,
            tiny_dlrm_arch(N),
            tower_dim=4,
            rng=np.random.default_rng(0),
        )
        trainer = DistributedDMTTrainer(sim, model)
        trainer.train_step(*make_batch(sim))
        tower_events = [
            e for e in sim.timeline.events if e.label == "tower_allreduce"
        ]
        assert len(tower_events) == 1
        assert tower_events[0].world_size == sim.gpus_per_host

    def test_peer_alltoall_smaller_than_flat_alltoall_events(self):
        """DMT's cross-host collectives run in world T, not G."""
        sim = make_cluster(hosts=2, gpus=2)
        partition = FeaturePartition.contiguous(F, 2)
        model = DMTDLRM(
            DENSE,
            tiny_table_configs(F, ROWS, N),
            partition,
            tiny_dlrm_arch(N),
            tower_dim=4,
            rng=np.random.default_rng(0),
        )
        trainer = DistributedDMTTrainer(sim, model)
        trainer.train_step(*make_batch(sim))
        peer = [e for e in sim.timeline.events if "peer_a2a" in e.label]
        assert peer and all(e.world_size == sim.num_hosts for e in peer)

    def test_tower_host_mismatch_rejected(self):
        sim = make_cluster(hosts=2, gpus=2)
        model = DMTDLRM(
            DENSE,
            tiny_table_configs(F, ROWS, N),
            FeaturePartition.contiguous(F, 3),
            tiny_dlrm_arch(N),
            rng=np.random.default_rng(0),
        )
        with pytest.raises(ValueError, match="towers"):
            DistributedDMTTrainer(sim, model)

    def test_compressed_dmt_moves_fewer_cross_host_bytes(self):
        """Tower compression shrinks step (f) traffic (the CR story)."""

        def peer_bytes(tower_dim):
            sim = make_cluster(hosts=2, gpus=2)
            model = DMTDLRM(
                DENSE,
                tiny_table_configs(F, ROWS, N),
                FeaturePartition.contiguous(F, 2),
                tiny_dlrm_arch(N),
                tower_dim=tower_dim,
                rng=np.random.default_rng(0),
            )
            DistributedDMTTrainer(sim, model).train_step(*make_batch(sim))
            return sum(
                e.nbytes for e in sim.timeline.events if e.label == "sptt.peer_a2a"
            )

        assert peer_bytes(tower_dim=2) < peer_bytes(tower_dim=N)


def _flat_dlrm():
    return DLRM(
        DENSE,
        tiny_table_configs(F, ROWS, N),
        tiny_dlrm_arch(N),
        rng=np.random.default_rng(0),
    )


def _dmt_dlrm():
    return DMTDLRM(
        DENSE,
        tiny_table_configs(F, ROWS, N),
        FeaturePartition.contiguous(F, 2),
        tiny_dlrm_arch(N),
        tower_dim=4,
        rng=np.random.default_rng(0),
    )


class TestSharedStepPrologue:
    """Both trainers validate the global batch once, before any
    exchange runs, and name the offending array."""

    @pytest.fixture(params=["hybrid", "dmt"])
    def trainer(self, request):
        sim = make_cluster()
        if request.param == "hybrid":
            return DistributedHybridTrainer(sim, _flat_dlrm())
        return DistributedDMTTrainer(sim, _dmt_dlrm())

    @pytest.mark.parametrize(
        "rows, match",
        [
            # every length divides the 4-rank world: used to be split
            # independently and fail (or broadcast) inside the loss
            (dict(dense=8, ids=4, labels=4), "dense"),
            (dict(dense=4, ids=8, labels=4), "ids"),
            (dict(dense=8, ids=8, labels=4), "dense"),
            (dict(dense=5, ids=5, labels=5), "divisible"),
        ],
    )
    def test_mismatched_or_indivisible_batch_rejected(
        self, trainer, rows, match
    ):
        with pytest.raises(ValueError, match=match):
            trainer.train_step(
                np.zeros((rows["dense"], DENSE)),
                np.zeros((rows["ids"], F), dtype=int),
                np.zeros(rows["labels"]),
            )
        assert trainer.sim.timeline.events == []

    def test_list_labels_accepted(self, trainer):
        """labels.reshape(-1) ran on the raw argument: a list was an
        AttributeError."""
        dense, ids, labels = make_batch(trainer.sim)
        trainer.model.zero_grad()
        from_list = trainer.train_step(dense, ids, labels.tolist())
        trainer.model.zero_grad()
        assert from_list == trainer.train_step(dense, ids, labels)


class TestTowerOutputSeamRequired:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: DMTDLRM(
                DENSE, tiny_table_configs(F, ROWS, N),
                FeaturePartition.contiguous(F, 2), tiny_dlrm_arch(N),
                pass_through=True, rng=np.random.default_rng(0),
            ),
            lambda: DMTDCN(
                DENSE, tiny_table_configs(F, ROWS, N),
                FeaturePartition.single_tower(F), tiny_dcn_arch(N),
                tower_dim=4, rng=np.random.default_rng(0),
            ),
        ],
        ids=["two-towers", "one-projecting-tower"],
    )
    def test_hybrid_needs_one_pass_through_tower(self, build):
        """The hybrid runs the model's one pass-through tower: more
        towers or a projecting (stateful) tower are a TypeError at
        construction, before anything is priced."""
        sim = make_cluster()
        with pytest.raises(TypeError, match="one-tower pass-through"):
            DistributedHybridTrainer(sim, build())
        assert sim.timeline.events == []

    @pytest.mark.parametrize(
        "hosts, gpus", [(2, 2), (3, 1), (1, 4)], ids=["2x2", "3x1", "1x4"]
    )
    def test_flat_dlrm_is_one_tower(self, hosts, gpus):
        """A flat DLRM is the one-tower pass-through DMT-DLRM, so SPTT
        over one tower spanning every host trains it exactly as the
        hybrid baseline does: the same losses, bit for bit."""

        def losses(executor):
            sim = make_cluster(hosts, gpus)
            model = _flat_dlrm()
            trainer = Trainer(model, TrainConfig(), executor(sim, model))
            return [
                trainer.train_batch(*make_batch(sim, seed=step))
                for step in range(4)
            ]

        assert losses(DistributedDMTTrainer) == losses(
            DistributedHybridTrainer
        )


@pytest.mark.parametrize(
    "executor, build",
    [
        (DistributedHybridTrainer, _flat_dlrm),
        (DistributedDMTTrainer, _dmt_dlrm),
    ],
    ids=["hybrid-over-flat", "dmt-over-dmt"],
)
def test_multi_task_model_equals_single_process(executor, build):
    """A two-task MultiTaskModel runs on either executor (the tower seam
    is its base model's) and its four ``Trainer`` steps equal
    single-process training bit for bit: losses, per-task losses and
    every parameter."""

    def run(simulated):
        sim = make_cluster()
        model = MultiTaskModel(build(), ("ctr", "cvr"))
        step = executor(sim, model) if simulated else None
        trainer = Trainer(model, TrainConfig(), step)
        for i in range(4):
            dense, ids, ctr = make_batch(sim, seed=30 + i)
            cvr = ctr * np.random.default_rng(40 + i).integers(0, 2, len(ctr))
            trainer.train_batch(dense, ids, np.stack([ctr, cvr], axis=1))
        return trainer

    simulated, single = run(True), run(False)
    assert simulated.loss_history == single.loss_history
    assert simulated.task_loss_history == single.task_loss_history
    for (name, p), (_, q) in zip(
        simulated.model.named_parameters(), single.model.named_parameters()
    ):
        np.testing.assert_array_equal(p.data, q.data, err_msg=name)
