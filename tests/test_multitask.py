"""Multi-task towers (CTR+CVR) and the paired A/B harness (PR 10).

Covers the tentpole seams end to end — correlated task labels from
:meth:`SyntheticCriteoDataset.sample_tasks`, the
:class:`~repro.nn.loss.MultiLoss` weighted sum (gradient-checked
against finite differences), :class:`~repro.models.multitask.
MultiTaskModel` composition and state round trips, per-task trainer
bookkeeping through checkpoint/resume, :meth:`Session.ab` paired
deltas with Student-t CIs — plus the metric satellites (``auc``'s
typed single-class skip, ``calibration``'s symmetric degenerate
rejection) and the :class:`~repro.online.OnlineDriver`'s per-task
canary gate, through ``Session.online()`` too.
"""

import json
import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.analysis import SpecAnalysisError
from repro.api import (
    ABSpec,
    ClusterSpec,
    DataSpec,
    ModelSpec,
    RunSpec,
    Session,
    TrainSpec,
)
from repro.checkpoint import load_training_checkpoint, save_training_checkpoint
from repro.data import random_batch
from repro.data.criteo import SyntheticCriteoConfig, SyntheticCriteoDataset
from repro.models import DLRM
from repro.models.configs import DenseArch, tiny_table_configs
from repro.models.multitask import MultiTaskHead, MultiTaskModel
from repro.nn.loss import BCEWithLogitsLoss, MultiLoss
from repro.online import OnlineDriver
from repro.training import TrainConfig, Trainer
from repro.training.loop import EvalResult, MultiTaskEvalResult
from repro.training.metrics import auc, calibration, normalized_entropy
from tests.util import upcast_float64, with_dense_adagrad

NUM_DENSE = 4
NUM_TABLES = 4
CARD = 64
DIM = 8


def base_model(init_seed=0, rng=None):
    """The tiny DLRM geometry shared by every test in this file."""
    return DLRM(
        NUM_DENSE,
        tiny_table_configs(NUM_TABLES, CARD, DIM),
        DenseArch(embedding_dim=DIM, bottom_mlp=(16,), top_mlp=(16,)),
        rng=rng if rng is not None else np.random.default_rng(init_seed),
    )


def mt_model(head="dbmtl", init_seed=0, **kwargs):
    """A two-task (ctr, cvr) tower stack over the tiny DLRM."""
    rng = np.random.default_rng(init_seed)
    return MultiTaskModel(
        base_model(rng=rng),
        tasks=("ctr", "cvr"),
        head=head,
        head_mlp=(8,),
        rng=rng,
        **kwargs,
    )


def mt_batch(i, n=128):
    """One deterministic (dense, ids, (n, 2) labels) stream window.

    The cvr column is gated on the ctr column, like the dataset's.
    """
    dense, ids, ctr = random_batch(
        n, NUM_DENSE, NUM_TABLES, CARD, rng=np.random.default_rng(100 + i)
    )
    conv = (
        np.random.default_rng(500 + i).binomial(1, 0.5, size=n).astype(np.float64)
    )
    return dense, ids, np.stack([ctr, conv * ctr], axis=1)


# ----------------------------------------------------------------------
class TestSampleTasksOracle:
    """sample_tasks must replay sample() bit-exactly through CTR."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return SyntheticCriteoDataset(
            SyntheticCriteoConfig(num_sparse=8, num_blocks=2, cardinality=32),
            seed=0,
        )

    def test_features_and_ctr_bit_equal_to_single_task(self, dataset):
        dense1, ids1, labels1 = dataset.sample(256, seed=5)
        dense2, ids2, labels2 = dataset.sample_tasks(256, seed=5)
        assert np.array_equal(dense1, dense2)
        assert np.array_equal(ids1, ids2)
        assert labels2.shape == (256, 2)
        assert np.array_equal(labels1, labels2[:, 0])

    def test_ctr_only_matches_too(self, dataset):
        _, _, labels1 = dataset.sample(128, seed=9)
        _, _, labels2 = dataset.sample_tasks(128, tasks=("ctr",), seed=9)
        assert labels2.shape == (128, 1)
        assert np.array_equal(labels1, labels2[:, 0])

    def test_cvr_is_click_gated(self, dataset):
        _, _, labels = dataset.sample_tasks(2048, seed=3)
        ctr, cvr = labels[:, 0], labels[:, 1]
        assert set(np.unique(cvr)) <= {0.0, 1.0}
        # No conversion without a click, and some clicks do convert.
        assert np.all(cvr <= ctr)
        assert 0.0 < cvr[ctr > 0.5].mean() < 1.0

    def test_deterministic_per_seed(self, dataset):
        a = dataset.sample_tasks(64, seed=11)
        b = dataset.sample_tasks(64, seed=11)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_validation(self, dataset):
        with pytest.raises(ValueError, match="unknown tasks"):
            dataset.sample_tasks(16, tasks=("ctr", "installs"))
        with pytest.raises(ValueError, match="duplicate"):
            dataset.sample_tasks(16, tasks=("ctr", "ctr"))
        with pytest.raises(ValueError, match="include 'ctr'"):
            dataset.sample_tasks(16, tasks=("cvr",))
        with pytest.raises(ValueError, match="positive"):
            dataset.sample_tasks(0)


# ----------------------------------------------------------------------
class TestMultiLoss:
    def test_weights_scale_loss_and_grad(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((32, 2))
        targets = rng.binomial(1, 0.5, size=(32, 2)).astype(np.float64)
        plain = MultiLoss(2)
        weighted = MultiLoss(2, weights=(1.0, 2.0))
        total_plain = plain(logits, targets)
        total_weighted = weighted(logits, targets)
        assert total_weighted == pytest.approx(
            total_plain + plain.task_losses[1]
        )
        g_plain, g_weighted = plain.backward(), weighted.backward()
        assert np.array_equal(g_weighted[:, 0], g_plain[:, 0])
        assert np.allclose(g_weighted[:, 1], 2.0 * g_plain[:, 1])

    def test_gate_restricts_loss_and_grad_to_gated_rows(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((64, 2))
        targets = rng.binomial(1, 0.5, size=(64, 2)).astype(np.float64)
        targets[:, 1] *= targets[:, 0]  # cvr only on clicks
        gated = MultiLoss(2, gates={1: 0})
        gated(logits, targets)
        clicked = targets[:, 0] > 0.5
        # The gated task's loss is the BCE of the clicked subset only.
        ref = BCEWithLogitsLoss()
        assert gated.task_losses[1] == ref(
            logits[clicked, 1], targets[clicked, 1]
        )
        grad = gated.backward()
        assert np.all(grad[~clicked, 1] == 0.0)
        assert np.any(grad[clicked, 1] != 0.0)

    def test_empty_gate_window_is_silent(self):
        logits = np.zeros((8, 2))
        targets = np.zeros((8, 2))  # no clicks at all
        loss = MultiLoss(2, gates={1: 0})
        total = loss(logits, targets)
        assert math.isnan(loss.task_losses[1])
        assert total == loss.weights[0] * loss.task_losses[0]
        assert np.all(loss.backward()[:, 1] == 0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            MultiLoss(0)
        with pytest.raises(ValueError, match="weights"):
            MultiLoss(2, weights=(1.0,))
        with pytest.raises(ValueError, match="finite"):
            MultiLoss(2, weights=(1.0, float("inf")))
        with pytest.raises(ValueError, match="out of range"):
            MultiLoss(2, gates={1: 5})
        with pytest.raises(ValueError, match="gate itself"):
            MultiLoss(2, gates={1: 1})
        with pytest.raises(ValueError, match="names"):
            MultiLoss(2, names=("ctr",))
        with pytest.raises(RuntimeError, match="before forward"):
            MultiLoss(2).backward()
        with pytest.raises(ValueError, match=r"\(B, 1\)"):
            MultiLoss(1)(np.zeros(4), np.zeros(4))  # (B, T) arrays only

    @pytest.mark.parametrize("head", ["shared_bottom", "dbmtl"])
    def test_finite_differences_through_the_model(self, head):
        """d(weighted loss)/d(theta) matches central differences for
        every kind of dense parameter the multi-task stack adds."""
        model = mt_model(head, task_weights=(1.0, 0.7))
        upcast_float64(model)  # float32 is too coarse for central differences
        dense, ids, labels = mt_batch(0, n=32)
        loss_fn = MultiLoss(
            2, weights=model.task_weights, gates=model.task_gates
        )

        def loss_value():
            return loss_fn(model(dense, ids), labels)

        model.zero_grad()
        loss_value()
        model.backward(loss_fn.backward())

        checked = 0
        eps = 1e-6
        for name, p in model.named_parameters():
            if "embeddings" in name:
                continue  # sparse plane: covered by the equivalence suite
            flat = p.data.reshape(-1)
            grad = (
                np.zeros_like(flat)
                if p.grad is None
                else p.grad.reshape(-1)
            )
            for idx in (0, flat.size // 2):
                orig = flat[idx]
                flat[idx] = orig + eps
                up = loss_value()
                flat[idx] = orig - eps
                down = loss_value()
                flat[idx] = orig
                fd = (up - down) / (2 * eps)
                assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7), name
                checked += 1
        assert checked >= 10
        if head == "dbmtl":
            assert any("link" in n for n, _ in model.named_parameters())


# ----------------------------------------------------------------------
class TestMultiTaskModel:
    def test_dbmtl_is_shared_bottom_plus_linked_primary(self):
        # Same init rng => identical towers; the unit-initialized link
        # makes the dbmtl aux logit exactly tower + primary.
        shared = mt_model("shared_bottom", init_seed=3)
        linked = mt_model("dbmtl", init_seed=3)
        dense, ids, _ = mt_batch(1, n=32)
        out_s, out_l = shared(dense, ids), linked(dense, ids)
        assert np.array_equal(out_s[:, 0], out_l[:, 0])
        assert np.array_equal(out_l[:, 1], out_s[:, 1] + 1.0 * out_l[:, 0])

    def test_state_dict_round_trip_includes_head_and_links(self):
        src = mt_model("dbmtl", init_seed=0)
        dst = mt_model("dbmtl", init_seed=7)
        names = [n for n, _ in src.named_parameters()]
        assert any(n.startswith("head.towers.") for n in names)
        assert any(n.startswith("head.links.") for n in names)
        dst.load_state_dict(src.state_dict())
        for (n1, p1), (n2, p2) in zip(
            src.named_parameters(), dst.named_parameters()
        ):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least two"):
            MultiTaskModel(base_model(), tasks=())
        with pytest.raises(ValueError, match="at least two"):
            MultiTaskModel(base_model(), tasks=("ctr",))
        with pytest.raises(ValueError, match="duplicate"):
            MultiTaskModel(base_model(), tasks=("ctr", "ctr"))
        with pytest.raises(ValueError, match="unknown tasks"):
            MultiTaskModel(base_model(), tasks=("ctr", "installs"))
        with pytest.raises(ValueError, match="weights"):
            MultiTaskModel(
                base_model(), tasks=("ctr", "cvr"), task_weights=(1.0,)
            )
        with pytest.raises(TypeError, match="seam"):
            MultiTaskModel(object(), tasks=("ctr", "cvr"))
        with pytest.raises(ValueError, match="head mode"):
            MultiTaskHead(8, ("cvr",), mode="moe")

    def test_cvr_gates_on_ctr_column(self):
        model = mt_model()
        assert model.task_gates == {1: 0}
        # The gate follows the ctr column wherever the task list puts it.
        swapped = MultiTaskModel(base_model(), tasks=("cvr", "ctr"))
        assert swapped.task_gates == {0: 1}


# ----------------------------------------------------------------------
class TestTrainerMultiTask:
    def test_per_task_loss_history(self):
        model = mt_model()
        trainer = Trainer(model, TrainConfig(batch_size=32, epochs=1))
        trainer.train_window(*mt_batch(0))
        assert set(trainer.task_loss_history) == {"ctr", "cvr"}
        steps = trainer.global_step
        assert steps == 4  # 128 samples / batch 32
        for history in trainer.task_loss_history.values():
            assert len(history) == steps
        assert all(np.isfinite(trainer.task_loss_history["ctr"]))

    @pytest.mark.parametrize("mode", ["rowwise", "dense"])
    def test_checkpoint_resume_bit_identical(self, mode, tmp_path):
        """Also with the tables on the dense Adagrad reference."""
        swap = with_dense_adagrad if mode == "dense" else lambda t: t
        config = TrainConfig(batch_size=32, epochs=1, seed=0)
        model = mt_model("dbmtl")
        trainer = swap(Trainer(model, config))
        trainer.train_window(*mt_batch(0))
        path = save_training_checkpoint(str(tmp_path / "ck"), model, trainer)

        m2 = mt_model("dbmtl", init_seed=7)
        t2 = swap(Trainer(m2, config))
        load_training_checkpoint(path, m2, t2)
        assert t2.task_loss_history == trainer.task_loss_history
        w1 = mt_batch(1)
        assert trainer.train_window(*w1) == t2.train_window(*w1)
        for (n1, p1), (n2, p2) in zip(
            model.named_parameters(), m2.named_parameters()
        ):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data), n1
        assert t2.task_loss_history == trainer.task_loss_history

    def test_legacy_state_without_task_history_loads(self):
        model = mt_model()
        trainer = Trainer(model, TrainConfig(batch_size=32, epochs=1))
        trainer.train_window(*mt_batch(0))
        state = trainer.state_dict()
        state.pop("task_loss_history")  # pre-multi-task snapshot shape
        t2 = Trainer(mt_model(init_seed=7), TrainConfig(batch_size=32, epochs=1))
        t2.load_state_dict(state)
        assert t2.task_loss_history == {"ctr": [], "cvr": []}

    def test_evaluate_returns_per_task_metrics(self):
        model = mt_model()
        trainer = Trainer(model, TrainConfig(batch_size=32, epochs=1))
        dense, ids, labels = mt_batch(2, n=256)
        result = trainer.evaluate(dense, ids, labels)
        assert isinstance(result, MultiTaskEvalResult)
        assert set(result.by_task) == {"ctr", "cvr"}
        # Headline metrics delegate to the primary task.
        assert result.auc == result.by_task["ctr"].auc
        assert result.num_samples == 256
        # The gated task is scored on the clicked subset only.
        clicks = int((labels[:, 0] > 0.5).sum())
        assert result.by_task["cvr"].num_samples == clicks
        with pytest.raises(ValueError, match="labels"):
            trainer.evaluate(dense, ids, labels[:, :1])


# ----------------------------------------------------------------------
class TestMetricSatellites:
    """auc's typed single-class skip; calibration's symmetric guard."""

    def test_auc_single_class_policies(self):
        ones = np.ones(8)
        scores = np.linspace(0, 1, 8)
        with pytest.raises(ValueError, match="both classes"):
            auc(ones, scores)
        assert math.isnan(auc(ones, scores, single_class="nan"))
        assert math.isnan(auc(np.zeros(8), scores, single_class="nan"))
        with pytest.raises(ValueError, match="single_class"):
            auc(ones, scores, single_class="ignore")
        # A healthy window is unaffected by the policy knob.
        labels = np.array([0, 0, 1, 1])
        healthy = np.array([0.1, 0.4, 0.35, 0.8])
        assert auc(labels, healthy) == auc(labels, healthy, single_class="nan")

    def test_calibration_degenerate_rejection_is_symmetric(self):
        logits = np.linspace(-1, 1, 8)
        for labels in (np.ones(8), np.zeros(8)):
            with pytest.raises(ValueError, match="degenerate"):
                normalized_entropy(labels, logits)
            with pytest.raises(ValueError, match="degenerate"):
                calibration(labels, logits)

    def test_calibration_value(self):
        labels = np.array([0.0, 1.0, 1.0, 0.0])
        logits = np.zeros(4)  # predicts 0.5 everywhere; base rate 0.5
        assert calibration(labels, logits) == pytest.approx(1.0)


# ----------------------------------------------------------------------
def tiny_ab_spec(**overrides):
    """A small two-arm multi-task spec (shared_bottom vs dbmtl)."""
    model = ModelSpec(
        family="dlrm",
        variant="flat",
        embedding_dim=8,
        bottom_mlp=(16,),
        top_mlp=(16,),
        tasks=("ctr", "cvr"),
        head="shared_bottom",
        head_mlp=(8,),
    )
    base = dict(
        name="tiny-ab",
        cluster=ClusterSpec(num_hosts=1, gpus_per_host=2),
        data=DataSpec(
            num_dense=4,
            num_sparse=8,
            cardinality=32,
            num_blocks=2,
            num_samples=1024,
            eval_fraction=0.25,
        ),
        model=model,
        train=TrainSpec(mode="single", batch_size=128, epochs=1),
        ab=ABSpec(
            seeds=(0, 1, 2),
            label_a="shared_bottom",
            label_b="dbmtl",
            model_b=model.replace(head="dbmtl"),
        ),
    )
    base.update(overrides)
    return RunSpec(**base)


class TestSessionAB:
    @pytest.fixture(scope="class")
    def artifact(self):
        return Session(tiny_ab_spec()).ab()

    def test_artifact_shape(self, artifact):
        assert artifact.label_a == "shared_bottom"
        assert artifact.label_b == "dbmtl"
        assert artifact.tasks == ("ctr", "cvr")
        for task in artifact.tasks:
            for metric in ("auc", "log_loss", "normalized_entropy"):
                cell = artifact.delta(task, metric)
                assert len(cell["a_values"]) == 3
                assert len(cell["b_values"]) == 3
                assert cell["deltas"] == [
                    b - a
                    for a, b in zip(cell["a_values"], cell["b_values"])
                ]
        json.dumps(artifact.summary())  # JSON-serializable end to end

    def test_paired_arm_matches_independent_run(self, artifact):
        """Arm A at seed 0 is exactly a plain training run under the
        §5.2 seed protocol — the pairing adds nothing but bookkeeping."""
        spec = tiny_ab_spec()
        arm = spec.replace(
            name="solo",
            model=spec.model.replace(seed=100),
            train=spec.train.replace(seed=0),
            ab=None,
        )
        res = Session(arm).train().eval_result
        cell = artifact.delta("ctr", "auc")
        assert cell["a_values"][0] == float(res.by_task["ctr"].auc)

    def test_ci_matches_scipy(self, artifact):
        cell = artifact.delta("cvr", "auc")
        deltas = np.array(cell["deltas"])
        n = len(deltas)
        tcrit = scipy_stats.t.ppf(0.975, n - 1)
        half = tcrit * deltas.std(ddof=1) / math.sqrt(n)
        assert cell["ci_low"] == pytest.approx(deltas.mean() - half)
        assert cell["ci_high"] == pytest.approx(deltas.mean() + half)
        assert cell["excludes_zero"] == (
            cell["ci_low"] > 0.0 or cell["ci_high"] < 0.0
        )
        assert artifact.significant("cvr", "auc") == cell["excludes_zero"]

    def test_unknown_task_or_metric_is_a_key_error(self, artifact):
        with pytest.raises(KeyError, match="no task"):
            artifact.delta("installs")
        with pytest.raises(KeyError, match="no metric"):
            artifact.delta("ctr", "accuracy")

    def test_identical_arms_rejected_by_analysis(self):
        spec = tiny_ab_spec(ab=ABSpec(seeds=(0, 1)))
        with pytest.raises(SpecAnalysisError) as err:
            Session(spec).ab()
        assert any(
            d.code == "ab-arms-identical" for d in err.value.diagnostics
        )

    def test_identical_arms_are_exactly_zero_unchecked(self):
        """With analysis off, identical arms prove the pairing is
        airtight: every per-seed delta is exactly 0.0 — same data,
        same batch order, same init."""
        spec = tiny_ab_spec(ab=ABSpec(seeds=(0, 1)))
        art = Session(spec, analyze=False).ab()
        for task in art.tasks:
            cell = art.delta(task, "auc")
            assert cell["deltas"] == [0.0, 0.0]
            assert not cell["excludes_zero"]

    def test_run_includes_ab_section(self):
        spec = tiny_ab_spec(
            ab=ABSpec(
                seeds=(0, 1),
                label_a="shared_bottom",
                label_b="dbmtl",
                model_b=tiny_ab_spec().ab.model_b,
            )
        )
        result = Session(spec).run()
        assert result.ab is not None
        assert result.ab["label_b"] == "dbmtl"
        assert "cvr" in result.ab["metrics"]
        assert "ab" in result.to_dict()
        assert "dbmtl" in result.render()


# ----------------------------------------------------------------------
class _ScriptedTrainer(Trainer):
    """Real trainer whose canary evaluations are scripted.

    The driver's gate decisions depend only on the per-task AUCs each
    evaluation reports; scripting them makes regressions deterministic
    instead of hoping a tiny window happens to degrade."""

    def __init__(self, model, config, script):
        super().__init__(model, config)
        self.script = list(script)

    def evaluate(self, *arrays, **kwargs):
        assert kwargs.get("single_class") == "nan"
        by_task = self.script.pop(0)
        return MultiTaskEvalResult(
            by_task={
                name: EvalResult(
                    auc=value,
                    log_loss=0.5,
                    normalized_entropy=1.0,
                    num_samples=32,
                    auc_skipped=math.isnan(value),
                )
                for name, value in by_task.items()
            },
            primary="ctr",
        )


class TestOnlineDriverPerTaskGate:
    """Rollback fires when ANY gated task regresses; NaN canaries are
    typed skips, never crashes or silent deploy blocks."""

    def _run(self, script, tmp_path, n_windows=3):
        model = mt_model()
        trainer = _ScriptedTrainer(
            model, TrainConfig(batch_size=32, epochs=1), script
        )
        driver = OnlineDriver(
            model, trainer, str(tmp_path), canary_threshold=0.05
        )
        windows = [
            (mt_batch(2 * i), mt_batch(2 * i + 1, n=64))
            for i in range(n_windows)
        ]
        return driver.run(windows)

    def test_aux_task_regression_rolls_back(self, tmp_path):
        # Window 1's candidate improves CTR but tanks CVR: the old
        # primary-only gate would have shipped it.
        script = [
            {"ctr": 0.70, "cvr": 0.70},  # window 0 bootstrap
            {"ctr": 0.70, "cvr": 0.70},  # w1 deployed
            {"ctr": 0.70, "cvr": 0.70},  # w1 frozen
            {"ctr": 0.72, "cvr": 0.60},  # w1 candidate: cvr -0.10
            {"ctr": 0.70, "cvr": 0.70},  # w2 deployed (still v1)
            {"ctr": 0.70, "cvr": 0.70},  # w2 frozen
            {"ctr": 0.71, "cvr": 0.71},  # w2 candidate: healthy
        ]
        report = self._run(script, tmp_path)
        assert report.num_rollbacks == 1
        assert report.windows[1]["rolled_back"] is True
        gate = report.rollouts[0]["regression_by_task"]
        assert gate["cvr"] == pytest.approx(0.10)
        assert gate["ctr"] < 0  # the primary actually improved
        assert report.rollouts[0]["canary_skipped_tasks"] == []
        # The healthy window-2 candidate deploys.
        assert report.windows[2]["rolled_out"] is True
        assert report.num_versions == 2

    def test_nan_task_is_a_typed_skip_not_a_block(self, tmp_path):
        # CVR's canary AUC is NaN (single-class gated subset) on the
        # live side: it cannot be gated, the remaining tasks decide.
        script = [
            {"ctr": 0.70, "cvr": float("nan")},
            {"ctr": 0.70, "cvr": float("nan")},  # w1 deployed
            {"ctr": 0.70, "cvr": float("nan")},  # w1 frozen
            {"ctr": 0.69, "cvr": 0.80},          # w1 candidate
            {"ctr": 0.69, "cvr": 0.80},          # w2 deployed
            {"ctr": 0.70, "cvr": float("nan")},  # w2 frozen
            {"ctr": 0.70, "cvr": 0.81},          # w2 candidate
        ]
        report = self._run(script, tmp_path)
        assert report.num_rollbacks == 0
        assert report.windows[0]["canary_skipped_tasks"] == ["cvr"]
        rollout = report.rollouts[0]
        assert rollout["canary_skipped_tasks"] == ["cvr"]
        assert "cvr" not in rollout["regression_by_task"]
        assert rollout["regression_by_task"]["ctr"] == pytest.approx(0.01)
        assert rollout["rolled_back"] is False

    def test_single_class_canary_window_does_not_crash(self, tmp_path):
        """Regression (satellite): auc() raising on a one-class canary
        window used to kill the whole online run mid-stream."""

        def window(i, n=128):
            return random_batch(
                n,
                NUM_DENSE,
                NUM_TABLES,
                CARD,
                rng=np.random.default_rng(100 + i),
            )

        model = base_model(0)
        trainer = Trainer(model, TrainConfig(batch_size=32, epochs=1, seed=0))
        driver = OnlineDriver(
            model, trainer, str(tmp_path), canary_threshold=0.45
        )
        windows = [(window(2 * i), window(2 * i + 1, n=64)) for i in range(3)]
        # Make window 1's eval slice single-class: AUC is undefined.
        dense, ids, labels = windows[1][1]
        windows[1] = (windows[1][0], (dense, ids, np.ones_like(labels)))
        report = driver.run(windows)  # must not raise
        skipped = report.windows[1]
        assert skipped["canary_skipped_tasks"] == ["ctr"]
        assert math.isnan(skipped["online_auc"])
        # No gateable evidence of regression: the deploy proceeds.
        assert skipped["rolled_out"] is True
        healthy = report.windows[2]
        assert healthy["canary_skipped_tasks"] == []
        assert not math.isnan(healthy["online_auc"])

    def test_two_task_session_online_runs_end_to_end(self, tmp_path):
        """Regression: ``Session.online()`` drew its stream windows with
        CTR-only labels, so a two-task model died in the first training
        step with a logits/targets shape mismatch."""
        from repro.analysis import analyze_spec
        from repro.experiments.model_freshness import freshness_spec

        spec = freshness_spec(fast=True, directory=str(tmp_path))
        spec = spec.replace(
            model=spec.model.replace(tasks=("ctr", "cvr")),
            online=spec.online.replace(windows=3),
        )
        assert analyze_spec(spec) == []
        report = Session(spec).online().report
        assert len(report.windows) == 3
        for w in report.windows:
            assert set(w["online_auc_by_task"]) == {"ctr", "cvr"}
            assert set(w["candidate_auc_by_task"]) == {"ctr", "cvr"}
