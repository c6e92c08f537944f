"""Crash/resume equivalence and checkpoint-format tests.

The core claim: a training run interrupted mid-epoch and resumed from a
checkpoint in a fresh process is **bit-identical** — loss history,
weights, optimizer state, eval AUC — to a run that never stopped,
under the row-wise table optimizer and the dense Adagrad reference
(``tests.util``) and both dense optimizers.  Plus the
failure taxonomy (truncated payloads, version bumps, geometry
mismatches, missing optimizer state all raise typed errors), periodic
auto-save retention, elastic restore, serving warm-start, and a
SHA-256 pin on the bytes of a fixed full/delta/compaction chain.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.api import (
    CheckpointSpec,
    ClusterSpec,
    DataSpec,
    FaultSpec,
    ModelSpec,
    RunSpec,
    ServeSpec,
    Session,
    SpecError,
    TrainSpec,
)
from repro.checkpoint import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    CheckpointCorruptError,
    CheckpointManager,
    CheckpointMismatchError,
    CheckpointNotFoundError,
    CheckpointVersionError,
    checkpoint_step,
    delta_touched_rows,
    hottest_rows,
    load_training_checkpoint,
    plan_elastic_restore,
    read_arrays,
    read_manifest,
    save_training_checkpoint,
    write_checkpoint,
)
from repro.core.partition import FeaturePartition
from repro.data import (
    BatchIterator,
    SyntheticCriteoConfig,
    SyntheticCriteoDataset,
    random_batch,
)
from repro.hardware import Cluster
from repro.models import DLRM, DMTDLRM, tiny_table_configs
from repro.models.configs import DenseArch
from repro.nn import Adam, Parameter, RowwiseAdagrad, SGD
from repro.serving import (
    InferenceService,
    LRUEmbeddingCache,
    MicroBatcher,
    Placement,
    RequestStream,
    ServingModel,
    WorkloadConfig,
)
from repro.sim import SimCluster
from repro.training import TrainConfig, Trainer
from tests.util import Adagrad, with_dense_adagrad

NUM_DENSE = 4
NUM_SPARSE = 6
CARDINALITY = 32
DIM = 8
ARCH = DenseArch(embedding_dim=DIM, bottom_mlp=(16,), top_mlp=(16,))


@pytest.fixture(scope="module")
def data():
    cfg = SyntheticCriteoConfig(
        num_dense=NUM_DENSE, num_sparse=NUM_SPARSE, cardinality=CARDINALITY
    )
    ds = SyntheticCriteoDataset(cfg, seed=0)
    dense, ids, labels = ds.sample(1000, seed=1)
    return (dense[:800], ids[:800], labels[:800]), (
        dense[800:],
        ids[800:],
        labels[800:],
    )


def make_model(init_seed=5):
    return DLRM(
        NUM_DENSE,
        tiny_table_configs(NUM_SPARSE, CARDINALITY, DIM),
        ARCH,
        rng=np.random.default_rng(init_seed),
    )


def make_trainer(model, table_optimizer="rowwise", **overrides):
    """A trainer of ``model``; ``table_optimizer="dense"`` swaps in the
    dense Adagrad reference for the tables."""
    cfg = dict(batch_size=64, epochs=2, seed=3)
    cfg.update(overrides)
    trainer = Trainer(model, TrainConfig(**cfg))
    return with_dense_adagrad(trainer) if table_optimizer == "dense" else trainer


class _Crash(Exception):
    pass


def assert_same_optimizer_state(opt_a, opt_b):
    sa, sb = opt_a.state_dict(), opt_b.state_dict()
    assert sa["lr"] == sb["lr"]
    assert sa["step_count"] == sb["step_count"]
    assert set(sa["slots"]) == set(sb["slots"])
    for slot in sa["slots"]:
        assert set(sa["slots"][slot]) == set(sb["slots"][slot])
        for key in sa["slots"][slot]:
            np.testing.assert_array_equal(
                sa["slots"][slot][key], sb["slots"][slot][key]
            )


# ----------------------------------------------------------------------
class TestCrashResumeEquivalence:
    @pytest.mark.parametrize("table_optimizer", ["rowwise", "dense"])
    @pytest.mark.parametrize("dense_optimizer", ["adam", "sgd"])
    def test_resume_is_bit_identical(
        self, data, tmp_path, table_optimizer, dense_optimizer
    ):
        """Train -> crash mid-epoch -> restore into fresh objects ->
        resumed run equals the uninterrupted run bit for bit."""
        (td, ti, tl), (ed, ei, el) = data
        overrides = dict(
            table_optimizer=table_optimizer,
            dense_optimizer=dense_optimizer,
        )

        ref_model = make_model()
        ref_trainer = make_trainer(ref_model, **overrides)
        ref_losses = ref_trainer.fit(td, ti, tl)
        ref_eval = ref_trainer.evaluate(ed, ei, el)

        crash_model = make_model()
        crash_trainer = make_trainer(crash_model, **overrides)
        path = str(tmp_path / "mid")

        def hook(tr):
            # Step 17 is mid-epoch-2 (12 batches per epoch).
            if tr.global_step == 17:
                save_training_checkpoint(path, crash_model, tr)
                raise _Crash

        with pytest.raises(_Crash):
            crash_trainer.fit(td, ti, tl, on_step_end=hook)

        # Fresh process state: different init proves the restore, not
        # the constructor, produces the weights.
        resumed_model = make_model(init_seed=999)
        resumed_trainer = make_trainer(resumed_model, **overrides)
        load_training_checkpoint(path, resumed_model, resumed_trainer)
        resumed_losses = resumed_trainer.fit(td, ti, tl)
        resumed_eval = resumed_trainer.evaluate(ed, ei, el)

        assert resumed_losses == ref_losses
        assert resumed_trainer.loss_history == ref_trainer.loss_history
        assert resumed_eval.auc == ref_eval.auc
        assert resumed_eval.log_loss == ref_eval.log_loss
        for (name_a, pa), (name_b, pb) in zip(
            ref_model.named_parameters(), resumed_model.named_parameters()
        ):
            assert name_a == name_b
            np.testing.assert_array_equal(pa.data, pb.data)
        assert_same_optimizer_state(
            ref_trainer.dense_opt, resumed_trainer.dense_opt
        )
        assert_same_optimizer_state(
            ref_trainer.sparse_opt, resumed_trainer.sparse_opt
        )

    def test_resume_preserves_fused_embedding_aliasing(self, data, tmp_path):
        (td, ti, tl), _ = data
        model = make_model()
        trainer = make_trainer(model, epochs=1)
        trainer.fit(td, ti, tl)
        path = save_training_checkpoint(str(tmp_path / "ck"), model, trainer)
        fresh = make_model(init_seed=11)
        load_training_checkpoint(path, fresh)
        stacked = fresh.embeddings._stacked
        for table in fresh.embeddings.tables:
            assert table.weight.data.base is stacked

    def test_mid_epoch_iterator_state_round_trips(self, data):
        """BatchIterator resumes the exact shuffle order mid-pass."""
        (td, ti, tl), _ = data
        a = BatchIterator(td, ti, tl, batch_size=64, seed=9)
        seen = []
        state = None
        for k, (_, _, labels) in enumerate(a):
            seen.append(labels)
            if k == 4:
                state = a.state_dict()
        b = BatchIterator(td, ti, tl, batch_size=64, seed=9)
        b.load_state_dict(json.loads(json.dumps(state)))
        rest = [labels for _, _, labels in b]
        assert len(rest) == len(seen) - 5
        for x, y in zip(seen[5:], rest):
            np.testing.assert_array_equal(x, y)
        # Next pass after resume matches the uninterrupted iterator's.
        np.testing.assert_array_equal(
            next(iter(a))[2], next(iter(b))[2]
        )


# ----------------------------------------------------------------------
class TestFailureTaxonomy:
    @pytest.fixture
    def saved(self, data, tmp_path):
        (td, ti, tl), _ = data
        model = make_model()
        trainer = make_trainer(model, epochs=1)
        trainer.fit(td, ti, tl)
        path = save_training_checkpoint(str(tmp_path / "ok"), model, trainer)
        return path

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(CheckpointNotFoundError, match="missing"):
            read_manifest(str(tmp_path / "nope"))

    def test_truncated_payload(self, saved):
        manifest = read_manifest(saved)
        entry = next(iter(manifest["arrays"].values()))
        payload = os.path.join(saved, entry["file"])
        with open(payload, "rb") as fh:
            raw = fh.read()
        with open(payload, "wb") as fh:
            fh.write(raw[: len(raw) // 2])
        with pytest.raises(CheckpointCorruptError, match="truncated"):
            read_arrays(saved)
        with pytest.raises(CheckpointCorruptError):
            load_training_checkpoint(saved, make_model())

    def test_bit_flipped_payload(self, saved):
        manifest = read_manifest(saved)
        entry = next(iter(manifest["arrays"].values()))
        payload = os.path.join(saved, entry["file"])
        with open(payload, "r+b") as fh:
            fh.seek(entry["nbytes"] - 1)
            last = fh.read(1)
            fh.seek(entry["nbytes"] - 1)
            fh.write(bytes([last[0] ^ 0xFF]))
        with pytest.raises(CheckpointCorruptError, match="corrupt"):
            read_arrays(saved)

    def test_version_bump_rejected(self, saved):
        manifest_path = os.path.join(saved, MANIFEST_NAME)
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        manifest["version"] = FORMAT_VERSION + 1
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(CheckpointVersionError, match="version"):
            read_manifest(saved)

    def test_garbage_manifest(self, saved):
        with open(os.path.join(saved, MANIFEST_NAME), "w") as fh:
            fh.write("{not json")
        with pytest.raises(CheckpointCorruptError, match="JSON"):
            read_manifest(saved)

    def test_table_cardinality_mismatch(self, saved):
        other = DLRM(
            NUM_DENSE,
            tiny_table_configs(NUM_SPARSE, CARDINALITY * 2, DIM),
            ARCH,
            rng=np.random.default_rng(0),
        )
        with pytest.raises(CheckpointMismatchError, match="table mismatch|cardinalities"):
            load_training_checkpoint(saved, other)

    def test_table_count_mismatch(self, saved):
        other = DLRM(
            NUM_DENSE,
            tiny_table_configs(NUM_SPARSE + 2, CARDINALITY, DIM),
            ARCH,
            rng=np.random.default_rng(0),
        )
        with pytest.raises(CheckpointMismatchError, match="tables"):
            load_training_checkpoint(saved, other)

    def test_missing_optimizer_state(self, data, tmp_path):
        """A bare-model checkpoint cannot silently resume training."""
        model = make_model()
        path = save_training_checkpoint(str(tmp_path / "bare"), model)
        fresh = make_model()
        trainer = make_trainer(fresh)
        with pytest.raises(CheckpointMismatchError, match="no trainer"):
            load_training_checkpoint(path, fresh, trainer)
        # Model-only restore still works.
        load_training_checkpoint(path, fresh)

    def test_failed_load_leaves_model_untouched(self, saved):
        """A mismatched load must not half-mutate the model (shape
        validation happens before any copy)."""
        other = DLRM(
            NUM_DENSE,
            tiny_table_configs(NUM_SPARSE, CARDINALITY, DIM),
            DenseArch(embedding_dim=DIM, bottom_mlp=(24,), top_mlp=(16,)),
            rng=np.random.default_rng(1),
        )
        before = {n: p.data.copy() for n, p in other.named_parameters()}
        with pytest.raises(CheckpointMismatchError):
            load_training_checkpoint(saved, other)
        for name, p in other.named_parameters():
            np.testing.assert_array_equal(p.data, before[name])

    def test_config_mismatch_rejected(self, saved):
        """Resuming under a different training protocol is refused —
        and the refusal leaves both model and trainer untouched (the
        trainer is validated before the model is mutated)."""
        fresh = make_model()
        trainer = make_trainer(fresh, batch_size=32)
        before = {n: p.data.copy() for n, p in fresh.named_parameters()}
        with pytest.raises(CheckpointMismatchError, match="batch_size"):
            load_training_checkpoint(saved, fresh, trainer)
        for name, p in fresh.named_parameters():
            np.testing.assert_array_equal(p.data, before[name])
        assert trainer.global_step == 0
        assert trainer.dense_opt.state_dict()["slots"]["m"] == {}

    def test_optimizer_type_mismatch_rejected(self, data):
        (td, ti, tl), _ = data
        params = [Parameter(np.zeros((4, 2)), name="p")]
        adam = Adam(params, lr=0.1)
        sgd = SGD(params, lr=0.1)
        with pytest.raises(ValueError, match="Adam"):
            sgd.load_state_dict(adam.state_dict())
        ada = Adagrad(params, lr=0.1)
        row = RowwiseAdagrad(params, lr=0.1, eps=1e-6)
        with pytest.raises(ValueError, match="config mismatch"):
            row.load_state_dict(
                RowwiseAdagrad(params, lr=0.1).state_dict()
            )
        assert ada.state_dict()["type"] == "Adagrad"

    def test_accumulator_key_of_older_checkpoints_refused(self, data, tmp_path):
        """RowwiseAdagrad's config used to carry an ``accumulator`` key;
        a checkpoint saved with it is refused by the config check."""
        (td, ti, tl), _ = data
        model = make_model()
        trainer = make_trainer(model, epochs=1)
        trainer.fit(td, ti, tl)
        path = save_training_checkpoint(str(tmp_path / "old"), model, trainer)
        manifest_path = os.path.join(path, MANIFEST_NAME)
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        sparse = manifest["metadata"]["trainer"]["optimizers"]["sparse"]
        sparse["config"]["accumulator"] = "elementwise"
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        fresh = make_model(init_seed=8)
        with pytest.raises(CheckpointMismatchError, match="config mismatch"):
            load_training_checkpoint(path, fresh, make_trainer(fresh, epochs=1))

    @pytest.mark.parametrize("old", ["dense_table_optimizer", "config_echo"])
    def test_checkpoint_of_the_table_optimizer_knob_refused(
        self, data, tmp_path, old
    ):
        """The tables have one optimizer, with no compatibility shim: a
        checkpoint saved while a trainer config picked it (a dense
        ``Adagrad`` table state, or the knob in the config echo) is a
        typed error naming the key, and nothing is loaded."""
        (td, ti, tl), _ = data
        model = make_model()
        trainer = make_trainer(model, epochs=1)
        trainer.fit(td, ti, tl)
        path = save_training_checkpoint(str(tmp_path / "old"), model, trainer)
        manifest_path = os.path.join(path, MANIFEST_NAME)
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        saved = manifest["metadata"]["trainer"]
        if old == "dense_table_optimizer":
            key = "Adagrad"
            saved["optimizers"]["sparse"]["type"] = key
        else:
            key = "sparse_grad_mode"
            saved["config"][key] = "rowwise"
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        fresh = make_model(init_seed=8)
        resumed = make_trainer(fresh, epochs=1)
        before = {n: p.data.copy() for n, p in fresh.named_parameters()}
        with pytest.raises(CheckpointMismatchError, match=key):
            load_training_checkpoint(path, fresh, resumed)
        for name, p in fresh.named_parameters():
            np.testing.assert_array_equal(p.data, before[name])
        assert resumed.global_step == 0 and resumed.loss_history == []
        assert resumed.sparse_opt.state_dict()["slots"]["accum"] == {}


# ----------------------------------------------------------------------
class TestManagerAndElastic:
    def test_manager_cadence_and_retention(self, data, tmp_path):
        (td, ti, tl), _ = data
        model = make_model()
        trainer = make_trainer(model, epochs=1)
        manager = CheckpointManager(
            str(tmp_path / "runs"), every_steps=3, keep_last=2
        )
        trainer.fit(
            td, ti, tl, on_step_end=lambda tr: manager.maybe_save(model, tr)
        )
        # 12 steps, cadence 3 -> saves at 3,6,9,12; keep_last 2 -> 9,12.
        assert manager.saved_steps() == [9, 12]
        assert manager.latest().endswith("step_00000012")
        assert checkpoint_step(manager.latest()) == 12

    def test_elastic_restore_different_cluster(self, data, tmp_path):
        (td, ti, tl), _ = data
        model = make_model()
        trainer = make_trainer(model, epochs=1)
        trainer.fit(td, ti, tl)
        spec = RunSpec(
            name="elastic",
            cluster=ClusterSpec(2, 2),
            data=DataSpec(
                num_sparse=NUM_SPARSE,
                cardinality=CARDINALITY,
                num_samples=1000,
            ),
            model=ModelSpec(
                family="dlrm",
                variant="flat",
                embedding_dim=DIM,
                bottom_mlp=(16,),
                top_mlp=(16,),
            ),
            train=TrainSpec(mode="single", batch_size=64, epochs=2),
        )
        path = save_training_checkpoint(
            str(tmp_path / "el"), model, trainer, spec=spec
        )
        plan = plan_elastic_restore(path, Cluster(4, 2, "A100"))
        assert plan.source_world == 4
        assert plan.target_world == 8
        # A flat model stays flat: table f moves from rank f % 4 to
        # f % 8, i.e. tables 4 and 5 of 6, and the migration is priced.
        assert plan.num_towers is None
        table_bytes = CARDINALITY * DIM * 4
        assert plan.moved_bytes == 2 * table_bytes == 2048
        assert plan.migration.seconds > 0
        json.dumps(plan.summary())  # JSON-able end to end

    def test_elastic_same_world_moves_nothing(self, data, tmp_path):
        (td, ti, tl), _ = data
        model = make_model()
        trainer = make_trainer(model, epochs=1)
        trainer.fit(td, ti, tl)
        spec = RunSpec(
            name="same",
            cluster=ClusterSpec(2, 2),
            data=DataSpec(
                num_sparse=NUM_SPARSE,
                cardinality=CARDINALITY,
                num_samples=1000,
            ),
            train=None,
            perf=None,
            serve=None,
            partition=None,
            model=None,
        )
        path = save_training_checkpoint(
            str(tmp_path / "sw"), model, trainer, spec=spec
        )
        plan = plan_elastic_restore(path, Cluster(2, 2, "A100"))
        assert plan.moved_bytes == 0
        assert plan.moved_fraction == 0.0

    def test_hottest_rows_ranked_and_bounded(self, data, tmp_path):
        (td, ti, tl), _ = data
        model = make_model()
        trainer = make_trainer(model, epochs=1)
        trainer.fit(td, ti, tl)
        path = save_training_checkpoint(str(tmp_path / "hot"), model, trainer)
        rows = hottest_rows(path, 40)
        assert len(rows) == 40
        assert len(np.unique(rows)) == 40
        total_rows = NUM_SPARSE * CARDINALITY
        assert rows.min() >= 0 and rows.max() < total_rows
        assert len(hottest_rows(path, 0)) == 0
        everything = hottest_rows(path, 10**6)
        assert len(everything) <= total_rows


# ----------------------------------------------------------------------
def _session_spec(tmp, **checkpoint_kwargs):
    return RunSpec(
        name="ckpt-session",
        cluster=ClusterSpec(2, 2),
        data=DataSpec(
            num_sparse=NUM_SPARSE,
            cardinality=CARDINALITY,
            num_samples=1200,
            num_blocks=2,
        ),
        model=ModelSpec(
            family="dlrm",
            variant="flat",
            embedding_dim=DIM,
            bottom_mlp=(16,),
            top_mlp=(16,),
        ),
        train=TrainSpec(mode="single", batch_size=64, epochs=2),
        checkpoint=CheckpointSpec(directory=str(tmp), **checkpoint_kwargs),
    )


class TestSessionIntegration:
    def test_autosave_resume_and_run_summary(self, tmp_path):
        spec = _session_spec(tmp_path, save_every_steps=4)
        ref = Session(spec).train()

        # Resume from a periodic save in a brand-new session.
        manager = CheckpointManager(
            os.path.join(str(tmp_path), "ckpt-session"), 4, 2
        )
        latest = manager.latest()
        assert latest is not None
        resumed_session = Session(
            spec.replace(
                checkpoint=spec.checkpoint.replace(
                    save_every_steps=0, resume_from=latest
                )
            )
        )
        art = resumed_session.resume()
        assert art.epoch_losses == ref.epoch_losses
        assert art.eval_result.auc == ref.eval_result.auc
        result = resumed_session.run()
        assert result.checkpoint["resumed_from"] == latest
        assert "resumed from" in result.render()

    def test_save_checkpoint_explicit_path(self, tmp_path):
        spec = _session_spec(tmp_path)
        session = Session(spec)
        path = session.save_checkpoint(str(tmp_path / "explicit"))
        meta = read_manifest(path)["metadata"]
        assert meta["kind"] == "training"
        assert meta["spec"]["name"] == "ckpt-session"
        assert [t["name"] for t in meta["tables"]] == [
            f"sparse_{i}" for i in range(NUM_SPARSE)
        ]

    def test_resume_without_resume_from_is_typed_error(self, tmp_path):
        spec = _session_spec(tmp_path)
        with pytest.raises(SpecError, match="resume_from"):
            Session(spec).resume()

    def test_elastic_session_stage(self, tmp_path):
        spec = _session_spec(tmp_path)
        path = Session(spec).save_checkpoint(str(tmp_path / "src"))
        bigger = spec.replace(
            cluster=ClusterSpec(4, 2),
            checkpoint=spec.checkpoint.replace(resume_from=path),
        )
        session = Session(bigger)
        plan = session.elastic_plan()
        assert plan.source_world == 4 and plan.target_world == 8
        result = session.run()
        assert result.checkpoint["elastic"]["target_world"] == 8
        assert "elastic restore" in result.render()

    def test_elastic_recovery_keeps_cold_rebuild(self, tmp_path):
        """With a resumable checkpoint the restore leg is priced by the
        elastic plan, but a fleet that never checkpoints still pays the
        spec's cold rebuild, not the runtime default (50 ms)."""
        spec = _session_spec(tmp_path)
        path = Session(spec).save_checkpoint(str(tmp_path / "src-mttr"))
        faulted = RunSpec(
            name="elastic-mttr",
            cluster=ClusterSpec(4, 2),
            serve=ServeSpec(
                qps=50_000.0,
                num_requests=1500,
                key_space=2000,
                cache_rows=256,
                placement="disaggregated",
                emb_hosts=1,
                fleet_replicas=3,
            ),
            faults=FaultSpec(
                replica_crashes=1,
                detection_ms=1.0,
                cold_rebuild_ms=5.0,
                checkpoint_period_s=0.0,
            ),
            checkpoint=CheckpointSpec(
                directory=str(tmp_path), resume_from=path, warm_start=False
            ),
        )
        report = Session(faulted).serve().fault_reports["disaggregated"]
        assert [c["mttr_s"] for c in report.crashes] == [1.0 * 1e-3 + 0.005]

    def test_resume_on_changed_data_section_refused(self, tmp_path):
        """A resumed run over different data cannot claim bit-identity;
        the session refuses instead of silently drifting."""
        spec = _session_spec(tmp_path)
        path = Session(spec).save_checkpoint(str(tmp_path / "src-data"))
        changed = spec.replace(
            data=spec.data.replace(num_samples=2400),
            checkpoint=spec.checkpoint.replace(resume_from=path),
        )
        with pytest.raises(CheckpointMismatchError, match="data section"):
            Session(changed).resume()

    def test_checkpoint_spec_validation(self, tmp_path):
        with pytest.raises(SpecError, match="train or serve"):
            RunSpec(
                name="bad",
                perf=None,
                data=DataSpec(),
                checkpoint=CheckpointSpec(),
            )
        with pytest.raises(SpecError, match="save_every_steps"):
            CheckpointSpec(save_every_steps=-1)
        with pytest.raises(SpecError, match="keep_last"):
            CheckpointSpec(keep_last=0)
        spec = _session_spec(tmp_path, save_every_steps=7)
        round_tripped = RunSpec.from_json(spec.to_json())
        assert round_tripped == spec


class TestServingWarmStart:
    def test_prefill_and_warm_start(self, data, tmp_path):
        (td, ti, tl), _ = data
        model = make_model()
        trainer = make_trainer(model, epochs=1)
        trainer.fit(td, ti, tl)
        path = save_training_checkpoint(str(tmp_path / "ws"), model, trainer)

        cache = LRUEmbeddingCache(capacity_rows=32)
        sim = SimCluster(Cluster(2, 2, "A100"))
        service = InferenceService(
            sim,
            ServingModel.from_trained(model),
            Placement("colocated"),
            MicroBatcher(16, 1e-3),
            cache,
        )
        seeded = service.warm_start_from_checkpoint(path)
        assert seeded == 32
        assert len(cache) == 32
        # Prefill never pollutes the accounting.
        assert cache.stats.lookups == 0
        # The hottest row survived admission ordering (most-recent end).
        hot = hottest_rows(path, 32)
        hits, _ = cache.lookup(np.asarray([hot[0]]))
        assert hits == 1

        requests = RequestStream(
            WorkloadConfig(
                qps=50_000.0,
                num_requests=200,
                num_lookups=model.num_sparse,
                key_space=NUM_SPARSE * CARDINALITY,
                skew=1.0,
                seed=0,
            )
        ).generate()
        report = service.serve(requests)
        assert report.cache_hits > 0

    def test_capacity_zero_cache_stays_cold(self, data, tmp_path):
        (td, ti, tl), _ = data
        model = make_model()
        trainer = make_trainer(model, epochs=1)
        trainer.fit(td, ti, tl)
        path = save_training_checkpoint(str(tmp_path / "z"), model, trainer)
        sim = SimCluster(Cluster(2, 2, "A100"))
        service = InferenceService(
            sim,
            ServingModel.from_trained(model),
            Placement("colocated"),
            MicroBatcher(16, 1e-3),
            LRUEmbeddingCache(0),
        )
        assert service.warm_start_from_checkpoint(path) == 0


# ----------------------------------------------------------------------
class TestFormatPrimitives:
    def test_write_read_round_trip(self, tmp_path):
        arrays = {
            "a/one": np.arange(6, dtype=np.float64).reshape(2, 3),
            "b/two": np.arange(4, dtype=np.int64),
        }
        meta = {"kind": "raw", "note": "round trip"}
        path = write_checkpoint(str(tmp_path / "raw"), arrays, meta)
        manifest = read_manifest(path)
        assert manifest["metadata"] == meta
        loaded = read_arrays(path, manifest)
        assert set(loaded) == set(arrays)
        for key in arrays:
            np.testing.assert_array_equal(loaded[key], arrays[key])
            assert loaded[key].dtype == arrays[key].dtype

    def test_unjsonable_metadata_fails_before_manifest(self, tmp_path):
        path = str(tmp_path / "bad")
        with pytest.raises(TypeError):
            write_checkpoint(path, {}, {"oops": object()})
        assert not os.path.exists(os.path.join(path, MANIFEST_NAME))

    def test_overwrite_is_atomic(self, tmp_path):
        path = str(tmp_path / "atomic")
        write_checkpoint(path, {"x": np.ones(3)}, {"v": 1})
        write_checkpoint(path, {"x": np.zeros(3)}, {"v": 2})
        assert read_manifest(path)["metadata"]["v"] == 2
        np.testing.assert_array_equal(read_arrays(path)["x"], np.zeros(3))
        # No staging/trash leftovers after a clean overwrite.
        assert sorted(os.listdir(str(tmp_path))) == ["atomic"]

    def test_crashed_resave_preserves_old_checkpoint(
        self, tmp_path, monkeypatch
    ):
        """Killing a re-save before the directory swap leaves the
        previous checkpoint fully loadable (payloads are never
        overwritten in place)."""
        import repro.checkpoint.format as fmt

        path = str(tmp_path / "durable")
        write_checkpoint(path, {"x": np.ones(3)}, {"v": 1})

        def crash(src, dst):
            raise OSError("simulated crash before swap")

        monkeypatch.setattr(fmt.os, "rename", crash)
        with pytest.raises(OSError, match="simulated"):
            write_checkpoint(path, {"x": np.zeros(3)}, {"v": 2})
        monkeypatch.undo()
        assert read_manifest(path)["metadata"]["v"] == 1
        np.testing.assert_array_equal(read_arrays(path)["x"], np.ones(3))
        # A stale staging dir from the crash does not block the retry.
        write_checkpoint(path, {"x": np.zeros(3)}, {"v": 2})
        assert read_manifest(path)["metadata"]["v"] == 2


# ----------------------------------------------------------------------
def make_dmt_model(init_seed=5):
    return DMTDLRM(
        NUM_DENSE,
        tiny_table_configs(NUM_SPARSE, CARDINALITY, DIM),
        FeaturePartition.from_groups([[4, 0], [2, 5, 1], [3]]),
        ARCH,
        tower_dim=4,
        rng=np.random.default_rng(init_seed),
    )


#: The saves of the pinned chain, in order: a full save, a delta, a
#: delta with no touched rows, a compaction full save, one more delta.
CHAIN = ("full", "delta", "empty", "full", "delta")


def chain_digest(build, root):
    """SHA-256 over (relative path, bytes) of every file of the chain."""
    model = build()
    trainer = make_trainer(model, batch_size=16)
    rng = np.random.default_rng(11)
    last = None
    for i, kind in enumerate(CHAIN):
        dense, ids, labels = random_batch(
            48, NUM_DENSE, NUM_SPARSE, CARDINALITY, rng=rng
        )
        trainer.train_window(dense, ids, labels)
        path = os.path.join(root, f"v{i}_{kind}")
        last = save_training_checkpoint(
            path,
            model,
            trainer,
            base=None if kind == "full" else last,
            touched=(
                {} if kind == "empty" else delta_touched_rows(ids, NUM_SPARSE)
            ),
        )
    sha = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            sha.update(os.path.relpath(full, root).encode())
            with open(full, "rb") as fh:
                sha.update(fh.read())
    return sha.hexdigest()


PINNED_CHAIN_SHA256 = {
    "dlrm": (
        "9fdd348d8eb9d8d74daa9e4e84aaa9b1483c5eb7bfbf71a855b45ecc473a7b1c"
    ),
    "dmt_dlrm": (
        "16f27114a04f00de59b31c259f78a6c3283750371cc60ca6c3c73b61c99ff993"
    ),
}


@pytest.mark.parametrize("name", ["dlrm", "dmt_dlrm"])
def test_pinned_chain_bytes(name, tmp_path):
    """Every byte the checkpoint writer puts on disk, full and delta."""
    build = {"dlrm": make_model, "dmt_dlrm": make_dmt_model}[name]
    got = chain_digest(build, str(tmp_path))
    assert got == PINNED_CHAIN_SHA256[name]
