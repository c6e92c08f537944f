"""Tests for the repro.api session layer: specs, sessions, CLI."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from repro.api import (
    ABSpec,
    AutoscaleSpec,
    ClusterSpec,
    DataSpec,
    FaultSpec,
    ModelSpec,
    OnlineSpec,
    PartitionSpec,
    PerfSpec,
    RunSpec,
    ServeSpec,
    Session,
    SpecError,
    TrainSpec,
    seeded_run,
    spec_auc_sweep,
)
from repro.api.presets import (
    distributed_training_spec,
    quickstart_spec,
    train_dmt_criteo_spec,
)
from repro.core.dmt_pipeline import DistributedDMTTrainer, DistributedHybridTrainer
from repro.experiments import table4
from repro.experiments.runner import main as cli_main
from tests.golden.gen_spec_json import FIXTURE as SPEC_JSON_FIXTURE
from tests.golden.gen_spec_json import spec_jsons

PINNED_SPEC_JSON = json.loads(SPEC_JSON_FIXTURE.read_text())
FRESH_SPEC_JSON = spec_jsons()


def assert_equals_single_twin(spec: RunSpec, art) -> None:
    """A simulated run equals its ``mode='single'`` twin bit for bit:
    the same step losses, the same eval AUC of every task and the same
    parameters."""
    twin = Session(
        spec.replace(train=spec.train.replace(mode="single"))
    ).train()
    assert art.trainer.loss_history == twin.trainer.loss_history
    assert art.eval_result.auc == twin.eval_result.auc
    by_task = getattr(art.eval_result, "by_task", {})
    for name, result in by_task.items():
        assert result.auc == twin.eval_result.by_task[name].auc, name
    drift = max(
        float(np.abs(p.data - q.data).max())
        for p, q in zip(art.model.parameters(), twin.model.parameters())
    )
    assert drift == 0


#: A shrunken end-to-end quality spec: probe -> TP -> DMT in ~a second.
TINY = RunSpec(
    name="tiny-e2e",
    cluster=ClusterSpec(num_hosts=2, gpus_per_host=2, generation="A100"),
    data=DataSpec(
        num_sparse=8, num_blocks=2, cardinality=32, num_samples=1800
    ),
    model=ModelSpec(
        family="dlrm",
        variant="dmt",
        embedding_dim=8,
        bottom_mlp=(16,),
        top_mlp=(16,),
        tower_dim=1,
        c=0,
        p=1,
        seed=11,
    ),
    partition=PartitionSpec(
        strategy="coherent",
        num_towers=2,
        probe_epochs=1,
        probe_samples=600,
        mds_iterations=100,
    ),
    train=TrainSpec(batch_size=128, epochs=1, seed=11),
)


class TestSpecValidation:
    def test_unknown_generation(self):
        with pytest.raises(SpecError, match="unknown generation"):
            ClusterSpec(generation="B200")

    def test_nonpositive_cluster(self):
        with pytest.raises(SpecError, match="num_hosts"):
            ClusterSpec(num_hosts=0)

    def test_eval_fraction_range(self):
        with pytest.raises(SpecError, match="eval_fraction"):
            DataSpec(eval_fraction=1.5)

    def test_blocks_exceed_features(self):
        with pytest.raises(SpecError, match="num_blocks"):
            DataSpec(num_sparse=2, num_blocks=4)

    def test_unknown_family(self):
        with pytest.raises(SpecError, match="family"):
            ModelSpec(family="transformer")

    def test_dcn_needs_cross_layers(self):
        with pytest.raises(SpecError, match="cross_layers"):
            ModelSpec(family="dcn", cross_layers=0)

    def test_unknown_partition_strategy(self):
        with pytest.raises(SpecError, match="strategy"):
            PartitionSpec(strategy="random")

    def test_given_requires_groups(self):
        with pytest.raises(SpecError, match="groups"):
            PartitionSpec(strategy="given")

    def test_groups_only_for_given(self):
        with pytest.raises(SpecError, match="groups"):
            PartitionSpec(strategy="naive", groups=((0, 1), (2, 3)))

    def test_empty_runspec(self):
        with pytest.raises(SpecError, match="no work"):
            RunSpec()

    def test_train_requires_data_and_model(self):
        with pytest.raises(SpecError, match="data and model"):
            RunSpec(train=TrainSpec())

    def test_dmt_training_requires_partition(self):
        with pytest.raises(SpecError, match="partition"):
            RunSpec(
                data=DataSpec(),
                model=ModelSpec(variant="dmt"),
                train=TrainSpec(),
            )

    def test_simulated_towers_must_divide_hosts(self):
        with pytest.raises(SpecError, match="num_towers must divide"):
            dataclasses.replace(
                distributed_training_spec(),
                cluster=ClusterSpec(num_hosts=4, gpus_per_host=2),
                partition=PartitionSpec(strategy="contiguous", num_towers=3),
            )

    def test_simulated_towers_spanning_hosts_train(self):
        """2 towers on 4x2 is K = 2 hosts per tower: it trains, and
        equals single-process training bit for bit."""
        spec = dataclasses.replace(
            distributed_training_spec(),
            cluster=ClusterSpec(num_hosts=4, gpus_per_host=2),
        )
        art = Session(spec).train()
        assert_equals_single_twin(spec, art)
        events = art.trainer.step.sim.timeline.events
        assert {e.world_size for e in events if e.label == "tower_allreduce"} == {4}

    def test_perf_towers_must_divide_hosts(self):
        """The simulated-training rule: 3 towers on 8 hosts used to
        analyze clean and then raise a bare ValueError in price()."""
        cluster = ClusterSpec(8, 8, "H100")
        with pytest.raises(SpecError, match="perf.num_towers must divide"):
            RunSpec(cluster=cluster, perf=PerfSpec(num_towers=3))
        spec = RunSpec(cluster=cluster, perf=PerfSpec(num_towers=4))
        assert Session(spec).price().dmt.name == "dmt-K2/DMT-4T-DLRM"

    def test_too_many_towers_for_features(self):
        with pytest.raises(SpecError, match="towers"):
            RunSpec(
                data=DataSpec(num_sparse=4),
                partition=PartitionSpec(strategy="naive", num_towers=8),
            )

    def test_given_derives_num_towers_from_groups(self):
        part = PartitionSpec(
            strategy="given", groups=((0, 1), (2, 3), (4, 5, 6, 7))
        )
        assert part.num_towers == 3
        with pytest.raises(SpecError, match="num_hosts"):
            RunSpec(
                cluster=ClusterSpec(num_hosts=2, gpus_per_host=2),
                data=DataSpec(num_sparse=8, num_blocks=2),
                model=ModelSpec(variant="dmt"),
                partition=part,
                train=TrainSpec(mode="simulated"),
            )

    def test_given_rejects_noncontiguous_indices(self):
        with pytest.raises(SpecError, match="cover feature indices"):
            PartitionSpec(strategy="given", groups=((0, 5), (1, 6)))

    def test_given_rejects_conflicting_num_towers(self):
        with pytest.raises(SpecError, match="conflicts"):
            PartitionSpec(
                strategy="given", num_towers=8, groups=((0, 1), (2, 3))
            )
        # An explicit value equal to the old field default must not
        # slip through either.
        with pytest.raises(SpecError, match="conflicts"):
            PartitionSpec(
                strategy="given",
                num_towers=4,
                groups=((0,), (1,), (2,), (3,), (4,)),
            )
        assert PartitionSpec(strategy="naive").num_towers == 4

    def test_specs_coerce_lists_to_tuples(self):
        model = ModelSpec(bottom_mlp=[32], top_mlp=[64, 32])
        assert model.bottom_mlp == (32,)
        part = PartitionSpec(strategy="given", groups=[[0, 1], [2, 3]])
        assert part.groups == ((0, 1), (2, 3))
        hash((model, part))  # session lru caches need hashable specs

    def test_given_rejects_duplicate_features(self):
        with pytest.raises(SpecError, match="more than one tower"):
            PartitionSpec(strategy="given", groups=((0, 1), (1, 2)))

    def test_given_rejects_empty_group(self):
        with pytest.raises(SpecError, match="at least one feature"):
            PartitionSpec(strategy="given", groups=((0, 1), ()))

    def test_given_groups_must_cover_features(self):
        with pytest.raises(SpecError, match="cover features"):
            RunSpec(
                data=DataSpec(num_sparse=8, num_blocks=2),
                partition=PartitionSpec(
                    strategy="given", groups=((0, 1), (2, 3))
                ),
            )

    def test_probe_knobs_validated(self):
        with pytest.raises(SpecError, match="probe_batch_size"):
            PartitionSpec(probe_batch_size=0)
        with pytest.raises(SpecError, match="probe_sparse_lr"):
            PartitionSpec(probe_sparse_lr=0.0)

    def test_nonprobe_rejects_probe_knobs(self):
        with pytest.raises(SpecError, match="no effect"):
            PartitionSpec(strategy="naive", probe_epochs=50)
        with pytest.raises(SpecError, match="no effect"):
            PartitionSpec(
                strategy="given", groups=((0, 1), (2, 3)), kmeans_seed=9
            )

    def test_name_rejects_path_separators(self):
        with pytest.raises(SpecError, match="path separators"):
            RunSpec(name="../evil", perf=PerfSpec())

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(SpecError, match="unknown RunSpec field"):
            RunSpec.from_dict({"perf": {"kind": "dcn"}, "nonsense": 1})

    def test_from_dict_rejects_unknown_nested_keys(self):
        with pytest.raises(SpecError, match="unknown PerfSpec field"):
            RunSpec.from_dict({"perf": {"kind": "dcn", "batchsize": 4}})

    def test_from_dict_rejects_the_deleted_simulated_knobs(self):
        """Both modes read one recipe: a stored spec still carrying a
        simulated-only batch knob is refused, not silently dropped."""
        spec = distributed_training_spec().to_dict()
        spec["train"]["global_batch"] = 128
        with pytest.raises(SpecError, match="unknown TrainSpec field"):
            RunSpec.from_dict(spec)

    def test_from_json_rejects_garbage(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            RunSpec.from_json("{nope")

    def test_from_dict_rejects_malformed_tuple_fields(self):
        with pytest.raises(SpecError, match="invalid PartitionSpec"):
            RunSpec.from_dict(
                {"partition": {"strategy": "given", "groups": [1, 2]}}
            )
        with pytest.raises(SpecError, match="invalid ModelSpec"):
            RunSpec.from_dict(
                {"data": {}, "model": {"bottom_mlp": 32}}
            )

    def test_from_dict_rejects_float_feature_indices(self):
        with pytest.raises(SpecError, match="integers"):
            RunSpec.from_dict(
                {"partition": {"strategy": "given", "groups": [[0.9, 1]]}}
            )


    @pytest.mark.parametrize(
        "cls, field, context",
        [
            (DataSpec, "dataset_seed", {}),
            (DataSpec, "sample_seed", {}),
            (ModelSpec, "seed", {}),
            (PartitionSpec, "probe_seed", {}),
            (PartitionSpec, "kmeans_seed", {}),
            # Fixed ids keep these cases' test names stable.
            pytest.param(ServeSpec, "seed", {}, id="ServeSpec-seed-context6"),
            pytest.param(FaultSpec, "seed", {}, id="FaultSpec-seed-context7"),
            pytest.param(
                OnlineSpec, "seed", {}, id="OnlineSpec-seed-context8"
            ),
        ],
    )
    def test_negative_seed_rejected(self, cls, field, context):
        """Every seed that reaches a numpy generator unmixed is checked
        at construction, not by numpy's untyped error mid-run."""
        with pytest.raises(SpecError, match=field):
            cls(**context, **{field: -1})
        with pytest.raises(SpecError, match=field):
            cls.from_dict({**context, field: -1})
        assert getattr(cls(**context, **{field: 3}), field) == 3

    def test_mixed_train_seed_may_be_negative(self):
        assert TrainSpec(seed=-1).trainer_config().seed == -1

    @pytest.mark.parametrize(
        "cls, kwargs, names",
        [
            (FaultSpec, dict(replica_crashes=-1), "replica_crashes"),
            (FaultSpec, dict(replica_hangs=1), "hang_duration_s"),
            (FaultSpec, dict(fetch_degrades=1), "degrade_duration_s"),
            (FaultSpec, dict(fetch_outages=1), "outage_duration_s"),
            (
                FaultSpec,
                dict(
                    fetch_degrades=1, degrade_duration_s=0.01,
                    degrade_factor=0.5,
                ),
                "degrade_factor",
            ),
            (FaultSpec, dict(start_s=-1.0), "injection window"),
            (FaultSpec, dict(start_s=2.0, end_s=1.0), "injection window end"),
            (FaultSpec, dict(timeout_ms=0.0), "timeout_ms"),
            (FaultSpec, dict(max_retries=-1), "max_retries"),
            (FaultSpec, dict(backoff_base_ms=-1.0), "backoff"),
            (
                FaultSpec,
                dict(backoff_base_ms=3.0, backoff_cap_ms=2.0),
                "backoff_cap_ms",
            ),
            (FaultSpec, dict(backoff_jitter=2.0), "backoff_jitter"),
            (FaultSpec, dict(retry_budget=-0.1), "retry_budget"),
            (FaultSpec, dict(stale_penalty=-0.1), "stale_penalty"),
            (
                FaultSpec,
                dict(replica_crashes=1, detection_ms=-1.0),
                "detection_ms",
            ),
            (FaultSpec, dict(replica_crashes=1, restore_ms=-1.0), "restore_ms"),
            (
                FaultSpec,
                dict(replica_crashes=1, checkpoint_period_s=-1.0),
                "checkpoint_period_s",
            ),
            (FaultSpec, dict(replica_crashes=1, replay_rate=-1.0), "replay_rate"),
            (
                FaultSpec,
                dict(replica_crashes=1, cold_rebuild_ms=-1.0),
                "cold_rebuild_ms",
            ),
            (FaultSpec, dict(replica_crashes=1, warm_rows=-1), "warm_rows"),
            # unused knobs stay at their defaults
            (FaultSpec, dict(hang_duration_s=0.1), "hang_duration_s"),
            (FaultSpec, dict(degrade_factor=2.0), "degrade_factor"),
            (FaultSpec, dict(outage_duration_s=0.1), "outage_duration_s"),
            (FaultSpec, dict(cold_rebuild_ms=5.0), "cold_rebuild_ms"),
            (AutoscaleSpec, dict(slo_p99_ms=0.0), "slo_p99_ms"),
            (AutoscaleSpec, dict(min_replicas=0), "min_replicas"),
            (AutoscaleSpec, dict(max_replicas=0), "max_replicas"),
            (AutoscaleSpec, dict(window_ms=-1.0), "window_ms"),
            (AutoscaleSpec, dict(scale_step=0), "scale_step"),
            (AutoscaleSpec, dict(provision_ms=-1.0), "provision_ms"),
            (AutoscaleSpec, dict(cooldown_windows=-1), "cooldown_windows"),
            (AutoscaleSpec, dict(queue_high=0.0), "queue_high"),
            (AutoscaleSpec, dict(scale_down_margin=1.0), "scale_down_margin"),
            (AutoscaleSpec, dict(warm_rows=-1), "warm_rows"),
            # NaN fails every range (the runtime checks are written
            # `not x >= 0`, as the spec's were)
            (FaultSpec, dict(timeout_ms=float("nan")), "timeout_ms"),
            (FaultSpec, dict(replica_crashes=float("nan")), "replica_crashes"),
            (AutoscaleSpec, dict(window_ms=float("nan")), "window_ms"),
            # a wrongly typed knob is a SpecError, not a raw TypeError
            (AutoscaleSpec, dict(provision_ms="fast"), "AutoscaleSpec"),
            (FaultSpec, dict(seed=1.5), "seed"),
        ],
    )
    def test_fault_and_autoscale_knobs_validated(self, cls, kwargs, names):
        """The ranges live on the runtime dataclasses; the spec layer
        must still reject every bad value, as a SpecError that names
        the offending spec field."""
        with pytest.raises(SpecError, match=names):
            cls(**kwargs)
        with pytest.raises(SpecError, match=names):
            cls.from_dict(kwargs)


def assert_projection(spec, built, renamed=None, extra=None):
    """Every dataclass field of ``built`` holds the spec's value: by
    name, or via ``renamed`` ``{runtime: (spec field, factor)}``;
    ``extra`` lists the runtime fields the spec does not set.  Every
    spec field involved must be off its default, or a dropped forward
    would go unnoticed."""
    renamed, extra = renamed or {}, extra or {}
    defaults = {f.name: f.default for f in dataclasses.fields(spec)}
    for f in dataclasses.fields(built):
        got = getattr(built, f.name)
        if f.name in extra:
            assert got == extra[f.name], f.name
            continue
        source, factor = renamed.get(f.name, (f.name, None))
        value = getattr(spec, source)
        assert value != defaults[source], f"{source} left at its default"
        assert got == (value if factor is None else value * factor), f.name


class TestSpecProjection:
    """Each section builds its runtime objects; these set every
    forwarded field to a non-default value and check each one lands —
    what catches a missed rename or a dropped ``* 1e-3``."""

    def test_data_spec_builds_generator_config(self):
        spec = DataSpec(
            num_dense=5, num_sparse=12, cardinality=40, num_blocks=3,
            rho=0.6, noise=0.2, cross_strength=0.3, cvr_correlation=0.4,
            cvr_bias=-2.0, cvr_noise=0.1,
        )
        assert_projection(
            spec,
            spec.generator_config(),
            extra=dict(block_strength=1.6, dense_strength=0.6, bias=-0.5),
        )

    def test_train_spec_builds_trainer_config(self):
        spec = TrainSpec(
            batch_size=96, epochs=3, dense_lr=0.02, sparse_lr=0.2,
            dense_optimizer="sgd", warmup_steps=7, seed=13,
        )
        assert_projection(spec, spec.trainer_config())

    @pytest.mark.parametrize(
        "scenario, defaults",
        [
            (
                dict(scenario="diurnal", diurnal_period_s=0.25,
                     diurnal_amplitude=0.8),
                dict(flash_start_s=0.0, flash_duration_s=0.0,
                     flash_factor=5.0),
            ),
            (
                dict(scenario="flash", flash_start_s=0.01,
                     flash_duration_s=0.02, flash_factor=3.0),
                dict(diurnal_period_s=1.0, diurnal_amplitude=0.5),
            ),
        ],
    )
    def test_serve_spec_builds_workload_and_batcher(self, scenario, defaults):
        spec = ServeSpec(
            qps=12_345.0, num_requests=777, key_space=5_000, skew=1.3,
            max_batch_size=24, max_queue_delay_ms=0.75, cache_rows=100,
            seed=9, churn_keys_per_s=50.0, **scenario,
        )
        assert_projection(
            spec,
            spec.workload_config(num_lookups=11),
            extra=dict(num_lookups=11, **defaults),
        )
        batcher = spec.batcher()
        assert batcher.max_batch_size == 24
        assert batcher.max_delay_s == 0.75 * 1e-3

    FAULTS = FaultSpec(
        seed=4, replica_crashes=2, replica_hangs=1, hang_duration_s=0.003,
        fetch_degrades=2, degrade_duration_s=0.004, degrade_factor=6.0,
        fetch_outages=1, outage_duration_s=0.005, start_s=0.01, end_s=0.03,
        timeout_ms=0.7, max_retries=5, backoff_base_ms=0.3,
        backoff_cap_ms=4.0, backoff_jitter=0.25, retry_budget=0.4,
        detection_ms=0.6, restore_ms=0.9, checkpoint_period_s=0.002,
        replay_rate=0.75, cold_rebuild_ms=7.0, warm_rows=123,
    )

    def test_fault_spec_builds_schedule_and_retry_policy(self):
        assert_projection(
            self.FAULTS, self.FAULTS.fault_config(), extra=dict(events=())
        )
        assert_projection(
            self.FAULTS,
            self.FAULTS.retry_policy(),
            renamed=dict(jitter=("backoff_jitter", None)),
        )

    def test_fault_spec_builds_recovery_model(self):
        renamed = dict(
            detection_s=("detection_ms", 1e-3),
            restore_s=("restore_ms", 1e-3),
            cold_rebuild_s=("cold_rebuild_ms", 1e-3),
        )
        assert_projection(
            self.FAULTS, self.FAULTS.recovery_model(), renamed=renamed
        )

        class _Plan:
            class migration:
                seconds = 0.0125

        del renamed["restore_s"]
        assert_projection(
            self.FAULTS,
            self.FAULTS.recovery_model(_Plan()),
            renamed=renamed,
            extra=dict(restore_s=0.0125),
        )

    def test_autoscale_spec_builds_policy(self):
        spec = AutoscaleSpec(
            slo_p99_ms=3.0, min_replicas=2, max_replicas=9, window_ms=1.5,
            scale_step=2, provision_ms=0.4, cooldown_windows=3,
            queue_high=20.0, scale_down_margin=0.25, warm_rows=64,
        )
        assert_projection(
            spec,
            spec.policy(),
            renamed=dict(
                window_s=("window_ms", 1e-3),
                provision_s=("provision_ms", 1e-3),
            ),
        )

    def test_inverted_autoscale_bounds_load_but_do_not_build(self):
        """The speccheck owns the diagnosis, so the spec constructs;
        the runtime policy still refuses the inverted bounds."""
        spec = AutoscaleSpec(min_replicas=5, max_replicas=2)
        with pytest.raises(SpecError, match="max_replicas"):
            spec.policy()


class TestSpecRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            quickstart_spec(),
            train_dmt_criteo_spec(),
            distributed_training_spec(),
            TINY,
        ],
        ids=lambda s: s.name,
    )
    def test_dict_and_json_round_trip(self, spec):
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_dict_uses_plain_types(self):
        payload = json.loads(TINY.to_json())
        assert payload["model"]["bottom_mlp"] == [16]
        assert payload["cluster"]["generation"] == "A100"

    def test_groups_round_trip_as_tuples(self):
        spec = RunSpec(
            partition=PartitionSpec(
                strategy="given", num_towers=2, groups=((0, 2), (1, 3))
            )
        )
        back = RunSpec.from_dict(spec.to_dict())
        assert back.partition.groups == ((0, 2), (1, 3))

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "spec.json")
        TINY.save(path)
        assert RunSpec.load(path) == TINY

    def test_golden_covers_every_pinned_spec(self):
        assert sorted(PINNED_SPEC_JSON) == sorted(FRESH_SPEC_JSON)

    @pytest.mark.parametrize("name", sorted(PINNED_SPEC_JSON))
    def test_json_matches_golden(self, name):
        """Every preset / experiment spec serializes to the pinned
        text exactly — field list, order and defaults included."""
        assert FRESH_SPEC_JSON[name] == PINNED_SPEC_JSON[name]


class TestSessionStages:
    def test_stage_artifacts_cached(self):
        session = Session(quickstart_spec())
        assert session.build_cluster() is session.build_cluster()
        assert session.price() is session.price()

    def test_plan_uses_train_batch_size(self):
        assert Session(TINY).plan().batch_size == 128  # TINY's batch
        assert Session(distributed_training_spec()).plan().batch_size == 128
        assert Session(quickstart_spec()).plan().batch_size == 16384

    def test_price_matches_iteration_model(self):
        from repro.hardware import Cluster
        from repro.perf.iteration_model import IterationLatencyModel
        from repro.perf.profiles import dmt_dcn_profile, paper_dcn_profile

        art = Session(quickstart_spec()).price()
        model = IterationLatencyModel()
        cluster = Cluster(8, 8, "H100")
        assert art.baseline.total_s == model.hybrid(
            paper_dcn_profile(), cluster, 16384
        ).total_s
        assert art.dmt.total_s == model.dmt(
            dmt_dcn_profile(8), cluster, 16384
        ).total_s

    def test_partition_strategies(self):
        base = RunSpec(
            data=DataSpec(num_sparse=8, num_blocks=2, cardinality=32),
            partition=PartitionSpec(strategy="naive", num_towers=2),
        )
        naive = Session(base).partition().partition
        assert naive.groups == ((0, 2, 4, 6), (1, 3, 5, 7))
        contig = Session(
            dataclasses.replace(
                base,
                partition=PartitionSpec(strategy="contiguous", num_towers=2),
            )
        ).partition().partition
        assert contig.groups == ((0, 1, 2, 3), (4, 5, 6, 7))
        given = Session(
            dataclasses.replace(
                base,
                partition=PartitionSpec(
                    strategy="given",
                    num_towers=2,
                    groups=((7, 0, 1, 2), (3, 4, 5, 6)),
                ),
            )
        ).partition().partition
        assert given.groups == ((7, 0, 1, 2), (3, 4, 5, 6))

    def test_missing_section_raises(self):
        session = Session(quickstart_spec())
        with pytest.raises(SpecError, match="no data section"):
            session.load_data()

    def test_session_accepts_dict(self):
        art = Session(quickstart_spec().to_dict()).price()
        assert art.speedup > 1.0

    def test_session_rejects_other_types(self):
        with pytest.raises(SpecError, match="RunSpec or dict"):
            Session(42)


class TestSessionEndToEnd:
    def test_run_matches_hand_wired_pipeline(self):
        """Session.run() == the hand-wired §3.3 workflow, float-exact."""
        from repro.data import (
            SyntheticCriteoConfig,
            SyntheticCriteoDataset,
            train_eval_split,
        )
        from repro.models import DMTDLRM, DLRM, tiny_table_configs
        from repro.models.configs import DenseArch
        from repro.partitioner import (
            TowerPartitioner,
            interaction_from_activations,
        )
        from repro.training import TrainConfig, Trainer

        result = Session(TINY).run()

        # Hand-wired equivalent (the pre-api examples/train_dmt_criteo
        # wiring, shrunk to TINY's geometry).
        dataset = SyntheticCriteoDataset(
            SyntheticCriteoConfig(
                num_sparse=8, num_blocks=2, cardinality=32
            ),
            seed=0,
        )
        (td, ti, tl), (ed, ei, el) = train_eval_split(
            *dataset.sample(1800, seed=1), eval_fraction=1.0 / 3.0
        )
        tables = tiny_table_configs(8, 32, 8)
        arch = DenseArch(embedding_dim=8, bottom_mlp=(16,), top_mlp=(16,))
        probe = DLRM(13, tables, arch, rng=np.random.default_rng(7))
        Trainer(
            probe,
            TrainConfig(batch_size=256, epochs=1, seed=7, sparse_lr=0.05),
        ).fit(td, ti, tl)
        interaction = interaction_from_activations(
            probe.embeddings(ti[:600]), center=True
        )
        tp = TowerPartitioner(2, strategy="coherent", mds_iterations=100)
        tp_result = tp.partition_from_interaction(
            interaction, rng=np.random.default_rng(0)
        )
        model = DMTDLRM(
            13,
            tables,
            tp_result.partition,
            arch,
            tower_dim=1,
            c=0,
            p=1,
            rng=np.random.default_rng(11),
        )
        trainer = Trainer(model, TrainConfig(batch_size=128, epochs=1, seed=11))
        trainer.fit(td, ti, tl)
        expected = trainer.evaluate(ed, ei, el)

        assert result.partition["groups"] == [
            list(g) for g in tp_result.partition.groups
        ]
        assert result.train["auc"] == pytest.approx(expected.auc, abs=1e-12)
        assert result.train["log_loss"] == pytest.approx(
            expected.log_loss, abs=1e-12
        )

    @pytest.mark.xfail(
        strict=True,
        reason="SPTT runs a width-1 tower projection (tower_dim=1, c=0, "
        "p=1) over a differently laid out gradient than single-process, "
        "and BLAS sums its weight gradient in another order: ~1e-10 drift",
    )
    def test_simulated_width_one_tower_projection_is_exact(self):
        spec = TINY.replace(train=TINY.train.replace(mode="simulated"))
        assert_equals_single_twin(spec, Session(spec).train())

    def test_simulated_training_is_exact(self):
        spec = distributed_training_spec()
        art = Session(spec).train()
        assert len(art.trainer.loss_history) == 8
        assert_equals_single_twin(spec, art)
        assert "embedding_comm" in art.timeline

    @pytest.mark.parametrize("hosts, gpus", [(2, 2), (4, 1)])
    def test_simulated_multi_task_training_is_exact(self, hosts, gpus):
        """A two-task model trains on the simulated executor (MultiLoss
        gates cvr over the global batch) and equals its single twin."""
        base = distributed_training_spec()
        spec = base.replace(
            cluster=ClusterSpec(num_hosts=hosts, gpus_per_host=gpus),
            model=base.model.replace(tasks=("ctr", "cvr")),
        )
        art = Session(spec).train()
        assert set(art.eval_result.by_task) == {"ctr", "cvr"}
        assert_equals_single_twin(spec, art)

    def test_auc_sweep_protocol(self):
        med, std, values = spec_auc_sweep(TINY, seeds=(0, 1))
        assert len(values) == 2
        assert med == float(np.median(values))
        # Seed protocol: model seed 100+s, train seed s.
        run0 = dataclasses.replace(
            TINY,
            model=TINY.model.replace(seed=100),
            train=TINY.train.replace(seed=0),
        )
        assert values[0] == Session(run0).train().eval_result.auc
        assert run0 == seeded_run(TINY, 0)
        assert std == float(np.std(values, ddof=1))

    def test_auc_sweep_one_seed_has_zero_std(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            med, std, values = spec_auc_sweep(TINY, seeds=(0,))
        assert std == 0.0
        assert med == values[0]
        assert not [w for w in caught if "freedom" in str(w.message)]

    def test_auc_sweep_needs_a_seed(self):
        with pytest.raises(ValueError, match="at least one seed"):
            spec_auc_sweep(TINY, seeds=())

    def test_auc_sweep_on_the_executor_equals_single_process(self):
        """Table 4's DMT-DLRM 4-tower row, seed 0, executed by SPTT on
        4 hosts (one tower each): the quality claim holds for the
        executed system, not only for the single-process model."""
        spec = table4.experiment_specs()["dlrm-4T"]
        simulated = spec.replace(
            cluster=ClusterSpec(num_hosts=4, gpus_per_host=1),
            train=spec.train.replace(mode="simulated"),
        )
        executed = spec_auc_sweep(simulated, seeds=(0,))[2]
        single = spec_auc_sweep(spec, seeds=(0,))[2]
        assert executed == single

    def test_probe_cache_shared_across_alias_strategies(self):
        from repro.api.session import _probed_partition

        _probed_partition.cache_clear()
        probe = Session(dataclasses.replace(
            TINY, partition=TINY.partition.replace(strategy="probe")
        )).partition()
        coherent = Session(TINY).partition()
        assert probe.partition == coherent.partition
        info = _probed_partition.cache_info()
        # 'probe' and 'coherent' share one entry: first call misses,
        # second hits.
        assert info.misses == 1 and info.hits == 1


def single_twin(spec: RunSpec) -> RunSpec:
    """``spec`` with every train section on the single-process executor."""
    twin = spec.replace(train=spec.train.replace(mode="single"))
    if spec.ab is not None and spec.ab.train_b is not None:
        train_b = spec.ab.train_b.replace(mode="single")
        twin = twin.replace(ab=spec.ab.replace(train_b=train_b))
    return twin


def summary_bytes(artifact) -> str:
    return json.dumps(artifact.summary(), sort_keys=True)


@pytest.fixture
def built_executors(monkeypatch):
    """The step executor of every trainer ``Session.build_trainer``
    builds (``None`` for single-process), in build order."""
    steps = []
    build = Session.build_trainer

    def spy(self, model, config):
        trainer = build(self, model, config)
        steps.append(trainer.step)
        return trainer

    monkeypatch.setattr(Session, "build_trainer", spy)
    return steps


class TestEveryPlaneOnEitherExecutor:
    """``online`` and both ``ab`` arms train through
    ``Session.build_trainer`` too: on ``mode='simulated'`` (a flat
    model on the hybrid executor, a DMT one on SPTT) each equals its
    single-process twin byte for byte."""

    @pytest.mark.parametrize("tasks", [("ctr",), ("ctr", "cvr")])
    def test_online_on_the_hybrid_executor(
        self, tmp_path, tasks, built_executors
    ):
        from repro.experiments.model_freshness import freshness_spec

        base = freshness_spec(directory=str(tmp_path))
        spec = base.replace(
            cluster=ClusterSpec(num_hosts=2, gpus_per_host=2),
            model=base.model.replace(tasks=tasks),
            train=base.train.replace(mode="simulated"),
        )
        art = Session(spec).online()
        (step,) = built_executors
        assert type(step) is DistributedHybridTrainer
        assert step.sim.timeline.events
        twin = Session(single_twin(spec)).online()
        assert summary_bytes(art) == summary_bytes(twin)
        windows = json.dumps(art.report.windows, sort_keys=True)
        assert windows == json.dumps(twin.report.windows, sort_keys=True)
        # Every task is gated per window (cvr's AUC only where clicked).
        for w in art.report.windows[1:]:
            assert set(w["candidate_auc_by_task"]) == set(tasks)

    def test_multi_task_ab_on_the_hybrid_executor(self, built_executors):
        from repro.experiments.multi_task_ab import ab_spec

        base = ab_spec()
        spec = base.replace(
            cluster=ClusterSpec(num_hosts=2, gpus_per_host=2),
            train=base.train.replace(mode="simulated"),
        )
        art = Session(spec).ab()
        # Two arms x five seeds, each on the hybrid executor.
        assert len(built_executors) == 10
        assert all(
            type(step) is DistributedHybridTrainer for step in built_executors
        )
        assert summary_bytes(art) == summary_bytes(
            Session(single_twin(spec)).ab()
        )

    def test_ab_arm_b_alone_simulated(self, built_executors):
        """Arm B's own train section picks its executor: a DMT arm B
        runs on SPTT while arm A, a flat model, trains single-process."""
        base = distributed_training_spec()
        flat = ModelSpec(
            family="dlrm",
            variant="flat",
            embedding_dim=16,
            bottom_mlp=(32,),
            top_mlp=(32,),
            seed=42,
        )
        spec = base.replace(
            model=flat,
            train=base.train.replace(mode="single"),
            ab=ABSpec(seeds=(0, 1), model_b=base.model, train_b=base.train),
        )
        art = Session(spec).ab()
        # Per seed: arm A single-process, then arm B on SPTT.
        assert [type(step) for step in built_executors] == [
            type(None),
            DistributedDMTTrainer,
        ] * 2
        assert summary_bytes(art) == summary_bytes(
            Session(single_twin(spec)).ab()
        )


class TestRunSpecCLI:
    def test_run_spec_json_reexecutes_identically(self, tmp_path, capsys):
        direct = Session(TINY).run().to_dict()
        path = str(tmp_path / "tiny.json")
        TINY.save(path)
        assert cli_main(["run-spec", path, "--json"]) == 0
        replayed = json.loads(capsys.readouterr().out)
        assert replayed == direct

    def test_run_spec_text_render(self, tmp_path, capsys):
        path = str(tmp_path / "quick.json")
        quickstart_spec().save(path)
        assert cli_main(["run-spec", path, "--save", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "== run: quickstart ==" in out and "speedup" in out
        saved = json.loads((tmp_path / "quickstart.json").read_text())
        assert saved["price"]["speedup"] > 1.0

    def test_run_spec_missing_file(self, capsys):
        assert cli_main(["run-spec", "/nonexistent/spec.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_run_spec_invalid_spec(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"perf": {"kind": "gpt"}}')
        assert cli_main(["run-spec", str(path)]) == 2
        assert "invalid spec" in capsys.readouterr().err
