"""Plan-time RunSpec validation: property + negative suites.

The property suite asserts every preset and every registered
experiment's specs pass :func:`repro.analysis.analyze_spec` with zero
errors (the analyzer must never reject a configuration the repo
actually runs).  The negative suite seeds deliberately broken RunSpecs
and pins each rejection to its stable diagnostic code.  The
ServeSpec cache/key-space overcommit bugfix and the
``Session.analyze`` / CLI wiring are covered alongside.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import SpecAnalysisError, analyze_spec, registered_checks
from repro.api import Session, SpecError, presets
from repro.api.spec import (
    ABSpec,
    AutoscaleSpec,
    CheckpointSpec,
    ClusterSpec,
    DataSpec,
    FaultSpec,
    ModelSpec,
    PartitionSpec,
    PerfSpec,
    RunSpec,
    ServeSpec,
    TierSpec,
    TrainSpec,
)
from repro.checkpoint import save_training_checkpoint
from tests.golden.gen_spec_json import EXPERIMENTS as SPEC_DRIVERS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def error_codes(spec):
    return sorted({d.code for d in analyze_spec(spec) if d.severity == "error"})


def warning_codes(spec):
    return sorted(
        {d.code for d in analyze_spec(spec) if d.severity == "warning"}
    )


def tiny_quality_spec(**overrides):
    """A small, fully valid train spec the negative cases perturb."""
    base = dict(
        cluster=ClusterSpec(num_hosts=2, gpus_per_host=2),
        data=DataSpec(
            num_sparse=8, num_blocks=2, cardinality=32, num_samples=512
        ),
        model=ModelSpec(variant="flat", embedding_dim=8,
                        bottom_mlp=(16,), top_mlp=(16,)),
        train=TrainSpec(batch_size=64, epochs=1),
    )
    base.update(overrides)
    return RunSpec(**base)


# ----------------------------------------------------------------------
class TestPropertyEveryRealSpecValidates:
    @pytest.mark.parametrize(
        "build",
        [
            presets.quickstart_spec,
            presets.train_dmt_criteo_spec,
            presets.distributed_training_spec,
            lambda: presets.naive_control_spec(
                presets.train_dmt_criteo_spec()
            ),
        ],
    )
    def test_presets_pass(self, build):
        spec = build()
        assert error_codes(spec) == []
        # The presets are also warning-free: they are the documented
        # front door and must not train users to ignore findings.
        assert warning_codes(spec) == []

    @pytest.mark.parametrize("fast", [True, False])
    def test_experiment_specs_pass(self, fast):
        for mod in SPEC_DRIVERS:
            for arm, spec in mod.experiment_specs(fast=fast).items():
                bad = error_codes(spec)
                assert bad == [], (mod.__name__, arm, bad)

    def test_session_analyze_passes_for_experiment_presets(self):
        for mod in SPEC_DRIVERS:
            for spec in mod.experiment_specs().values():
                diags = Session(spec).analyze()
                assert not [d for d in diags if d.severity == "error"]


# ----------------------------------------------------------------------
class TestNegativeSeededBrokenSpecs:
    """>= 10 deliberately broken RunSpecs, each pinned to its code."""

    def test_degenerate_data_split(self):
        spec = tiny_quality_spec(
            data=DataSpec(num_samples=2, eval_fraction=0.9,
                          num_sparse=8, num_blocks=2),
            train=TrainSpec(batch_size=1, epochs=1),
        )
        assert error_codes(spec) == ["degenerate-data-split"]

    def test_batch_exceeds_train_split(self):
        spec = tiny_quality_spec(train=TrainSpec(batch_size=512, epochs=1))
        assert error_codes(spec) == ["batch-exceeds-train-split"]

    def test_probe_batch_exceeds_split(self):
        spec = tiny_quality_spec(
            train=None,
            partition=PartitionSpec(
                strategy="probe", num_towers=2, probe_batch_size=4096
            ),
        )
        assert error_codes(spec) == ["probe-batch-exceeds-split"]

    def test_simulated_batch_exceeds_train_split(self):
        """Both modes batch the same train split, so the check holds
        for the simulated executor too."""
        spec = tiny_quality_spec(
            model=ModelSpec(variant="dmt", embedding_dim=8,
                            bottom_mlp=(16,), top_mlp=(16,)),
            partition=PartitionSpec(strategy="contiguous", num_towers=2),
            train=TrainSpec(mode="simulated", batch_size=512, epochs=1),
        )
        assert error_codes(spec) == ["batch-exceeds-train-split"]

    def test_global_batch_indivisible(self):
        spec = tiny_quality_spec(
            model=ModelSpec(variant="dmt", embedding_dim=8,
                            bottom_mlp=(16,), top_mlp=(16,)),
            partition=PartitionSpec(strategy="contiguous", num_towers=2),
            train=TrainSpec(mode="simulated", batch_size=130, epochs=1),
        )
        assert error_codes(spec) == ["global-batch-indivisible"]

    def test_online_window_smaller_than_batch(self):
        """The online loop's trainer batches each stream window: a
        window below the batch size is refused before any training,
        not mid-run by the batch iterator."""
        from repro.experiments.model_freshness import freshness_spec

        base = freshness_spec()
        spec = base.replace(online=base.online.replace(window_samples=32))
        diags = [d for d in analyze_spec(spec) if d.severity == "error"]
        assert [d.code for d in diags] == ["batch-exceeds-train-split"]
        assert diags[0].path == "train.batch_size"
        assert "32-sample online window" in diags[0].message
        with pytest.raises(SpecAnalysisError, match="online window"):
            Session(spec).online()

    @pytest.mark.parametrize(
        "train_b, code",
        [
            (TrainSpec(batch_size=512, epochs=1), "batch-exceeds-train-split"),
            (
                TrainSpec(mode="simulated", batch_size=130, epochs=1),
                "global-batch-indivisible",
            ),
        ],
    )
    def test_ab_arm_b_batch_rules(self, train_b, code):
        """Arm B's train section is checked like arm A's, at analyze
        time rather than after arm A has trained."""
        spec = tiny_quality_spec(ab=ABSpec(seeds=(0, 1), train_b=train_b))
        diags = [d for d in analyze_spec(spec) if d.severity == "error"]
        assert [(d.code, d.path) for d in diags] == [
            (code, "ab.train_b.batch_size")
        ]

    def test_shard_capacity_overflow(self):
        # Paper-scale Criteo tables (~91 GB) cannot fit one A100.
        spec = RunSpec(
            cluster=ClusterSpec(num_hosts=1, gpus_per_host=1),
            perf=PerfSpec(kind="dlrm"),
        )
        assert error_codes(spec) == ["shard-capacity-overflow"]

    def test_shard_capacity_scales_with_cluster(self):
        # The same tables fit once the world is large enough.
        spec = RunSpec(
            cluster=ClusterSpec(num_hosts=4, gpus_per_host=4),
            perf=PerfSpec(kind="dlrm"),
        )
        assert error_codes(spec) == []

    def test_fetch_tier_overflow(self):
        # One V100 host (32 GB x 1 GPU) cannot front the Criteo tables.
        spec = RunSpec(
            cluster=ClusterSpec(
                num_hosts=2, gpus_per_host=1, generation="V100"
            ),
            serve=ServeSpec(placement="disaggregated", emb_hosts=1),
        )
        assert error_codes(spec) == ["fetch-tier-overflow"]

    def test_cache_overcommits_memory(self):
        spec = RunSpec(
            cluster=ClusterSpec(num_hosts=1, gpus_per_host=1),
            serve=ServeSpec(
                placement="colocated",
                cache_rows=10**9,
                key_space=2 * 10**9,
                fleet_replicas=4,
                router="p2c",
            ),
        )
        codes = error_codes(spec)
        assert "cache-overcommits-memory" in codes

    def test_flash_outside_trace(self):
        spec = RunSpec(
            serve=ServeSpec(
                qps=1000.0,
                num_requests=1000,
                scenario="flash",
                flash_start_s=5.0,
                flash_duration_s=0.5,
                placement="colocated",
            ),
        )
        assert error_codes(spec) == ["flash-outside-trace"]

    def test_checkpoint_resume_missing(self):
        spec = tiny_quality_spec(
            checkpoint=CheckpointSpec(resume_from="/nonexistent/ckpt"),
        )
        assert error_codes(spec) == ["checkpoint-resume-missing"]

    def test_warm_start_dead_cache(self, tmp_path):
        ckpt = str(tmp_path / "step_1")
        os.makedirs(ckpt)
        with open(os.path.join(ckpt, "manifest.json"), "w") as fh:
            json.dump({}, fh)
        spec = tiny_quality_spec(
            serve=ServeSpec(
                placement="colocated",
                cache_rows=0,
                key_space=64,
                num_requests=64,
                qps=1000.0,
                max_batch_size=8,
            ),
            checkpoint=CheckpointSpec(resume_from=ckpt, warm_start=True),
        )
        assert error_codes(spec) == ["warm-start-dead-cache"]

    def _tiered_spec(self, tiers, **serve_overrides):
        serve = dict(
            qps=2000.0, num_requests=2000, key_space=200_000,
            skew=1.05, cache_rows=4096, placement="both", emb_hosts=2,
        )
        serve.update(serve_overrides)
        return RunSpec(
            cluster=ClusterSpec(
                num_hosts=8, gpus_per_host=4, generation="A100"
            ),
            serve=ServeSpec(**serve),
            tiers=tiers,
        )

    def test_clean_tiered_spec_passes(self):
        spec = self._tiered_spec(
            TierSpec(levels=("dram",), cache_rows=(65_536,),
                     backing="remote")
        )
        assert error_codes(spec) == []

    def test_tier_capacity_misordered(self):
        # A 1024-row DRAM level under the 4096-row HBM cache: the
        # inclusive chain's lower level can never serve a hit.
        spec = self._tiered_spec(
            TierSpec(levels=("dram",), cache_rows=(1024,),
                     backing="remote")
        )
        assert error_codes(spec) == ["tier-capacity-misordered"]

    def test_tier_dead_remote(self):
        # Chain (4096 + 300k rows) covers the whole 200k key space, so
        # the priced remote backing never serves a steady-state miss.
        spec = self._tiered_spec(
            TierSpec(levels=("dram",), cache_rows=(300_000,),
                     backing="remote")
        )
        assert error_codes(spec) == ["tier-dead-remote"]

    def test_tier_overflow(self):
        # 30e9 rows x 512 B ~ 15.4 TB of DRAM level, but the 6 dense
        # hosts only hold 12 TB of physical DRAM.
        spec = self._tiered_spec(
            TierSpec(
                levels=("dram",),
                cache_rows=(30_000_000_000,),
                backing="remote",
            ),
            key_space=50_000_000_000,
        )
        assert error_codes(spec) == ["tier-overflow"]

    def test_remote_backing_retargets_fetch_tier(self):
        """The fetch-tier bound switches with tiers.backing: misses of
        a remote-backed chain land on the PS's DRAM capacity, not the
        emb-hosts' HBM."""
        broken = RunSpec(
            cluster=ClusterSpec(
                num_hosts=2, gpus_per_host=1, generation="V100"
            ),
            serve=ServeSpec(placement="disaggregated", emb_hosts=1),
        )
        assert error_codes(broken) == ["fetch-tier-overflow"]
        fixed = broken.replace(
            tiers=TierSpec(levels=(), cache_rows=(), backing="remote")
        )
        assert error_codes(fixed) == []

    def _fault_spec(self, faults=None, autoscale=None, **serve_overrides):
        serve = dict(
            qps=50_000.0, num_requests=2000, key_space=2000,
            cache_rows=256, placement="disaggregated", emb_hosts=1,
            fleet_replicas=3,
        )
        serve.update(serve_overrides)
        return RunSpec(
            cluster=ClusterSpec(num_hosts=4, gpus_per_host=2),
            serve=ServeSpec(**serve),
            faults=faults,
            autoscale=autoscale,
        )

    def test_clean_fault_autoscale_spec_passes(self):
        spec = self._fault_spec(
            faults=FaultSpec(replica_crashes=1),
            autoscale=AutoscaleSpec(
                slo_p99_ms=2.0, min_replicas=2, max_replicas=4
            ),
        )
        assert error_codes(spec) == []

    def test_fault_outside_trace(self):
        # The trace spans 2000 / 50k qps = 0.04 s; the injection window
        # opens at t = 1 s, after every request has been served.
        spec = self._fault_spec(
            faults=FaultSpec(replica_crashes=1, start_s=1.0, end_s=2.0),
        )
        assert error_codes(spec) == ["fault-outside-trace"]

    def test_retry_budget_zero_with_faults(self):
        spec = self._fault_spec(
            faults=FaultSpec(replica_crashes=1, max_retries=0),
        )
        assert error_codes(spec) == ["retry-budget-zero-with-faults"]
        spec = self._fault_spec(
            faults=FaultSpec(replica_crashes=1, retry_budget=0.0),
        )
        assert error_codes(spec) == ["retry-budget-zero-with-faults"]

    def test_autoscale_bounds_inverted(self):
        spec = self._fault_spec(
            autoscale=AutoscaleSpec(min_replicas=5, max_replicas=2),
        )
        assert error_codes(spec) == ["autoscale-bounds-inverted"]
        # Bounds ordered, but the initial fleet sits outside them.
        spec = self._fault_spec(
            autoscale=AutoscaleSpec(min_replicas=4, max_replicas=8),
        )
        assert error_codes(spec) == ["autoscale-bounds-inverted"]

    def test_degraded_mode_without_backing(self):
        spec = self._fault_spec(
            faults=FaultSpec(
                fetch_outages=1,
                outage_duration_s=0.005,
                degraded_mode=True,
            ),
            cache_rows=0,
        )
        assert error_codes(spec) == ["degraded-mode-without-backing"]

    def _online_spec(self, **online_overrides):
        from repro.experiments.model_freshness import freshness_spec

        spec = freshness_spec(fast=True)
        if online_overrides:
            spec = spec.replace(
                online=spec.online.replace(**online_overrides)
            )
        return spec

    def test_clean_online_spec_passes(self):
        assert error_codes(self._online_spec()) == []

    def test_delta_without_base(self):
        spec = self._online_spec().replace(checkpoint=None)
        assert error_codes(spec) == ["delta-without-base"]

    def test_rollout_exceeds_replicas(self):
        # The freshness fleet has 4 replicas; a 1 -> 8 schedule's final
        # stage can never complete.
        spec = self._online_spec(rollout_stages=(1, 8))
        assert error_codes(spec) == ["rollout-exceeds-replicas"]
        # Stages capped at the fleet are fine.
        assert error_codes(self._online_spec(rollout_stages=(1, 4))) == []

    def test_canary_threshold_invalid(self):
        spec = self._online_spec(canary_threshold=0.6)
        assert error_codes(spec) == ["canary-threshold-invalid"]
        spec = self._online_spec(canary_threshold=-0.01)
        assert error_codes(spec) == ["canary-threshold-invalid"]

    def _mt_model(self, **overrides):
        fields = dict(
            variant="flat", embedding_dim=8, bottom_mlp=(16,),
            top_mlp=(16,), tasks=("ctr", "cvr"), head="shared_bottom",
            head_mlp=(8,),
        )
        fields.update(overrides)
        return ModelSpec(**fields)

    def test_cvr_without_ctr(self):
        spec = tiny_quality_spec(
            model=ModelSpec(variant="flat", embedding_dim=8,
                            bottom_mlp=(16,), top_mlp=(16,),
                            tasks=("cvr",)),
        )
        assert error_codes(spec) == ["cvr-without-ctr"]

    def test_task_weight_degenerate(self):
        zero = tiny_quality_spec(
            model=self._mt_model(task_weights=(1.0, 0.0)),
        )
        assert error_codes(zero) == ["task-weight-degenerate"]
        negative = tiny_quality_spec(
            model=self._mt_model(task_weights=(1.0, -0.5)),
        )
        assert error_codes(negative) == ["task-weight-degenerate"]
        # Positive weights of any magnitude are fine.
        ok = tiny_quality_spec(model=self._mt_model(task_weights=(1.0, 0.2)))
        assert error_codes(ok) == []

    def test_ab_arms_identical(self):
        spec = tiny_quality_spec(
            model=self._mt_model(),
            ab=ABSpec(seeds=(0, 1)),
        )
        assert error_codes(spec) == ["ab-arms-identical"]
        # Any resolved difference between the arms clears the code.
        fixed = spec.replace(
            ab=ABSpec(seeds=(0, 1), model_b=self._mt_model(head="dbmtl"))
        )
        assert error_codes(fixed) == []

    def test_invalid_dict_input_maps_to_spec_invalid(self):
        diags = analyze_spec({"serve": {"qps": -5.0}})
        assert [d.code for d in diags] == ["spec-invalid"]
        assert diags[0].severity == "error"

    def test_every_registered_check_has_a_stable_name(self):
        names = set(registered_checks())
        assert {
            "degenerate-data-split",
            "batch-exceeds-train-split",
            "probe-batch-exceeds-split",
            "global-batch-indivisible",
            "shard-capacity-overflow",
            "fetch-tier-overflow",
            "cache-overcommits-memory",
            "flash-outside-trace",
            "checkpoint-resume-missing",
            "warm-start-dead-cache",
            "tier-capacity-misordered",
            "tier-overflow",
            "tier-dead-remote",
            "fault-outside-trace",
            "retry-budget-zero-with-faults",
            "autoscale-bounds-inverted",
            "degraded-mode-without-backing",
            "delta-without-base",
            "rollout-exceeds-replicas",
            "canary-threshold-invalid",
            "cvr-without-ctr",
            "task-weight-degenerate",
            "ab-arms-identical",
        } <= names


# ----------------------------------------------------------------------
class TestWarnings:
    def test_probe_samples_truncated(self):
        spec = tiny_quality_spec(
            train=None,
            partition=PartitionSpec(
                strategy="probe", num_towers=2, probe_samples=100_000
            ),
        )
        assert warning_codes(spec) == ["probe-samples-truncated"]
        assert error_codes(spec) == []

    def test_fleet_oversubscribed(self):
        spec = RunSpec(
            cluster=ClusterSpec(num_hosts=2, gpus_per_host=2),
            serve=ServeSpec(placement="colocated", fleet_replicas=5),
        )
        assert "fleet-oversubscribed" in warning_codes(spec)

    def test_router_degenerate(self):
        spec = RunSpec(
            serve=ServeSpec(
                placement="colocated", fleet_replicas=1, router="p2c"
            ),
        )
        assert "router-degenerate" in warning_codes(spec)

    def test_batcher_never_fills(self):
        spec = RunSpec(
            serve=ServeSpec(
                placement="colocated", num_requests=32, max_batch_size=64,
                key_space=100, cache_rows=50,
            ),
        )
        assert "batcher-never-fills" in warning_codes(spec)

    def test_checkpoint_never_saves(self):
        spec = tiny_quality_spec(
            checkpoint=CheckpointSpec(save_every_steps=10_000),
        )
        assert warning_codes(spec) == ["checkpoint-never-saves"]
        # Warnings never block execution.
        assert error_codes(spec) == []


# ----------------------------------------------------------------------
class TestServeSpecCacheBugfix:
    """Regression: cache_rows > key_space rejected at spec time."""

    def test_overcommitted_cache_rejected(self):
        with pytest.raises(SpecError, match="cache_rows"):
            ServeSpec(cache_rows=1000, key_space=100)

    def test_round_trip_rejects_too(self):
        good = ServeSpec(cache_rows=100, key_space=100)
        payload = good.to_dict()
        payload["cache_rows"] = 101
        with pytest.raises(SpecError, match="cache_rows"):
            ServeSpec.from_dict(payload)

    def test_boundary_is_inclusive(self):
        spec = ServeSpec(cache_rows=100, key_space=100)
        assert spec.cache_rows == 100

    def test_zero_cache_always_valid(self):
        ServeSpec(cache_rows=0, key_space=1)


# ----------------------------------------------------------------------
class TestTierSpecValidation:
    """TierSpec construction rules and the JSON round trip."""

    def test_round_trip_preserves_tuples(self):
        spec = RunSpec(
            serve=ServeSpec(placement="colocated"),
            tiers=TierSpec(
                levels=("dram", "ssd"), cache_rows=(64, 256),
                backing="remote",
            ),
        )
        again = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        # JSON turns tuples into lists; the round trip restores them.
        assert again.tiers.levels == ("dram", "ssd")
        assert again.tiers.cache_rows == (64, 256)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SpecError, match="equal length"):
            TierSpec(levels=("dram",), cache_rows=())

    def test_unknown_level_rejected(self):
        with pytest.raises(SpecError, match="unknown tier level"):
            TierSpec(levels=("l2",), cache_rows=(64,))

    def test_misordered_levels_rejected(self):
        with pytest.raises(SpecError, match="hierarchy order"):
            TierSpec(levels=("ssd", "dram"), cache_rows=(64, 64))

    def test_unknown_backing_rejected(self):
        with pytest.raises(SpecError, match="backing"):
            TierSpec(backing="ssd")

    def test_negative_rows_rejected(self):
        with pytest.raises(SpecError, match="ints >= 0"):
            TierSpec(levels=("dram",), cache_rows=(-1,))

    def test_tiers_requires_serve(self):
        # A valid training run cannot carry a dangling tiers section.
        with pytest.raises(SpecError, match="needs a serve section"):
            tiny_quality_spec(tiers=TierSpec())


# ----------------------------------------------------------------------
class TestSessionIntegration:
    def test_train_refuses_broken_spec(self):
        spec = tiny_quality_spec(train=TrainSpec(batch_size=512, epochs=1))
        session = Session(spec)
        with pytest.raises(SpecAnalysisError) as err:
            session.train()
        assert any(
            d.code == "batch-exceeds-train-split"
            for d in err.value.diagnostics
        )

    def test_spec_analysis_error_is_a_spec_error(self):
        # Every existing SpecError handler (CLI exit-2 paths) keeps
        # working for analysis rejections.
        assert issubclass(SpecAnalysisError, SpecError)

    def test_analyze_false_opts_out(self):
        spec = RunSpec(
            serve=ServeSpec(
                qps=1000.0,
                num_requests=1000,
                scenario="flash",
                flash_start_s=5.0,
                flash_duration_s=0.5,
                placement="colocated",
                key_space=200,
                cache_rows=64,
                max_batch_size=8,
            ),
        )
        art = Session(spec, analyze=False).serve()
        # The pathological spec executes (flash crowd simply never
        # fires) — the opt-out exists exactly for studying such runs.
        assert art.reports["colocated"].num_requests == 1000

    def test_analyze_stage_is_cached(self):
        session = Session(tiny_quality_spec())
        assert session.analyze() is session.analyze()

    def test_serve_gate_fires_before_any_simulation(self):
        spec = RunSpec(
            cluster=ClusterSpec(
                num_hosts=2, gpus_per_host=1, generation="V100"
            ),
            serve=ServeSpec(placement="disaggregated", emb_hosts=1),
        )
        with pytest.raises(SpecAnalysisError):
            Session(spec).serve()

    def test_warm_start_session_passes_with_real_checkpoint(self, tmp_path):
        """End-to-end: analyzer accepts the warm-start serve spec the
        checkpointing experiment actually builds mid-run."""
        import numpy as np

        from repro.data import train_eval_split
        from repro.models import DLRM, tiny_table_configs
        from repro.models.configs import DenseArch
        from repro.training import TrainConfig, Trainer

        spec = tiny_quality_spec()
        data = spec.data
        from repro.api.session import _dataset_for

        dense, ids, labels = _dataset_for(data).sample(256, seed=1)
        tables = tiny_table_configs(data.num_sparse, data.cardinality, 8)
        model = DLRM(
            data.num_dense,
            tables,
            DenseArch(embedding_dim=8, bottom_mlp=(16,), top_mlp=(16,)),
            rng=np.random.default_rng(0),
        )
        trainer = Trainer(model, TrainConfig(batch_size=64, epochs=1))
        trainer.fit(dense, ids, labels)
        path = save_training_checkpoint(
            str(tmp_path / "ck"), model, trainer
        )
        warm = spec.replace(
            train=None,
            serve=ServeSpec(
                qps=50_000.0, num_requests=100, key_space=200,
                cache_rows=64, placement="colocated",
            ),
            checkpoint=CheckpointSpec(resume_from=path, warm_start=True),
        )
        assert error_codes(warm) == []


# ----------------------------------------------------------------------
class TestCliAnalyzeVerb:
    def _run(self, *args):
        env = dict(os.environ, PYTHONPATH=SRC)
        return subprocess.run(
            [sys.executable, "-m", "repro.experiments.runner", *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )

    def test_clean_spec_exits_zero(self, tmp_path):
        path = str(tmp_path / "ok.json")
        presets.quickstart_spec().save(path)
        proc = self._run("analyze", path)
        assert proc.returncode == 0, proc.stderr
        assert "clean" in proc.stdout

    def test_broken_spec_exits_one_with_code(self, tmp_path):
        spec = RunSpec(
            cluster=ClusterSpec(num_hosts=1, gpus_per_host=1),
            perf=PerfSpec(kind="dlrm"),
        )
        path = str(tmp_path / "bad.json")
        spec.save(path)
        proc = self._run("analyze", path)
        assert proc.returncode == 1
        assert "shard-capacity-overflow" in proc.stdout

    def test_json_output(self, tmp_path):
        spec = RunSpec(
            cluster=ClusterSpec(num_hosts=1, gpus_per_host=1),
            perf=PerfSpec(kind="dlrm"),
        )
        path = str(tmp_path / "bad.json")
        spec.save(path)
        proc = self._run("analyze", path, "--json")
        payload = json.loads(proc.stdout)
        assert payload[0]["code"] == "shard-capacity-overflow"
        assert payload[0]["source"] == "spec"

    def test_unreadable_spec_exits_two(self):
        proc = self._run("analyze", "/nonexistent/spec.json")
        assert proc.returncode == 2

    def test_run_spec_rejects_analysis_errors_as_invalid_spec(
        self, tmp_path
    ):
        spec = tiny_quality_spec(train=TrainSpec(batch_size=512, epochs=1))
        path = str(tmp_path / "broken-train.json")
        spec.save(path)
        proc = self._run("run-spec", path)
        assert proc.returncode == 2
        assert "batch-exceeds-train-split" in proc.stderr
