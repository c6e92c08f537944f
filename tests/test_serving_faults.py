"""Tests for the robustness plane: seeded fault schedules, client
retry/backoff, the MTTR recovery model, the SLO autoscaler, and the
fault-aware ``ResilientFleet`` replay (including its no-fault
bit-equality oracle against ``ServingFleet``)."""

import pytest

from repro.api import (
    AutoscaleSpec,
    ClusterSpec,
    FaultSpec,
    RunSpec,
    ServeSpec,
    Session,
)
from repro.hardware import Cluster
from repro.serving import (
    AutoscalePolicy,
    FaultConfig,
    FaultEvent,
    MicroBatcher,
    Placement,
    RecoveryModel,
    RequestStream,
    ResilientFleet,
    RetryPolicy,
    SLOAutoscaler,
    ServingFleet,
    ServingModel,
    WorkloadConfig,
)
from repro.sim import SimCluster


def tiny_model(**overrides) -> ServingModel:
    kwargs = dict(
        name="tiny", num_lookups=4, embedding_dim=16, dense_mflops=1.0
    )
    kwargs.update(overrides)
    return ServingModel(**kwargs)


def trace(qps=50_000.0, n=2000, seed=3, **cfg):
    defaults = dict(num_lookups=4, key_space=2000)
    defaults.update(cfg)
    return RequestStream(
        WorkloadConfig(qps=qps, num_requests=n, seed=seed, **defaults)
    ).generate()


def make_resilient(strategy="disaggregated", **kw) -> ResilientFleet:
    sim = SimCluster(
        Cluster(num_hosts=4, gpus_per_host=2, generation="A100")
    )
    return ResilientFleet(
        sim,
        kw.pop("model", tiny_model()),
        Placement(strategy, emb_hosts=kw.pop("emb_hosts", 1)),
        MicroBatcher(
            kw.pop("max_batch_size", 16), kw.pop("max_delay_s", 0.001)
        ),
        **kw,
    )


STORM = dict(
    replica_crashes=2,
    replica_hangs=1,
    hang_duration_s=0.004,
    fetch_degrades=1,
    degrade_duration_s=0.004,
    fetch_outages=1,
    outage_duration_s=0.004,
)


class TestFaultSchedule:
    def test_same_seed_gives_identical_timeline(self):
        a = FaultConfig(seed=5, **STORM).schedule(1.0, 4)
        b = FaultConfig(seed=5, **STORM).schedule(1.0, 4)
        assert a == b

    def test_different_seeds_give_different_timelines(self):
        a = FaultConfig(seed=5, **STORM).schedule(1.0, 4)
        b = FaultConfig(seed=6, **STORM).schedule(1.0, 4)
        assert a != b

    def test_schedule_sorted_and_inside_window(self):
        cfg = FaultConfig(seed=9, start_s=0.2, end_s=0.8, **STORM)
        events = cfg.schedule(1.0, 4)
        assert len(events) == cfg.num_scheduled
        times = [e.at_s for e in events]
        assert times == sorted(times)
        assert all(0.2 <= t <= 0.8 for t in times)
        assert all(
            0 <= e.replica < 4
            for e in events
            if e.kind in ("replica_crash", "replica_hang")
        )

    def test_default_window_is_middle_90(self):
        lo, hi = FaultConfig().window(10.0)
        assert lo == pytest.approx(0.5)
        assert hi == pytest.approx(9.5)

    def test_explicit_events_merge_into_schedule(self):
        pinned = FaultEvent("replica_crash", at_s=0.001, replica=2)
        cfg = FaultConfig(seed=1, replica_crashes=1, events=(pinned,))
        events = cfg.schedule(1.0, 4)
        assert pinned in events
        assert len(events) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(replica_crashes=-1)
        with pytest.raises(ValueError):
            FaultConfig(replica_hangs=1)  # no duration
        with pytest.raises(ValueError, match="outage_duration_s"):
            FaultConfig(fetch_outages=1)
        with pytest.raises(ValueError, match="degrade_factor"):
            FaultConfig(
                fetch_degrades=1, degrade_duration_s=0.01, degrade_factor=0.5
            )
        with pytest.raises(ValueError):
            FaultConfig(start_s=0.5, end_s=0.2)
        with pytest.raises(ValueError):
            FaultEvent("meteor_strike", at_s=0.0)
        with pytest.raises(ValueError):
            FaultEvent("fetch_degrade", at_s=0.0, factor=0.5)


class TestRetryPolicy:
    def test_pinned_backoff_schedule_without_jitter(self):
        policy = RetryPolicy(
            backoff_base_ms=0.25, backoff_cap_ms=2.0, jitter=0.0
        )
        got = [policy.backoff_s(req_id=7, attempt=a) for a in range(1, 6)]
        # Capped exponential: 0.25, 0.5, 1.0 then pinned at the 2.0 cap.
        assert got == [b * 1e-3 for b in (0.25, 0.5, 1.0, 2.0, 2.0)]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            backoff_base_ms=0.25, backoff_cap_ms=2.0, jitter=0.5
        )
        for req_id in (0, 17, 123_456):
            for attempt in (1, 2, 3):
                once = policy.backoff_s(req_id, attempt)
                again = policy.backoff_s(req_id, attempt)
                assert once == again  # hash-based, no shared RNG
                full = min(0.25 * 2 ** (attempt - 1), 2.0) * 1e-3
                assert 0.5 * full <= once <= full

    def test_jitter_varies_across_requests(self):
        policy = RetryPolicy(jitter=1.0)
        draws = {policy.backoff_s(r, 1) for r in range(32)}
        assert len(draws) > 16  # decorrelated, not a constant

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout_ms=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_ms=1.0, backoff_cap_ms=0.5)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff_base_ms=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(retry_budget=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy().backoff_s(0, 0)


class TestRecoveryModel:
    def test_mttr_formula(self):
        model = RecoveryModel(
            detection_s=1e-3,
            restore_s=2e-3,
            checkpoint_period_s=0.004,
            replay_rate=0.5,
        )
        assert model.mttr_s() == pytest.approx(1e-3 + 2e-3 + 0.001)
        with pytest.raises(ValueError, match="replay_rate"):
            RecoveryModel(replay_rate=-1.0)

    def test_no_checkpoints_pays_cold_rebuild(self):
        model = RecoveryModel(
            detection_s=1e-3, checkpoint_period_s=0.0, cold_rebuild_s=0.05
        )
        assert model.mttr_s() == pytest.approx(0.051)

    def test_mttr_monotone_in_checkpoint_period(self):
        periods = (0.001, 0.002, 0.004, 0.008, 0.016)
        mttrs = [
            RecoveryModel(
                detection_s=1e-3,
                restore_s=2e-3,
                checkpoint_period_s=p,
                cold_rebuild_s=0.05,
            ).mttr_s()
            for p in periods
        ]
        assert all(a < b for a, b in zip(mttrs, mttrs[1:]))
        cold = RecoveryModel(
            detection_s=1e-3, checkpoint_period_s=0.0, cold_rebuild_s=0.05
        ).mttr_s()
        assert all(m < cold for m in mttrs)

    def test_from_elastic_plan_prices_the_restore_leg(self):
        class _Migration:
            seconds = 0.007

        class _Plan:
            migration = _Migration()

        model = RecoveryModel.from_elastic_plan(
            _Plan(), checkpoint_period_s=0.004, detection_s=1e-3
        )
        assert model.restore_s == pytest.approx(0.007)
        assert model.mttr_s() == pytest.approx(1e-3 + 0.007 + 0.001)


class TestSLOAutoscaler:
    def policy(self, **kw):
        defaults = dict(
            slo_p99_ms=2.0,
            min_replicas=2,
            max_replicas=6,
            cooldown_windows=1,
            queue_high=10.0,
            scale_down_margin=0.5,
        )
        defaults.update(kw)
        return AutoscalePolicy(**defaults)

    def test_scales_up_on_hot_p99(self):
        scaler = SLOAutoscaler(self.policy())
        assert scaler.decide(5.0, queue_depth=0.0, current_replicas=3) == 4

    def test_scales_up_on_deep_queues(self):
        scaler = SLOAutoscaler(self.policy())
        assert scaler.decide(1.0, queue_depth=50.0, current_replicas=3) == 4

    def test_respects_max_replicas(self):
        scaler = SLOAutoscaler(self.policy())
        assert scaler.decide(5.0, queue_depth=0.0, current_replicas=6) == 6

    def test_scales_down_when_cold_and_respects_min(self):
        scaler = SLOAutoscaler(self.policy())
        assert scaler.decide(0.5, queue_depth=0.0, current_replicas=3) == 2
        scaler = SLOAutoscaler(self.policy())
        assert scaler.decide(0.5, queue_depth=0.0, current_replicas=2) == 2

    def test_holds_between_margins(self):
        scaler = SLOAutoscaler(self.policy())
        assert scaler.decide(1.5, queue_depth=1.0, current_replicas=3) == 3

    def test_cooldown_suppresses_the_next_action(self):
        scaler = SLOAutoscaler(self.policy(cooldown_windows=1))
        assert scaler.decide(5.0, queue_depth=0.0, current_replicas=3) == 4
        # Still hot, but the cooldown window absorbs the observation.
        assert scaler.decide(5.0, queue_depth=0.0, current_replicas=4) == 4
        assert scaler.decide(5.0, queue_depth=0.0, current_replicas=4) == 5

    def test_reset_clears_cooldown(self):
        scaler = SLOAutoscaler(self.policy(cooldown_windows=3))
        scaler.decide(5.0, queue_depth=0.0, current_replicas=3)
        scaler.reset()
        assert scaler.decide(5.0, queue_depth=0.0, current_replicas=3) == 4

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AutoscalePolicy(min_replicas=4, max_replicas=2)
        with pytest.raises(ValueError):
            AutoscalePolicy(scale_down_margin=1.0)
        with pytest.raises(ValueError):
            AutoscalePolicy(queue_high=0.0)
        with pytest.raises(ValueError, match="scale_step"):
            AutoscalePolicy(scale_step=0)
        for window_s in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="window_s"):
                AutoscalePolicy(window_s=window_s)


class TestResilientFleetOracle:
    @pytest.mark.parametrize("router", ["round_robin", "hash"])
    def test_no_fault_replay_is_bit_identical_to_serving_fleet(
        self, router
    ):
        requests = trace(n=1500)
        plain = ServingFleet(
            SimCluster(Cluster(num_hosts=4, gpus_per_host=2)),
            tiny_model(),
            Placement("disaggregated", emb_hosts=1),
            MicroBatcher(16, 0.001),
            router=router,
            num_replicas=3,
            cache_rows=256,
        ).serve(requests)
        resilient = make_resilient(
            router=router, num_replicas=3, cache_rows=256
        ).serve(requests)
        assert resilient.fleet.to_dict() == plain.to_dict()
        assert resilient.num_lost == 0
        assert resilient.num_retried == 0

    def test_fault_replay_is_bit_reproducible(self):
        faults = FaultConfig(seed=5, **STORM)
        reports = [
            make_resilient(
                num_replicas=3,
                cache_rows=256,
                faults=faults,
                recovery=RecoveryModel(checkpoint_period_s=0.002),
            ).serve(trace(n=1500))
            for _ in range(2)
        ]
        assert reports[0].to_dict() == reports[1].to_dict()


def crash_at(at_s: float, replica: int = 0) -> FaultConfig:
    return FaultConfig(
        events=(FaultEvent("replica_crash", at_s=at_s, replica=replica),)
    )


class TestFaultedReplay:
    def test_served_plus_lost_equals_offered(self):
        configs = (
            FaultConfig(seed=5, **STORM),
            crash_at(0.005),
            FaultConfig(),
        )
        retries = (RetryPolicy(), RetryPolicy(max_retries=0), RetryPolicy())
        for faults, retry in zip(configs, retries):
            report = make_resilient(
                num_replicas=3, cache_rows=256, faults=faults, retry=retry
            ).serve(trace(n=1200))
            assert report.num_served + report.num_lost == report.num_offered
            assert report.num_served == report.fleet.fleet.num_requests

    def test_crash_without_retries_loses_what_retries_save(self):
        requests = trace(n=2000)
        kw = dict(num_replicas=3, cache_rows=256, faults=crash_at(0.01))
        no_retry = make_resilient(
            retry=RetryPolicy(timeout_ms=0.5, max_retries=0), **kw
        ).serve(requests)
        with_retry = make_resilient(
            retry=RetryPolicy(timeout_ms=0.5, max_retries=3), **kw
        ).serve(requests)
        assert no_retry.num_lost > 0
        assert with_retry.num_lost == 0
        assert with_retry.num_retried > 0
        # A retried request pays the timeout plus a backoff before it
        # lands on a live replica — visible, bounded latency.
        assert (
            with_retry.fleet.fleet.latency_ms["max"]
            >= no_retry.fleet.fleet.latency_ms["max"]
        )

    def test_recovery_restores_the_crashed_replica(self):
        requests = trace(n=2000)
        kw = dict(
            num_replicas=3,
            cache_rows=256,
            faults=crash_at(0.01),
            retry=RetryPolicy(timeout_ms=0.5, max_retries=3),
        )
        recovered = make_resilient(
            recovery=RecoveryModel(
                detection_s=1e-4, restore_s=1e-4, checkpoint_period_s=0.001
            ),
            **kw,
        ).serve(requests)
        assert len(recovered.crashes) == 1
        assert recovered.mttr_s > 0
        dead = make_resilient(recovery=None, **kw).serve(requests)
        assert dead.mttr_s == 0.0
        # The revived replica takes traffic again; without recovery the
        # remaining two replicas carry the whole tail.
        served_by = [
            rep.num_requests for rep in recovered.fleet.replicas.values()
        ]
        assert sum(r > 0 for r in served_by) == 3

    def test_reported_mttr_matches_the_model_and_is_monotone(self):
        requests = trace(n=1500)
        mttrs = []
        for period in (0.001, 0.004, 0.016):
            model = RecoveryModel(
                detection_s=1e-4,
                restore_s=1e-4,
                checkpoint_period_s=period,
            )
            report = make_resilient(
                num_replicas=3,
                cache_rows=256,
                faults=crash_at(0.01),
                recovery=model,
            ).serve(requests)
            assert report.mttr_s == pytest.approx(model.mttr_s())
            mttrs.append(report.mttr_s)
        assert mttrs == sorted(mttrs)
        assert mttrs[0] < mttrs[-1]

    def test_degraded_mode_serves_through_a_fetch_outage(self):
        requests = trace(n=1500)
        outage = FaultConfig(
            events=(
                FaultEvent("fetch_outage", at_s=0.002, duration_s=0.02),
            )
        )
        kw = dict(num_replicas=3, cache_rows=256, faults=outage)
        degraded = make_resilient(
            degraded_mode=True, stale_penalty=0.05, **kw
        ).serve(requests)
        assert degraded.num_lost == 0
        assert degraded.num_degraded > 0
        assert degraded.quality_cost == pytest.approx(
            0.05 * degraded.degraded_fraction
        )
        stalled = make_resilient(degraded_mode=False, **kw).serve(requests)
        with pytest.raises(ValueError, match="stale_penalty"):
            make_resilient(stale_penalty=-0.1, **kw)
        assert stalled.num_degraded == 0
        assert stalled.quality_cost == 0.0
        # Stalling waits the outage out; degraded mode answers now.
        assert (
            stalled.fleet.fleet.latency_ms["max"]
            > degraded.fleet.fleet.latency_ms["max"]
        )

    def test_fetch_degrade_inflates_latency(self):
        requests = trace(n=1500)
        degrade = FaultConfig(
            events=(
                FaultEvent(
                    "fetch_degrade",
                    at_s=0.002,
                    duration_s=0.02,
                    factor=8.0,
                ),
            )
        )
        healthy = make_resilient(num_replicas=3, cache_rows=256).serve(
            requests
        )
        browned = make_resilient(
            num_replicas=3, cache_rows=256, faults=degrade
        ).serve(requests)
        assert (
            browned.fleet.fleet.latency_ms["max"]
            > healthy.fleet.fleet.latency_ms["max"]
        )

    def test_fault_timeline_lands_in_the_report(self):
        report = make_resilient(
            num_replicas=3,
            cache_rows=256,
            faults=FaultConfig(seed=5, **STORM),
            recovery=RecoveryModel(checkpoint_period_s=0.002),
        ).serve(trace(n=1200))
        assert len(report.fault_timeline) == FaultConfig(
            seed=5, **STORM
        ).num_scheduled
        kinds = {e["kind"] for e in report.fault_timeline}
        assert "replica_crash" in kinds


class TestAutoscaledReplay:
    def autoscaler(self, **kw):
        defaults = dict(
            slo_p99_ms=2.0,
            min_replicas=2,
            max_replicas=5,
            cooldown_windows=1,
        )
        defaults.update(kw)
        return SLOAutoscaler(AutoscalePolicy(**defaults))

    def test_windows_and_bounds_are_recorded(self):
        report = make_resilient(
            num_replicas=2,
            cache_rows=256,
            autoscaler=self.autoscaler(),
        ).serve(trace(qps=200_000.0, n=4000))
        assert len(report.windows) > 0
        assert all(2 <= w["replicas"] <= 5 for w in report.windows)
        assert report.slo_p99_ms == pytest.approx(2.0)

    def test_overload_scales_the_fleet_up(self):
        # One replica at a rate far past its capacity: queues build,
        # the controller must grow the fleet.
        report = make_resilient(
            num_replicas=1,
            cache_rows=256,
            autoscaler=self.autoscaler(
                min_replicas=1, slo_p99_ms=0.5, queue_high=4.0
            ),
        ).serve(trace(qps=2_000_000.0, n=6000))
        assert any(
            e["to_replicas"] > e["from_replicas"]
            for e in report.scale_events
        )
        assert max(w["replicas"] for w in report.windows) > 1

    def test_initial_fleet_below_autoscaler_floor_rejected(self):
        with pytest.raises(ValueError):
            make_resilient(
                num_replicas=2,
                cache_rows=256,
                autoscaler=self.autoscaler(min_replicas=3),
            )


class TestFaultSessionWiring:
    def spec(self, **over):
        sections = dict(
            name="fault-wiring",
            cluster=ClusterSpec(num_hosts=4, gpus_per_host=2),
            serve=ServeSpec(
                qps=50_000.0,
                num_requests=1500,
                placement="disaggregated",
                emb_hosts=1,
                fleet_replicas=3,
                cache_rows=256,
                key_space=2000,
            ),
            faults=FaultSpec(
                seed=5,
                replica_crashes=1,
                timeout_ms=0.5,
                detection_ms=0.1,
                restore_ms=0.1,
                checkpoint_period_s=0.001,
            ),
            autoscale=AutoscaleSpec(
                slo_p99_ms=2.0, min_replicas=3, max_replicas=4
            ),
        )
        sections.update(over)
        return RunSpec(**sections)

    def test_fault_spec_round_trips(self):
        spec = self.spec()
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_session_serve_emits_fault_reports(self):
        artifact = Session(self.spec()).serve()
        report = artifact.fault_reports["disaggregated"]
        assert report.num_served + report.num_lost == report.num_offered
        assert artifact.fleet_reports["disaggregated"] is report.fleet
        summary = artifact.summary()
        assert "faults" in summary
        assert (
            summary["faults"]["disaggregated"]["num_offered"]
            == report.num_offered
        )

    def test_session_runs_are_bit_reproducible(self):
        dicts = [
            Session(self.spec())
            .serve()
            .fault_reports["disaggregated"]
            .to_dict()
            for _ in range(2)
        ]
        assert dicts[0] == dicts[1]

    def test_faults_without_fleet_rejected(self):
        with pytest.raises(Exception):
            self.spec(
                serve=ServeSpec(
                    qps=50_000.0,
                    num_requests=1500,
                    placement="disaggregated",
                    emb_hosts=1,
                    cache_rows=256,
                    key_space=2000,
                ),
                autoscale=None,
            )
