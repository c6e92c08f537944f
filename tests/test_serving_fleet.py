"""Tests for the serving fleet (routers, scenarios, fleet replay) and
the serving property suite."""

import numpy as np
import pytest

from repro.api import ClusterSpec, RunSpec, ServeSpec, Session, SpecError
from repro.hardware import Cluster
from repro.serving import (
    ConsistentHashRouter,
    InferenceService,
    LRUEmbeddingCache,
    MicroBatcher,
    Placement,
    PowerOfTwoChoicesRouter,
    ROUTER_POLICIES,
    ReferenceLRUCache,
    RequestStream,
    RoundRobinRouter,
    ServingFleet,
    ServingModel,
    WorkloadConfig,
    make_router,
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


def make_fleet(strategy="disaggregated", cluster=None, **kw) -> ServingFleet:
    sim = SimCluster(
        cluster or Cluster(num_hosts=4, gpus_per_host=2, generation="A100")
    )
    return ServingFleet(
        sim,
        kw.pop("model", tiny_model()),
        Placement(strategy, emb_hosts=kw.pop("emb_hosts", 1)),
        MicroBatcher(
            kw.pop("max_batch_size", 16), kw.pop("max_delay_s", 0.001)
        ),
        **kw,
    )


# ----------------------------------------------------------------------
class TestScenarios:
    @pytest.mark.parametrize(
        "cfg",
        [
            dict(scenario="diurnal", diurnal_period_s=0.02,
                 diurnal_amplitude=0.8),
            dict(scenario="flash", flash_start_s=0.01,
                 flash_duration_s=0.005, flash_factor=6.0),
            dict(churn_keys_per_s=40_000.0),
        ],
        ids=["diurnal", "flash", "churn"],
    )
    def test_streams_are_deterministic_and_sorted(self, cfg):
        config = WorkloadConfig(
            qps=100_000.0, num_requests=1500, key_space=5000, seed=11, **cfg
        )
        a = RequestStream(config).generate()
        assert a == RequestStream(config).generate()
        arrivals = [r.arrival_s for r in a]
        assert arrivals == sorted(arrivals)

    def test_diurnal_load_concentrates_in_the_peak_half(self):
        config = WorkloadConfig(
            qps=100_000.0, num_requests=12_000, scenario="diurnal",
            diurnal_period_s=0.05, diurnal_amplitude=0.9, seed=0,
        )
        t = np.array([r.arrival_s for r in RequestStream(config).generate()])
        phase = (t % 0.05) / 0.05
        # sin > 0 on the first half-period: that's where the peak lives
        peak, trough = np.sum(phase < 0.5), np.sum(phase >= 0.5)
        assert peak > 2.0 * trough

    def test_flash_crowd_multiplies_the_local_rate(self):
        config = WorkloadConfig(
            qps=50_000.0, num_requests=12_000, scenario="flash",
            flash_start_s=0.05, flash_duration_s=0.05, flash_factor=5.0,
            seed=0,
        )
        t = np.array([r.arrival_s for r in RequestStream(config).generate()])
        inside = np.sum((t >= 0.05) & (t < 0.10))
        before = np.sum(t < 0.05)
        assert inside > 2.5 * before  # ~5x modulo Poisson noise

    def test_churn_shifts_keys_by_the_documented_drift(self):
        base_cfg = dict(
            qps=20_000.0, num_requests=400, num_lookups=3,
            key_space=1000, seed=5,
        )
        plain = RequestStream(WorkloadConfig(**base_cfg)).generate()
        drifted = RequestStream(
            WorkloadConfig(churn_keys_per_s=3000.0, **base_cfg)
        ).generate()
        for still, moved in zip(plain, drifted):
            assert moved.arrival_s == still.arrival_s
            shift = int(np.floor(3000.0 * still.arrival_s))
            assert np.array_equal(
                moved.keys, (still.keys + shift) % 1000
            )

    def test_churn_makes_the_cache_relearn(self):
        base_cfg = dict(
            qps=100_000.0, num_requests=4000, num_lookups=8,
            key_space=20_000, skew=1.2, seed=2,
        )
        rates = {}
        for churn in (0.0, 500_000.0):
            stream = RequestStream(
                WorkloadConfig(churn_keys_per_s=churn, **base_cfg)
            )
            cache = LRUEmbeddingCache(512)
            for batch in MicroBatcher(32, 0.001).form_batches(
                stream.generate()
            ):
                cache.probe(batch.keys)
            rates[churn] = cache.stats.hit_rate
        assert rates[500_000.0] < rates[0.0]

    def test_scenario_validation(self):
        with pytest.raises(ValueError, match="scenario"):
            WorkloadConfig(scenario="weekend")
        with pytest.raises(ValueError, match="flash_duration_s"):
            WorkloadConfig(scenario="flash")
        with pytest.raises(ValueError, match="amplitude"):
            WorkloadConfig(scenario="diurnal", diurnal_amplitude=1.5)
        with pytest.raises(ValueError, match="churn"):
            WorkloadConfig(churn_keys_per_s=-1.0)


# ----------------------------------------------------------------------
class TestRouters:
    def test_round_robin_cycles(self):
        router = RoundRobinRouter()
        router.bind(3)
        reqs = trace(n=7)
        assert list(router.route_trace(reqs, 0.001)) == [
            0, 1, 2, 0, 1, 2, 0,
        ]

    def test_hash_router_pins_primary_keys(self):
        router = ConsistentHashRouter()
        router.bind(4)
        reqs = trace(n=500, seed=1)
        assignment = router.route_trace(reqs, 0.001)
        by_key = {}
        for req_, rep in zip(reqs, assignment):
            primary = int(req_.keys[0])
            assert by_key.setdefault(primary, int(rep)) == int(rep)
        assert len(set(assignment.tolist())) == 4  # all replicas used

    def test_hash_router_moves_few_keys_when_fleet_grows(self):
        """The consistent-hashing contract: adding a replica remaps
        only a small slice of the key space."""
        reqs = trace(n=2000, seed=2, key_space=50_000)
        router = ConsistentHashRouter()
        router.bind(8)
        before = router.route_trace(reqs, 0.001)
        router.bind(9)
        after = router.route_trace(reqs, 0.001)
        moved = np.mean(before != after)
        assert moved < 0.35  # ideal 1/9 ~ 0.11, generous slack

    def test_p2c_router_is_seeded_and_in_range(self):
        reqs = trace(n=800, seed=4)
        router = PowerOfTwoChoicesRouter(seed=7)
        router.bind(5)
        a = router.route_trace(reqs, 0.001)
        router.bind(5)
        b = router.route_trace(reqs, 0.001)
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 5

    def test_p2c_balances_a_burst_better_than_hash(self):
        reqs = trace(n=3000, seed=6, qps=500_000.0, skew=1.3)
        counts = {}
        for name in ("hash", "p2c"):
            router = make_router(name)
            router.bind(6)
            assignment = router.route_trace(reqs, 0.001)
            counts[name] = np.bincount(assignment, minlength=6)
        assert counts["p2c"].max() < counts["hash"].max()

    def test_make_router_and_bind_validation(self):
        with pytest.raises(ValueError, match="router policy"):
            make_router("random")
        with pytest.raises(ValueError, match="num_replicas"):
            RoundRobinRouter().bind(0)
        with pytest.raises(ValueError, match="vnodes"):
            ConsistentHashRouter(vnodes=0)


# ----------------------------------------------------------------------
class TestRouterMembership:
    """Live-membership masks: dead or drained replicas must never be
    routed to, under any policy and any membership history."""

    def test_set_live_validation(self):
        router = RoundRobinRouter()
        router.bind(4)
        with pytest.raises(ValueError, match="length 4"):
            router.set_live([True, False])
        with pytest.raises(ValueError, match="at least one"):
            router.set_live([False] * 4)

    def test_all_live_matches_pre_membership_routing(self):
        """With every replica live, set_live is a no-op: the routed
        assignment is identical to a router that never heard of
        membership."""
        reqs = trace(n=600, seed=8)
        for name in ROUTER_POLICIES:
            fresh = make_router(name)
            fresh.bind(5)
            touched = make_router(name)
            touched.bind(5)
            touched.set_live([True] * 5)
            assert np.array_equal(
                fresh.route_trace(reqs, 0.001),
                touched.route_trace(reqs, 0.001),
            )

    def test_dead_replicas_never_routed_fuzz(self):
        """Fuzz membership churn: random masks between bursts of
        route_one calls; every routed replica must be live at the time
        of routing, for every policy."""
        rng = np.random.default_rng(42)
        reqs = trace(n=400, seed=9)
        for name in ROUTER_POLICIES:
            router = make_router(name)
            router.bind(6)
            cursor = 0
            for _ in range(24):
                mask = rng.random(6) < 0.6
                if not mask.any():
                    mask[int(rng.integers(0, 6))] = True
                router.set_live(mask)
                live = set(router.live_replicas.tolist())
                depths = rng.integers(0, 8, size=6).astype(np.float64)
                for _ in range(12):
                    req_ = reqs[cursor % len(reqs)]
                    cursor += 1
                    rep = router.route_one(
                        req_, req_.arrival_s, depths=depths
                    )
                    assert rep in live

    def test_route_trace_respects_membership(self):
        reqs = trace(n=600, seed=10)
        for name in ROUTER_POLICIES:
            router = make_router(name)
            router.bind(5)
            router.set_live([True, False, True, False, True])
            assignment = router.route_trace(reqs, 0.001)
            assert set(assignment.tolist()) <= {0, 2, 4}

    def test_hash_ring_rebuild_moves_only_the_dead_replicas_keys(self):
        """Consistent hashing honored on failure: killing one replica
        re-homes only the keys it owned — survivors keep theirs."""
        reqs = trace(n=2000, seed=2, key_space=50_000)
        router = ConsistentHashRouter()
        router.bind(6)
        before = router.route_trace(reqs, 0.001)
        router.set_live([True, True, True, False, True, True])
        after = router.route_trace(reqs, 0.001)
        survivors = before != 3
        assert np.array_equal(before[survivors], after[survivors])
        assert not np.any(after == 3)
        # Revival restores the original assignment exactly.
        router.set_live([True] * 6)
        assert np.array_equal(before, router.route_trace(reqs, 0.001))


# ----------------------------------------------------------------------
class TestServingFleet:
    def test_every_request_served_exactly_once(self):
        reqs = trace(n=1111)
        report = make_fleet(cache_rows=256).serve(reqs)
        assert report.fleet.num_requests == 1111
        assert sum(report.requests_per_replica) == 1111
        assert sum(r.num_requests for r in report.replicas.values()) == 1111
        assert report.num_replicas == 3  # 4 hosts - 1 embedding host

    def test_fleet_is_deterministic(self):
        for policy in ROUTER_POLICIES:
            a = make_fleet(router=policy, cache_rows=128).serve(trace())
            b = make_fleet(router=policy, cache_rows=128).serve(trace())
            assert a.to_dict() == b.to_dict()

    def test_single_replica_fleet_matches_single_service(self):
        """A 1-replica fleet is the single service with its own batcher
        and cache: same latencies, same cache accounting."""
        reqs = trace(n=900)
        cluster = Cluster(num_hosts=2, gpus_per_host=2, generation="A100")
        fleet_report = make_fleet(
            cluster=cluster, cache_rows=256, num_replicas=1
        ).serve(reqs)
        sim = SimCluster(cluster)
        svc = InferenceService(
            sim,
            tiny_model(),
            Placement("disaggregated", emb_hosts=1),
            MicroBatcher(16, 0.001),
            LRUEmbeddingCache(256),
        )
        single = svc.serve(reqs)
        agg = fleet_report.fleet
        assert agg.latency_ms == single.latency_ms
        assert agg.cache_hits == single.cache_hits
        assert agg.cache_misses == single.cache_misses
        assert agg.num_batches == single.num_batches

    def test_vectorized_and_reference_caches_give_identical_fleets(self):
        reqs = trace(n=1200, skew=1.1)
        reports = {}
        for factory in (
            lambda: LRUEmbeddingCache(200),
            lambda: ReferenceLRUCache(200),
        ):
            reports[factory().__class__.__name__] = make_fleet(
                router="hash", cache_factory=factory
            ).serve(reqs)
        assert (
            reports["LRUEmbeddingCache"].to_dict()
            == reports["ReferenceLRUCache"].to_dict()
        )

    def test_report_snapshot_isolation_on_reuse(self):
        """Serving a second trace must report only that trace — not
        accumulate events or cache counters from the first."""
        fleet = make_fleet(cache_rows=256)
        first = fleet.serve(trace(n=800))
        second = fleet.serve(trace(n=800))
        assert (
            second.fleet.cache_hits + second.fleet.cache_misses
            == first.fleet.cache_hits + first.fleet.cache_misses
        )
        # warm caches only improve the second pass
        assert second.fleet.cache_hit_rate > first.fleet.cache_hit_rate
        assert second.fleet.breakdown_ms["compute"] == pytest.approx(
            first.fleet.breakdown_ms["compute"], rel=0.01
        )

    def test_breakdown_shape_matches_aggregate_on_all_hit_trace(self):
        """Phase keys exist only where events were recorded — the same
        convention for replica reports as for the timeline-derived
        aggregate, so consumers can read them uniformly."""
        fleet = make_fleet(cache_rows=256)
        for cache in fleet.caches:
            cache.prefill(np.arange(100))
        report = fleet.serve(trace(n=400, key_space=100))
        assert "embedding_comm" not in report.fleet.breakdown_ms
        for replica_report in report.replicas.values():
            assert set(replica_report.breakdown_ms) == {"compute", "queue"}
        assert report.fleet.cache_hit_rate == 1.0

    def test_oversubscribed_replicas_time_share_hosts(self):
        """More replicas than dense hosts slows each replica's dense
        forward by the oversubscription factor."""
        cluster = Cluster(num_hosts=2, gpus_per_host=2, generation="A100")
        lean = make_fleet(cluster=cluster, num_replicas=1)
        packed = make_fleet(cluster=cluster, num_replicas=4)
        assert lean.host_share == 1.0
        assert packed.host_share == pytest.approx(0.25)
        t_lean = lean.engine.dense_seconds(16, lean.host_share)
        t_packed = packed.engine.dense_seconds(16, packed.host_share)
        assert t_packed == pytest.approx(4.0 * t_lean)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            make_fleet().serve([])


# ----------------------------------------------------------------------
class TestServingProperties:
    """The serving property suite: invariants any replay must satisfy."""

    def test_latency_at_least_batching_delay_single_service(self):
        reqs = trace(n=1500, qps=200_000.0)
        batcher = MicroBatcher(16, 0.002)
        sim = SimCluster(Cluster(4, 2, "A100"))
        svc = InferenceService(
            sim,
            tiny_model(),
            Placement("colocated"),
            batcher,
            LRUEmbeddingCache(256),
        )
        report = svc.serve(reqs)
        batches = batcher.form_batches(reqs)
        waits = [
            batch.ready_s - req.arrival_s
            for batch in batches
            for req in batch.requests
        ]
        assert report.latency_ms["mean"] >= np.mean(waits) * 1e3
        assert report.latency_ms["max"] >= np.max(waits) * 1e3

    def test_latency_at_least_batching_delay_fleet(self):
        reqs = trace(n=1500, qps=200_000.0)
        batcher = MicroBatcher(16, 0.002)
        fleet = make_fleet(
            max_batch_size=16, max_delay_s=0.002, cache_rows=256
        )
        report = fleet.serve(reqs)
        # round_robin on a sorted trace is reproducible here: replica i
        # serves requests i, i+N, i+2N, ...
        waits = []
        for replica in range(fleet.num_replicas):
            mine = reqs[replica :: fleet.num_replicas]
            waits.extend(
                batch.ready_s - req.arrival_s
                for batch in batcher.form_batches(mine)
                for req in batch.requests
            )
        assert report.fleet.latency_ms["mean"] >= np.mean(waits) * 1e3

    @pytest.mark.parametrize("skew", [0.8, 1.2])
    def test_hit_rate_bounded_by_hot_mass(self, skew):
        """An LRU of C rows cannot beat the probability mass of the C
        hottest rows (RequestStream.hot_fraction)."""
        capacity = 1000
        config = WorkloadConfig(
            qps=200_000.0, num_requests=6000, num_lookups=8,
            key_space=20_000, skew=skew, seed=4,
        )
        stream = RequestStream(config)
        cache = LRUEmbeddingCache(capacity)
        for batch in MicroBatcher(32, 0.001).form_batches(
            stream.generate()
        ):
            cache.probe(batch.keys)
        assert cache.stats.hit_rate <= stream.hot_fraction(capacity)

    def test_fleet_hit_rate_bounded_by_hot_mass(self):
        capacity = 1000
        config = WorkloadConfig(
            qps=500_000.0, num_requests=6000, num_lookups=8,
            key_space=20_000, skew=1.2, seed=4,
        )
        stream = RequestStream(config)
        for policy in ROUTER_POLICIES:
            report = make_fleet(
                router=policy, cache_rows=capacity,
                max_batch_size=32, model=tiny_model(num_lookups=8),
            ).serve(stream.generate())
            assert report.fleet.cache_hit_rate <= stream.hot_fraction(
                capacity
            )

    def test_percentiles_ordered_and_throughput_positive(self):
        for policy in ROUTER_POLICIES:
            report = make_fleet(router=policy, cache_rows=64).serve(
                trace(n=700)
            )
            for rep in [report.fleet, *report.replicas.values()]:
                lat = rep.latency_ms
                assert lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
                assert rep.throughput_rps > 0


# ----------------------------------------------------------------------
class TestFleetSpec:
    def test_fleet_spec_round_trips(self):
        spec = RunSpec(
            name="fleet",
            cluster=ClusterSpec(num_hosts=8, gpus_per_host=4),
            serve=ServeSpec(
                qps=250_000.0,
                num_requests=999,
                placement="disaggregated",
                emb_hosts=2,
                fleet_replicas=6,
                router="p2c",
                scenario="flash",
                flash_start_s=0.001,
                flash_duration_s=0.001,
                flash_factor=4.0,
                churn_keys_per_s=10_000.0,
            ),
        )
        assert RunSpec.from_json(spec.to_json()) == spec
        assert spec.serve.uses_fleet

    def test_unused_knobs_must_stay_default(self):
        with pytest.raises(SpecError, match="flash_factor"):
            ServeSpec(flash_factor=2.0)
        with pytest.raises(SpecError, match="router"):
            ServeSpec(router="p2c")  # no fleet_replicas
        with pytest.raises(SpecError, match="scenario"):
            ServeSpec(scenario="weekend")
        with pytest.raises(SpecError, match="fleet_replicas"):
            ServeSpec(fleet_replicas=0)

    def test_session_fleet_stage(self):
        spec = RunSpec(
            name="session-fleet",
            cluster=ClusterSpec(num_hosts=4, gpus_per_host=2),
            serve=ServeSpec(
                qps=100_000.0,
                num_requests=1200,
                emb_hosts=1,
                fleet_replicas=3,
                router="hash",
            ),
        )
        session = Session(spec)
        art = session.serve()
        assert set(art.fleet_reports) == {"colocated", "disaggregated"}
        assert art.reports["colocated"] is (
            art.fleet_reports["colocated"].fleet
        )
        result = session.run()
        assert result.serve["fleet"]["disaggregated"]["router"] == "hash"
        assert "fleet [disaggregated]" in result.render()
        # every replica's report is in the JSON twin
        detail = result.serve["fleet"]["colocated"]
        assert len(detail["replicas"]) == 3
