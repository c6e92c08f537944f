"""Tests for the tiered storage hierarchy (chain, engine, pricing)."""

import numpy as np
import pytest

from repro.hardware import Cluster, memory_tiers
from repro.serving import (
    CacheChain,
    InferenceService,
    LRUEmbeddingCache,
    MicroBatcher,
    Placement,
    RequestStream,
    ServingFleet,
    ServingModel,
    ServingTier,
    TieredPlacementEngine,
    TieredStorage,
    WorkloadConfig,
    build_storage,
    dollars_per_1k_requests,
    storage_dollars,
)
from repro.sim import SimCluster
from tests.util import ReferenceLRUCache


def tiny_model(**overrides) -> ServingModel:
    kwargs = dict(
        name="tiny", num_lookups=4, embedding_dim=16, dense_mflops=1.0
    )
    kwargs.update(overrides)
    return ServingModel(**kwargs)


def trace(num_requests=1500, key_space=900, skew=1.1, seed=7):
    return RequestStream(
        WorkloadConfig(
            qps=30_000.0,
            num_requests=num_requests,
            num_lookups=6,
            key_space=key_space,
            skew=skew,
            seed=seed,
        )
    ).generate()


# ----------------------------------------------------------------------
class TestCacheChain:
    def test_requires_a_level(self):
        with pytest.raises(ValueError, match="at least one level"):
            CacheChain([])

    def test_single_level_matches_bare_cache(self):
        """A one-level chain is accounting-identical to its cache."""
        chain, bare = CacheChain([8]), LRUEmbeddingCache(8)
        rng = np.random.default_rng(0)
        for _ in range(30):
            keys = rng.integers(0, 20, size=int(rng.integers(0, 10)))
            got, want = chain.probe(keys), bare.probe(keys)
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1])
        assert chain.stats == bare.stats
        assert len(chain) == len(bare)

    def test_lower_level_hit_promotes_upward(self):
        """Inclusive chain: a DRAM hit seats the row in HBM too."""
        chain = CacheChain([2, 8])
        chain.probe(np.array([1, 2, 3, 4]))  # all miss; 3,4 end in HBM
        hits, misses = chain.probe(np.array([1]))
        assert hits == 1  # HBM evicted 1, but the DRAM level held it
        assert misses.size == 0
        assert chain.last_level_hits == [0, 1]
        assert 1 in chain.level_contents()[0]  # promoted into level 0

    def test_prefill_fills_top_down_and_dedupes(self):
        chain = CacheChain([2, 3])
        seeded = chain.prefill(np.array([5, 5, 6, 7, 8, 9, 10]))
        assert seeded == 5  # 2 + 3 capacity, duplicate 5 dropped
        top, bottom = chain.level_contents()
        assert set(top) == {5, 6}  # hottest-first into the fast level
        assert set(bottom) == {7, 8, 9}
        assert chain.stats.hits == 0 and chain.stats.misses == 0

    def test_zero_capacity_level_is_a_pass_through(self):
        chain = CacheChain([0, 4])
        hits, misses = chain.probe(np.array([1, 2]))
        assert hits == 0 and misses.size == 2
        hits, _ = chain.probe(np.array([1, 2]))
        assert hits == 2
        assert chain.last_level_hits == [0, 2]

    def test_chain_matches_reference_chain_fuzz(self):
        """Acceptance: the vectorized chain reproduces a chain of
        reference caches bit-for-bit under interleaved prefill / probe
        / eviction pressure, including zero-capacity levels."""
        rng = np.random.default_rng(42)
        for _ in range(40):
            depth = int(rng.integers(1, 4))
            caps = [int(rng.integers(0, 24)) for _ in range(depth)]
            fast = CacheChain(caps)
            ref = CacheChain(caps, cache_factory=ReferenceLRUCache)
            for _ in range(30):
                keys = rng.integers(0, 40, size=int(rng.integers(0, 16)))
                if rng.integers(0, 4) == 0:
                    assert fast.prefill(keys) == ref.prefill(keys)
                else:
                    got, want = fast.probe(keys), ref.probe(keys)
                    assert got[0] == want[0]
                    assert np.array_equal(got[1], want[1])
                    assert fast.last_level_hits == ref.last_level_hits
                assert len(fast) == len(ref)
                assert fast.stats == ref.stats
                for a, b in zip(fast.level_contents(), ref.level_contents()):
                    assert np.array_equal(a, b)


# ----------------------------------------------------------------------
class TestTieredStorage:
    def test_level0_must_be_hbm(self):
        tiers = memory_tiers("A100")
        with pytest.raises(ValueError, match="level 0 must be"):
            TieredStorage(
                levels=(ServingTier(tiers["dram"], 16),),
                backing=tiers["remote"],
            )

    def test_levels_follow_tier_order(self):
        tiers = memory_tiers("A100")
        with pytest.raises(ValueError, match="tier order"):
            TieredStorage(
                levels=(
                    ServingTier(tiers["hbm"], 4),
                    ServingTier(tiers["ssd"], 64),
                    ServingTier(tiers["dram"], 16),
                ),
                backing=tiers["remote"],
            )

    def test_remote_cannot_be_a_chain_level(self):
        tiers = memory_tiers("A100")
        with pytest.raises(ValueError, match="local tier"):
            TieredStorage(
                levels=(
                    ServingTier(tiers["hbm"], 4),
                    ServingTier(tiers["remote"], 64),
                ),
                backing=tiers["hbm"],
            )

    def test_backing_must_be_hbm_or_remote(self):
        tiers = memory_tiers("A100")
        with pytest.raises(ValueError, match="backing"):
            TieredStorage(
                levels=(ServingTier(tiers["hbm"], 4),),
                backing=tiers["ssd"],
            )

    def test_build_storage_lengths_must_match(self):
        with pytest.raises(ValueError, match="equal length"):
            build_storage("A100", 16, levels=("dram",), cache_rows=())

    def test_build_storage_rejects_unknown_backing(self):
        with pytest.raises(ValueError, match="unknown backing 'l2'"):
            build_storage("A100", 16, backing="l2")

    @pytest.mark.parametrize("rows", [1.5, True])
    def test_level_rows_must_be_ints(self, rows):
        with pytest.raises(ValueError, match="ints >= 0"):
            build_storage("A100", 16, levels=("dram",), cache_rows=(rows,))

    def test_build_storage_resolves_presets(self):
        storage = build_storage(
            "A100", 16, levels=("dram", "ssd"), cache_rows=(64, 256)
        )
        assert [t.spec.name for t in storage.levels] == [
            "hbm", "dram", "ssd",
        ]
        assert storage.capacity_rows == 16 + 64 + 256
        assert storage.backing.name == "remote"


# ----------------------------------------------------------------------
class TestBitIdenticalPreset:
    """The tentpole acceptance: the classic single-tier paths are
    reproducible bit-for-bit as degenerate presets of the tiered
    engine."""

    @pytest.mark.parametrize("strategy", ["colocated", "disaggregated"])
    def test_service_reports_identical(self, strategy):
        reqs = trace()
        reports = {}
        for tiered in (False, True):
            sim = SimCluster(Cluster(4, 2, "A100"))
            placement = Placement(strategy, emb_hosts=1)
            batcher = MicroBatcher(16, 0.001)
            if tiered:
                storage = build_storage("A100", 256, backing="hbm")
                svc = InferenceService(
                    sim,
                    tiny_model(),
                    placement,
                    batcher,
                    storage.make_chain(),
                    TieredPlacementEngine(
                        sim, tiny_model(), placement, storage
                    ),
                )
            else:
                svc = InferenceService(
                    sim,
                    tiny_model(),
                    placement,
                    batcher,
                    LRUEmbeddingCache(256),
                )
            reports[tiered] = svc.serve(reqs).to_dict()
        assert reports[False] == reports[True]

    def test_fleet_reports_identical(self):
        reqs = trace()
        reports = {}
        for tiered in (False, True):
            sim = SimCluster(Cluster(4, 2, "A100"))
            placement = Placement("disaggregated", emb_hosts=1)
            batcher = MicroBatcher(16, 0.001)
            if tiered:
                storage = build_storage("A100", 256, backing="hbm")
                fleet = ServingFleet(
                    sim,
                    tiny_model(),
                    placement,
                    batcher,
                    router="p2c",
                    num_replicas=3,
                    cache_factory=storage.make_chain,
                    engine=TieredPlacementEngine(
                        sim, tiny_model(), placement, storage
                    ),
                )
            else:
                fleet = ServingFleet(
                    sim,
                    tiny_model(),
                    placement,
                    batcher,
                    router="p2c",
                    num_replicas=3,
                    cache_rows=256,
                )
            reports[tiered] = fleet.serve(reqs).to_dict()
        assert reports[False] == reports[True]


# ----------------------------------------------------------------------
class TestTieredPricing:
    def _serve(self, storage):
        sim = SimCluster(Cluster(4, 2, "A100"))
        placement = Placement("disaggregated", emb_hosts=1)
        svc = InferenceService(
            sim,
            tiny_model(),
            placement,
            MicroBatcher(16, 0.001),
            storage.make_chain(),
            TieredPlacementEngine(sim, tiny_model(), placement, storage),
        )
        return svc.serve(trace())

    def test_dram_level_raises_hit_rate(self):
        base = self._serve(build_storage("A100", 128, backing="hbm"))
        deep = self._serve(
            build_storage(
                "A100", 128, levels=("dram",), cache_rows=(512,),
                backing="hbm",
            )
        )
        assert deep.cache_hit_rate > base.cache_hit_rate

    def test_remote_backing_costs_latency(self):
        """Same chain, remote vs HBM backing: the PS hop shows up in
        the tail."""
        hbm = self._serve(build_storage("A100", 128, backing="hbm"))
        remote = self._serve(build_storage("A100", 128, backing="remote"))
        assert remote.latency_ms["p99"] > hbm.latency_ms["p99"]

    def test_chain_extra_seconds_prices_below_hbm_hits(self):
        storage = build_storage(
            "A100", 2, levels=("dram",), cache_rows=(64,), backing="hbm"
        )
        sim = SimCluster(Cluster(4, 2, "A100"))
        model = tiny_model()
        engine = TieredPlacementEngine(
            sim, model, Placement("colocated"), storage
        )
        chain = storage.make_chain()
        chain.probe(np.arange(8))  # cold: all miss
        assert engine.chain_extra_seconds(chain) == 0.0
        chain.probe(np.arange(8))  # HBM holds 2, DRAM serves the rest
        hits = chain.last_level_hits[1]
        assert hits > 0
        dram = storage.levels[1].spec
        expected = dram.latency_s + (
            2.0 * hits * model.row_bytes / dram.bytes_per_s
        )
        assert engine.chain_extra_seconds(chain) == pytest.approx(expected)

    def test_plain_cache_prices_no_chain_extra(self):
        storage = build_storage("A100", 8, backing="hbm")
        engine = TieredPlacementEngine(
            SimCluster(Cluster(4, 2, "A100")),
            tiny_model(),
            Placement("colocated"),
            storage,
        )
        assert engine.chain_extra_seconds(LRUEmbeddingCache(8)) == 0.0


# ----------------------------------------------------------------------
class TestDollars:
    def test_storage_dollars_prices_chain_and_backing(self):
        storage = build_storage(
            "A100", 1000, levels=("dram",), cache_rows=(2000,),
            backing="remote",
        )
        tiers = memory_tiers("A100")
        row_bytes = 512
        got = storage_dollars(storage, row_bytes, backing_rows=10_000,
                              num_replicas=3)
        chain = (
            1000 * row_bytes / 1e9 * tiers["hbm"].dollars_per_gb
            + 2000 * row_bytes / 1e9 * tiers["dram"].dollars_per_gb
        )
        back = 10_000 * row_bytes / 1e9 * tiers["remote"].dollars_per_gb
        assert got == pytest.approx(3 * chain + back)

    def test_hbm_backing_costs_more_than_remote(self):
        """The experiment's premise: backing the full table in HBM is
        the expensive arm."""
        row_bytes, rows = 512, 1_000_000
        hbm = storage_dollars(
            build_storage("A100", 1000, backing="hbm"), row_bytes, rows
        )
        remote = storage_dollars(
            build_storage("A100", 1000, backing="remote"), row_bytes, rows
        )
        assert hbm > 2 * remote

    def test_dollars_per_1k_requests(self):
        assert dollars_per_1k_requests(
            100.0, 1000.0, amortization_s=1.0
        ) == pytest.approx(100.0)

    def test_zero_throughput_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            dollars_per_1k_requests(1.0, 0.0)
