"""Micro-benchmarks of the serving plane's hot paths.

Times the vectorized LRU embedding cache against the per-key reference
walk on a realistic micro-batched trace, and the fleet replay end to
end.  Replay wall-clock at scale is ``perfbench/run.py``'s
``serve_steady`` / ``serve_chaos`` workloads, compared run against run
with ``perfbench/compare.py`` — these stay small enough for every CI
run and assert conservative floors so a contended runner cannot flake
them.

The generated stream is a ``RequestTrace`` (three arrays) and every
batch's ``keys`` is a reshaped view of its rows, so the ``batch_keys``
fixture costs one pass over the arrivals; the cache replays time the
probes alone, the fleet replay times routing, batching, probing,
pricing and report building over the trace's arrays.
"""

import time

import numpy as np
import pytest

from repro.hardware import Cluster
from repro.serving import (
    LRUEmbeddingCache,
    MicroBatcher,
    Placement,
    RequestStream,
    ServingFleet,
    ServingModel,
    WorkloadConfig,
)
from repro.sim import SimCluster
from tests.util import ReferenceLRUCache

NUM_REQUESTS, NUM_LOOKUPS, KEY_SPACE, CACHE_ROWS = 20_000, 26, 100_000, 16_384
MAX_BATCH = 256


@pytest.fixture(scope="module")
def batch_keys():
    stream = RequestStream(
        WorkloadConfig(
            qps=500_000.0,
            num_requests=NUM_REQUESTS,
            num_lookups=NUM_LOOKUPS,
            key_space=KEY_SPACE,
            skew=1.0,
            seed=0,
        )
    )
    batches = MicroBatcher(MAX_BATCH, 0.001).form_batches(stream.generate())
    return [batch.keys for batch in batches]


def replay(cache, key_sets) -> float:
    start = time.perf_counter()
    for keys in key_sets:
        cache.probe(keys)
    return time.perf_counter() - start


def test_bench_vectorized_cache_replay(benchmark, batch_keys):
    benchmark(replay, LRUEmbeddingCache(CACHE_ROWS), batch_keys)


def test_bench_reference_cache_replay(benchmark, batch_keys):
    benchmark(replay, ReferenceLRUCache(CACHE_ROWS), batch_keys)


def test_vectorized_cache_beats_reference(batch_keys):
    """Regression floor for the cache fast path.  Best-of-3 on the
    vectorized side so one scheduler hiccup cannot flake CI."""
    ref_seconds = replay(ReferenceLRUCache(CACHE_ROWS), batch_keys)
    fast_seconds = min(
        replay(LRUEmbeddingCache(CACHE_ROWS), batch_keys) for _ in range(3)
    )
    speedup = ref_seconds / fast_seconds
    assert speedup > 3.0, f"vectorized cache only {speedup:.2f}x faster"


def test_vectorized_cache_accounting_matches_reference(batch_keys):
    fast, ref = LRUEmbeddingCache(CACHE_ROWS), ReferenceLRUCache(CACHE_ROWS)
    for keys in batch_keys[:40]:
        fast_hits, fast_misses = fast.probe(keys)
        ref_hits, ref_misses = ref.probe(keys)
        assert fast_hits == ref_hits
        assert np.array_equal(fast_misses, ref_misses)
    assert fast.stats == ref.stats


def test_bench_fleet_replay(benchmark):
    reqs = RequestStream(
        WorkloadConfig(
            qps=1_000_000.0,
            num_requests=5_000,
            num_lookups=NUM_LOOKUPS,
            key_space=KEY_SPACE,
            skew=1.0,
            seed=0,
        )
    ).generate()
    cluster = Cluster(num_hosts=8, gpus_per_host=4, generation="A100")
    model = ServingModel(
        name="dlrm-like", num_lookups=NUM_LOOKUPS, embedding_dim=128,
        dense_mflops=5.0,
    )

    def serve():
        fleet = ServingFleet(
            SimCluster(cluster),
            model,
            Placement("disaggregated", emb_hosts=2),
            MicroBatcher(64, 0.001),
            router="round_robin",
            cache_rows=CACHE_ROWS,
        )
        return fleet.serve(reqs)

    report = benchmark(serve)
    assert report.fleet.num_requests == 5_000
    assert report.fleet.throughput_rps > 0
