"""Priced inference serving: request streams -> batches -> tail latency.

The training side of this repository models *throughput* (seconds per
iteration); serving cares about *tail latency under load*.  This
package closes that gap with a discrete-event inference simulator built
on the same cost-model machinery:

- :mod:`repro.serving.workload` — Poisson request streams with
  hot-key skew, plus diurnal / flash-crowd / hot-set-churn scenarios;
- :mod:`repro.serving.batcher` — dynamic micro-batching
  (flush-on-full / flush-on-deadline);
- :mod:`repro.serving.cache` — LRU embedding cache with hit-rate
  accounting, vectorized per batch over int32 recency state;
- :mod:`repro.serving.replay` — the one replay core: an event loop
  over replica *slots* (a batch queue, a cache, ``k`` servers) that
  merges the arrival-sorted trace against a heap of control events,
  probes each closed batch's cache and prices it through
  :class:`~repro.comm.cost_model.CollectiveCostModel` on a
  :class:`~repro.sim.SimCluster`.  The next three modules are its
  front doors — three configurations, no second loop:
- :mod:`repro.serving.service` — the placement engine, the
  p50/p95/p99 + throughput + per-phase :class:`ServingReport`, and the
  :class:`InferenceService` (one slot, a server per dense host, no
  router) comparing colocated vs disaggregated embedding placement;
- :mod:`repro.serving.fleet` — the :class:`ServingFleet`: N
  one-server slots, each with its own queue and cache, behind a
  pluggable router (round-robin / consistent-hash /
  power-of-two-choices) that routes the whole trace up front;
- :mod:`repro.serving.tiers` — the tiered storage hierarchy: a
  multi-level :class:`CacheChain` (HBM/DRAM/SSD) over an HBM or
  remote-parameter-server backing, priced per
  :class:`~repro.hardware.MemoryTierSpec`, with the classic single-tier
  path as the bit-identical degenerate preset;
- :mod:`repro.serving.faults` — seeded fault injection (replica
  crash/hang, fetch-tier degradation/outage), client-side
  timeout/retry/backoff, degraded-mode serving and an MTTR model for
  crash recovery; the :class:`ResilientFleet` hands them to the same
  loop as a control schedule and routes against the live membership
  (per epoch for the hash router, per arrival for the others);
- :mod:`repro.serving.autoscale` — the closed-loop SLO autoscaler
  watching windowed p99/queue depth and scaling the fleet between
  bounds with priced warm-start prefill.
"""

from repro.serving.autoscale import AutoscalePolicy, SLOAutoscaler
from repro.serving.batcher import MicroBatch, MicroBatcher
from repro.serving.cache import CacheStats, LRUEmbeddingCache
from repro.serving.faults import (
    FAULT_KINDS,
    FaultConfig,
    FaultEvent,
    FaultReport,
    RecoveryModel,
    ResilientFleet,
    RetryPolicy,
    SwapEvent,
)
from repro.serving.fleet import (
    ConsistentHashRouter,
    FleetReport,
    PowerOfTwoChoicesRouter,
    ROUTER_POLICIES,
    RoundRobinRouter,
    Router,
    ServingFleet,
    make_router,
)
from repro.serving.service import (
    ID_WIRE_BYTES,
    InferenceService,
    PLACEMENT_STRATEGIES,
    Placement,
    PlacementEngine,
    ServingModel,
    ServingReport,
    build_report,
)
from repro.serving.tiers import (
    CacheChain,
    DEFAULT_AMORTIZATION_S,
    ServingTier,
    TieredPlacementEngine,
    TieredStorage,
    build_storage,
    dollars_per_1k_requests,
    storage_dollars,
)
from repro.serving.workload import (
    Request,
    RequestStream,
    RequestTrace,
    SCENARIOS,
    WorkloadConfig,
)

__all__ = [
    "Request",
    "RequestStream",
    "RequestTrace",
    "WorkloadConfig",
    "SCENARIOS",
    "MicroBatch",
    "MicroBatcher",
    "CacheStats",
    "LRUEmbeddingCache",
    "ServingModel",
    "Placement",
    "PlacementEngine",
    "InferenceService",
    "ServingReport",
    "build_report",
    "ServingFleet",
    "FleetReport",
    "Router",
    "RoundRobinRouter",
    "ConsistentHashRouter",
    "PowerOfTwoChoicesRouter",
    "make_router",
    "ROUTER_POLICIES",
    "PLACEMENT_STRATEGIES",
    "ID_WIRE_BYTES",
    "CacheChain",
    "ServingTier",
    "TieredStorage",
    "TieredPlacementEngine",
    "build_storage",
    "storage_dollars",
    "dollars_per_1k_requests",
    "DEFAULT_AMORTIZATION_S",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultConfig",
    "RetryPolicy",
    "RecoveryModel",
    "FaultReport",
    "ResilientFleet",
    "SwapEvent",
    "AutoscalePolicy",
    "SLOAutoscaler",
]
