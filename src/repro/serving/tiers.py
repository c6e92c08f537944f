"""Tiered embedding storage: multi-level cache chain + priced tier hops.

The classic serving plane models storage as one LRU in front of one
priced fetch tier — a binary world (colocated vs disaggregated).  Real
deployments are capacity-driven across a memory *hierarchy*: hot rows
in HBM, warm rows in host DRAM, cold rows on flash or in a remote
parameter server.  This module generalizes the serving plane to that
spectrum:

- :class:`CacheChain` — an inclusive multi-level LRU: each level is an
  ordinary :class:`~repro.serving.cache.LRUEmbeddingCache`, and a
  probe cascades — level ``i``
  probes only the misses of level ``i-1``.  Because every level admits
  its own misses, a row found in DRAM is automatically promoted into
  HBM on the same probe.  A one-level chain is bit-identical to the
  bare cache.
- :class:`TieredStorage` — which :class:`~repro.hardware.MemoryTierSpec`
  each chain level lives on, plus the *backing* store that serves chain
  misses ("hbm": the classic fabric-only fetch path; "remote": a
  parameter server reached through the fabric).
- :class:`TieredPlacementEngine` — a
  :class:`~repro.serving.service.PlacementEngine` that prices the
  below-HBM chain hits (each tier's latency + 2x row bytes over its
  bandwidth, mirroring the HBM ``hit_read_seconds`` term) and adds the
  parameter server's device time to the miss fetch.

The classic single-tier path is the degenerate preset — an HBM-only
chain over an "hbm" backing prices every batch **bit-identically** to
the pre-tiering engine (regression-tested), so the colocated vs
disaggregated comparison is reproducible as two points of the new
spectrum.

Dollars
-------
Tier specs carry $/GB, so a placement's capital cost is just provisioned
bytes priced per tier; :func:`dollars_per_1k_requests` amortizes it over
:data:`DEFAULT_AMORTIZATION_S` at the observed throughput — the unit the
``tiered_serving`` experiment reports ("cheapest placement holding p99").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.hardware.specs import (
    GB,
    MemoryTierSpec,
    TIER_ORDER,
    memory_tiers,
)
from repro.serving.cache import CacheStats, LRUEmbeddingCache, _LRUCacheBase
from repro.serving.service import (
    ID_WIRE_BYTES,
    Placement,
    PlacementEngine,
    ServingModel,
)
from repro.sim.cluster import SimCluster

__all__ = [
    "CacheChain",
    "ServingTier",
    "TieredStorage",
    "TieredPlacementEngine",
    "build_storage",
    "storage_dollars",
    "dollars_per_1k_requests",
    "DEFAULT_AMORTIZATION_S",
]

#: Capital-cost amortization horizon: a 3-year hardware lifetime.
DEFAULT_AMORTIZATION_S = 3 * 365 * 24 * 3600


class CacheChain:
    """An inclusive multi-level LRU over the same cache contract.

    ``capacities[0]`` is the fastest level.  A probe cascades: level
    ``i`` sees exactly the misses of level ``i-1``, and — because each
    level's own :meth:`~repro.serving.cache._LRUCacheBase.probe` admits
    its misses — every row the chain returns as a hit below the top is
    promoted into all levels above it on the same call (inclusive
    caching).  The chain's aggregate ``stats`` count a lookup as a hit
    if *any* level held it and a miss only when the whole chain missed,
    so a one-level chain is accounting-identical to its bare cache.

    ``cache_factory`` picks the per-level implementation; the test
    suite instantiates the same chain over its per-key reference cache
    as the oracle.
    """

    def __init__(
        self,
        capacities: Sequence[int],
        cache_factory: Callable[[int], _LRUCacheBase] = LRUEmbeddingCache,
    ):
        if not len(capacities):
            raise ValueError("CacheChain requires at least one level")
        self.levels: List[_LRUCacheBase] = [
            cache_factory(int(c)) for c in capacities
        ]
        self._hits = 0
        self._misses = 0
        #: Per-level hits of the most recent :meth:`probe` — the tiered
        #: engine reads this to price the below-HBM hops of that batch.
        self.last_level_hits: List[int] = [0] * len(self.levels)

    @property
    def capacity_rows(self) -> int:
        """Total rows the chain can hold (warm-start seeding limit)."""
        return sum(level.capacity_rows for level in self.levels)

    def __len__(self) -> int:
        return sum(len(level) for level in self.levels)

    @property
    def stats(self) -> CacheStats:
        return CacheStats(hits=self._hits, misses=self._misses)

    def probe(self, keys: np.ndarray) -> Tuple[int, np.ndarray]:
        """Cascade the batch down the chain.

        Returns ``(total_hits, miss_keys)`` where ``miss_keys`` missed
        *every* level and must be fetched from the backing store.
        """
        remaining = np.asarray(keys)
        level_hits: List[int] = []
        total_hits = 0
        for level in self.levels:
            hits, remaining = level.probe(remaining)
            level_hits.append(hits)
            total_hits += hits
        self.last_level_hits = level_hits
        self._hits += total_hits
        self._misses += len(remaining)
        return total_hits, remaining

    def prefill(self, keys: np.ndarray) -> int:
        """Warm-start: hottest-first keys fill the levels top-down.

        Mirrors the single-cache contract: duplicates are dropped
        (first occurrence wins) before capacity slicing, accounting is
        untouched, and the hottest rows land in the fastest level.
        Returns the number of rows actually inserted.
        """
        flat = _LRUCacheBase._as_ids(keys)
        _, first = np.unique(flat, return_index=True)
        kept = flat[np.sort(first)]
        total = 0
        start = 0
        for level in self.levels:
            if start >= len(kept):
                break
            part = kept[start : start + level.capacity_rows]
            total += level.prefill(part)
            start += level.capacity_rows
        return total

    def level_contents(self) -> Tuple[np.ndarray, ...]:
        """Each level's cached ids in LRU -> MRU order (level 0 first)."""
        return tuple(level.contents() for level in self.levels)


@dataclass(frozen=True)
class ServingTier:
    """One chain level: a memory tier holding ``cache_rows`` rows."""

    spec: MemoryTierSpec
    cache_rows: int

    def __post_init__(self) -> None:
        rows = self.cache_rows
        if isinstance(rows, bool) or not isinstance(rows, int) or rows < 0:
            raise ValueError(
                f"tier {self.spec.name!r}: cache_rows must be ints >= 0, "
                f"got {rows!r}"
            )


@dataclass(frozen=True)
class TieredStorage:
    """The serving replica's storage hierarchy.

    ``levels`` are the local cache-chain levels, fastest first; level 0
    must be the HBM tier (its hits are priced by the engine's existing
    ``hit_read_seconds`` term).  ``backing`` is where chain misses are
    served from:

    - ``"hbm"`` — the embedding shards sit in the fetch tier's HBM and
      misses pay only the fabric transfer (the classic model; this is
      the bit-identical degenerate preset);
    - ``"remote"`` — a parameter server: misses additionally pay the
      PS's RPC latency and device bandwidth.
    """

    levels: Tuple[ServingTier, ...]
    backing: MemoryTierSpec

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("TieredStorage requires at least one level")
        names = [t.spec.name for t in self.levels]
        if names[0] != "hbm":
            raise ValueError(
                f"level 0 must be the 'hbm' tier, got {names[0]!r}"
            )
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tier names in the chain: {names}")
        ranks = [TIER_ORDER.index(n) for n in names]
        if ranks != sorted(ranks):
            raise ValueError(
                f"chain levels must be in hierarchy order, the tier order "
                f"{TIER_ORDER}; got {names}"
            )
        for t in self.levels:
            if not t.spec.local:
                raise ValueError(
                    f"chain level {t.spec.name!r} must be a local tier; "
                    f"the remote tier can only back the chain"
                )
        if self.backing.name not in ("hbm", "remote"):
            raise ValueError(
                f"backing must be 'hbm' or 'remote', got {self.backing.name!r}"
            )

    @property
    def capacity_rows(self) -> int:
        return sum(t.cache_rows for t in self.levels)

    def make_chain(
        self,
        cache_factory: Callable[[int], _LRUCacheBase] = LRUEmbeddingCache,
    ) -> CacheChain:
        """A fresh cache chain with this hierarchy's level capacities."""
        return CacheChain(
            [t.cache_rows for t in self.levels], cache_factory=cache_factory
        )


class TieredPlacementEngine(PlacementEngine):
    """Placement engine pricing a :class:`TieredStorage` hierarchy.

    Two overrides, both exactly zero on the degenerate preset (an
    HBM-only chain over an "hbm" backing), which is what keeps the
    classic colocated/disaggregated reports bit-identical:

    - :meth:`chain_extra_seconds` — hits below HBM each pay their
      tier's access latency once per batch plus ``2 x row_bytes`` over
      the tier's bandwidth per row (read + promoted write, mirroring
      ``hit_read_seconds``), folded into the batch's COMPUTE phase;
    - :meth:`fetch_timing` — with a "remote" backing, chain misses add
      the parameter server's RPC latency and device-bandwidth time on
      top of the fabric transfer the base engine already prices.
    """

    def __init__(
        self,
        sim: SimCluster,
        model: ServingModel,
        placement: Placement,
        storage: TieredStorage,
    ):
        super().__init__(sim, model, placement)
        self.storage = storage

    def chain_extra_seconds(self, cache: object) -> float:
        level_hits = getattr(cache, "last_level_hits", None)
        if level_hits is None:
            return 0.0
        extra = 0.0
        for tier, hits in zip(self.storage.levels[1:], level_hits[1:]):
            if hits:
                extra += tier.spec.latency_s + (
                    2.0 * hits * self.model.row_bytes / tier.spec.bytes_per_s
                )
        return extra

    def fetch_timing(self, num_miss_rows: int) -> Tuple[float, int, int]:
        seconds, priced_nbytes, world = super().fetch_timing(num_miss_rows)
        backing = self.storage.backing
        if not backing.local:
            wire = num_miss_rows * (self.model.row_bytes + ID_WIRE_BYTES)
            seconds += backing.latency_s + wire / backing.bytes_per_s
        return seconds, priced_nbytes, world


def build_storage(
    generation: str,
    hbm_rows: int,
    levels: Sequence[str] = (),
    cache_rows: Sequence[int] = (),
    backing: str = "remote",
) -> TieredStorage:
    """A :class:`TieredStorage` from per-generation tier presets.

    ``hbm_rows`` sizes the HBM level (the classic ``serve.cache_rows``
    knob); ``levels``/``cache_rows`` name and size the below-HBM local
    levels in order (subset of ``("dram", "ssd")``); ``backing`` names
    the store behind the chain.  This is the mapping
    :meth:`repro.api.TierSpec.storage` resolves through.
    """
    if len(levels) != len(cache_rows):
        raise ValueError(
            f"levels and cache_rows must have equal length, got "
            f"{len(levels)} and {len(cache_rows)}"
        )
    presets = memory_tiers(generation)
    for name in levels:
        if name not in presets:
            raise ValueError(
                f"unknown tier level {name!r}; expected 'dram' or 'ssd'"
            )
    if backing not in presets:
        raise ValueError(
            f"unknown backing {backing!r}; expected 'hbm' or 'remote'"
        )
    tiers = [ServingTier(presets["hbm"], hbm_rows)]
    tiers += [ServingTier(presets[n], r) for n, r in zip(levels, cache_rows)]
    return TieredStorage(levels=tuple(tiers), backing=presets[backing])


def storage_dollars(
    storage: TieredStorage,
    row_bytes: int,
    backing_rows: int,
    num_replicas: int = 1,
) -> float:
    """Capital cost of a provisioned hierarchy, in dollars.

    Every replica provisions its own chain levels; the backing store
    holds the full ``backing_rows`` table once (striped over the fetch
    tier, so it is not multiplied by replicas).
    """
    chain = sum(
        t.cache_rows * row_bytes / GB * t.spec.dollars_per_gb
        for t in storage.levels
    )
    back = backing_rows * row_bytes / GB * storage.backing.dollars_per_gb
    return chain * num_replicas + back


def dollars_per_1k_requests(
    dollars: float,
    throughput_rps: float,
    amortization_s: float = DEFAULT_AMORTIZATION_S,
) -> float:
    """Amortized capital cost per thousand served requests."""
    if throughput_rps <= 0:
        raise ValueError(
            f"throughput_rps must be positive, got {throughput_rps}"
        )
    return dollars / (throughput_rps * amortization_s) * 1000.0
