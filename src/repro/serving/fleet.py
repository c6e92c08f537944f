"""Multi-replica serving: a routed fleet priced on one shared cluster.

The single :class:`~repro.serving.service.InferenceService` answers the
placement question for one replica pool with a shared cache.  A real
serving tier is a **fleet**: N replicas, each owning its own
micro-batcher and LRU embedding cache, fed by a front-end router
(DisaggRec's provisioning setting, arXiv:2212.00939).  The router
policy decides everything the cache story depends on — which replica's
cache learns which keys, and how evenly bursts spread:

- **round_robin** — perfect spread, zero affinity: every replica's
  cache must learn the whole hot set;
- **hash** — consistent hashing on the request's primary key
  (``keys[0]``), so traffic for the same entity lands on the same
  replica and the fleet's caches partition the hot set between them;
- **p2c** — power-of-two-choices on instantaneous queue depth (the
  number of requests still inside their batching window): near-optimal
  burst spreading with only two probes per request.

Every replica's batches are priced through the shared
:class:`~repro.serving.service.PlacementEngine` on one
:class:`~repro.sim.SimCluster` — the fetch tier (global fabric when
colocated, the embedding hosts when disaggregated) is a fleet-wide
shared resource, which is exactly what makes the placement comparison
interesting under load.  The replay is the one event loop of
:mod:`repro.serving.replay`, configured as N one-server slots behind
the router; :meth:`ServingFleet.serve` returns a :class:`FleetReport`:
one aggregate :class:`ServingReport` plus one per replica that served
traffic.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.batcher import MicroBatcher
from repro.serving.cache import LRUEmbeddingCache, _LRUCacheBase
from repro.serving.replay import ControlPlane, Replay, Slot
from repro.serving.service import (
    Placement,
    PlacementEngine,
    ServingModel,
    ServingReport,
    build_report,
    warm_start,
)
from repro.serving.workload import Request, RequestTrace
from repro.sim.cluster import SimCluster

#: Router policies the fleet understands.
ROUTER_POLICIES = ("round_robin", "hash", "p2c")


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer: a stable, seed-independent
    integer hash (Python's ``hash`` is identity on ints — useless for
    ring placement)."""
    x = np.asarray(x).astype(np.uint64)
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _splitmix64_int(x: int) -> int:
    """:func:`_splitmix64` of one key, on python ints."""
    mask = 0xFFFF_FFFF_FFFF_FFFF
    x = (x + 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


class Router:
    """Assigns every request of a trace to a replica.

    Stateful policies re-seed in :meth:`bind`, so routing the same
    trace twice gives the same assignment — fleet runs stay
    bit-reproducible.

    Routers carry a **live-membership mask** so dead or drained
    replicas are never routed to: :meth:`set_live` flips membership
    (the consistent-hash ring rebuilds over the surviving vnodes, the
    other policies filter to live replicas), and :meth:`route_one`
    routes a single request incrementally — the entry point the
    fault-injecting replay uses for policies that read queue depth or a
    cursor, and the oracle for the rest.  With every replica live, all
    policies route bit-identically to the pre-membership
    implementation.
    """

    name = "base"
    #: The choice is a function of the request's primary key and the
    #: live mask alone, so ``route_trace`` under the current mask is
    #: what ``route_one`` answers for every row until the mask changes:
    #: the replay routes such a policy once per membership epoch.
    routes_by_key = False

    def bind(self, num_replicas: int) -> None:
        if num_replicas < 1:
            raise ValueError(
                f"num_replicas must be >= 1, got {num_replicas}"
            )
        self.num_replicas = num_replicas
        self._live = np.ones(num_replicas, dtype=bool)
        self._reset()

    def _reset(self) -> None:  # pragma: no cover - default no-op
        pass

    @property
    def live_replicas(self) -> np.ndarray:
        """Indices of replicas currently accepting traffic (sorted)."""
        return np.flatnonzero(self._live)

    def set_live(self, live: Sequence[bool]) -> bool:
        """Update the live-membership mask (length ``num_replicas``);
        returns whether it changed.

        No-op when the mask is unchanged; otherwise the policy's
        membership hook runs (ring rebuild for consistent hashing).
        At least one replica must stay live — a router with nowhere to
        send traffic is a caller bug.
        """
        mask = np.asarray(live, dtype=bool)
        if mask.shape != (self.num_replicas,):
            raise ValueError(
                f"live mask must have length {self.num_replicas}, got "
                f"shape {mask.shape}"
            )
        if not mask.any():
            raise ValueError("at least one replica must stay live")
        if np.array_equal(mask, self._live):
            return False
        self._live = mask.copy()
        self._on_membership()
        return True

    def _on_membership(self) -> None:  # pragma: no cover - default no-op
        pass

    def route_trace(
        self, requests: Sequence[Request], window_s: float
    ) -> np.ndarray:
        """Replica index per request (requests are in arrival order);
        ``window_s`` is the batching window used for queue-depth
        estimates."""
        raise NotImplementedError

    def route_one(
        self,
        req: Request,
        now_s: float,
        depths: Optional[np.ndarray] = None,
    ) -> int:
        """Route one request at ``now_s`` among the live replicas.

        ``depths`` (length ``num_replicas``) carries instantaneous
        queue depths for load-aware policies; dead entries are ignored
        via the live mask.
        """
        raise NotImplementedError


class RoundRobinRouter(Router):
    """Cycle through replicas in request order (live replicas only)."""

    name = "round_robin"

    def _reset(self) -> None:
        self._cursor = 0

    def route_trace(
        self, requests: Sequence[Request], window_s: float
    ) -> np.ndarray:
        live = self.live_replicas
        positions = (self._cursor + np.arange(len(requests))) % len(live)
        self._cursor = int(
            (self._cursor + len(requests)) % len(live)
        )
        return live[positions]

    def route_one(
        self,
        req: Request,
        now_s: float,
        depths: Optional[np.ndarray] = None,
    ) -> int:
        live = self.live_replicas
        rep = int(live[self._cursor % len(live)])
        self._cursor = (self._cursor + 1) % len(live)
        return rep


class ConsistentHashRouter(Router):
    """Consistent hashing on the request's primary key (``keys[0]``).

    Each replica owns ``vnodes`` points on a hash ring; a request walks
    clockwise from the hash of its primary key to the next point.  The
    same entity always lands on the same replica (cache affinity), and
    changing the fleet size moves only ~1/N of the key space.
    """

    name = "hash"
    routes_by_key = True

    def __init__(self, vnodes: int = 64):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        # The last routed trace's primary-key hashes, sorted — found
        # again by the identity of its (never mutated) key array.
        self._hashed_of: Callable[[], Any] = lambda: None

    def _reset(self) -> None:
        replicas = np.repeat(
            np.arange(self.num_replicas, dtype=np.int64), self.vnodes
        )
        salts = np.tile(
            np.arange(self.vnodes, dtype=np.int64), self.num_replicas
        )
        points = _splitmix64(
            replicas.astype(np.uint64) * np.uint64(0x51_7C_C1_B7_27_22_0A_95)
            + salts.astype(np.uint64)
        )
        order = np.argsort(points, kind="stable")
        # Full ring over every replica; the live ring below filters it.
        self._all_points = points[order]
        self._all_replicas = replicas[order]
        self._rebuild_ring()

    def _on_membership(self) -> None:
        self._rebuild_ring()

    def _rebuild_ring(self) -> None:
        """Drop dead replicas' vnodes; surviving points keep their
        positions, so only ~1/N of the key space moves per death —
        the consistent-hashing contract, now honored on failure too."""
        keep = np.flatnonzero(self._live[self._all_replicas])
        self._ring_points = self._all_points[keep]
        # One owner past the last point: a hash beyond it wraps around.
        self._ring_replicas = self._all_replicas[np.append(keep, keep[0])]
        self._ring_list = self._ring_points.tolist()  # for the one-key lookup
        self._owner_list = self._ring_replicas.tolist()

    def route_trace(
        self, requests: Sequence[Request], window_s: float
    ) -> np.ndarray:
        keys = RequestTrace.of(requests).keys
        if self._hashed_of() is not keys:  # else a later epoch of one trace
            hashed = _splitmix64(keys[:, 0])
            self._hashed_of, self._order = weakref.ref(keys), np.argsort(hashed)
            self._hashed = hashed[self._order]
        # The ring cuts the sorted hashes into one run per owner — the
        # ``searchsorted(ring, hash)`` of ``route_one``, the other way.
        cuts = np.searchsorted(self._hashed, self._ring_points, side="right")
        owners = np.empty(len(keys), dtype=np.int64)
        owners[self._order] = np.repeat(
            self._ring_replicas, np.diff(cuts, prepend=0, append=len(keys))
        )
        return owners

    def route_one(
        self,
        req: Request,
        now_s: float,
        depths: Optional[np.ndarray] = None,
    ) -> int:
        hashed = _splitmix64_int(int(req.keys[0]))
        return self._owner_list[bisect_left(self._ring_list, hashed)]


class PowerOfTwoChoicesRouter(Router):
    """Power-of-two-choices on queue depth.

    For each request, sample two distinct replicas (seeded, so the
    trace routes identically every run) and pick the one with fewer
    requests still inside their batching window — the classic
    load-balancing result: two choices remove almost all of random
    routing's queue imbalance.  With a zero batching window every depth
    reads 0 and the policy degrades to seeded random routing.
    """

    name = "p2c"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def _reset(self) -> None:
        # Incremental stream for route_one; route_trace re-seeds its
        # own generator per call (the original whole-trace semantics).
        self._rng = np.random.default_rng(self.seed)

    def route_trace(
        self, requests: Sequence[Request], window_s: float
    ) -> np.ndarray:
        live = self.live_replicas
        n, num = len(requests), len(live)
        if num == 1:
            return np.full(n, int(live[0]), dtype=np.int64)
        rng = np.random.default_rng(self.seed)
        first = rng.integers(0, num, size=n)
        second = (first + 1 + rng.integers(0, num - 1, size=n)) % num
        # Depth = a replica's rows inside the window.  Rows leave it in
        # trace order (``out_by[i]`` are out by row i), so one pointer
        # into the trace, ``gone``, expires every replica.
        arrivals = RequestTrace.of(requests).arrival_s
        out_by = np.searchsorted(arrivals, arrivals - window_s, side="right")
        out_by = np.minimum(out_by, np.arange(n))
        depth, chosen_pos, gone = [0] * num, [], 0
        for a, b, out in zip(first.tolist(), second.tolist(), out_by.tolist()):
            while gone < out:
                depth[chosen_pos[gone]] -= 1
                gone += 1
            chosen = a if depth[a] <= depth[b] else b
            depth[chosen] += 1
            chosen_pos.append(chosen)
        return live[chosen_pos]

    def route_one(
        self,
        req: Request,
        now_s: float,
        depths: Optional[np.ndarray] = None,
    ) -> int:
        live = self.live_replicas
        num = len(live)
        if num == 1:
            return int(live[0])
        a_pos = int(self._rng.integers(0, num))
        b_pos = int((a_pos + 1 + self._rng.integers(0, num - 1)) % num)
        a, b = int(live[a_pos]), int(live[b_pos])
        if depths is None:
            return a
        return a if depths[a] <= depths[b] else b


def make_router(policy: str, seed: int = 0) -> Router:
    """A fresh router for a named policy."""
    if policy == "round_robin":
        return RoundRobinRouter()
    if policy == "hash":
        return ConsistentHashRouter()
    if policy == "p2c":
        return PowerOfTwoChoicesRouter(seed)
    raise ValueError(
        f"unknown router policy {policy!r}; expected one of "
        f"{ROUTER_POLICIES}"
    )


# ----------------------------------------------------------------------
@dataclass
class FleetReport:
    """Outcome of one fleet-served trace: the aggregate plus the
    replicas that saw traffic."""

    router: str
    num_replicas: int
    fleet: ServingReport
    replicas: Dict[int, ServingReport]
    requests_per_replica: List[int]

    @classmethod
    def from_run(
        cls, run: Replay, router: str, placement: str, model: str
    ) -> "FleetReport":
        """Assemble the per-replica and aggregate reports of a finished
        replay — every report computes percentiles, throughput and
        offered load through the one :func:`build_report`."""
        return cls(
            router=router,
            num_replicas=len(run.slots),
            fleet=build_report(placement, model, **run.report_material()),
            replicas={
                slot.idx: build_report(
                    placement, model, **run.report_material(slot)
                )
                for slot in run.slots
                if slot.served
            },
            requests_per_replica=[slot.served for slot in run.slots],
        )

    @property
    def load_imbalance(self) -> float:
        """Max over mean requests per replica (1.0 = perfectly even,
        counting idle replicas; 0.0 for a fleet that served nothing —
        the all-zero convention of :meth:`ServingReport.empty`)."""
        counts = np.asarray(self.requests_per_replica, dtype=np.float64)
        if not counts.any():
            return 0.0
        return float(counts.max() / counts.mean())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "router": self.router,
            "num_replicas": self.num_replicas,
            "load_imbalance": self.load_imbalance,
            "requests_per_replica": list(self.requests_per_replica),
            "fleet": self.fleet.to_dict(),
            "replicas": {
                str(idx): report.to_dict()
                for idx, report in self.replicas.items()
            },
        }


class ServingFleet:
    """N serving replicas, each owning a batcher queue and an LRU
    embedding cache, priced on one shared :class:`SimCluster` — N
    one-server replay slots behind a router, with no control schedule.

    ``num_replicas`` defaults to one replica per dense host (the
    :class:`~repro.serving.service.InferenceService` notion); more
    replicas than dense hosts time-share host GPUs, so each replica's
    dense forward slows by the oversubscription factor.  The fetch path
    — global fabric or embedding tier per the placement — is shared by
    the whole fleet.
    """

    def __init__(
        self,
        sim: SimCluster,
        model: ServingModel,
        placement: Placement,
        batcher: MicroBatcher,
        router: "Router | str" = "round_robin",
        num_replicas: Optional[int] = None,
        cache_rows: int = 0,
        cache_factory: Optional[Callable[[], _LRUCacheBase]] = None,
        router_seed: int = 0,
        engine: Optional[PlacementEngine] = None,
    ):
        # ``engine`` injects a PlacementEngine subclass (the tiered
        # engine); ``cache_factory`` may build multi-level CacheChains.
        self.engine = (
            engine if engine is not None else PlacementEngine(sim, model, placement)
        )
        self.num_replicas = (
            num_replicas
            if num_replicas is not None
            else self.engine.num_dense_hosts
        )
        if self.num_replicas < 1:
            raise ValueError(
                f"num_replicas must be >= 1, got {self.num_replicas}"
            )
        self.sim = sim
        self.model = model
        self.placement = placement
        self.batcher = batcher
        self.router = router if isinstance(router, Router) else make_router(
            router, seed=router_seed
        )
        self._cache_factory = cache_factory or (
            lambda: LRUEmbeddingCache(cache_rows)
        )
        self.caches: List[_LRUCacheBase] = [
            self._cache_factory() for _ in range(self.num_replicas)
        ]
        # Replicas beyond the dense hosts time-share their GPUs.
        self.host_share = min(
            1.0, self.engine.num_dense_hosts / self.num_replicas
        )

    def warm_start_from_checkpoint(self, path: str) -> int:
        """Prefill every initial replica's cache from a checkpoint (see
        :func:`~repro.serving.service.warm_start`).  A resilient
        fleet's scale-up slots stay cold on purpose — their warm-start
        is the autoscaler's priced prefill."""
        return warm_start(self.caches[: self.num_replicas], path)

    def _replay(
        self, requests: Sequence[Request], control: Optional[ControlPlane]
    ) -> Tuple[Replay, FleetReport]:
        """One run over fresh slots on this fleet's caches (caches past
        the initial replicas are idle headroom), and its fleet report."""
        slots = [
            Slot(
                idx,
                cache,
                label=f"/replica{idx}",
                state="active" if idx < self.num_replicas else "idle",
            )
            for idx, cache in enumerate(self.caches)
        ]
        run = Replay(
            requests,
            slots,
            self.engine,
            self.batcher,
            self.sim.timeline,
            self.router,
            control,
        ).run()
        return run, FleetReport.from_run(
            run, self.router.name, self.placement.strategy, self.model.name
        )

    def serve(self, requests: Sequence[Request]) -> FleetReport:
        """Route, batch, and price the trace; returns the fleet report."""
        return self._replay(requests, control=None)[1]
