"""Seeded fault injection + client-side robustness for the fleet.

The disaggregated embedding plane only pays off in production if the
fleet survives the failures disaggregation introduces — replica death,
fetch-tier brownouts, remote-PS outages (the DisaggRec failure trade
space, arXiv:2212.00939).  This module makes those failures a
first-class, **bit-reproducible** part of the replay:

- :class:`FaultEvent` / :class:`FaultConfig` — a declarative fault
  schedule.  ``FaultConfig.schedule`` expands seeded fault counts into
  a concrete, deterministic timeline of events over the trace span
  (replica crashes and hangs, fetch-tier latency degradation windows,
  full fetch-tier outages), so the same config + seed always injects
  the identical failure sequence;
- :class:`RetryPolicy` — the client-side survival kit: per-request
  timeout, capped exponential backoff whose jitter is a deterministic
  hash of ``(req_id, attempt)``, and a global retry budget (a fraction
  of offered load) so retry storms cannot melt the fleet;
- :class:`RecoveryModel` — the analytic MTTR model for a crashed
  replica: failure detection, checkpoint restore, and delta replay
  proportional to half the checkpoint period (expected staleness), so
  reported MTTR decreases monotonically with checkpoint cadence.
  :meth:`RecoveryModel.from_elastic_plan` prices the restore leg with
  the checkpoint plane's elastic-restore migration timing;
- :class:`ResilientFleet` — the fault-aware front door.  It is a
  :class:`~repro.serving.fleet.ServingFleet` (same routers,
  micro-batching, shared fetch tier, shared
  :class:`~repro.serving.service.PlacementEngine` pricing) that hands
  the one replay loop (:mod:`repro.serving.replay`) a control
  schedule: requests routed at a dead-but-undetected replica pay the
  timeout and retry with backoff; detection flips the router's live
  mask so traffic is re-routed away (consistent-hash ring rebuild); a
  fetch outage either stalls miss batches until it lifts or — in
  degraded mode — serves stale/default rows immediately while pricing
  the quality hit; and an optional
  :class:`~repro.serving.autoscale.SLOAutoscaler` watches windowed
  p99/queue depth and adds (priced warm-start prefill, provisioning
  delay) or drains replicas.  With no faults and no autoscaler the
  replay is bit-identical to ``ServingFleet`` for the round-robin and
  hash routers — the correctness oracle the test suite pins.

The outcome is a :class:`FaultReport`: the usual fleet latency report
over the requests that were actually served, plus the robustness
ledger — offered/served/lost/retried/degraded counts, MTTR per crash,
SLO-violation windows, and the scale path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.autoscale import SLOAutoscaler
from repro.serving.batcher import MicroBatcher
from repro.serving.cache import _LRUCacheBase
from repro.serving.fleet import FleetReport, Router, ServingFleet, _splitmix64_int
from repro.serving.replay import ControlPlane, Replay
from repro.serving.service import (
    Placement,
    PlacementEngine,
    ServingModel,
    build_report,  # noqa: F401 -- perfbench traces report assembly under this name too
)
from repro.serving.workload import Request
from repro.sim.cluster import SimCluster

#: Fault kinds the scheduler understands.
FAULT_KINDS = (
    "replica_crash",  # a replica dies (permanently, unless recovered)
    "replica_hang",  # a replica stops serving for duration_s, then resumes
    "fetch_degrade",  # fetch-tier latency multiplied by `factor`
    "fetch_outage",  # fetch tier fully unavailable (remote-PS down)
)


def _hash_unit(req_id: int, attempt: int) -> float:
    """Deterministic uniform in [0, 1) from ``(req_id, attempt)``.

    Backoff jitter must decorrelate retry storms *and* stay
    bit-reproducible without threading a generator through the client
    path — a splitmix64 finalizer over the pair does both.
    """
    mixed = (req_id * 1_000_003 + attempt) & 0xFFFF_FFFF_FFFF_FFFF
    return float(_splitmix64_int(mixed)) / float(2**64)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, at a time relative to the trace start."""

    kind: str
    at_s: float
    duration_s: float = 0.0
    replica: int = -1  # replica faults only; -1 = not replica-scoped
    factor: float = 1.0  # fetch_degrade only: latency multiplier

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.at_s < 0:
            raise ValueError(f"at_s must be >= 0, got {self.at_s}")
        if self.duration_s < 0:
            raise ValueError(
                f"duration_s must be >= 0, got {self.duration_s}"
            )
        if self.factor < 1.0:
            raise ValueError(
                f"factor must be >= 1 (a slowdown), got {self.factor}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "at_s": self.at_s,
            "duration_s": self.duration_s,
            "replica": self.replica,
            "factor": self.factor,
        }


@dataclass(frozen=True)
class FaultConfig:
    """Seeded fault schedule over one served trace.

    Counts expand into concrete :class:`FaultEvent` timestamps inside
    the injection window (default: the middle 90% of the trace span)
    via one seeded generator, so a config is a complete, reproducible
    description of the failure sequence.  Explicit ``events`` are
    merged in unchanged — the escape hatch for hand-placed faults.
    """

    seed: int = 0
    replica_crashes: int = 0
    replica_hangs: int = 0
    hang_duration_s: float = 0.0
    fetch_degrades: int = 0
    degrade_duration_s: float = 0.0
    degrade_factor: float = 4.0
    fetch_outages: int = 0
    outage_duration_s: float = 0.0
    start_s: float = 0.0  # injection window; both 0 = middle 90%
    end_s: float = 0.0
    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        for name in (
            "replica_crashes",
            "replica_hangs",
            "fetch_degrades",
            "fetch_outages",
        ):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        if self.replica_hangs > 0 and not self.hang_duration_s > 0:
            raise ValueError(
                "replica_hangs > 0 needs a positive hang_duration_s"
            )
        if self.fetch_degrades > 0 and not self.degrade_duration_s > 0:
            raise ValueError(
                "fetch_degrades > 0 needs a positive degrade_duration_s"
            )
        if self.fetch_outages > 0 and not self.outage_duration_s > 0:
            raise ValueError(
                "fetch_outages > 0 needs a positive outage_duration_s"
            )
        if not self.degrade_factor >= 1.0:
            raise ValueError(
                f"degrade_factor must be >= 1, got {self.degrade_factor}"
            )
        if not (self.start_s >= 0 and self.end_s >= 0):
            raise ValueError("injection window must be >= 0")
        if self.end_s > 0 and not self.end_s > self.start_s:
            raise ValueError(
                f"injection window end ({self.end_s}) must be after its "
                f"start ({self.start_s})"
            )

    @property
    def num_scheduled(self) -> int:
        """Total faults the schedule will contain."""
        return (
            self.replica_crashes
            + self.replica_hangs
            + self.fetch_degrades
            + self.fetch_outages
            + len(self.events)
        )

    def window(self, span_s: float) -> Tuple[float, float]:
        """The injection window over a trace of ``span_s`` seconds."""
        if self.start_s > 0 or self.end_s > 0:
            return self.start_s, self.end_s if self.end_s > 0 else span_s
        return 0.05 * span_s, 0.95 * span_s

    def schedule(
        self, span_s: float, num_replicas: int
    ) -> Tuple[FaultEvent, ...]:
        """Expand the config into a deterministic fault timeline.

        Times are relative to the trace start.  Draw order is fixed
        (crashes, hangs, degrades, outages — each count in sequence
        from one seeded generator), so identical config + seed yields a
        bit-identical timeline on every run.
        """
        lo, hi = self.window(span_s)
        rng = np.random.default_rng(self.seed)
        out: List[FaultEvent] = list(self.events)
        plan = (  # kind, count, duration_s, factor, hits one replica
            ("replica_crash", self.replica_crashes, 0.0, 1.0, True),
            ("replica_hang", self.replica_hangs, self.hang_duration_s, 1.0, True),
            (
                "fetch_degrade",
                self.fetch_degrades,
                self.degrade_duration_s,
                self.degrade_factor,
                False,
            ),
            ("fetch_outage", self.fetch_outages, self.outage_duration_s, 1.0, False),
        )
        for kind, count, duration_s, factor, on_replica in plan:
            for _ in range(count):
                at_s = float(rng.uniform(lo, hi))
                replica = int(rng.integers(0, num_replicas)) if on_replica else -1
                out.append(FaultEvent(kind, at_s, duration_s, replica, factor))
        out.sort(key=lambda e: (e.at_s, FAULT_KINDS.index(e.kind), e.replica))
        return tuple(out)


@dataclass(frozen=True)
class SwapEvent:
    """One planned hot-swap: roll a replica onto a new model version.

    Unlike a fault, a swap is *coordinated*: the front-end knows the
    replica is going down, so traffic is re-routed immediately (no
    timeout/detection window), any open batch is flushed first
    (graceful drain), and after ``swap_s`` of priced downtime the
    replica comes back — optionally with a fresh cache (the old
    version's cached rows are stale the moment the weights change) and
    a priced warm prefill of ``warm_rows``: either a row *count*
    (hottest-first, like crash recovery) or an explicit array of row
    ids (the delta checkpoint's touched rows).

    A swap with ``swap_s == 0``, no prefill and ``fresh_cache=False``
    is the degenerate zero-change rollout: the replay is bit-identical
    to not swapping at all — the oracle the test suite pins.
    """

    at_s: float  # relative to the trace start
    replica: int
    version: int = 0  # model version rolled in (reporting only)
    swap_s: float = 0.0  # downtime restarting onto the new weights
    warm_rows: Any = 0  # int count, or ndarray of row ids to prefill
    fresh_cache: bool = True  # invalidate the cache (weights changed)

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError(f"at_s must be >= 0, got {self.at_s}")
        if self.replica < 0:
            raise ValueError(
                f"replica must be >= 0, got {self.replica}"
            )
        if self.swap_s < 0:
            raise ValueError(f"swap_s must be >= 0, got {self.swap_s}")

    def to_dict(self) -> Dict[str, Any]:
        rows = self.warm_rows
        return {
            "at_s": self.at_s,
            "replica": self.replica,
            "version": self.version,
            "swap_s": self.swap_s,
            "warm_rows": (
                int(rows.size) if isinstance(rows, np.ndarray) else int(rows)
            ),
            "fresh_cache": self.fresh_cache,
        }


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side timeout / retry / backoff discipline.

    A request that lands on a dead or hung replica waits ``timeout_ms``
    before the client gives up on the attempt, then sleeps a capped
    exponential backoff — ``min(base * 2**(attempt-1), cap)`` shrunk by
    up to ``jitter`` of itself via a deterministic per-(request,
    attempt) hash — and re-routes.  ``max_retries`` bounds attempts per
    request; ``retry_budget`` bounds total retries fleet-wide to that
    fraction of offered load (the production guard against retry
    storms amplifying an outage).
    """

    timeout_ms: float = 1.0
    max_retries: int = 3
    backoff_base_ms: float = 0.25
    backoff_cap_ms: float = 2.0
    jitter: float = 0.5  # fraction of the backoff randomized away
    retry_budget: float = 0.25  # max total retries / offered requests

    def __post_init__(self) -> None:
        if not self.timeout_ms > 0:
            raise ValueError(
                f"timeout_ms must be positive, got {self.timeout_ms}"
            )
        if not self.max_retries >= 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if not (self.backoff_base_ms >= 0 and self.backoff_cap_ms >= 0):
            raise ValueError("backoff must be >= 0")
        if not self.backoff_cap_ms >= self.backoff_base_ms:
            raise ValueError(
                f"backoff_cap_ms ({self.backoff_cap_ms}) must be >= "
                f"backoff_base_ms ({self.backoff_base_ms})"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )
        if not self.retry_budget >= 0:
            raise ValueError(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )

    @property
    def timeout_s(self) -> float:
        return self.timeout_ms * 1e-3

    def backoff_s(self, req_id: int, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based) of ``req_id``.

        Deterministic: the jitter draw is a hash of the pair, so the
        retry timeline is bit-reproducible without any shared RNG.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        base = min(
            self.backoff_base_ms * float(2 ** (attempt - 1)),
            self.backoff_cap_ms,
        )
        u = _hash_unit(req_id, attempt)
        return base * (1.0 - self.jitter * u) * 1e-3


@dataclass(frozen=True)
class RecoveryModel:
    """Analytic MTTR model for a crashed replica.

    ``MTTR = detection + restore + replay`` where replay covers the
    progress lost since the last checkpoint — in expectation half a
    checkpoint period, replayed at ``replay_rate`` seconds per lost
    second.  Checkpointing more often therefore *monotonically* lowers
    MTTR; with no checkpoints at all (``checkpoint_period_s = 0``) the
    replica pays the full cold rebuild instead.
    """

    detection_s: float = 0.001
    restore_s: float = 0.002  # restart + checkpoint load (+ migration)
    checkpoint_period_s: float = 0.0  # 0 = no checkpoints: cold rebuild
    replay_rate: float = 0.5  # replay seconds per second of lost work
    cold_rebuild_s: float = 0.05  # full rebuild when nothing to restore
    warm_rows: int = 0  # cache rows prefilled into the revived replica

    def __post_init__(self) -> None:
        for name in (
            "detection_s",
            "restore_s",
            "checkpoint_period_s",
            "replay_rate",
            "cold_rebuild_s",
        ):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        if not self.warm_rows >= 0:
            raise ValueError(f"warm_rows must be >= 0, got {self.warm_rows}")

    def mttr_s(self) -> float:
        """Mean time to restore a crashed replica to serving."""
        if self.checkpoint_period_s <= 0:
            return self.detection_s + self.cold_rebuild_s
        return (
            self.detection_s
            + self.restore_s
            + 0.5 * self.checkpoint_period_s * self.replay_rate
        )

    @classmethod
    def from_elastic_plan(
        cls,
        plan: Any,
        checkpoint_period_s: float,
        detection_s: float = 0.001,
        replay_rate: float = 0.5,
        warm_rows: int = 0,
        cold_rebuild_s: float = 0.05,
    ) -> "RecoveryModel":
        """Price the restore leg with an elastic-restore plan.

        ``plan`` is a
        :class:`~repro.checkpoint.elastic.ElasticRestorePlan` — its
        priced table-migration timing becomes ``restore_s``, so MTTR
        reflects the actual bytes the recovery has to move on this
        cluster rather than a guessed constant.
        """
        return cls(
            detection_s=detection_s,
            restore_s=float(plan.migration.seconds),
            checkpoint_period_s=checkpoint_period_s,
            replay_rate=replay_rate,
            cold_rebuild_s=cold_rebuild_s,
            warm_rows=warm_rows,
        )


# ----------------------------------------------------------------------
@dataclass
class FaultReport:
    """Outcome of one fault-injected fleet replay.

    ``fleet`` covers the requests that were actually served (the usual
    latency/throughput story); the remaining fields are the robustness
    ledger.  ``windows`` holds per-observation-window metrics —
    ``p99_ms`` is ``None`` for a window that served nothing — and
    ``slo_violation_fraction`` is the violated share of windows that
    served traffic (0.0 when no SLO was being watched).
    """

    fleet: FleetReport
    num_offered: int
    num_served: int
    num_lost: int
    num_retried: int  # distinct requests that retried at least once
    num_retries: int  # total retry attempts
    num_timeouts: int  # attempts abandoned after the client timeout
    num_degraded: int  # requests served stale during a fetch outage
    degraded_rows: int
    quality_cost: float  # stale_penalty * degraded request fraction
    slo_p99_ms: float  # 0.0 when no autoscaler watched an SLO
    slo_violation_fraction: float
    mttr_s: float  # mean over recovered crashes; 0.0 if none
    windows: List[Dict[str, Any]] = field(default_factory=list)
    scale_events: List[Dict[str, Any]] = field(default_factory=list)
    crashes: List[Dict[str, Any]] = field(default_factory=list)
    fault_timeline: List[Dict[str, Any]] = field(default_factory=list)
    swaps: List[Dict[str, Any]] = field(default_factory=list)

    @classmethod
    def from_run(
        cls, run: Replay, fleet: FleetReport, stale_penalty: float
    ) -> "FaultReport":
        """The robustness ledger of a finished replay around its
        fleet report."""
        traffic_windows = [w for w in run.windows if w["p99_ms"] is not None]
        recovered = [
            c["mttr_s"] for c in run.crashes if c["mttr_s"] is not None
        ]
        autoscaler = run.control.autoscaler
        num_served = sum(slot.served for slot in run.slots)
        return cls(
            fleet=fleet,
            num_offered=len(run.trace),
            num_served=num_served,
            num_lost=run.lost,
            num_retried=len(run.attempts),
            num_retries=run.retries,
            num_timeouts=run.timeouts,
            num_degraded=run.degraded,
            degraded_rows=run.degraded_rows,
            quality_cost=(
                stale_penalty * run.degraded / num_served
                if num_served
                else 0.0
            ),
            slo_p99_ms=(
                autoscaler.policy.slo_p99_ms
                if autoscaler is not None
                else 0.0
            ),
            slo_violation_fraction=(
                sum(1 for w in traffic_windows if w["violated"])
                / len(traffic_windows)
                if traffic_windows
                else 0.0
            ),
            mttr_s=float(np.mean(recovered)) if recovered else 0.0,
            windows=run.windows,
            scale_events=run.scale_events,
            crashes=run.crashes,
            fault_timeline=run.fault_timeline,
            swaps=run.swap_log,
        )

    @property
    def lost_fraction(self) -> float:
        return self.num_lost / self.num_offered if self.num_offered else 0.0

    @property
    def retried_fraction(self) -> float:
        return (
            self.num_retried / self.num_offered if self.num_offered else 0.0
        )

    @property
    def degraded_fraction(self) -> float:
        return (
            self.num_degraded / self.num_served if self.num_served else 0.0
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fleet": self.fleet.to_dict(),
            "num_offered": self.num_offered,
            "num_served": self.num_served,
            "num_lost": self.num_lost,
            "num_retried": self.num_retried,
            "num_retries": self.num_retries,
            "num_timeouts": self.num_timeouts,
            "num_degraded": self.num_degraded,
            "degraded_rows": self.degraded_rows,
            "lost_fraction": self.lost_fraction,
            "retried_fraction": self.retried_fraction,
            "degraded_fraction": self.degraded_fraction,
            "quality_cost": self.quality_cost,
            "slo_p99_ms": self.slo_p99_ms,
            "slo_violation_fraction": self.slo_violation_fraction,
            "mttr_s": self.mttr_s,
            "windows": [dict(w) for w in self.windows],
            "scale_events": [dict(e) for e in self.scale_events],
            "crashes": [dict(c) for c in self.crashes],
            "fault_timeline": [dict(e) for e in self.fault_timeline],
            "swaps": [dict(s) for s in self.swaps],
        }

    def summary(self) -> str:
        lat = self.fleet.fleet.latency_ms
        return (
            f"served {self.num_served}/{self.num_offered} "
            f"(lost {self.num_lost}, retried {self.num_retried}, "
            f"degraded {self.num_degraded}) "
            f"p99={lat['p99']:.3f}ms "
            f"slo_viol={self.slo_violation_fraction * 100.0:.1f}% "
            f"mttr={self.mttr_s * 1e3:.2f}ms"
        )


class ResilientFleet(ServingFleet):
    """A :class:`~repro.serving.fleet.ServingFleet` that survives
    faults: seeded fault injection, client retries with backoff,
    degraded-mode serving, crash recovery, and SLO autoscaling.

    Constructor mirrors ``ServingFleet`` (same router / cache / engine
    injection, so the tiered engine composes unchanged) plus the
    robustness layers; any of ``faults`` / ``retry`` / ``recovery`` /
    ``autoscaler`` may be omitted.  The replay is the same event loop
    with a control schedule attached, routed per membership epoch
    (hash) or per arrival; with every layer omitted it is bit-identical
    to ``ServingFleet.serve`` for the round-robin and hash routers.
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
        faults: Optional[FaultConfig] = None,
        retry: Optional[RetryPolicy] = None,
        recovery: Optional[RecoveryModel] = None,
        autoscaler: Optional[SLOAutoscaler] = None,
        degraded_mode: bool = True,
        stale_penalty: float = 0.05,
        swaps: Optional[Sequence[SwapEvent]] = None,
    ):
        super().__init__(
            sim,
            model,
            placement,
            batcher,
            router=router,
            num_replicas=num_replicas,
            cache_rows=cache_rows,
            cache_factory=cache_factory,
            router_seed=router_seed,
            engine=engine,
        )
        if stale_penalty < 0:
            raise ValueError(
                f"stale_penalty must be >= 0, got {stale_penalty}"
            )
        self.faults = faults if faults is not None else FaultConfig()
        self.swaps: Tuple[SwapEvent, ...] = tuple(swaps) if swaps else ()
        for swap in self.swaps:
            if swap.replica >= self.num_replicas:
                raise ValueError(
                    f"swap targets replica {swap.replica}, fleet has "
                    f"{self.num_replicas}"
                )
        self.retry = retry if retry is not None else RetryPolicy()
        self.recovery = recovery
        self.autoscaler = autoscaler
        self.degraded_mode = degraded_mode
        self.stale_penalty = stale_penalty
        # Replica slots: the initial fleet plus headroom the autoscaler
        # may grow into.  The router binds over the full capacity with
        # only the initial replicas live, so scale-up is a membership
        # change, not a rebind.
        self.capacity = self.num_replicas
        if autoscaler is not None:
            self.capacity = max(
                self.capacity, autoscaler.policy.max_replicas
            )
            if autoscaler.policy.min_replicas > self.num_replicas:
                raise ValueError(
                    f"initial fleet ({self.num_replicas} replicas) is "
                    f"below the autoscaler floor "
                    f"({autoscaler.policy.min_replicas})"
                )
        self.caches.extend(
            self._cache_factory()
            for _ in range(self.capacity - self.num_replicas)
        )

    def serve(self, requests: Sequence[Request]) -> FaultReport:
        """Replay the trace under the configured faults; returns the
        fault report (its ``fleet`` field is the usual fleet report
        over the served requests)."""
        run, fleet = self._replay(
            requests,
            ControlPlane(
                faults=self.faults,
                swaps=self.swaps,
                retry=self.retry,
                recovery=self.recovery,
                autoscaler=self.autoscaler,
                degraded_mode=self.degraded_mode,
                cache_factory=self._cache_factory,
            ),
        )
        return FaultReport.from_run(run, fleet, self.stale_penalty)
