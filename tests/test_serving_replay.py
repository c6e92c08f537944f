"""Invariants of the one replay core behind the three serving front
doors: no run state on the door, replay-twice determinism, the
tie rule at equal timestamps, and the all-lost fleet report."""

import json
import warnings

import numpy as np
import pytest

from repro.hardware import Cluster
from repro.serving import (
    AutoscalePolicy,
    FaultConfig,
    FaultEvent,
    InferenceService,
    LRUEmbeddingCache,
    MicroBatcher,
    Placement,
    RecoveryModel,
    Request,
    RequestStream,
    ResilientFleet,
    RetryPolicy,
    RoundRobinRouter,
    SLOAutoscaler,
    ServingFleet,
    ServingModel,
    SwapEvent,
    WorkloadConfig,
)
from repro.sim import SimCluster

MODEL = ServingModel(
    name="tiny", num_lookups=2, embedding_dim=16, dense_mflops=1.0
)


def sim() -> SimCluster:
    return SimCluster(Cluster(num_hosts=4, gpus_per_host=2, generation="A100"))


def poisson_trace(n=600):
    return RequestStream(
        WorkloadConfig(
            qps=80_000.0, num_requests=n, num_lookups=2, key_space=500, seed=5
        )
    ).generate()


def at(*times):
    """A hand-placed trace: request ``i`` arrives at ``times[i]``."""
    return [
        Request(i, t, np.array([2 * i, 2 * i + 1])) for i, t in enumerate(times)
    ]


def make_service():
    return InferenceService(
        sim(),
        MODEL,
        Placement("disaggregated", emb_hosts=1),
        MicroBatcher(16, 0.0005),
        LRUEmbeddingCache(64),
    )


def make_fleet(**kw):
    return ServingFleet(
        sim(),
        MODEL,
        Placement("disaggregated", emb_hosts=1),
        MicroBatcher(16, 0.0005),
        router=kw.pop("router", "p2c"),
        num_replicas=3,
        cache_rows=64,
        **kw,
    )


def make_resilient(**kw):
    kw.setdefault("router", "hash")
    kw.setdefault("num_replicas", 3)
    kw.setdefault("cache_rows", 64)
    batcher = kw.pop("batcher", MicroBatcher(16, 0.0005))
    return ResilientFleet(
        sim(), MODEL, Placement("disaggregated", emb_hosts=1), batcher, **kw
    )


def make_stormy():
    return make_resilient(
        faults=FaultConfig(
            seed=2,
            replica_crashes=1,
            replica_hangs=1,
            hang_duration_s=0.001,
            fetch_outages=1,
            outage_duration_s=0.001,
        ),
        retry=RetryPolicy(timeout_ms=0.3),
        recovery=RecoveryModel(checkpoint_period_s=0.001, warm_rows=8),
        autoscaler=SLOAutoscaler(
            AutoscalePolicy(slo_p99_ms=0.5, min_replicas=2, max_replicas=5)
        ),
        swaps=(SwapEvent(at_s=0.004, replica=1, swap_s=0.0005, warm_rows=4),),
    )


DOORS = [make_service, make_fleet, make_resilient, make_stormy]


class TestNoRunStateOnTheDoor:
    @pytest.mark.parametrize("make", DOORS)
    def test_serve_leaves_the_attribute_set_alone(self, make):
        door = make()
        before = set(vars(door))
        door.serve(poisson_trace())
        assert set(vars(door)) == before
        door.serve(poisson_trace())  # and a reused door still serves
        assert set(vars(door)) == before

    @pytest.mark.parametrize("make", DOORS)
    def test_fresh_doors_replay_identically(self, make):
        first = make().serve(poisson_trace()).to_dict()
        second = make().serve(poisson_trace()).to_dict()
        assert first == second


class TestAllLostFleet:
    def test_load_imbalance_of_a_fleet_that_served_nothing(self):
        fleet = make_resilient(
            router="round_robin",
            num_replicas=2,
            faults=FaultConfig(
                events=(
                    FaultEvent("replica_crash", at_s=0.0, replica=0),
                    FaultEvent("replica_crash", at_s=0.0, replica=1),
                )
            ),
            retry=RetryPolicy(max_retries=0),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = fleet.serve(poisson_trace(50))
            payload = report.to_dict()
        assert report.num_lost == report.num_offered == 50
        assert report.fleet.fleet.is_empty
        assert report.fleet.requests_per_replica == [0, 0]
        assert report.fleet.load_imbalance == 0.0
        # NaN is not JSON: the report must survive a strict dump.
        assert json.loads(json.dumps(payload, allow_nan=False)) == payload


class RecordingRouter(RoundRobinRouter):
    """Round-robin that logs every membership update and routed
    request, in the order the replay issued them."""

    def bind(self, num_replicas):
        self.log = []
        super().bind(num_replicas)

    def set_live(self, live):
        self.log.append(("live", tuple(bool(x) for x in live)))
        super().set_live(live)

    def route_one(self, req, now_s, depths=None):
        rep = super().route_one(req, now_s, depths)
        self.log.append(("route", req.req_id, rep))
        return rep


class TestTieRule:
    """Equal timestamps: the pre-seeded schedule (faults, swaps, window
    boundaries), then trace arrivals, then events pushed during the
    run, in push order."""

    #: one request per millisecond, so literals land on the boundaries
    MS = (0.0, 0.001, 0.002, 0.003, 0.004, 0.005)
    #: hold every batch open for the whole trace
    OPEN = MicroBatcher(64, 1.0)

    def test_fault_runs_before_the_arrival_it_coincides_with(self):
        fleet = make_resilient(
            router="round_robin",
            num_replicas=2,
            cache_rows=0,
            batcher=MicroBatcher(1, 0.0),  # every arrival is a batch
            faults=FaultConfig(
                events=(
                    FaultEvent("fetch_outage", at_s=0.002, duration_s=0.0005),
                )
            ),
        )
        report = fleet.serve(at(*self.MS))
        # Request 2 arrives exactly as the outage starts: the outage
        # is already in force when its batch is priced.
        assert report.num_degraded == 1
        assert report.num_served == len(self.MS)

    def test_swap_runs_before_the_arrival_it_coincides_with(self):
        fleet = make_resilient(
            router="round_robin",
            num_replicas=1,
            batcher=self.OPEN,
            retry=RetryPolicy(timeout_ms=0.2),
            swaps=(
                SwapEvent(
                    at_s=0.002, replica=0, swap_s=0.0001, fresh_cache=False
                ),
            ),
        )
        report = fleet.serve(at(*self.MS))
        # The swap drains requests 0 and 1; request 2 finds the only
        # replica restarting and retries.  Had it arrived first it
        # would have been drained with them.
        assert report.swaps[0]["applied"] is True
        assert (report.num_retried, report.num_lost) == (1, 0)

    def test_fault_then_swap_then_window_at_one_timestamp(self):
        def run(swap_replica):
            fleet = make_resilient(
                router="round_robin",
                num_replicas=2,
                batcher=self.OPEN,
                faults=FaultConfig(
                    events=(
                        FaultEvent("replica_crash", at_s=0.002, replica=0),
                    )
                ),
                autoscaler=SLOAutoscaler(
                    AutoscalePolicy(
                        slo_p99_ms=1e9,
                        min_replicas=2,
                        max_replicas=2,
                        window_s=0.002,
                    )
                ),
                swaps=(
                    SwapEvent(at_s=0.002, replica=swap_replica, swap_s=0.0005),
                ),
            )
            return fleet.serve(at(*self.MS))

        # The crash lands first, so a swap of the same replica is skipped...
        assert run(swap_replica=0).swaps[0]["applied"] is False
        # ...and the window boundary sees both the crash and the swap.
        report = run(swap_replica=1)
        assert report.swaps[0]["applied"] is True
        assert report.windows[0]["t1"] == 0.002
        assert report.windows[0]["replicas"] == 0

    def test_window_runs_before_the_arrival_it_coincides_with(self):
        fleet = make_resilient(
            router="round_robin",
            num_replicas=1,
            batcher=self.OPEN,
            autoscaler=SLOAutoscaler(
                AutoscalePolicy(
                    slo_p99_ms=1e9,
                    min_replicas=1,
                    max_replicas=1,
                    window_s=0.002,
                )
            ),
        )
        report = fleet.serve(at(0.0, 0.001, 0.002, 0.003))
        # Requests 0 and 1 are queued at the boundary; request 2,
        # arriving on it, is not yet.
        assert report.windows[0]["queue_depth"] == 2.0

    def test_trace_arrival_then_pushed_events_in_push_order(self):
        retry = RetryPolicy(
            timeout_ms=1.0,
            backoff_base_ms=0.0,
            backoff_cap_ms=0.0,
            jitter=0.0,
            retry_budget=1.0,
        )
        # Zero backoff: the crash's detection, its failed batch's retry
        # and (mttr == timeout) the replica's recovery all land on one
        # timestamp — and so does trace request 2.
        same = 0.0015 + retry.timeout_s
        router = RecordingRouter()
        fleet = make_resilient(
            router=router,
            num_replicas=2,
            batcher=self.OPEN,
            faults=FaultConfig(
                events=(FaultEvent("replica_crash", at_s=0.0015, replica=0),)
            ),
            retry=retry,
            recovery=RecoveryModel(detection_s=0.0, cold_rebuild_s=0.001),
        )
        report = fleet.serve(at(0.0, 0.001, same))
        assert report.crashes[0]["detected_s"] == same
        assert report.crashes[0]["online_s"] == same
        assert router.log == [
            ("live", (True, True)),
            ("route", 0, 0),
            ("route", 1, 1),
            # -- everything below happens at ``same`` --
            ("route", 2, 0),  # the trace arrival: replica 0 looks alive
            ("live", (False, True)),  # pushed first: detection
            ("route", 0, 1),  # pushed second: request 0's retry
            ("live", (True, True)),  # pushed third: replica 0 is back
            # -- request 2 timed out against the dead replica --
            ("route", 2, 0),
        ]
        assert (report.num_served, report.num_lost) == (3, 0)

    def test_detection_then_hang_end_in_push_order(self):
        router = RecordingRouter()
        fleet = make_resilient(
            router=router,
            num_replicas=2,
            batcher=self.OPEN,
            faults=FaultConfig(
                events=(
                    # Shorter than the client timeout: detection is
                    # capped at the hang's end, so both land together.
                    FaultEvent(
                        "replica_hang",
                        at_s=0.0015,
                        duration_s=0.0004,
                        replica=0,
                    ),
                )
            ),
            retry=RetryPolicy(timeout_ms=1.0),
        )
        fleet.serve(at(0.0, 0.001, 0.004))
        live = [entry[1] for entry in router.log if entry[0] == "live"]
        assert live == [(True, True), (False, True), (True, True)]
