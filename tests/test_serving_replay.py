"""Invariants of the one replay core behind the three serving front
doors: no run state on the door, replay-twice determinism, the
tie rule at equal timestamps, the all-lost fleet report, routing
by membership epoch against the per-arrival ``route_one`` oracle, and
the healthy doors' batch plan against the per-arrival loop."""

import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import Cluster
from repro.serving import (
    AutoscalePolicy,
    ConsistentHashRouter,
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
from repro.serving.replay import Replay
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


class PerArrivalHashRouter(ConsistentHashRouter):
    """Consistent hashing with the class-level fact withdrawn: the
    replay falls back to ``route_one`` per arrival and per retry — the
    oracle the epoch-routed assignment is held to."""

    routes_by_key = False


def both_ways(trace, **kw):
    """One fault replay routed per epoch and one per arrival."""
    epoch = make_resilient(router=ConsistentHashRouter(), **kw).serve(trace)
    oracle = make_resilient(router=PerArrivalHashRouter(), **kw).serve(trace)
    return epoch, oracle


def same_key_trace(key, times):
    """Every request carries primary key ``key``: one ring owner."""
    return [
        Request(i, t, np.array([key, 1000 + i])) for i, t in enumerate(times)
    ]


@st.composite
def fault_scenarios(draw):
    replicas = draw(st.integers(2, 5))
    span = 300 / 80_000.0
    counts = st.integers(0, 2)
    swaps = tuple(
        SwapEvent(
            at_s=draw(st.floats(0.0, 1.0)) * span,
            replica=draw(st.integers(0, replicas - 1)),
            swap_s=draw(st.sampled_from([0.0, 0.0004])),
            warm_rows=draw(st.sampled_from([0, 8])),
        )
        for _ in range(draw(counts))
    )
    autoscaler = None
    if draw(st.booleans()):
        autoscaler = SLOAutoscaler(
            AutoscalePolicy(
                slo_p99_ms=draw(st.sampled_from([0.3, 1.0, 5.0])),
                min_replicas=draw(st.integers(1, replicas)),
                max_replicas=5,
                provision_s=0.0003,
            )
        )
    recovery = None
    if draw(st.booleans()):  # else crashes are permanent
        recovery = RecoveryModel(
            detection_s=0.0002, restore_s=0.0003, checkpoint_period_s=0.0005
        )
    return dict(
        num_replicas=replicas,
        faults=FaultConfig(
            seed=draw(st.integers(0, 2**16)),
            replica_crashes=draw(st.integers(0, 3)),
            replica_hangs=draw(counts),
            hang_duration_s=draw(st.sampled_from([0.0001, 0.0008])),
            fetch_outages=draw(st.integers(0, 1)),
            outage_duration_s=0.0005,
        ),
        retry=RetryPolicy(
            timeout_ms=draw(st.sampled_from([0.1, 0.3, 1.0])),
            max_retries=draw(st.integers(0, 3)),
            retry_budget=draw(st.sampled_from([0.0, 0.02, 0.25, 1.0])),
        ),
        recovery=recovery,
        autoscaler=autoscaler,
        swaps=swaps,
    )


class TestEpochRoutingAgainstTheOracle:
    """``routes_by_key``: the whole trace routed once per membership
    epoch must be the replay ``route_one`` per arrival gives."""

    def test_the_class_level_fact_selects_the_path(self):
        calls = []

        class Counting(PerArrivalHashRouter):
            def route_one(self, req, now_s, depths=None):
                calls.append(req.req_id)
                return super().route_one(req, now_s, depths)

        report = make_resilient(router=Counting()).serve(poisson_trace(50))
        assert len(calls) == 50 + report.num_retries

        class NoRouteOne(ConsistentHashRouter):
            def route_one(self, req, now_s, depths=None):
                raise AssertionError("epoch routing never asks per arrival")

        stormy = make_stormy()
        stormy.router = NoRouteOne()
        assert stormy.serve(poisson_trace()).num_retries > 0

    @settings(max_examples=60, deadline=None)
    @given(scenario=fault_scenarios(), trace_seed=st.integers(0, 2**16))
    def test_fault_schedules(self, scenario, trace_seed):
        trace = RequestStream(
            WorkloadConfig(
                qps=80_000.0,
                num_requests=300,
                num_lookups=2,
                key_space=500,
                seed=trace_seed,
            )
        ).generate()
        epoch, oracle = both_ways(trace, **scenario)
        assert epoch.to_dict() == oracle.to_dict()
        assert epoch.num_served + epoch.num_lost == epoch.num_offered == 300

    def test_total_outage_keeps_the_stale_assignment(self):
        """Both replicas die for good.  The second detection finds no
        one routable, so the view of the first stays in force: every
        later request times out against the survivor-that-was."""
        kw = dict(
            num_replicas=2,
            faults=FaultConfig(
                events=(
                    FaultEvent("replica_crash", at_s=0.001, replica=0),
                    FaultEvent("replica_crash", at_s=0.002, replica=1),
                )
            ),
            retry=RetryPolicy(timeout_ms=0.2, max_retries=1),
        )
        epoch, oracle = both_ways(poisson_trace(), **kw)
        assert epoch.to_dict() == oracle.to_dict()
        assert 0 < epoch.num_lost < epoch.num_offered
        assert epoch.num_served + epoch.num_lost == epoch.num_offered

    def test_a_retry_reroutes_once_the_death_was_detected(self):
        """A request sent at a dead-but-undetected replica comes back
        after detection and must read the *new* epoch's assignment."""
        key, ring = 7, ConsistentHashRouter()
        ring.bind(2)
        dead = ring.route_one(Request(0, 0.0, np.array([key])), 0.0)
        heir = 1 - dead
        kw = dict(
            num_replicas=2,
            batcher=MicroBatcher(1, 0.0),  # every arrival is a batch
            faults=FaultConfig(
                events=(FaultEvent("replica_crash", at_s=0.001, replica=dead),)
            ),
            retry=RetryPolicy(timeout_ms=0.5),
        )
        # Request 1 arrives 0.1 ms after the crash, 0.4 ms before the
        # router learns of it; its retry lands after detection.
        trace = same_key_trace(key, (0.0, 0.0011, 0.004))
        epoch, oracle = both_ways(trace, **kw)
        assert epoch.to_dict() == oracle.to_dict()
        assert (epoch.num_served, epoch.num_lost, epoch.num_retries) == (3, 0, 1)
        served = epoch.fleet.requests_per_replica
        assert served[dead] == 1 and served[heir] == 2


class TestWindowInFlightCount:
    def test_pruning_never_drops_a_batch_still_in_flight(self, monkeypatch):
        """``_on_window`` forgets batches done by the boundary; the
        recorded depth must still count every request done after it."""
        closed, checked = [], []
        flush, on_window = Replay._flush, Replay._on_window

        def recording_flush(self, slot, ready_s):
            flush(self, slot, ready_s)
            closed.append(self.in_flight[-1])

        def checking_window(self, t, k):
            queued = sum(len(slot.pending) for slot in self.slots)
            late = sum(size for done, size in closed if done > t)
            expected = (late + queued) / max(1, self._accepting_count(t))
            before = len(self.windows)
            on_window(self, t, k)
            # (a scale-down inside the call flushes only afterwards)
            checked.append(self.windows[before]["queue_depth"] == expected)

        monkeypatch.setattr(Replay, "_flush", recording_flush)
        monkeypatch.setattr(Replay, "_on_window", checking_window)
        make_stormy().serve(poisson_trace())
        assert len(checked) >= 20 and all(checked)


# ----------------------------------------------------------------------
def per_arrival(serve, trace):
    """``serve(trace)`` with the healthy replay forced through the
    per-arrival loop — the oracle the batch plan is held to."""
    with mock.patch.object(
        Replay, "_run_planned", Replay._run_per_arrival
    ):
        return serve(trace)


@st.composite
def healthy_cases(draw):
    """A healthy door and a trace on a coarse grid: many arrivals tie,
    and many land exactly on a batch deadline."""
    batcher = MicroBatcher(
        draw(st.sampled_from([1, 2, 3, 8])),
        draw(st.sampled_from([0.0, 1e-4, 2.5e-4, 1e-3])),
    )
    router = draw(st.sampled_from([None, "round_robin", "hash", "p2c"]))
    replicas = draw(st.integers(1, 3))
    ticks = draw(st.lists(st.integers(0, 60), min_size=1, max_size=120))
    keys = draw(
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40)),
            min_size=len(ticks),
            max_size=len(ticks),
        )
    )
    trace = [
        Request(i, 5e-5 * tick, np.array(key))
        for i, (tick, key) in enumerate(zip(ticks, keys))
    ]
    return batcher, router, replicas, trace


def healthy_door(batcher, router, replicas):
    placement = Placement("disaggregated", emb_hosts=1)
    if router is None:
        return InferenceService(
            sim(), MODEL, placement, batcher, LRUEmbeddingCache(16)
        )
    return ServingFleet(
        sim(),
        MODEL,
        placement,
        batcher,
        router=router,
        num_replicas=replicas,
        cache_rows=16,
    )


class TestBatchPlanAgainstThePerArrivalLoop:
    """A healthy door closes its batches from a plan; the per-arrival
    loop on the same replay must report the same run, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=healthy_cases())
    def test_healthy_doors(self, case):
        batcher, router, replicas, trace = case
        planned = healthy_door(batcher, router, replicas).serve(trace)
        oracle = per_arrival(
            healthy_door(batcher, router, replicas).serve, trace
        )
        assert planned.to_dict() == oracle.to_dict()

    @pytest.mark.parametrize("make", [make_service, make_fleet])
    def test_poisson_trace(self, make):
        planned = make().serve(poisson_trace())
        oracle = per_arrival(make().serve, poisson_trace())
        assert planned.to_dict() == oracle.to_dict()

    def test_healthy_doors_never_walk_arrivals(self, monkeypatch):
        walked = []
        loop = Replay._run_per_arrival

        def spy(self):
            walked.append(self.control is not None)
            loop(self)

        monkeypatch.setattr(Replay, "_run_per_arrival", spy)
        make_service().serve(poisson_trace())
        for router in ("round_robin", "hash", "p2c"):
            make_fleet(router=router).serve(poisson_trace())
        assert walked == []
        make_resilient().serve(poisson_trace())  # no faults scheduled
        make_stormy().serve(poisson_trace())
        assert walked == [True, True]
