"""The one replay core behind every serving front door.

A served trace is replayed over **replica slots**.  A :class:`Slot`
owns a batch queue, a cache and ``k`` servers; the three front doors
are three configurations of it:

- :class:`~repro.serving.service.InferenceService` — one slot whose
  ``k = num_dense_hosts`` servers share one queue and one cache, no
  router;
- :class:`~repro.serving.fleet.ServingFleet` — N one-server slots
  behind a router, with no control plane;
- :class:`~repro.serving.faults.ResilientFleet` — the same N slots
  (plus autoscaler headroom) with a :class:`ControlPlane`: the fault /
  swap / observation-window schedule, the client retry policy, crash
  recovery and the autoscaler.

With no control plane no slot changes state, so the replay closes a
**batch plan** (:meth:`Replay._run_planned`), bit for bit what the
**event loop** does; that loop, under a control plane, merges the
arrival-sorted trace against a small heap of control events (trace
arrivals never enter the heap).  Both close batches on flush-on-full /
flush-on-deadline exactly like :class:`~repro.serving.batcher.MicroBatcher`,
and :meth:`Replay._close` probes the slot's cache and prices every batch
through the shared :class:`~repro.serving.service.PlacementEngine` — one
``cache.probe`` and one ``price_batch`` call site for the whole package.

Routing is read off the *router*.  A policy whose choice depends only
on a row's primary key and the live mask (``routes_by_key``: consistent
hashing) is routed one **membership epoch** at a time: one vectorised
``Router.route_trace`` over the whole trace at the start, and again
after each ``set_live`` that changed the mask; arrivals and retries
read ``assignment[idx]``, and a total outage keeps the stale
assignment.  A healthy door is the one-epoch case, for every policy.
Under a control plane the policies that read a cursor or queue depth
(``round_robin``, ``p2c``) are routed per arrival and per retry with
``route_one`` against the mask of that instant.  Round-robin agrees
across the two forms; p2c sees different depths (requests inside their
batching *window* vs requests *pending* in an open batch), so it is the
one policy whose healthy ``ResilientFleet`` replay is not bit-identical
to ``ServingFleet``.

**Tie rule.**  Events at equal timestamps run in this order: the
pre-seeded schedule (faults, then swaps, then window boundaries, each
in schedule order), then trace arrivals in trace order, then events
pushed during the run (retries, membership detection, replicas coming
online, hang ends) in push order.  Before any event at time ``t``,
every open batch whose deadline is ``<= t`` closes, earliest deadline
(then lowest slot) first.

**What the loop holds.**  The trace is one arrival-sorted
:class:`~repro.serving.workload.RequestTrace`; the loop walks its
arrival times as a python list (only ``route_one`` is handed the
:class:`Request` view of a row).  A slot's open batch is ``pending`` —
indices into the trace — beside ``arrived``, when each reached *this*
replica.  A retry is the heap entry ``(now + delay, seq, None, index)``:
the same row arriving later, so latency still counts from its original
arrival.  Closing a batch gathers ``keys[pending]`` once.

All state of a run lives on the :class:`Replay` object and its slots;
the front doors stay untouched by ``serve()``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.batcher import MicroBatch, MicroBatcher, cut_batches
from repro.serving.workload import Request, RequestTrace
from repro.sim.tracing import Phase, Timeline


class Slot:
    """One replica slot: a batch queue, a cache, ``servers`` servers,
    and the ledger its per-replica report is built from."""

    def __init__(
        self,
        idx: int,
        cache: Any,
        servers: int = 1,
        label: str = "",
        state: str = "active",
    ):
        self.idx = idx
        self.label = label  # timeline suffix ("/replica3"; "" = service)
        self.cache = cache
        self.caches = [cache]  # every cache used (recoveries swap it)
        # Snapshot cumulative state so the report covers *this* trace
        # even when the cache is reused across serves.
        self.stats_before = cache.stats
        self.free = [0.0] * servers  # per-server busy-until times
        self.state = state  # idle|active|dead|hung|drained|swapping
        self.online_at = 0.0
        self.detect_at = math.inf  # when the router learns it is down
        self.pending: List[int] = []  # open batch: trace indices ...
        self.arrived: List[float] = []  # ... and replica-local arrivals
        self.deadline = 0.0
        self.batches = 0
        self.served = 0  # requests served here; then, per closed batch:
        self.arrivals: List[np.ndarray] = []  # replica-local arrivals
        self.lats: List[np.ndarray] = []  # latency from *original* arrival
        # Same shape convention as the timeline-derived breakdowns: a
        # phase key exists only if the slot recorded an event for it.
        self.phase_ms: Dict[str, float] = {}

    def accepting(self, now_s: float) -> bool:
        """Actually able to take a request right now."""
        return self.state == "active" and now_s >= self.online_at

    def routable(self, now_s: float) -> bool:
        """What the router believes: down replicas stay routable until
        the client timeout detects them."""
        if self.accepting(now_s):
            return True
        return self.state in ("dead", "hung") and now_s < self.detect_at

    def cache_counts(self) -> Tuple[int, int]:
        """Hits and misses this slot's caches took during the run."""
        hits = sum(c.stats.hits for c in self.caches)
        misses = sum(c.stats.misses for c in self.caches)
        return hits - self.stats_before.hits, misses - self.stats_before.misses


@dataclass(frozen=True)
class ControlPlane:
    """What the fault-aware door adds to a replay (see
    :mod:`repro.serving.faults` for the policy types)."""

    faults: Any  # FaultConfig: expands into the seeded fault schedule
    swaps: Tuple[Any, ...]  # SwapEvents
    retry: Any  # RetryPolicy
    recovery: Optional[Any]  # RecoveryModel; None = crashes are permanent
    autoscaler: Optional[Any]  # SLOAutoscaler
    degraded_mode: bool
    cache_factory: Callable[[], Any]  # fresh cache for a revived slot


class Replay:
    """One run of the event loop: set-up, :meth:`run`, then the ledger
    the front doors assemble their reports from."""

    def __init__(
        self,
        requests: Sequence[Request],
        slots: List[Slot],
        engine: Any,
        batcher: MicroBatcher,
        timeline: Timeline,
        router: Optional[Any] = None,
        control: Optional[ControlPlane] = None,
    ):
        if len(requests) == 0:
            raise ValueError("cannot serve an empty request trace")
        self.trace = RequestTrace.of(requests).sorted()
        self.slots = slots
        self.engine = engine
        self.batcher = batcher
        self.timeline = timeline
        self.events_before = len(timeline.events)
        self.router = router
        self.control = control
        self.fetch_free = np.zeros(engine.num_fetch_servers)
        self.served: List[np.ndarray] = []  # original arrivals, per batch
        self.t0 = float(self.trace.arrival_s[0])
        self.num_initial = sum(1 for s in slots if s.state == "active")

        # Routing (see the module docstring): slot 0, the whole trace
        # per membership epoch, or per arrival with incrementally kept
        # queue depths.
        self.assignment: Optional[np.ndarray] = None
        self.depths: Optional[np.ndarray] = None
        if router is None:
            self.assignment = np.zeros(len(self.trace), dtype=np.int64)
        else:
            router.bind(len(slots))
            router.set_live([s.state == "active" for s in slots])
            if control is None or router.routes_by_key:
                self._route_epoch()
            else:
                self.depths = np.zeros(len(slots))

        # Control-plane ledger; stays empty on a healthy door.  Heap
        # entries are (time, seq, handler, payload); a retried arrival
        # has no handler.
        self.heap: List[Tuple[float, int, Optional[Callable], Any]] = []
        self.seq = 0
        self.degrade_windows: List[Tuple[float, float, float]] = []
        self.outage_windows: List[Tuple[float, float]] = []
        self.in_flight: List[Tuple[float, int]] = []  # (done, size) per batch
        self.win_lat: Dict[int, List[float]] = {}
        self.win_s = 0.0
        self.windows: List[Dict[str, Any]] = []
        self.scale_events: List[Dict[str, Any]] = []
        self.crashes: List[Dict[str, Any]] = []
        self.fault_timeline: List[Dict[str, Any]] = []
        self.swap_log: List[Dict[str, Any]] = []
        self.lost = 0
        self.retries = 0
        self.timeouts = 0
        self.degraded = 0
        self.degraded_rows = 0
        self.attempts: Dict[int, int] = {}  # trace index -> retries so far
        self.budget_left = 0
        if control is not None:
            self._seed_schedule(control)
        self.preseeded = self.seq

    def _seed_schedule(self, control: ControlPlane) -> None:
        """Pre-seed the heap: faults, then planned swaps, then window
        boundaries — the head of the tie rule."""
        span = float(self.trace.arrival_s[-1]) - self.t0
        self.req_id = self.trace.req_id.tolist()  # read per retry
        self.budget_left = int(
            math.ceil(control.retry.retry_budget * len(self.trace))
        )
        scaler = control.autoscaler
        if scaler is not None:
            scaler.reset()
        # Observation windows (autoscaler cadence; also the SLO report
        # granularity when no autoscaler is attached).
        if scaler is not None and scaler.policy.window_s > 0:
            self.win_s = scaler.policy.window_s
        else:
            self.win_s = span / 20.0 if span > 0 else 0.0
        for event in control.faults.schedule(span, self.num_initial):
            self._push(self.t0 + event.at_s, self._on_fault, event)
        for swap in control.swaps:
            self._push(self.t0 + swap.at_s, self._on_swap, swap)
        if self.win_s > 0:
            for k in range(1, int(math.ceil(span / self.win_s)) + 1):
                self._push(self.t0 + k * self.win_s, self._on_window, k)

    def _route_epoch(self) -> None:
        """Route every row under the router's current live mask."""
        self.assignment = self.router.route_trace(self.trace, self.batcher.max_delay_s)

    def _push(self, t: float, handler: Optional[Callable], payload: Any) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (t, self.seq, handler, payload))

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def run(self) -> "Replay":
        if self.control is None:
            self._run_planned()
        else:
            self._run_per_arrival()
        return self

    def _run_planned(self) -> None:
        """Close each slot's ``cut_batches`` in the event loop's order: by
        the arrival that triggers the flush (a full batch's last row; else
        the first later arrival at or past the deadline, or the trace
        end), deadline flushes first, then by deadline, then by slot."""
        arrival_s = self.trace.arrival_s
        rows = [np.flatnonzero(self.assignment == slot.idx) for slot in self.slots]
        times = [arrival_s[mine] for mine in rows]
        plan, cut = [], (self.batcher.max_batch_size, self.batcher.max_delay_s)
        for slot, mine, at in zip(self.slots, rows, times):
            for start, stop, ready_s, full in cut_batches(at.tolist(), *cut):
                last = int(mine[stop - 1])
                if not full:
                    at_ready = int(np.searchsorted(arrival_s, ready_s, "left"))
                    last = max(last + 1, at_ready)
                plan.append((last, full, ready_s, slot.idx, start, stop))
        host_share = self._host_share(self.t0)
        for _, _, ready_s, idx, lo, hi in sorted(plan):
            batch = rows[idx][lo:hi], times[idx][lo:hi]  # rows, their arrivals
            self._close(self.slots[idx], *batch, ready_s, host_share)

    def _run_per_arrival(self) -> None:
        """The event loop: every arrival, merged with the control heap."""
        trace, heap, slots = self.trace, self.heap, self.slots
        arrival = trace.arrival_s.tolist()
        depths, routed = self.depths, self.assignment
        assignment = None if routed is None else routed.tolist()
        max_batch_size = self.batcher.max_batch_size
        max_delay_s = self.batcher.max_delay_s
        # Lower bound on the open batches' deadlines: the slots are
        # scanned only when the earliest one can be due.
        next_deadline = math.inf
        i, n = 0, len(arrival)
        while i < n or heap:
            if heap and (
                i == n
                or heap[0][0] < arrival[i]
                or (heap[0][0] == arrival[i] and heap[0][1] <= self.preseeded)
            ):
                # A control event, or (no handler) a retry of row ``idx``.
                t, _, handler, idx = heapq.heappop(heap)
            else:
                t, handler, idx = arrival[i], None, i
                i += 1
            if t >= next_deadline:
                next_deadline = self._flush_due(t)
            if handler is not None:
                handler(t, idx)
                if self.assignment is not routed:  # a new epoch re-routed it
                    routed = self.assignment
                    assignment = routed.tolist()
                continue
            rep = (
                assignment[idx]
                if assignment is not None
                else self.router.route_one(trace[idx], t, depths)
            )
            slot = slots[rep]
            if slot.state != "active" or t < slot.online_at:
                # Routed at a down-but-undetected replica: the client
                # eats the timeout, backs off, and re-routes.
                self._schedule_retry(idx, t)
                continue
            pending = slot.pending
            if not pending:
                slot.deadline = t + max_delay_s
                if slot.deadline < next_deadline:
                    next_deadline = slot.deadline
            pending.append(idx)
            slot.arrived.append(t)
            if depths is not None:
                depths[rep] += 1.0
            if len(pending) == max_batch_size:
                self._flush(slot, t)  # flush-on-full at the closing arrival
        self._flush_due(math.inf)
        self._close_tail_windows()

    def _flush_due(self, now_s: float) -> float:
        """Flush-on-deadline for every open batch due by ``now_s``;
        returns the earliest deadline still open."""
        due = sorted(
            (slot.deadline, slot.idx)
            for slot in self.slots
            if slot.pending and slot.deadline <= now_s
        )
        for deadline, idx in due:
            self._flush(self.slots[idx], deadline)
        return min(
            (slot.deadline for slot in self.slots if slot.pending),
            default=math.inf,
        )

    def _take_open_batch(self, slot: Slot) -> Tuple[List[int], List[float]]:
        entries = slot.pending, slot.arrived
        slot.pending, slot.arrived = [], []
        if self.depths is not None:
            self.depths[slot.idx] = 0.0
        return entries

    def _flush(self, slot: Slot, ready_s: float) -> None:
        """Close one slot's open batch."""
        pending, arrived = self._take_open_batch(slot)
        host_share = self._host_share(ready_s)
        self._close(slot, np.asarray(pending), np.asarray(arrived), ready_s, host_share)

    def _close(
        self,
        slot: Slot,
        idx: np.ndarray,
        arrived: np.ndarray,
        ready_s: float,
        host_share: float,
    ) -> None:
        """Probe and price trace rows ``idx`` as one of ``slot``'s
        batches; ``arrived`` is when each reached this replica."""
        trace = self.trace
        batch = MicroBatch(
            RequestTrace.view(arrived, trace.keys[idx], trace.req_id[idx]),
            ready_s=ready_s,
        )
        server = slot.free.index(min(slot.free))
        start = max(ready_s, slot.free[server])
        hits, miss_keys = slot.cache.probe(batch.keys)
        extra = self.engine.chain_extra_seconds(slot.cache)
        misses = len(miss_keys)
        degraded = False
        if misses:
            outage_end = self._outage_end_at(start)
            if outage_end is not None:
                if self.control.degraded_mode:
                    # Serve stale/default rows now, price the quality
                    # hit; the miss rows cost a local read, not a fetch.
                    degraded = True
                else:
                    start = outage_end  # stall until the tier returns
        hits_eff, miss_eff = (hits + misses, 0) if degraded else (hits, misses)
        done, t_fetch, t_compute, t_queue = self.engine.price_batch(
            batch,
            start,
            self.fetch_free,
            hits_eff,
            miss_eff,
            host_share=host_share,
            label_suffix=slot.label,
            extra_compute_s=extra,
            fetch_scale=self._fetch_scale_at(start),
        )
        mine = slot.phase_ms
        if miss_eff:
            mine["embedding_comm"] = (
                mine.get("embedding_comm", 0.0) + t_fetch * 1e3
            )
        mine["compute"] = mine.get("compute", 0.0) + t_compute * 1e3
        mine["queue"] = mine.get("queue", 0.0) + t_queue * 1e3
        slot.free[server] = done
        slot.batches += 1
        if degraded:
            self.degraded += batch.size
            self.degraded_rows += misses
        offered = trace.arrival_s[idx]  # as originally offered
        lats = done - offered
        slot.served += batch.size
        slot.arrivals.append(arrived)
        slot.lats.append(lats)
        self.served.append(offered)
        if self.control is not None:
            self.in_flight.append((done, batch.size))
            self.win_lat.setdefault(self._window_index(done), []).append(
                lats * 1e3
            )

    def _host_share(self, now_s: float) -> float:
        """Share of a dense host each serving server owns: servers
        beyond the dense hosts time-share their GPUs, and survivors
        inherit the GPUs of dead replicas — the share is over servers
        actually serving right now."""
        serving = sum(
            len(slot.free) for slot in self.slots if slot.accepting(now_s)
        )
        return min(1.0, self.engine.num_dense_hosts / max(1, serving))

    def _fetch_scale_at(self, t: float) -> float:
        scale = 1.0
        for lo, hi, factor in self.degrade_windows:
            if lo <= t < hi:
                scale *= factor
        return scale

    def _outage_end_at(self, t: float) -> Optional[float]:
        end = None
        for lo, hi in self.outage_windows:
            if lo <= t < hi:
                end = hi if end is None else max(end, hi)
        return end

    def _window_index(self, t: float) -> int:
        if self.win_s <= 0:
            return 0
        return int((t - self.t0) / self.win_s)

    def _accepting_count(self, now_s: float) -> int:
        return sum(1 for slot in self.slots if slot.accepting(now_s))

    # ------------------------------------------------------------------
    # Control events
    # ------------------------------------------------------------------
    def _schedule_retry(self, idx: int, now_s: float) -> None:
        """The client's attempt at request ``idx`` just failed (timeout
        / crash): back off and re-route, or declare the request lost."""
        retry = self.control.retry
        self.timeouts += 1
        attempt = self.attempts.get(idx, 0) + 1
        if attempt > retry.max_retries or self.budget_left <= 0:
            self.lost += 1
            return
        self.budget_left -= 1
        self.retries += 1
        self.attempts[idx] = attempt
        delay = retry.timeout_s + retry.backoff_s(self.req_id[idx], attempt)
        self._push(now_s + delay, None, idx)

    def _fail_open_batch(self, slot: Slot, t: float) -> None:
        for idx in self._take_open_batch(slot)[0]:
            self._schedule_retry(idx, t)

    def _update_membership(self, now_s: float, _payload: Any = None) -> None:
        mask = np.zeros(len(self.slots), dtype=bool)
        for slot in self.slots:
            mask[slot.idx] = slot.routable(now_s)
        # If every replica is down the router keeps its stale view —
        # clients keep timing out (and retrying) against it, which is
        # exactly what a real front-end does during a total outage.
        if mask.any() and self.router.set_live(mask):
            if self.router.routes_by_key:  # a new membership epoch
                self._route_epoch()

    def _on_hang_end(self, t: float, slot: Slot) -> None:
        if slot.state == "hung":
            slot.state = "active"
            slot.detect_at = math.inf
            self._update_membership(t)

    def _on_fault(self, t: float, event: Any) -> None:
        record = dict(event.to_dict())
        record["at_s"] = t  # absolute time in the trace frame
        self.fault_timeline.append(record)
        if event.kind == "fetch_degrade":
            record["applied"] = True
            self.degrade_windows.append(
                (t, t + event.duration_s, event.factor)
            )
            return
        if event.kind == "fetch_outage":
            record["applied"] = True
            self.outage_windows.append((t, t + event.duration_s))
            return
        slot = self.slots[event.replica % self.num_initial]
        record["replica"] = slot.idx
        record["applied"] = slot.state == "active"
        if slot.state != "active":
            return  # already dead/drained: nothing left to kill
        timeout_s = self.control.retry.timeout_s
        if event.kind == "replica_hang":
            slot.state = "hung"
            hang_until = t + event.duration_s
            slot.detect_at = min(t + timeout_s, hang_until)
            self._push(slot.detect_at, self._update_membership, None)
            self._push(hang_until, self._on_hang_end, slot)
            self._fail_open_batch(slot, t)
            return
        slot.state = "dead"
        slot.detect_at = t + timeout_s
        self._push(slot.detect_at, self._update_membership, None)
        self._fail_open_batch(slot, t)
        crash: Dict[str, Any] = {
            "at_s": t,
            "replica": slot.idx,
            "detected_s": slot.detect_at,
            "mttr_s": None,
            "online_s": None,
        }
        recovery = self.control.recovery
        if recovery is not None:
            mttr = recovery.mttr_s()
            crash["mttr_s"] = mttr
            crash["online_s"] = t + mttr
            self._push(
                t + mttr,
                self._on_online,
                (slot, recovery.warm_rows, True, None),
            )
        self.crashes.append(crash)

    def _on_online(self, t: float, payload: Any) -> None:
        slot, warm_rows, fresh_cache, scale_event = payload
        if slot.state == "drained":
            return  # drained while provisioning: stay down
        if fresh_cache:
            slot.cache = self.control.cache_factory()
            slot.caches.append(slot.cache)
        slot.state = "active"
        slot.online_at = t
        slot.detect_at = math.inf
        prefill_s = 0.0
        # ``warm_rows`` is a count (hottest-first, crash recovery and
        # autoscale) or an explicit id array (a delta's touched rows).
        if isinstance(warm_rows, np.ndarray):
            rows_arr = np.asarray(warm_rows, dtype=np.int64)[
                : slot.cache.capacity_rows
            ]
        else:
            rows_arr = np.arange(
                min(int(warm_rows), slot.cache.capacity_rows),
                dtype=np.int64,
            )
        if rows_arr.size > 0:
            # Warm-start prefill: pull the rows over the fetch tier
            # before taking traffic — priced, so coming online is
            # never free.
            slot.cache.prefill(rows_arr)
            server = int(np.argmin(self.fetch_free))
            fetch_start = max(t, float(self.fetch_free[server]))
            prefill_s, nbytes, world = self.engine.fetch_timing(
                int(rows_arr.size)
            )
            warm_at = fetch_start + prefill_s
            self.fetch_free[server] = warm_at
            self.timeline.add(
                Phase.EMBEDDING_COMM,
                f"warm-prefill{slot.label}",
                prefill_s,
                nbytes=nbytes,
                world_size=world,
            )
            slot.free = [max(free, warm_at) for free in slot.free]
        if scale_event is not None:
            scale_event["online_s"] = t
            scale_event["prefill_s"] = prefill_s
        self._update_membership(t)

    def _on_swap(self, t: float, swap: Any) -> None:
        """Planned rollout step: drain, restart on the new version,
        warm the cache, rejoin — all priced, none of it a fault."""
        slot = self.slots[swap.replica]
        record = dict(swap.to_dict())
        record["at_s"] = t  # absolute time in the trace frame
        record["applied"] = slot.state == "active"
        record["online_s"] = None
        record["prefill_s"] = 0.0
        self.swap_log.append(record)
        if slot.state != "active":
            return  # dead/hung/drained: the rollout skips this replica
        online = (slot, swap.warm_rows, swap.fresh_cache, record)
        if swap.swap_s > 0:
            if slot.pending:
                # Graceful drain: the open batch is served, not failed.
                self._flush(slot, t)
            slot.state = "swapping"
            self._update_membership(t)
            self._push(t + swap.swap_s, self._on_online, online)
        else:
            # Zero-downtime swap: the replica never leaves the router.
            self._on_online(t, online)

    def _record_window(
        self, k: int, lats: List[float], depth: float, replicas: int
    ) -> Optional[float]:
        """Log observation window ``k`` (0-based); returns its p99."""
        p99 = float(np.percentile(np.concatenate(lats), 99)) if lats else None
        scaler = self.control.autoscaler
        self.windows.append(
            {
                "t0": self.t0 + k * self.win_s,
                "t1": self.t0 + (k + 1) * self.win_s,
                "p99_ms": p99,
                "queue_depth": depth,
                "replicas": replicas,
                "violated": bool(
                    scaler is not None
                    and p99 is not None
                    and p99 > scaler.policy.slo_p99_ms
                ),
            }
        )
        return p99

    def _on_window(self, t: float, k: int) -> None:
        # Windows run in time order: a batch done by now stays done.
        self.in_flight = [(d, size) for d, size in self.in_flight if d > t]
        queued = sum(len(slot.pending) for slot in self.slots)
        inflight = sum(size for _, size in self.in_flight) + queued
        accepting = self._accepting_count(t)
        depth = inflight / max(1, accepting)
        p99 = self._record_window(
            k - 1, self.win_lat.get(k - 1, []), depth, accepting
        )
        scaler = self.control.autoscaler
        if scaler is None:
            return
        current = sum(
            1
            for slot in self.slots
            if slot.state in ("active", "hung", "swapping")
        )
        target = scaler.decide(p99, depth, current)
        if target > current:
            evt = {
                "at_s": t,
                "action": "scale_up",
                "from_replicas": current,
                "to_replicas": current,
                "online_s": None,
                "prefill_s": 0.0,
            }
            idle = [slot for slot in self.slots if slot.state == "idle"]
            for slot in idle[: target - current]:
                slot.state = "active"
                slot.online_at = t + scaler.policy.provision_s
                self._push(
                    slot.online_at,
                    self._on_online,
                    (slot, scaler.policy.warm_rows, False, evt),
                )
                evt["to_replicas"] += 1
            if evt["to_replicas"] > current:
                self.scale_events.append(evt)
        elif target < current:
            victims = sorted(
                (slot for slot in self.slots if slot.accepting(t)),
                key=lambda s: (len(s.pending), -s.idx),
            )[: current - target]
            for slot in victims:
                if slot.pending:
                    self._flush(slot, t)
                slot.state = "drained"
            if victims:
                self.scale_events.append(
                    {
                        "at_s": t,
                        "action": "drain",
                        "from_replicas": current,
                        "to_replicas": current - len(victims),
                        "replicas_drained": [s.idx for s in victims],
                    }
                )
                self._update_membership(t)

    def _close_tail_windows(self) -> None:
        """Tail completions past the last scheduled boundary still
        count toward the SLO story."""
        if self.win_s > 0:
            recorded = len(self.windows)
            for k in sorted(k for k in self.win_lat if k >= recorded):
                self._record_window(
                    k, self.win_lat[k], 0.0, self._accepting_count(math.inf)
                )

    # ------------------------------------------------------------------
    # Ledger views
    # ------------------------------------------------------------------
    def report_material(self, slot: Optional[Slot] = None) -> Dict[str, Any]:
        """``build_report`` raw material — for one slot (its own phase
        ledger), or over the whole run (phases read off the timeline)."""
        if slot is not None:
            slots, arrivals, breakdown = [slot], slot.arrivals, slot.phase_ms
        else:
            slots, arrivals, breakdown = self.slots, self.served, {}
            for event in self.timeline.events[self.events_before :]:
                breakdown[event.phase.value] = (
                    breakdown.get(event.phase.value, 0.0)
                    + event.seconds * 1e3
                )
        lats = [lat for s in slots for lat in s.lats]
        counts = [s.cache_counts() for s in slots]
        return dict(
            requests=np.concatenate(arrivals) if arrivals else np.asarray([]),
            num_batches=sum(s.batches for s in slots),
            latencies_s=np.concatenate(lats) if lats else np.asarray([]),
            last_done_s=max(max(s.free) for s in slots),
            hits=sum(hits for hits, _ in counts),
            misses=sum(misses for _, misses in counts),
            breakdown_ms=breakdown,
        )
