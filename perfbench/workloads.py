"""The four workloads: geometry, set-up, one operation, output checks.

Each workload is a closed loop with one client: the next operation
starts when the previous one returned.  ``run(i)`` is the timed call
into the program; ``check(i, out)`` runs outside the timed region,
raises :class:`CheckFailed` when an output is wrong, and returns the
operation's fingerprint plus the facts (simulated-clock values, fault
counts) derived from its output.  Inputs are a pure function of the
seed; the program only ever receives generated inputs.

The timed path calls only names exported by the ``__all__`` of
``repro.api``, ``repro.training``, ``repro.core``, ``repro.models``,
``repro.data``, ``repro.partitioner``, ``repro.planner``, ``repro.nn``,
``repro.sim`` and ``repro.hardware``.  All ``repro`` imports are local
to the methods so that importing this module costs nothing and the
runner can time the program's imports as part of set-up.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Any, Dict, Tuple

NUM_DENSE = 13
NUM_SPARSE = 26
NUM_BATCHES = 16  # pre-generated, cycled

Facts = Dict[str, float]


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _arch(dim: int, bottom: tuple, top: tuple):
    from repro.models import paper_dlrm_arch

    return dataclasses.replace(
        paper_dlrm_arch(), embedding_dim=dim, bottom_mlp=bottom, top_mlp=top
    )


def _batches(batch: int, rows: int, seed: int):
    import numpy as np
    from repro.data import random_batch

    rng = np.random.default_rng(seed)
    return [
        random_batch(batch, NUM_DENSE, NUM_SPARSE, rows, rng=rng)
        for _ in range(NUM_BATCHES)
    ]


class _Workload:
    """What the runner needs of a workload, with the common defaults."""

    name: str
    modules: Tuple[str, ...]  # imported (and timed) before set-up
    warmup = 3  # untimed leading operations
    items_per_op: int
    max_batch_size = None  # serving only: what batcher fill is against

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed

    def setup(self) -> None:
        pass

    def extras(self) -> Facts:
        """Metrics a traced round adds once, after its operations."""
        return {}


class TrainDMT(_Workload):
    """Single-process ``Trainer.train_batch`` on a tower-module DMT-DLRM
    whose embedding plane does most of the work."""

    name = "train_dmt"
    modules = (
        "repro.data", "repro.models", "repro.partitioner", "repro.planner",
        "repro.training",
    )
    batch = 1024
    dim = 64
    towers = 8
    tower_dim = 32
    bottom, top = (128,), (256, 128)

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.rows = 2_000 if smoke else 20_000
        self.items_per_op = self.batch

    def setup(self) -> None:
        import numpy as np
        from repro.models import DLRM, DMTDLRM, tiny_table_configs
        from repro.partitioner import (
            TowerPartitioner,
            feature_interaction_matrix,
        )
        from repro.planner import AutoPlanner
        from repro.training import TrainConfig, Trainer

        tables = tiny_table_configs(NUM_SPARSE, self.rows, self.dim)
        arch = _arch(self.dim, self.bottom, self.top)
        self.batches = _batches(self.batch, self.rows, self.seed)
        # The paper's flow: probe a flat model's activations, learn the
        # tower partition from them, plan the shards, build the DMT
        # model on that partition.
        probe = DLRM(
            NUM_DENSE, tables, arch, rng=np.random.default_rng(self.seed)
        )
        dense, ids, _ = self.batches[0]
        interaction = feature_interaction_matrix(
            probe, dense, ids, center=True
        )
        del probe
        partition = TowerPartitioner(
            self.towers
        ).partition_from_interaction(
            interaction, rng=np.random.default_rng(self.seed)
        ).partition
        AutoPlanner(self.towers).plan(tables)
        model = DMTDLRM(
            NUM_DENSE,
            tables,
            partition,
            arch,
            tower_dim=self.tower_dim,
            c=1,
            p=0,
            rng=np.random.default_rng(self.seed),
        )
        self.trainer = Trainer(model, TrainConfig(batch_size=self.batch))

    def run(self, i: int) -> float:
        return self.trainer.train_batch(*self.batches[i % NUM_BATCHES])

    def check(self, i: int, loss: float) -> Tuple[str, Facts]:
        _require(math.isfinite(loss), f"step {i}: loss {loss!r} not finite")
        return repr(loss), {}


class TrainSPTTSim(_Workload):
    """``DistributedDMTTrainer.fit_step`` over a simulated 4x2 cluster:
    the SPTT dataflow itself, on tables too small to matter."""

    name = "train_sptt_sim"
    modules = (
        "repro.core", "repro.data", "repro.hardware", "repro.models",
        "repro.nn", "repro.sim", "repro.training",
    )
    warmup = 5  # each one checked against a single-process reference
    batch = 1024  # global
    rows = 2_000
    dim = 32
    hosts, gpus = 4, 2
    tower_dim = 16
    bottom, top = (64,), (64,)
    tolerance = 1e-9
    items_per_op = batch

    def _dmt_model(self):
        import numpy as np
        from repro.core import FeaturePartition
        from repro.models import DMTDLRM

        return DMTDLRM(
            NUM_DENSE,
            self.tables,
            FeaturePartition.contiguous(NUM_SPARSE, self.hosts),
            self.arch,
            tower_dim=self.tower_dim,
            rng=np.random.default_rng(self.seed),
        )

    def setup(self) -> None:
        from repro.core import DistributedDMTTrainer
        from repro.hardware import Cluster
        from repro.models import tiny_table_configs
        from repro.nn import Adam, RowwiseAdagrad
        from repro.sim import SimCluster
        from repro.training import TrainConfig, Trainer

        self.tables = tiny_table_configs(NUM_SPARSE, self.rows, self.dim)
        self.arch = _arch(self.dim, self.bottom, self.top)
        self.batches = _batches(self.batch, self.rows, self.seed)
        self.cluster = Cluster(self.hosts, self.gpus, "A100")
        model = self._dmt_model()
        self.sim = SimCluster(self.cluster)
        self.trainer = DistributedDMTTrainer(self.sim, model)
        config = TrainConfig(batch_size=self.batch)
        self.optimizers = [
            Adam(
                model.dense_parameters() + model.tower_parameters(),
                lr=config.dense_lr,
            ),
            RowwiseAdagrad(model.sparse_parameters(), lr=config.sparse_lr),
        ]
        # Same seed, same optimizers, one process: the reference the
        # distributed steps must reproduce.
        self.reference = Trainer(self._dmt_model(), config)
        self._seen = 0
        self._first_iter_s = 0.0

    def run(self, i: int) -> float:
        return self.trainer.fit_step(
            *self.batches[i % NUM_BATCHES], self.optimizers
        )

    def check(self, i: int, loss: float) -> Tuple[str, Facts]:
        from repro.sim import Phase

        _require(math.isfinite(loss), f"step {i}: loss {loss!r} not finite")
        if i < self.warmup:
            ref = self.reference.train_batch(*self.batches[i % NUM_BATCHES])
            _require(
                abs(loss - ref) <= self.tolerance,
                f"step {i}: distributed loss {loss!r} != reference {ref!r}",
            )
        events = self.sim.timeline.events[self._seen:]
        self._seen += len(events)
        by_phase: Dict[Any, float] = {}
        for event in events:
            by_phase[event.phase] = (
                by_phase.get(event.phase, 0.0) + event.seconds
            )
        comm = by_phase.get(Phase.EMBEDDING_COMM, 0.0) + by_phase.get(
            Phase.DENSE_SYNC, 0.0
        )
        total = sum(by_phase.values())
        if i == 0:
            self._first_iter_s = total
        return repr(loss), {
            "sim.timeline.events": len(events),
            "sim.timeline.iter_ms": 1e3 * total,
            "sim.timeline.comm_ms": 1e3 * comm,
            "sim.timeline.compute_ms": 1e3 * (total - comm),
        }

    def extras(self) -> Facts:
        """The paper's headline, priced: simulated time of one flat
        hybrid-parallel iteration over one DMT iteration (the first of
        each: pricing depends on shapes only), same geometry."""
        import numpy as np
        from repro.core import DistributedHybridTrainer
        from repro.models import DLRM
        from repro.sim import SimCluster

        flat = DLRM(
            NUM_DENSE,
            self.tables,
            self.arch,
            rng=np.random.default_rng(self.seed),
        )
        flat_sim = SimCluster(self.cluster)
        hybrid = DistributedHybridTrainer(flat_sim, flat)
        hybrid.train_step(*self.batches[0])
        return {
            "sim.timeline.speedup_vs_flat": (
                flat_sim.timeline.total() / self._first_iter_s
            )
        }


class _Serve(_Workload):
    """``Session(spec).serve()``: one replay, trace generation included."""

    modules = ("repro.api",)
    arm = "disaggregated"
    max_batch_size = 256

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.requests = 2_000 if smoke else self.full_requests
        self.items_per_op = self.requests

    def spec(self, seed: int):
        raise NotImplementedError

    def run(self, i: int):
        from repro.api import Session

        return Session(self.spec(self.seed + i)).serve()

    def _check_fleet(self, fleet, served: int) -> None:
        top = fleet.fleet
        _require(
            sum(fleet.requests_per_replica) == served == top.num_requests,
            "replica request counts do not add up to the served total",
        )
        replicas = fleet.replicas.values()
        hits = sum(r.cache_hits for r in replicas)
        misses = sum(r.cache_misses for r in replicas)
        _require(
            (hits, misses) == (top.cache_hits, top.cache_misses),
            "replica cache counts do not add up to the fleet's",
        )
        lookups = top.cache_hits + top.cache_misses
        _require(lookups > 0, "no cache lookups recorded")
        _require(
            top.cache_hit_rate == top.cache_hits / lookups,
            "hits + misses != lookups behind the reported hit rate",
        )

    def _facts(self, artifact) -> Facts:
        report = artifact.reports[self.arm]
        phases = report.breakdown_ms
        return {
            "sim.serving.p50_ms": report.latency_ms["p50"],
            "sim.serving.p99_ms": report.latency_ms["p99"],
            "sim.serving.rps": report.throughput_rps,
            "sim.serving.queue_ms": phases.get("queue", 0.0),
            "sim.serving.fetch_ms": phases.get("embedding_comm", 0.0),
            "sim.serving.compute_ms": phases.get("compute", 0.0),
            "cache_lookups": report.cache_hits + report.cache_misses,
        }

    @staticmethod
    def _fingerprint(artifact) -> str:
        text = json.dumps(artifact.summary(), sort_keys=True)
        return hashlib.sha1(text.encode()).hexdigest()[:16]


class ServeSteady(_Serve):
    """A healthy fleet on the vectorised read-mostly path."""

    name = "serve_steady"
    full_requests = 20_000

    def spec(self, seed: int):
        from repro.api import ClusterSpec, RunSpec, ServeSpec

        return RunSpec(
            name=self.name,
            cluster=ClusterSpec(8, 4, "A100"),
            serve=ServeSpec(
                kind="dlrm",
                qps=500_000.0,
                num_requests=self.requests,
                key_space=100_000,
                skew=1.0,
                max_batch_size=self.max_batch_size,
                max_queue_delay_ms=1.0,
                cache_rows=16_384,
                placement=self.arm,
                emb_hosts=2,
                seed=seed,
                fleet_replicas=6,
                router="p2c",
            ),
        )

    def check(self, i: int, artifact) -> Tuple[str, Facts]:
        fleet = artifact.fleet_reports[self.arm]
        _require(not artifact.fault_reports, "healthy run has a fault report")
        _require(
            fleet.fleet.num_requests == self.requests,
            "served != offered on a healthy fleet",
        )
        self._check_fleet(fleet, self.requests)
        return self._fingerprint(artifact), self._facts(artifact)


class ServeChaos(_Serve):
    """The same layers driven per arrival by the fault-injecting event
    loop: crashes, a fetch brownout, retries, autoscaling, hot-set
    churn, a DRAM tier under the HBM cache."""

    name = "serve_chaos"
    full_requests = 8_000
    qps = 2_000_000.0

    def spec(self, seed: int):
        from repro.api import (
            AutoscaleSpec,
            ClusterSpec,
            FaultSpec,
            RunSpec,
            ServeSpec,
            TierSpec,
        )

        span = self.requests / self.qps
        return RunSpec(
            name=self.name,
            cluster=ClusterSpec(8, 4, "A100"),
            serve=ServeSpec(
                kind="dlrm",
                qps=self.qps,
                num_requests=self.requests,
                key_space=65_536,
                skew=1.0,
                max_batch_size=self.max_batch_size,
                max_queue_delay_ms=1.0,
                cache_rows=4_096,
                placement=self.arm,
                emb_hosts=2,
                seed=seed,
                scenario="flash",  # x2.5 over the middle 30 %
                flash_start_s=0.35 * span,
                flash_duration_s=0.3 * span,
                flash_factor=2.5,
                churn_keys_per_s=2_000_000.0,
                fleet_replicas=3,
                router="hash",
            ),
            tiers=TierSpec(
                levels=("dram",), cache_rows=(32_768,), backing="remote"
            ),
            faults=FaultSpec(
                seed=seed,
                replica_crashes=2,
                fetch_degrades=1,
                degrade_duration_s=0.1 * span,
                timeout_ms=0.5,
            ),
            autoscale=AutoscaleSpec(
                slo_p99_ms=1.0, min_replicas=3, max_replicas=5
            ),
        )

    def check(self, i: int, artifact) -> Tuple[str, Facts]:
        report = artifact.fault_reports[self.arm]
        _require(
            report.num_offered == self.requests,
            "offered != generated requests",
        )
        _require(
            report.num_served + report.num_lost == report.num_offered,
            "served + lost != offered",
        )
        self._check_fleet(report.fleet, report.num_served)
        facts = self._facts(artifact)
        facts.update(
            {
                "serving.faults.events": len(report.fault_timeline),
                "serving.faults.retries": report.num_retries,
                "serving.faults.lost": report.num_lost,
                "serving.faults.mttr_ms": 1e3 * report.mttr_s,
            }
        )
        return self._fingerprint(artifact), facts


WORKLOADS = {
    cls.name: cls for cls in (TrainDMT, TrainSPTTSim, ServeSteady, ServeChaos)
}
