"""Plan-time static validation of :class:`~repro.api.spec.RunSpec`s.

A RunSpec validates each section locally at construction; this module
adds the *cross-section* pass: symbolic shape/capacity propagation over
the model + data + cluster + partition + serve + checkpoint config
graph, with no execution.  It catches the misconfigurations that
otherwise surface minutes into a run (a global batch the simulated
world cannot split, an embedding plane that overflows the HBM it is
sharded onto, a warm-start into a disabled cache) or — worse — never
surface at all (an autosave cadence longer than the run, a flash crowd
scheduled after the trace ends).

Checks are small registered functions producing the same
:class:`~repro.analysis.diagnostics.Diagnostic` type as ``repro-lint``;
``error`` findings make :meth:`repro.api.Session.analyze` raise
:class:`SpecAnalysisError` before any stage executes.  Codes are
stable and pinned by the negative-spec test suite.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from repro.analysis.diagnostics import Diagnostic
from repro.api.spec import RunSpec, SpecError
from repro.hardware.specs import get_spec
from repro.models.configs import criteo_table_configs, tiny_table_configs
from repro.nn.module import DTYPE
from repro.planner import AutoPlanner
from repro.serving import TieredStorage

__all__ = [
    "SpecAnalysisError",
    "analyze_spec",
    "registered_checks",
    "spec_check",
    "spec_tables",
]

#: The profile dim served without a model section — mirrors the
#: ``criteo_table_configs`` default.
_PROFILE_EMBEDDING_DIM = 128


class SpecAnalysisError(SpecError):
    """A RunSpec failed plan-time static validation.

    Subclasses :class:`~repro.api.spec.SpecError` so every caller that
    already handles invalid specs (the CLI, the experiments) handles
    analysis rejections the same way.  ``diagnostics`` carries the full
    finding list (errors and warnings).
    """

    def __init__(self, diagnostics: List[Diagnostic]):
        self.diagnostics = diagnostics
        errors = [d for d in diagnostics if d.severity == "error"]
        lines = "\n".join(d.format() for d in errors)
        super().__init__(
            f"spec failed static validation with {len(errors)} error(s):\n"
            f"{lines}"
        )


_CheckFn = Callable[[RunSpec], Iterable[Diagnostic]]
_CHECKS: Dict[str, _CheckFn] = {}


def spec_check(name: str) -> Callable[[_CheckFn], _CheckFn]:
    """Register one cross-section check under a stable name."""

    def register(fn: _CheckFn) -> _CheckFn:
        if name in _CHECKS:
            raise ValueError(f"duplicate spec check {name!r}")
        _CHECKS[name] = fn
        return fn

    return register


def registered_checks() -> Dict[str, _CheckFn]:
    return dict(_CHECKS)


def _diag(
    severity: str,
    code: str,
    message: str,
    section: str,
    hint: str,
) -> Diagnostic:
    return Diagnostic(
        severity=severity,
        code=code,
        message=message,
        path=section,
        hint=hint,
        source="spec",
    )


# ----------------------------------------------------------------------
# Shared symbolic quantities
# ----------------------------------------------------------------------
def _train_split_size(data) -> int:
    """Rows in the training split — must mirror ``train_eval_split``."""
    return int(data.num_samples * (1.0 - data.eval_fraction))


def spec_tables(spec: RunSpec):
    """The embedding tables a spec plans: tiny trainable tables with a
    data section, paper-scale Criteo tables otherwise.
    :meth:`Session.plan <repro.api.Session.plan>` and the capacity
    checks below read them from here."""
    if spec.data is not None:
        dim = (
            spec.model.embedding_dim if spec.model is not None else 16
        )
        return tiny_table_configs(
            spec.data.num_sparse, spec.data.cardinality, dim
        )
    return criteo_table_configs()


def _serving_row_bytes(spec: RunSpec) -> int:
    """Bytes per cached embedding row on the serving tier."""
    if spec.model is not None:
        return spec.model.embedding_dim * DTYPE.itemsize
    return _PROFILE_EMBEDDING_DIM * DTYPE.itemsize


def _rank_capacity_bytes(spec: RunSpec) -> float:
    return get_spec(spec.cluster.generation).hbm_capacity_bytes


def _storage(spec: RunSpec) -> Optional[TieredStorage]:
    """The replica storage the serve stage builds, if the spec is tiered."""
    if spec.tiers is None or spec.serve is None:
        return None
    return spec.tiers.storage(spec.cluster.generation, spec.serve.cache_rows)


# ----------------------------------------------------------------------
# Training-plane checks
# ----------------------------------------------------------------------
@spec_check("degenerate-data-split")
def _check_degenerate_split(spec: RunSpec):
    if spec.data is None:
        return
    if _train_split_size(spec.data) == 0:
        yield _diag(
            "error",
            "degenerate-data-split",
            f"num_samples={spec.data.num_samples} at eval_fraction="
            f"{spec.data.eval_fraction:g} leaves an empty training "
            f"split",
            "data.eval_fraction",
            "raise num_samples or lower eval_fraction so "
            "int(num_samples * (1 - eval_fraction)) >= 1",
        )


def _train_sections(spec: RunSpec):
    """(name, section) of every train section that runs: ``train``
    and, when the ab section sets one, arm B's ``ab.train_b``."""
    if spec.train is not None:
        yield "train", spec.train
    if spec.ab is not None and spec.ab.train_b is not None:
        yield "ab.train_b", spec.ab.train_b


@spec_check("batch-exceeds-train-split")
def _check_batch_fits_split(spec: RunSpec):
    if spec.data is None:
        return
    # Every arm trains on the split; the online loop's trainer on each
    # stream window.
    split = _train_split_size(spec.data)
    passes = [(name, t, split, "training split") for name, t in _train_sections(spec)]
    if spec.online is not None and spec.train is not None:
        window = spec.online.window_samples
        passes.append(("train", spec.train, window, "online window"))
    for name, train, samples, what in passes:
        if samples and train.batch_size > samples:
            yield _diag(
                "error",
                "batch-exceeds-train-split",
                f"{name}.batch_size={train.batch_size} exceeds the "
                f"{samples}-sample {what}",
                f"{name}.batch_size",
                f"shrink batch_size or grow the {what} — the batch "
                f"iterator rejects batches larger than its samples",
            )


@spec_check("probe-batch-exceeds-split")
def _check_probe_batch_fits_split(spec: RunSpec):
    if spec.partition is None or spec.data is None:
        return
    if not spec.partition.needs_probe:
        return
    split = _train_split_size(spec.data)
    if split and spec.partition.probe_batch_size > split:
        yield _diag(
            "error",
            "probe-batch-exceeds-split",
            f"partition.probe_batch_size="
            f"{spec.partition.probe_batch_size} exceeds the "
            f"{split}-sample training split the probe trains on",
            "partition.probe_batch_size",
            "shrink probe_batch_size or grow data.num_samples",
        )


@spec_check("probe-samples-truncated")
def _check_probe_samples(spec: RunSpec):
    if spec.partition is None or spec.data is None:
        return
    if not spec.partition.needs_probe:
        return
    split = _train_split_size(spec.data)
    if split and spec.partition.probe_samples > split:
        yield _diag(
            "warning",
            "probe-samples-truncated",
            f"partition.probe_samples={spec.partition.probe_samples} "
            f"exceeds the {split}-sample training split; the "
            f"interaction probe will silently measure only {split}",
            "partition.probe_samples",
            "lower probe_samples to at most the training-split size",
        )


@spec_check("global-batch-indivisible")
def _check_global_batch(spec: RunSpec):
    world = spec.cluster.world_size
    for name, train in _train_sections(spec):
        if train.mode == "simulated" and train.batch_size % world != 0:
            yield _diag(
                "error",
                "global-batch-indivisible",
                f"{name}.batch_size={train.batch_size} is not "
                f"divisible by the {world}-rank simulated world",
                f"{name}.batch_size",
                f"pick a multiple of {world} — the distributed pipeline "
                f"splits the global batch evenly per rank",
            )


# ----------------------------------------------------------------------
# Capacity checks (embedding plane vs hardware)
# ----------------------------------------------------------------------
@spec_check("shard-capacity-overflow")
def _check_shard_capacity(spec: RunSpec):
    if spec.model is None and spec.perf is None:
        return
    tables = spec_tables(spec)
    plan = AutoPlanner(spec.cluster.world_size).plan(tables)
    capacity = _rank_capacity_bytes(spec)
    worst = max(plan.storage_by_rank())
    if worst > capacity:
        yield _diag(
            "error",
            "shard-capacity-overflow",
            f"the busiest rank's embedding shards need "
            f"{worst / 1e9:.1f} GB but one "
            f"{spec.cluster.generation} holds "
            f"{capacity / 1e9:.0f} GB of HBM",
            "cluster",
            "add hosts/GPUs (or a larger generation) until the "
            "per-rank shard bytes fit",
        )


@spec_check("fetch-tier-overflow")
def _check_fetch_tier_capacity(spec: RunSpec):
    """Miss traffic's backing store must hold the embedding tables.

    Classic disaggregated serving fetches misses from the emb-hosts'
    HBM; a remote-backed tier hierarchy fetches them from the remote
    parameter server's (DRAM-backed) capacity instead, so the bound
    switches with ``tiers.backing``.
    """
    serve = spec.serve
    if serve is None:
        return
    storage = _storage(spec)
    remote_backed = storage is not None and not storage.backing.local
    if not remote_backed and not serve.serves_disaggregated:
        return
    tables = spec_tables(spec)
    total = sum(t.storage_bytes for t in tables)
    emb_hosts = serve.resolved_emb_hosts(spec.cluster.num_hosts)
    if remote_backed:
        tier = emb_hosts * storage.backing.capacity_bytes
        label = f"{emb_hosts}-host remote parameter-server tier"
    else:
        tier = (
            emb_hosts
            * spec.cluster.gpus_per_host
            * _rank_capacity_bytes(spec)
        )
        label = f"{emb_hosts}-host disaggregated fetch tier"
    if total > tier:
        yield _diag(
            "error",
            "fetch-tier-overflow",
            f"the embedding tables need {total / 1e9:.1f} GB but the "
            f"{label} holds {tier / 1e9:.0f} GB",
            "serve.emb_hosts",
            "grow emb_hosts (embedding capacity scales independently "
            "of dense capacity — that is the point of disaggregation)",
        )


@spec_check("cache-overcommits-memory")
def _check_cache_memory(spec: RunSpec):
    if spec.serve is None:
        return
    serve = spec.serve
    replicas = serve.fleet_replicas or 1
    cache_bytes = replicas * serve.cache_rows * _serving_row_bytes(spec)
    dense_hosts = spec.cluster.num_hosts
    if serve.serves_disaggregated:
        dense_hosts -= serve.resolved_emb_hosts(spec.cluster.num_hosts)
    capacity = (
        dense_hosts
        * spec.cluster.gpus_per_host
        * _rank_capacity_bytes(spec)
    )
    if cache_bytes > capacity:
        yield _diag(
            "error",
            "cache-overcommits-memory",
            f"{replicas} replica cache(s) of {serve.cache_rows} rows "
            f"need {cache_bytes / 1e9:.1f} GB but the "
            f"{dense_hosts}-host dense tier holds "
            f"{capacity / 1e9:.0f} GB",
            "serve.cache_rows",
            "shrink cache_rows or fleet_replicas until the caches fit "
            "the dense tier's HBM",
        )


# ----------------------------------------------------------------------
# Tier-hierarchy checks
# ----------------------------------------------------------------------
@spec_check("tier-capacity-misordered")
def _check_tier_capacity_order(spec: RunSpec):
    """Chain levels must widen (or hold) going down the hierarchy.

    The cache chain is inclusive — a level only sees the misses of the
    level above, and those rows were just admitted above too — so a
    deeper level smaller than the one over it can never hold anything
    the faster level does not already hold.
    """
    storage = _storage(spec)
    if storage is None:
        return
    for above, below in zip(storage.levels, storage.levels[1:]):
        if below.cache_rows < above.cache_rows:
            yield _diag(
                "error",
                "tier-capacity-misordered",
                f"tier {below.spec.name!r} holds {below.cache_rows} rows "
                f"under the {above.cache_rows}-row {above.spec.name!r} "
                f"level above it; an "
                f"inclusive chain level smaller than its parent can "
                f"never serve a hit",
                "tiers.cache_rows",
                "size each level at least as large as the level above "
                "(hbm level 0 is serve.cache_rows)",
            )


@spec_check("tier-overflow")
def _check_tier_overflow(spec: RunSpec):
    """Each chain level must fit its tier's physical per-host capacity."""
    storage = _storage(spec)
    if storage is None:
        return
    serve = spec.serve
    replicas = serve.fleet_replicas if serve.uses_fleet else 1
    row_bytes = _serving_row_bytes(spec)
    dense_hosts = spec.cluster.num_hosts
    if serve.serves_disaggregated:
        dense_hosts -= serve.resolved_emb_hosts(spec.cluster.num_hosts)
    for level in storage.levels[1:]:
        name, rows = level.spec.name, level.cache_rows
        need = replicas * rows * row_bytes
        capacity = dense_hosts * level.spec.capacity_bytes
        if need > capacity:
            yield _diag(
                "error",
                "tier-overflow",
                f"{replicas} replica {name} level(s) of {rows} rows "
                f"need {need / 1e9:.1f} GB but the {dense_hosts}-host "
                f"dense tier holds {capacity / 1e9:.0f} GB of {name}",
                "tiers.cache_rows",
                f"shrink the {name} level or fleet_replicas until it "
                f"fits the hosts' physical {name} capacity",
            )


@spec_check("tier-dead-remote")
def _check_tier_dead_remote(spec: RunSpec):
    """A remote backing behind a chain that caches every key is dead
    weight: after warmup no miss ever crosses the NIC, yet the remote
    tier's capacity is provisioned (and priced) anyway."""
    storage = _storage(spec)
    if storage is None or storage.backing.local:
        return
    chain_rows = storage.capacity_rows
    if chain_rows > spec.serve.key_space:
        yield _diag(
            "error",
            "tier-dead-remote",
            f"the local cache chain holds {chain_rows} rows but the "
            f"workload only touches {spec.serve.key_space} keys; the "
            f"remote backing never serves a steady-state miss",
            "tiers.backing",
            "set tiers.backing='hbm' (the chain covers the key space) "
            "or shrink the chain below serve.key_space",
        )


# ----------------------------------------------------------------------
# Serving-plane contradictions
# ----------------------------------------------------------------------
@spec_check("flash-outside-trace")
def _check_flash_window(spec: RunSpec):
    if spec.serve is None or spec.serve.scenario != "flash":
        return
    span = spec.serve.num_requests / spec.serve.qps
    if spec.serve.flash_start_s >= span:
        yield _diag(
            "error",
            "flash-outside-trace",
            f"flash_start_s={spec.serve.flash_start_s:g} is past the "
            f"trace's expected {span:g}s span "
            f"({spec.serve.num_requests} requests at "
            f"{spec.serve.qps:g} QPS) — the flash crowd never happens",
            "serve.flash_start_s",
            "move the flash window inside num_requests / qps seconds",
        )


@spec_check("batcher-never-fills")
def _check_batcher_fill(spec: RunSpec):
    if spec.serve is None:
        return
    if spec.serve.max_batch_size > spec.serve.num_requests:
        yield _diag(
            "warning",
            "batcher-never-fills",
            f"max_batch_size={spec.serve.max_batch_size} exceeds the "
            f"whole {spec.serve.num_requests}-request trace; every "
            f"batch flushes on the deadline, never on size",
            "serve.max_batch_size",
            "shrink max_batch_size or serve a longer trace",
        )


@spec_check("fleet-oversubscribed")
def _check_fleet_oversubscription(spec: RunSpec):
    if spec.serve is None or not spec.serve.uses_fleet:
        return
    dense_hosts = spec.cluster.num_hosts
    if spec.serve.serves_disaggregated:
        dense_hosts -= spec.serve.resolved_emb_hosts(
            spec.cluster.num_hosts
        )
    if spec.serve.fleet_replicas > dense_hosts:
        yield _diag(
            "warning",
            "fleet-oversubscribed",
            f"fleet_replicas={spec.serve.fleet_replicas} on "
            f"{dense_hosts} dense host(s): replicas time-share hosts, "
            f"inflating every latency percentile",
            "serve.fleet_replicas",
            "match fleet_replicas to the dense host count unless "
            "oversubscription is the experiment",
        )


@spec_check("router-degenerate")
def _check_router_degenerate(spec: RunSpec):
    if spec.serve is None or not spec.serve.uses_fleet:
        return
    if spec.serve.fleet_replicas == 1 and spec.serve.router != "round_robin":
        yield _diag(
            "warning",
            "router-degenerate",
            f"router={spec.serve.router!r} with a single replica "
            f"routes every request to it anyway",
            "serve.router",
            "drop the router override or add replicas",
        )


# ----------------------------------------------------------------------
# Fault/autoscale-plane checks
# ----------------------------------------------------------------------
@spec_check("fault-outside-trace")
def _check_fault_window(spec: RunSpec):
    fs = spec.faults
    if fs is None or spec.serve is None or fs.num_faults == 0:
        return
    if fs.start_s == 0 and fs.end_s == 0:
        return  # auto window: always inside the trace
    span = spec.serve.num_requests / spec.serve.qps
    if fs.start_s >= span:
        yield _diag(
            "error",
            "fault-outside-trace",
            f"faults.start_s={fs.start_s:g} is past the trace's "
            f"expected {span:g}s span ({spec.serve.num_requests} "
            f"requests at {spec.serve.qps:g} QPS) — no fault ever "
            f"fires",
            "faults.start_s",
            "move the injection window inside num_requests / qps "
            "seconds (or leave start_s/end_s at 0 for the automatic "
            "middle-90% window)",
        )


@spec_check("retry-budget-zero-with-faults")
def _check_retry_budget(spec: RunSpec):
    fs = spec.faults
    if fs is None:
        return
    if fs.replica_crashes + fs.replica_hangs == 0:
        return
    if fs.max_retries == 0 or fs.retry_budget == 0:
        knob = (
            "max_retries" if fs.max_retries == 0 else "retry_budget"
        )
        yield _diag(
            "error",
            "retry-budget-zero-with-faults",
            f"faults.{knob}=0 with "
            f"{fs.replica_crashes + fs.replica_hangs} replica "
            f"crash/hang fault(s): every request caught on a down "
            f"replica is silently lost",
            f"faults.{knob}",
            "give the client retries (max_retries >= 1 and "
            "retry_budget > 0), or drop the replica faults if lost "
            "requests are the experiment's control arm",
        )


@spec_check("autoscale-bounds-inverted")
def _check_autoscale_bounds(spec: RunSpec):
    asp = spec.autoscale
    if asp is None or spec.serve is None:
        return
    if asp.min_replicas > asp.max_replicas:
        yield _diag(
            "error",
            "autoscale-bounds-inverted",
            f"autoscale.min_replicas={asp.min_replicas} exceeds "
            f"max_replicas={asp.max_replicas}; the controller has no "
            f"feasible fleet size",
            "autoscale.min_replicas",
            "order the bounds min_replicas <= max_replicas",
        )
        return
    start = spec.serve.fleet_replicas
    if start and not asp.min_replicas <= start <= asp.max_replicas:
        yield _diag(
            "error",
            "autoscale-bounds-inverted",
            f"serve.fleet_replicas={start} starts the fleet outside "
            f"the autoscaler's [{asp.min_replicas}, "
            f"{asp.max_replicas}] bounds",
            "serve.fleet_replicas",
            "start the fleet inside the autoscale bounds (or widen "
            "them)",
        )


@spec_check("degraded-mode-without-backing")
def _check_degraded_backing(spec: RunSpec):
    fs = spec.faults
    if fs is None or spec.serve is None:
        return
    if not fs.degraded_mode or fs.fetch_outages == 0:
        return
    storage = _storage(spec)
    chain_rows = (
        spec.serve.cache_rows if storage is None else storage.capacity_rows
    )
    if chain_rows == 0:
        yield _diag(
            "error",
            "degraded-mode-without-backing",
            "faults.degraded_mode serves stale rows from the local "
            "cache during a fetch outage, but serve.cache_rows=0 "
            "(and no tier levels) leaves nothing to serve stale",
            "serve.cache_rows",
            "give the replicas cache capacity, or set "
            "faults.degraded_mode=False so outage fetches block "
            "until the tier recovers",
        )


# ----------------------------------------------------------------------
# Online-training checks
# ----------------------------------------------------------------------
@spec_check("delta-without-base")
def _check_delta_base(spec: RunSpec):
    if spec.online is None:
        return
    if spec.checkpoint is None:
        yield _diag(
            "error",
            "delta-without-base",
            "an online section emits delta checkpoints, which chain "
            "onto a base full save under checkpoint.directory — but "
            "the spec has no checkpoint section",
            "online",
            "add a checkpoint section (its directory roots the "
            "online delta chain)",
        )


@spec_check("rollout-exceeds-replicas")
def _check_rollout_stages(spec: RunSpec):
    on = spec.online
    if on is None or not on.rollout_stages:
        return
    if spec.serve is None or spec.serve.fleet_replicas is None:
        return  # missing fleet is diagnosed at spec construction
    top = max(on.rollout_stages)
    if top > spec.serve.fleet_replicas:
        yield _diag(
            "error",
            "rollout-exceeds-replicas",
            f"online.rollout_stages peaks at {top} replicas but the "
            f"fleet only has serve.fleet_replicas="
            f"{spec.serve.fleet_replicas}; the final rollout stage "
            f"can never complete",
            "online.rollout_stages",
            "cap the last stage at fleet_replicas (or drop "
            "rollout_stages for the automatic canary/half/all "
            "schedule)",
        )


@spec_check("canary-threshold-invalid")
def _check_canary_threshold(spec: RunSpec):
    on = spec.online
    if on is None:
        return
    if not 0.0 <= on.canary_threshold < 0.5:
        yield _diag(
            "error",
            "canary-threshold-invalid",
            f"online.canary_threshold={on.canary_threshold:g} is not "
            f"a usable eval-AUC regression tolerance: negative rolls "
            f"back every deploy, and >= 0.5 waves through a model "
            f"worse than coin-flipping",
            "online.canary_threshold",
            "pick a tolerance in [0, 0.5) — 0.01 rolls back anything "
            "that costs more than a point of AUC",
        )


# ----------------------------------------------------------------------
# Checkpoint-plane checks
# ----------------------------------------------------------------------
@spec_check("checkpoint-resume-missing")
def _check_resume_exists(spec: RunSpec):
    ck = spec.checkpoint
    if ck is None or ck.resume_from is None:
        return
    manifest = os.path.join(ck.resume_from, "manifest.json")
    if not os.path.exists(manifest):
        yield _diag(
            "error",
            "checkpoint-resume-missing",
            f"checkpoint.resume_from={ck.resume_from!r} has no "
            f"manifest.json — nothing to restore",
            "checkpoint.resume_from",
            "point resume_from at a directory written by "
            "save_training_checkpoint",
        )


@spec_check("checkpoint-never-saves")
def _check_save_cadence(spec: RunSpec):
    ck = spec.checkpoint
    if (
        ck is None
        or ck.save_every_steps == 0
        or spec.train is None
        or spec.data is None
    ):
        return
    split = _train_split_size(spec.data)
    if split == 0 or spec.train.batch_size > split:
        return  # reported by the split checks already
    total_steps = (split // spec.train.batch_size) * spec.train.epochs
    if ck.save_every_steps > total_steps:
        yield _diag(
            "warning",
            "checkpoint-never-saves",
            f"save_every_steps={ck.save_every_steps} exceeds the "
            f"run's {total_steps} total optimizer steps; periodic "
            f"autosave never fires",
            "checkpoint.save_every_steps",
            "lower save_every_steps below "
            "(train_split // batch_size) * epochs",
        )


@spec_check("warm-start-dead-cache")
def _check_warm_start_cache(spec: RunSpec):
    ck = spec.checkpoint
    if (
        ck is None
        or ck.resume_from is None
        or not ck.warm_start
        or spec.serve is None
    ):
        return
    if spec.serve.cache_rows == 0:
        yield _diag(
            "error",
            "warm-start-dead-cache",
            "checkpoint.warm_start is set but serve.cache_rows=0 "
            "disables the cache the hottest rows would prefill",
            "serve.cache_rows",
            "give the cache capacity, or set checkpoint.warm_start="
            "False for the cold-cache control arm",
        )


# ----------------------------------------------------------------------
# Multi-task / A/B checks
# ----------------------------------------------------------------------
@spec_check("cvr-without-ctr")
def _check_cvr_without_ctr(spec: RunSpec):
    model = spec.model
    if model is None:
        return
    if "cvr" in model.tasks and "ctr" not in model.tasks:
        yield _diag(
            "error",
            "cvr-without-ctr",
            f"model.tasks={model.tasks} requests conversion labels "
            f"without the click task that gates them",
            "model.tasks",
            "cvr is defined only on clicked impressions; add 'ctr' "
            "(first, as the primary task) or drop 'cvr'",
        )


@spec_check("task-weight-degenerate")
def _check_task_weight_degenerate(spec: RunSpec):
    model = spec.model
    if model is None or model.task_weights is None:
        return
    bad = [
        (name, w)
        for name, w in zip(model.tasks, model.task_weights)
        if w <= 0.0
    ]
    if bad:
        listed = ", ".join(f"{name}={w:g}" for name, w in bad)
        yield _diag(
            "error",
            "task-weight-degenerate",
            f"task_weights silence or invert their task's loss: "
            f"{listed}",
            "model.task_weights",
            "every weight must be > 0 — a zero weight trains a dead "
            "tower and a negative one maximizes its loss; drop the "
            "task instead of zero-weighting it",
        )


@spec_check("ab-arms-identical")
def _check_ab_arms_identical(spec: RunSpec):
    ab = spec.ab
    if ab is None or spec.model is None or spec.train is None:
        return
    model_b = ab.model_b if ab.model_b is not None else spec.model
    train_b = ab.train_b if ab.train_b is not None else spec.train
    if model_b == spec.model and train_b == spec.train:
        yield _diag(
            "error",
            "ab-arms-identical",
            f"arms {ab.label_a!r} and {ab.label_b!r} resolve to the "
            f"same model and train sections; every paired delta is "
            f"exactly zero by construction",
            "ab",
            "set ab.model_b and/or ab.train_b to the variant under "
            "test (e.g. a different head mode or task weighting)",
        )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def analyze_spec(
    spec: Union[RunSpec, Dict[str, Any]]
) -> List[Diagnostic]:
    """Statically validate one RunSpec; returns every finding.

    Accepts a constructed :class:`RunSpec` or a raw dict — a dict that
    fails construction-time validation yields a single
    ``spec-invalid`` error diagnostic instead of raising, so callers
    can surface any misconfiguration through one channel.
    """
    if isinstance(spec, dict):
        try:
            spec = RunSpec.from_dict(spec)
        except SpecError as exc:
            return [
                _diag(
                    "error",
                    "spec-invalid",
                    str(exc),
                    "spec",
                    "fix the section-level validation error first",
                )
            ]
    if not isinstance(spec, RunSpec):
        raise SpecError(
            f"analyze_spec expects a RunSpec or dict, got "
            f"{type(spec).__name__}"
        )
    diagnostics: List[Diagnostic] = []
    for _, check in sorted(_CHECKS.items()):
        diagnostics.extend(check(spec))
    severity_rank = {"error": 0, "warning": 1, "info": 2}
    diagnostics.sort(
        key=lambda d: (severity_rank[d.severity], d.code, d.path or "")
    )
    return diagnostics
