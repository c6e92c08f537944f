"""The layer table: where spans go, and which metrics come out.

``TARGETS`` names every public callable the benchmark wraps, the span
its calls are recorded under and the hook that takes counts from the
call.  A span name is a layer (or one direction of it); several
callables may share one.  ``PER_LAYER`` lists the metrics derived from
the spans and from the output-derived facts each operation returns.

Nothing here edits ``src/``: a module-level function that another
module imported by name is wrapped in the importing module's namespace
(``repro.serving.fleet:build_report``), which is why some functions
appear more than once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.trace import SETUP_OP, Target, Tracer


# ----------------------------------------------------------------------
# Count hooks: (args, kwargs, result) -> {count: value}
# ----------------------------------------------------------------------
def _table_rows(args, kwargs, result) -> Dict[str, float]:
    ids = np.asarray(args[1])
    return {"rows": ids.size, "unique": np.unique(ids).size}


def _collection_rows(args, kwargs, result) -> Dict[str, float]:
    # (B, F[, P]) ids index F separate tables: count unique per table.
    ids = np.asarray(args[1])
    per_table = np.moveaxis(ids, 1, 0).reshape(ids.shape[1], -1)
    unique = sum(np.unique(column).size for column in per_table)
    return {"rows": ids.size, "unique": unique}


def _rows_updated(args, kwargs, result) -> Dict[str, float]:
    # The pending row-wise gradients outlive step(); zero_grad clears
    # them at the start of the next iteration.
    return {
        "rows": sum(
            p.row_grad.num_rows
            for p in args[0].params
            if p.row_grad is not None
        )
    }


def _buffer_bytes(buf) -> int:
    if isinstance(buf, np.ndarray):
        return buf.nbytes
    return sum(np.asarray(b).nbytes for b in buf)


def _collective_bytes(args, kwargs, result) -> Dict[str, float]:
    # functional collectives take (group, {rank: buffer or buffers})
    return {"bytes": sum(_buffer_bytes(b) for b in args[1].values())}


def _batch_size(args, kwargs, result) -> Dict[str, float]:
    return {"batches": 1, "requests": len(args[0].requests)}


def _lru_probe(args, kwargs, result) -> Dict[str, float]:
    hits, misses = result
    return {"probes": 1, "keys": hits + len(misses), "top_hits": hits}


def _chain_probe(args, kwargs, result) -> Dict[str, float]:
    total_hits, misses = result
    level_hits = args[0].last_level_hits
    keys = total_hits + len(misses)
    out = {"probes": 1, "keys": keys, "top_hits": level_hits[0]}
    if len(level_hits) > 1:
        out["below_keys"] = keys - level_hits[0]
        out["below_hits"] = level_hits[1]
    return out


# ----------------------------------------------------------------------
# (import path, attribute, span name, hook)
# ----------------------------------------------------------------------
def _both(module: str, cls: str, span: str, fwd_hook=None) -> List[Target]:
    return [
        (module, f"{cls}.forward", f"{span}.fwd", fwd_hook),
        (module, f"{cls}.backward", f"{span}.bwd", None),
    ]


_COLLECTIVES = (
    "alltoall",
    "alltoall_single",
    "alltoall_concurrent",
    "allreduce",
    "allreduce_concurrent",
    "reducescatter",
    "allgather",
)
_ROUTERS = (
    "RoundRobinRouter",
    "ConsistentHashRouter",
    "PowerOfTwoChoicesRouter",
)

TARGETS: List[Target] = [
    # -- set-up --------------------------------------------------------
    ("repro.data", "random_batch", "data.batch", None),
    ("repro.partitioner", "feature_interaction_matrix",
     "partitioner.probe", None),
    ("repro.partitioner.tower_partitioner", "mds_embed",
     "partitioner.mds", None),
    ("repro.partitioner.constrained_kmeans", "ConstrainedKMeans.fit_predict",
     "partitioner.kmeans", None),
    ("repro.planner.planner", "AutoPlanner.plan", "planner.plan", None),
    ("repro.models.dlrm", "DLRM.__init__", "models.build", None),
    ("repro.models.dmt", "DMTDLRM.__init__", "models.build", None),
    # -- single-process training ---------------------------------------
    ("repro.training.loop", "Trainer.train_batch", "training", None),
    ("repro.models.dmt", "DMTDLRM.forward", "models.dmt", None),
    ("repro.models.dmt", "DMTDLRM.backward", "models.dmt", None),
    *_both("repro.nn.embedding", "EmbeddingBagCollection", "nn.embedding",
           _collection_rows),
    *_both("repro.nn.embedding", "EmbeddingTable", "nn.embedding",
           _table_rows),
    *_both("repro.models.tower_module", "DLRMTowerModule",
           "models.tower_module"),
    *_both("repro.nn.interactions", "DotInteraction", "nn.interactions"),
    *_both("repro.nn.mlp", "MLP", "nn.mlp"),
    ("repro.nn.loss", "BCEWithLogitsLoss.forward", "nn.loss", None),
    ("repro.nn.loss", "BCEWithLogitsLoss.backward", "nn.loss", None),
    ("repro.nn.functional", "bce_with_logits", "nn.loss", None),
    ("repro.nn.functional", "bce_with_logits_grad", "nn.loss", None),
    ("repro.nn.optim", "Adam.step", "nn.optim.dense", None),
    ("repro.nn.optim", "RowwiseAdagrad.step", "nn.optim.sparse",
     _rows_updated),
    # -- SPTT over the simulated cluster -------------------------------
    ("repro.core.dmt_pipeline", "DistributedDMTTrainer.fit_step",
     "core.dmt_pipeline", None),
    ("repro.core.dmt_pipeline", "DistributedDMTTrainer.train_step",
     "core.dmt_pipeline", None),
    ("repro.core.dmt_pipeline", "DistributedDMTTrainer.sync_replicas",
     "core.dmt_pipeline.sync", None),
    ("repro.core.sptt", "SPTTEmbeddingExchange.forward_to_towers",
     "core.sptt.fwd", None),
    ("repro.core.sptt", "SPTTEmbeddingExchange.exchange_tower_outputs",
     "core.sptt.fwd", None),
    ("repro.core.sptt", "SPTTEmbeddingExchange.backward_tower_exchange",
     "core.sptt.bwd", None),
    ("repro.core.sptt", "SPTTEmbeddingExchange.backward_from_towers",
     "core.sptt.bwd", None),
    *[
        ("repro.sim.cluster", f"SimCluster.{name}", "sim.cluster.collective",
         None)
        for name in _COLLECTIVES
    ],
    *[
        ("repro.comm.functional", name, "comm.functional", _collective_bytes)
        for name in ("alltoall", "allreduce", "reducescatter", "allgather")
    ],
    *[
        ("repro.comm.cost_model", f"CollectiveCostModel.{name}",
         "comm.cost_model", None)
        for name in ("alltoall", "allreduce", "reducescatter", "allgather",
                     "device_shuffle")
    ],
    # -- serving -------------------------------------------------------
    ("repro.api.session", "Session.serve", "api.session", None),
    ("repro.analysis.speccheck", "analyze_spec", "analysis.speccheck", None),
    ("repro.serving.workload", "RequestStream.__init__",
     "serving.workload.gen", None),
    ("repro.serving.workload", "RequestStream.generate",
     "serving.workload.gen", None),
    *[
        ("repro.serving.fleet", f"{router}.{method}", "serving.router", None)
        for router in _ROUTERS
        for method in ("route_trace", "route_one")
    ],
    ("repro.serving.batcher", "MicroBatcher.form_batches",
     "serving.batcher", None),
    ("repro.serving.batcher", "MicroBatch.__post_init__",
     "serving.batcher", _batch_size),
    ("repro.serving.batcher", "MicroBatch.keys", "serving.batcher", None),
    ("repro.serving.batcher", "MicroBatch.batching_delay_s",
     "serving.batcher", None),
    ("repro.serving.cache", "LRUEmbeddingCache.probe",
     "serving.cache.probe", _lru_probe),
    ("repro.serving.tiers", "CacheChain.probe", "serving.tiers.chain",
     _chain_probe),
    ("repro.serving.tiers", "TieredPlacementEngine.chain_extra_seconds",
     "serving.tiers.chain", None),
    ("repro.serving.service", "PlacementEngine.price_batch",
     "serving.engine.price", None),
    ("repro.serving.fleet", "build_report", "serving.report", None),
    ("repro.serving.faults", "build_report", "serving.report", None),
    ("repro.serving.fleet", "ServingFleet.serve", "serving.replay", None),
    ("repro.serving.faults", "ResilientFleet.serve", "serving.replay", None),
    ("repro.serving.autoscale", "SLOAutoscaler.decide",
     "serving.autoscale", None),
]

# ----------------------------------------------------------------------
# Per-layer metrics: (name, unit, better, exact)
#
# ``exact`` marks counts and simulated-clock values that are a pure
# function of the seed: they are taken over the first ``count_ops``
# measured operations of the traced round (every round runs at least
# that many), so two runs of one commit must agree on them digit for
# digit, and a change that moves one changed behaviour, not speed.
# ----------------------------------------------------------------------
_MS = ("ms", "lower", False)
_COUNT = ("count", "lower", True)

PER_LAYER: List[Tuple[str, str, str, bool]] = [
    ("data.batch_ms", *_MS),
    ("training.self_ms", *_MS),
    ("models.dmt.self_ms", *_MS),
    ("nn.embedding.fwd_ms", *_MS),
    ("nn.embedding.bwd_ms", *_MS),
    ("nn.embedding.calls", *_COUNT),
    ("nn.embedding.rows_gathered", *_COUNT),
    ("nn.embedding.unique_row_ratio", "ratio", "lower", True),
    ("models.tower_module.fwd_ms", *_MS),
    ("models.tower_module.bwd_ms", *_MS),
    ("models.tower_module.calls", *_COUNT),
    ("nn.interactions.fwd_ms", *_MS),
    ("nn.interactions.bwd_ms", *_MS),
    ("nn.mlp.fwd_ms", *_MS),
    ("nn.mlp.bwd_ms", *_MS),
    ("nn.loss.ms", *_MS),
    ("nn.optim.dense_ms", *_MS),
    ("nn.optim.sparse_ms", *_MS),
    ("nn.optim.rows_updated", *_COUNT),
    ("core.sptt.fwd_ms", *_MS),
    ("core.sptt.bwd_ms", *_MS),
    ("core.sptt.calls", *_COUNT),
    ("core.dmt_pipeline.self_ms", *_MS),
    ("core.dmt_pipeline.sync_ms", *_MS),
    ("sim.cluster.collective_ms", *_MS),
    ("sim.cluster.collective_calls", *_COUNT),
    ("comm.functional.ms", *_MS),
    ("comm.functional.bytes", "B", "lower", True),
    ("comm.cost_model.ms", *_MS),
    ("comm.cost_model.calls", *_COUNT),
    ("sim.timeline.events", *_COUNT),
    ("sim.timeline.iter_ms", "ms", "lower", True),
    ("sim.timeline.comm_ms", "ms", "lower", True),
    ("sim.timeline.compute_ms", "ms", "lower", True),
    ("sim.timeline.speedup_vs_flat", "ratio", "higher", True),
    ("setup.imports_ms", *_MS),
    ("partitioner.probe_ms", *_MS),
    ("partitioner.mds_ms", *_MS),
    ("partitioner.kmeans_ms", *_MS),
    ("planner.plan_ms", *_MS),
    ("models.build_ms", *_MS),
    ("api.session.self_ms", *_MS),
    ("analysis.speccheck.ms", *_MS),
    ("serving.workload.gen_ms", *_MS),
    ("serving.router.ms", *_MS),
    ("serving.router.calls", *_COUNT),
    ("serving.batcher.ms", *_MS),
    ("serving.batcher.batches", *_COUNT),
    ("serving.batcher.fill", "ratio", "higher", True),
    ("serving.cache.probe_ms", *_MS),
    ("serving.cache.calls", *_COUNT),
    ("serving.cache.keys", *_COUNT),
    ("serving.cache.hit_rate", "ratio", "higher", True),
    ("serving.tiers.chain_ms", *_MS),
    ("serving.tiers.dram_hit_rate", "ratio", "higher", True),
    ("serving.engine.price_ms", *_MS),
    ("serving.engine.calls", *_COUNT),
    ("serving.report.ms", *_MS),
    ("serving.replay.self_ms", *_MS),
    ("serving.faults.events", *_COUNT),
    ("serving.faults.retries", *_COUNT),
    ("serving.faults.lost", *_COUNT),
    ("serving.faults.mttr_ms", "ms", "lower", True),
    ("serving.autoscale.ms", *_MS),
    ("serving.autoscale.decisions", *_COUNT),
    ("sim.serving.p50_ms", "ms", "lower", True),
    ("sim.serving.p99_ms", "ms", "lower", True),
    ("sim.serving.rps", "1/s", "higher", True),
    ("sim.serving.queue_ms", "ms", "lower", True),
    ("sim.serving.fetch_ms", "ms", "lower", True),
    ("sim.serving.compute_ms", "ms", "lower", True),
    ("trace.overhead_share", "ratio", "lower", False),
    ("trace.unattributed_ms", *_MS),
]

EXACT = frozenset(name for name, _, _, exact in PER_LAYER if exact)

#: metric -> span (or spans) whose mean self time per operation it reports
_SELF_MS = {
    "training.self_ms": "training",
    "models.dmt.self_ms": "models.dmt",
    "nn.embedding.fwd_ms": "nn.embedding.fwd",
    "nn.embedding.bwd_ms": "nn.embedding.bwd",
    "models.tower_module.fwd_ms": "models.tower_module.fwd",
    "models.tower_module.bwd_ms": "models.tower_module.bwd",
    "nn.interactions.fwd_ms": "nn.interactions.fwd",
    "nn.interactions.bwd_ms": "nn.interactions.bwd",
    "nn.mlp.fwd_ms": "nn.mlp.fwd",
    "nn.mlp.bwd_ms": "nn.mlp.bwd",
    "nn.loss.ms": "nn.loss",
    "nn.optim.dense_ms": "nn.optim.dense",
    "nn.optim.sparse_ms": "nn.optim.sparse",
    "core.sptt.fwd_ms": "core.sptt.fwd",
    "core.sptt.bwd_ms": "core.sptt.bwd",
    "core.dmt_pipeline.self_ms": "core.dmt_pipeline",
    "core.dmt_pipeline.sync_ms": "core.dmt_pipeline.sync",
    "sim.cluster.collective_ms": "sim.cluster.collective",
    "comm.functional.ms": "comm.functional",
    "comm.cost_model.ms": "comm.cost_model",
    # a replay's Session also builds the profile's dense model
    "api.session.self_ms": ("api.session", "models.build"),
    "analysis.speccheck.ms": "analysis.speccheck",
    "serving.workload.gen_ms": "serving.workload.gen",
    "serving.router.ms": "serving.router",
    "serving.batcher.ms": "serving.batcher",
    "serving.cache.probe_ms": "serving.cache.probe",
    "serving.tiers.chain_ms": "serving.tiers.chain",
    "serving.engine.price_ms": "serving.engine.price",
    "serving.report.ms": "serving.report",
    "serving.replay.self_ms": "serving.replay",
    "serving.autoscale.ms": "serving.autoscale",
    "trace.unattributed_ms": "op",
}
_SELF_MS = {
    metric: (spans,) if isinstance(spans, str) else spans
    for metric, spans in _SELF_MS.items()
}

#: metric -> spans whose calls per operation it counts
_CALLS = {
    "nn.embedding.calls": ("nn.embedding.fwd",),
    "models.tower_module.calls": ("models.tower_module.fwd",),
    "core.sptt.calls": ("core.sptt.fwd", "core.sptt.bwd"),
    "sim.cluster.collective_calls": ("sim.cluster.collective",),
    "comm.cost_model.calls": ("comm.cost_model",),
    "serving.router.calls": ("serving.router",),
    "serving.engine.calls": ("serving.engine.price",),
    "serving.autoscale.decisions": ("serving.autoscale",),
}

#: metric -> (span, hook count) summed per operation
_COUNTS = {
    "nn.embedding.rows_gathered": ("nn.embedding.fwd", "rows"),
    "nn.optim.rows_updated": ("nn.optim.sparse", "rows"),
    "comm.functional.bytes": ("comm.functional", "bytes"),
}

#: set-up metric -> span (total self time during set-up, not per op)
_SETUP_MS = {
    "partitioner.probe_ms": "partitioner.probe",
    "partitioner.mds_ms": "partitioner.mds",
    "partitioner.kmeans_ms": "partitioner.kmeans",
    "planner.plan_ms": "planner.plan",
    "models.build_ms": "models.build",
}

#: metrics copied from the facts an operation derives from its output
_FACTS = (
    "sim.timeline.events",
    "sim.timeline.iter_ms",
    "sim.timeline.comm_ms",
    "sim.timeline.compute_ms",
    "serving.faults.events",
    "serving.faults.retries",
    "serving.faults.lost",
    "serving.faults.mttr_ms",
    "sim.serving.p50_ms",
    "sim.serving.p99_ms",
    "sim.serving.rps",
    "sim.serving.queue_ms",
    "sim.serving.fetch_ms",
    "sim.serving.compute_ms",
)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def missing_metrics(missing: Sequence[str]) -> List[str]:
    """Metrics that cannot be trusted because a target is gone."""
    gone = {
        span
        for module, attr, span, _ in TARGETS
        if f"{module}:{attr}" in missing
    }
    out = [m for m, span in _SETUP_MS.items() if span in gone]
    for table in (_SELF_MS, _CALLS):
        out += [
            m
            for m, spans in table.items()
            if gone & set(spans)
        ]
    out += [m for m, (span, _) in _COUNTS.items() if span in gone]
    return sorted(set(out))


def top_cache_keys(tracer: Tracer, op: int) -> float:
    """Unique keys probed at the top cache level in one operation.

    The top level is the HBM cache in both shapes: level 0 of a tiered
    chain, else the bare LRU of a plain fleet.  It must equal the
    hits + misses the operation's report accounts for.
    """
    return tracer.count(op, "serving.tiers.chain", "keys") or tracer.count(
        op, "serving.cache.probe", "keys"
    )


def derive(
    tracer: Tracer,
    ops: Sequence[int],
    count_ops: Sequence[int],
    facts: Dict[int, Dict[str, float]],
    max_batch_size: Optional[int],
) -> Dict[str, Optional[float]]:
    """Per-layer metrics of one traced round.

    ``ops`` are the measured operation ids (timings are means over all
    of them), ``count_ops`` the fixed leading window the exact counts
    are taken over, ``facts`` the output-derived values per operation.
    """

    def total(span: str, key: str) -> float:
        return sum(tracer.count(op, span, key) for op in count_ops)

    out: Dict[str, Optional[float]] = {name: 0.0 for name, *_ in PER_LAYER}
    for metric, spans in _SELF_MS.items():
        out[metric] = 1e3 * _mean(
            [sum(tracer.self_seconds(op, s) for s in spans) for op in ops]
        )
    for metric, spans in _CALLS.items():
        out[metric] = _mean(
            [sum(tracer.calls(op, s) for s in spans) for op in count_ops]
        )
    for metric, (span, key) in _COUNTS.items():
        out[metric] = _mean([tracer.count(op, span, key) for op in count_ops])
    for metric, span in _SETUP_MS.items():
        out[metric] = 1e3 * tracer.self_seconds(SETUP_OP, span)
    out["data.batch_ms"] = 1e3 * _ratio(
        tracer.self_seconds(SETUP_OP, "data.batch"),
        tracer.calls(SETUP_OP, "data.batch"),
    )
    for metric in _FACTS:
        out[metric] = _mean([facts[op].get(metric, 0.0) for op in count_ops])

    out["nn.embedding.unique_row_ratio"] = _ratio(
        total("nn.embedding.fwd", "unique"), total("nn.embedding.fwd", "rows")
    )
    batches = total("serving.batcher", "batches")
    out["serving.batcher.batches"] = _ratio(batches, len(count_ops))
    out["serving.batcher.fill"] = _ratio(
        total("serving.batcher", "requests"), batches * (max_batch_size or 0)
    )
    chain = "serving.tiers.chain"
    top = chain if total(chain, "probes") else "serving.cache.probe"
    out["serving.cache.calls"] = _ratio(total(top, "probes"), len(count_ops))
    out["serving.cache.keys"] = _ratio(total(top, "keys"), len(count_ops))
    out["serving.cache.hit_rate"] = _ratio(
        total(top, "top_hits"), total(top, "keys")
    )
    out["serving.tiers.dram_hit_rate"] = _ratio(
        total(chain, "below_hits"), total(chain, "below_keys")
    )
    for metric in missing_metrics(tracer.missing):
        out[metric] = None
    return out

