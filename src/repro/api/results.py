"""Stage artifacts and the aggregate result of a :class:`Session` run.

Each staged method of :class:`repro.api.Session` returns one of the
artifact dataclasses below; :meth:`Session.run` collects them into a
:class:`RunResult` that renders as text or serializes to JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import json

import numpy as np

from repro.core.partition import FeaturePartition
from repro.data import SyntheticCriteoDataset
from repro.hardware import Cluster
from repro.jsonutil import jsonable
from repro.models import DMTDCN, DMTDLRM
from repro.partitioner import TPResult
from repro.perf.iteration_model import IterationBreakdown
from repro.planner import ShardingPlan
from repro.serving import (
    FaultReport,
    FleetReport,
    ServingModel,
    ServingReport,
)
from repro.sim.tracing import Timeline
from repro.training import EvalResult

__all__ = [
    "ABArtifact",
    "DataArtifact",
    "PartitionArtifact",
    "PlanArtifact",
    "TrainArtifact",
    "PriceArtifact",
    "ServeArtifact",
    "CheckpointArtifact",
    "TierPlanArtifact",
    "OnlineArtifact",
    "RunResult",
    "jsonable",
]

Batch = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _breakdown_dict(bd: IterationBreakdown) -> Dict[str, float]:
    return {
        "name": bd.name,
        "compute_ms": bd.compute_s * 1e3,
        "exposed_emb_ms": bd.exposed_emb_s * 1e3,
        "exposed_dense_ms": bd.exposed_dense_s * 1e3,
        "other_ms": bd.other_s * 1e3,
        "total_ms": bd.total_s * 1e3,
    }


# ----------------------------------------------------------------------
@dataclass
class DataArtifact:
    """Generated click logs plus the train/eval split."""

    dataset: SyntheticCriteoDataset
    train: Batch
    eval: Batch

    @property
    def num_train(self) -> int:
        return len(self.train[2])

    @property
    def num_eval(self) -> int:
        return len(self.eval[2])

    def summary(self) -> Dict[str, Any]:
        return {
            "train_samples": self.num_train,
            "eval_samples": self.num_eval,
            "num_sparse": int(self.train[1].shape[1]),
            "planted_blocks": [list(g) for g in self.dataset.true_partition],
        }


@dataclass
class PartitionArtifact:
    """The feature-to-tower assignment and (for probed strategies) the
    full TP pipeline artifacts."""

    strategy: str
    partition: FeaturePartition
    tp_result: Optional[TPResult] = None
    probe_eval: Optional[EvalResult] = None

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "strategy": self.strategy,
            "num_towers": self.partition.num_towers,
            "groups": [list(g) for g in self.partition.groups],
        }
        if self.tp_result is not None:
            out["within_group_interaction"] = float(
                self.tp_result.within_group_interaction
            )
        if self.probe_eval is not None:
            out["probe_auc"] = float(self.probe_eval.auc)
        return out


@dataclass
class PlanArtifact:
    """Embedding sharding plan over the session's cluster."""

    plan: ShardingPlan
    scale: str  # "tiny" | "paper"
    batch_size: int

    def summary(self) -> Dict[str, Any]:
        return {
            "scale": self.scale,
            "world_size": self.plan.world_size,
            "num_shards": len(self.plan.tables),
            "imbalance": float(self.plan.imbalance(self.batch_size)),
        }


@dataclass
class TrainArtifact:
    """Outcome of the training stage, in either ``mode``.

    ``trainer`` is the :class:`~repro.training.Trainer` (its
    ``loss_history`` holds every step's loss), ``eval_result`` the
    held-out metrics and ``epoch_losses`` the per-epoch mean losses.
    ``mode='simulated'`` also carries the priced ``timeline`` text of
    the executed steps.
    """

    mode: str
    model: Any
    eval_result: EvalResult
    epoch_losses: List[float] = field(default_factory=list)
    trainer: Any = None
    timeline: Optional[str] = None

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "mode": self.mode,
            "auc": float(self.eval_result.auc),
            "log_loss": float(self.eval_result.log_loss),
            "normalized_entropy": float(self.eval_result.normalized_entropy),
            "epoch_losses": [float(x) for x in self.epoch_losses],
        }
        # Multi-task eval: the headline numbers above are the primary
        # task's; the per-task breakdown rides alongside.
        by_task = getattr(self.eval_result, "by_task", None)
        if by_task is not None:
            out["tasks"] = {
                name: {
                    "auc": float(r.auc),
                    "log_loss": float(r.log_loss),
                    "normalized_entropy": float(r.normalized_entropy),
                    "num_samples": int(r.num_samples),
                    "auc_skipped": bool(r.auc_skipped),
                }
                for name, r in by_task.items()
            }
        # A DMT variant reports its CR; a flat model (one pass-through
        # tower, CR 1) and a multi-task wrapper report none.
        if type(self.model) in (DMTDCN, DMTDLRM):
            out["compression_ratio"] = float(self.model.compression_ratio())
        return out


@dataclass
class PriceArtifact:
    """Modeled per-iteration latency: hybrid baseline vs DMT."""

    baseline: IterationBreakdown
    dmt: IterationBreakdown

    @property
    def speedup(self) -> float:
        return self.dmt.speedup_over(self.baseline)

    def summary(self) -> Dict[str, Any]:
        return {
            "baseline": _breakdown_dict(self.baseline),
            "dmt": _breakdown_dict(self.dmt),
            "speedup": float(self.speedup),
        }


@dataclass
class ServeArtifact:
    """Serving reports (and their priced timelines) per placement arm.

    ``reports`` always holds the per-arm aggregate
    :class:`ServingReport` — for a fleet run that is the fleet-wide
    aggregate, and the full :class:`~repro.serving.FleetReport` (router,
    load balance, per-replica reports) sits in ``fleet_reports``.  A
    fault-injected / autoscaled run additionally fills
    ``fault_reports`` with the per-arm robustness ledger
    (:class:`~repro.serving.FaultReport`: lost/retried/degraded
    counts, SLO-violation fraction, MTTR, scale events).
    """

    model: ServingModel
    reports: Dict[str, ServingReport]
    timelines: Dict[str, Timeline] = field(default_factory=dict)
    fleet_reports: Dict[str, FleetReport] = field(default_factory=dict)
    fault_reports: Dict[str, FaultReport] = field(default_factory=dict)

    @property
    def p99_speedup(self) -> Optional[float]:
        """Colocated p99 / disaggregated p99 (>1 means the
        disaggregated tier wins the tail); None unless both arms ran."""
        if not {"colocated", "disaggregated"} <= set(self.reports):
            return None
        coloc = self.reports["colocated"].latency_ms["p99"]
        disagg = self.reports["disaggregated"].latency_ms["p99"]
        return coloc / disagg

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "model": self.model.name,
            "placements": {
                name: report.to_dict()
                for name, report in self.reports.items()
            },
        }
        if self.fleet_reports:
            # Fleet detail minus the aggregate (already in placements).
            out["fleet"] = {}
            for name, fleet in self.fleet_reports.items():
                detail = fleet.to_dict()
                detail.pop("fleet")
                out["fleet"][name] = detail
        if self.fault_reports:
            # Robustness ledger minus the fleet (already above).
            out["faults"] = {}
            for name, fault in self.fault_reports.items():
                detail = fault.to_dict()
                detail.pop("fleet")
                out["faults"][name] = detail
        if self.p99_speedup is not None:
            out["p99_speedup_disaggregated"] = float(self.p99_speedup)
        return out


@dataclass
class CheckpointArtifact:
    """Outcome of the checkpoint stage: what was saved/restored, and —
    when the spec's cluster differs from the saved one — the elastic
    restore plan (:class:`repro.checkpoint.ElasticRestorePlan`)."""

    saved_path: Optional[str] = None
    resumed_from: Optional[str] = None
    resumed_step: Optional[int] = None
    elastic: Optional[Any] = None  # ElasticRestorePlan
    warm_start_rows: Dict[str, int] = field(default_factory=dict)

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        if self.saved_path is not None:
            out["saved_path"] = self.saved_path
        if self.resumed_from is not None:
            out["resumed_from"] = self.resumed_from
            out["resumed_step"] = self.resumed_step
        if self.elastic is not None:
            out["elastic"] = self.elastic.summary()
        if self.warm_start_rows:
            out["warm_start_rows"] = dict(self.warm_start_rows)
        return out


@dataclass
class TierPlanArtifact:
    """Capacity-driven tier placement of the serving workload's rows
    (:class:`repro.planner.tiering.TierPlacementPlan`), summarized with
    the serving-side chain geometry it was planned against."""

    plan: Any  # TierPlacementPlan

    def summary(self) -> Dict[str, Any]:
        storage = self.plan.storage
        return {
            "backing": storage.backing.name,
            "chain_rows": {t.spec.name: t.cache_rows for t in storage.levels},
            **self.plan.summary(),
        }


@dataclass
class OnlineArtifact:
    """Outcome of the online-training freshness loop.

    ``report`` is the :class:`repro.online.OnlineReport` (per-window
    staleness/AUC curve, checkpoint chain, rollout decisions);
    ``swap_events`` the planned hot-swap schedule; ``fault_reports``
    the two serving arms replayed on the same trace at equal
    provisioned cost — ``"online"`` (with swaps) and ``"frozen"``
    (without).
    """

    report: Any  # repro.online.OnlineReport
    swap_events: List[Any] = field(default_factory=list)
    fault_reports: Dict[str, FaultReport] = field(default_factory=dict)
    placement: str = "disaggregated"

    @property
    def mean_online_auc(self) -> float:
        return float(
            np.mean([w["online_auc"] for w in self.report.windows[1:]])
        )

    @property
    def mean_frozen_auc(self) -> float:
        return float(
            np.mean([w["frozen_auc"] for w in self.report.windows[1:]])
        )

    @property
    def freshness_dominates(self) -> bool:
        """True when the hot-swapped arm strictly beats the frozen arm
        on every window after the arms diverge (window 1 both still
        serve v1, so the comparison starts at window 2)."""
        diverged = self.report.windows[2:]
        if not diverged:
            return False
        return all(
            w["online_auc"] > w["frozen_auc"] for w in diverged
        )

    def summary(self) -> Dict[str, Any]:
        rep = self.report
        out: Dict[str, Any] = {
            "placement": self.placement,
            "num_windows": len(rep.windows),
            "num_versions": rep.num_versions,
            "num_rollbacks": rep.num_rollbacks,
            "num_swaps": len(self.swap_events),
            "staleness_curve": rep.staleness_curve(),
            "mean_online_auc": self.mean_online_auc,
            "mean_frozen_auc": self.mean_frozen_auc,
            "freshness_dominates": self.freshness_dominates,
            "full_nbytes": int(rep.full_nbytes),
            "mean_delta_nbytes": float(rep.mean_delta_nbytes),
            "delta_compression": float(rep.delta_compression),
        }
        if self.fault_reports:
            out["arms"] = {}
            for name, fault in self.fault_reports.items():
                detail = fault.to_dict()
                detail.pop("fleet", None)
                out["arms"][name] = detail
        return out


@dataclass
class ABArtifact:
    """Outcome of the paired A/B stage.

    ``metrics[task][metric]`` holds the paired comparison for one task
    x metric cell: the per-seed arm values (``a_values`` /
    ``b_values``, aligned with ``seeds``), their paired differences
    ``deltas`` (B − A), and the Student-t interval (``mean_delta``,
    ``ci_low``, ``ci_high``, ``excludes_zero``) at level
    ``confidence``.  Lower-is-better metrics (log loss, NE) therefore
    show improvement as a *negative* delta; AUC as a positive one.
    """

    label_a: str
    label_b: str
    seeds: Tuple[int, ...]
    confidence: float
    tasks: Tuple[str, ...]
    metrics: Dict[str, Dict[str, Dict[str, Any]]]

    def delta(self, task: str, metric: str = "auc") -> Dict[str, Any]:
        """The paired-comparison cell for one task and metric."""
        if task not in self.metrics:
            raise KeyError(
                f"no task {task!r} in A/B result; have {self.tasks}"
            )
        cell = self.metrics[task]
        if metric not in cell:
            raise KeyError(
                f"no metric {metric!r}; have {tuple(cell)}"
            )
        return cell[metric]

    def significant(self, task: str, metric: str = "auc") -> bool:
        """True when the task/metric CI excludes zero."""
        return bool(self.delta(task, metric)["excludes_zero"])

    def summary(self) -> Dict[str, Any]:
        return {
            "label_a": self.label_a,
            "label_b": self.label_b,
            "seeds": list(self.seeds),
            "confidence": float(self.confidence),
            "tasks": list(self.tasks),
            "metrics": {
                task: {
                    metric: {
                        k: (
                            [float(x) for x in v]
                            if isinstance(v, list)
                            else v
                        )
                        for k, v in cell.items()
                    }
                    for metric, cell in per_task.items()
                }
                for task, per_task in self.metrics.items()
            },
        }


# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """Everything one :meth:`Session.run` produced."""

    name: str
    spec: Dict[str, Any]
    cluster: Dict[str, Any]
    data: Optional[Dict[str, Any]] = None
    partition: Optional[Dict[str, Any]] = None
    plan: Optional[Dict[str, Any]] = None
    train: Optional[Dict[str, Any]] = None
    price: Optional[Dict[str, Any]] = None
    serve: Optional[Dict[str, Any]] = None
    checkpoint: Optional[Dict[str, Any]] = None
    tier_plan: Optional[Dict[str, Any]] = None
    online: Optional[Dict[str, Any]] = None
    ab: Optional[Dict[str, Any]] = None

    @staticmethod
    def cluster_summary(cluster: Cluster) -> Dict[str, Any]:
        return {
            "num_hosts": cluster.num_hosts,
            "gpus_per_host": cluster.gpus_per_host,
            "generation": str(cluster.spec.generation),
            "world_size": cluster.world_size,
        }

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"name": self.name, "spec": self.spec}
        for section in (
            "cluster", "data", "partition", "plan", "train", "price",
            "serve", "checkpoint", "tier_plan", "online", "ab",
        ):
            value = getattr(self, section)
            if value is not None:
                out[section] = value
        return jsonable(out)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        """Human-readable multi-section report."""
        lines = [f"== run: {self.name} =="]
        c = self.cluster
        lines.append(
            f"cluster: {c['num_hosts']} hosts x {c['gpus_per_host']} "
            f"{c['generation']} GPUs ({c['world_size']} total)"
        )
        if self.data is not None:
            lines.append(
                f"data: {self.data['train_samples']} train / "
                f"{self.data['eval_samples']} eval samples, "
                f"{self.data['num_sparse']} sparse features"
            )
        if self.partition is not None:
            p = self.partition
            lines.append(
                f"partition [{p['strategy']}]: {p['num_towers']} towers "
                f"{p['groups']}"
            )
            if "probe_auc" in p:
                lines.append(f"  probe AUC {p['probe_auc']:.4f}")
            if "within_group_interaction" in p:
                lines.append(
                    f"  within-group interaction "
                    f"{p['within_group_interaction']:.3f}"
                )
        if self.plan is not None:
            pl = self.plan
            lines.append(
                f"plan [{pl['scale']} scale]: {pl['num_shards']} shards over "
                f"{pl['world_size']} ranks, imbalance {pl['imbalance']:.2f}"
            )
        if self.train is not None:
            t = self.train
            lines.append(
                f"train [{t['mode']}]: AUC={t['auc']:.4f} "
                f"LogLoss={t['log_loss']:.4f} "
                f"NE={t['normalized_entropy']:.4f}"
            )
            if "tasks" in t:
                for name, r in t["tasks"].items():
                    auc_txt = (
                        "skipped"
                        if r["auc_skipped"]
                        else f"{r['auc']:.4f}"
                    )
                    lines.append(
                        f"  task {name}: AUC={auc_txt} "
                        f"LogLoss={r['log_loss']:.4f} "
                        f"({r['num_samples']} samples)"
                    )
            if "compression_ratio" in t:
                lines.append(f"  compression ratio {t['compression_ratio']:.0f}")
        if self.price is not None:
            pr = self.price
            lines.append(
                f"price: baseline {pr['baseline']['total_ms']:.2f} ms vs "
                f"DMT {pr['dmt']['total_ms']:.2f} ms -> "
                f"{pr['speedup']:.2f}x speedup"
            )
        if self.serve is not None:
            sv = self.serve
            for name, rep in sv["placements"].items():
                lat = rep["latency_ms"]
                lines.append(
                    f"serve [{name}]: p50={lat['p50']:.3f}ms "
                    f"p99={lat['p99']:.3f}ms "
                    f"tput={rep['throughput_rps']:.0f}/s "
                    f"cache hit {rep['cache']['hit_rate'] * 100.0:.1f}%"
                )
            if "fleet" in sv:
                for name, detail in sv["fleet"].items():
                    lines.append(
                        f"  fleet [{name}]: {detail['num_replicas']} "
                        f"replicas via {detail['router']}, load imbalance "
                        f"{detail['load_imbalance']:.2f}"
                    )
            if "faults" in sv:
                for name, detail in sv["faults"].items():
                    lines.append(
                        f"  faults [{name}]: served "
                        f"{detail['num_served']}/{detail['num_offered']} "
                        f"(lost {detail['num_lost']}, retried "
                        f"{detail['num_retried']}, degraded "
                        f"{detail['num_degraded']}), SLO violations "
                        f"{detail['slo_violation_fraction'] * 100.0:.1f}%, "
                        f"MTTR {detail['mttr_s'] * 1e3:.2f} ms"
                    )
            if "p99_speedup_disaggregated" in sv:
                lines.append(
                    f"  disaggregated p99 speedup "
                    f"{sv['p99_speedup_disaggregated']:.2f}x"
                )
        if self.tier_plan is not None:
            tp = self.tier_plan
            gb = tp["gb_by_tier"]
            placed = ", ".join(
                f"{name}={gb[name]:.2f}GB"
                for name in gb
                if gb[name] > 0
            )
            lines.append(
                f"tier plan [{tp['backing']}-backed]: {placed}; spill "
                f"{tp['spill_fraction'] * 100.0:.1f}% of lookups, "
                f"${tp['dollars']:.2f} provisioned, "
                f"{tp['expected_fetch_us_per_lookup']:.2f} us/lookup"
            )
        if self.checkpoint is not None:
            ck = self.checkpoint
            if "resumed_from" in ck:
                lines.append(
                    f"checkpoint: resumed from {ck['resumed_from']} "
                    f"(step {ck['resumed_step']})"
                )
            if "saved_path" in ck:
                lines.append(f"checkpoint: saved to {ck['saved_path']}")
            if "elastic" in ck:
                el = ck["elastic"]
                lines.append(
                    f"  elastic restore: {el['source_world']} -> "
                    f"{el['target_world']} ranks, "
                    f"{el['moved_mb']:.1f} MB moved "
                    f"({el['moved_fraction'] * 100.0:.0f}%), migration "
                    f"{el['migration_ms']:.2f} ms"
                )
            if "warm_start_rows" in ck:
                lines.append(
                    f"  serve warm-start rows: {ck['warm_start_rows']}"
                )
        if self.online is not None:
            on = self.online
            lines.append(
                f"online [{on['placement']}]: {on['num_windows']} windows, "
                f"{on['num_versions']} versions deployed "
                f"({on['num_rollbacks']} rollbacks, {on['num_swaps']} "
                f"replica swaps)"
            )
            lines.append(
                f"  fresh AUC {on['mean_online_auc']:.4f} vs frozen "
                f"{on['mean_frozen_auc']:.4f} "
                f"({'dominates' if on['freshness_dominates'] else 'mixed'})"
            )
            lines.append(
                f"  delta checkpoints {on['delta_compression']:.1f}x "
                f"smaller than full saves "
                f"({on['mean_delta_nbytes'] / 1024.0:.1f} KiB vs "
                f"{on['full_nbytes'] / 1024.0:.1f} KiB)"
            )
        if self.ab is not None:
            abr = self.ab
            lines.append(
                f"ab [{abr['label_b']} vs {abr['label_a']}]: "
                f"{len(abr['seeds'])} paired seeds, "
                f"{abr['confidence'] * 100.0:.0f}% CI"
            )
            for task in abr["tasks"]:
                cell = abr["metrics"][task]["auc"]
                sig = "*" if cell["excludes_zero"] else " "
                lines.append(
                    f"  {task} AUC delta {cell['mean_delta']:+.4f} "
                    f"[{cell['ci_low']:+.4f}, {cell['ci_high']:+.4f}]{sig}"
                )
        return "\n".join(lines)
