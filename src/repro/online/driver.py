"""The online-training driver and the staged-rollout planner.

Training is deterministic and independent of the serving replay, so the
freshness loop runs in two passes:

1. :class:`OnlineDriver` consumes the stream window by window.  Each
   window it (a) evaluates the currently *deployed* and the *frozen*
   (never-updated) versions on the window's data — the staleness–
   quality curve, (b) trains the candidate one pass further via
   :meth:`~repro.training.Trainer.train_window`, (c) emits a delta
   checkpoint of the rows the window touched (compacted to a full save
   every ``compact_every`` deltas), and (d) runs the canary gate: if
   *any* task's candidate eval AUC regresses more than
   ``canary_threshold`` below the deployed version's (per-task for
   multi-task trainers; single-class windows record a typed skip
   instead of gating), the rollout is rolled back and the deployed
   version stays; otherwise the candidate deploys at the next window
   boundary.

2. :class:`RolloutPlanner` turns the driver's deploy/rollback decisions
   into a concrete :class:`~repro.serving.faults.SwapEvent` schedule —
   staged 1 → half → all across the fleet, each swap paying priced
   downtime plus a warm prefill of the delta's touched rows; a
   rollback becomes a canary swap followed by a revert swap on the
   same replica.  :class:`~repro.serving.faults.ResilientFleet` then
   replays the trace once per arm (swapped vs. frozen) at equal
   provisioned cost.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.checkpoint.delta import checkpoint_nbytes, delta_touched_rows
from repro.checkpoint.state import save_training_checkpoint
from repro.data.criteo import TASKS
from repro.serving.faults import SwapEvent

__all__ = [
    "OnlineDriver",
    "OnlineReport",
    "RolloutPlanner",
    "stacked_touched_ids",
]

Arrays = Tuple[np.ndarray, np.ndarray, np.ndarray]


def stacked_touched_ids(
    touched: Dict[int, np.ndarray], cardinalities: Sequence[int]
) -> np.ndarray:
    """Per-table touched rows → global stacked row ids (sorted).

    Table ``f``'s rows start at ``sum(cardinality[:f])`` — the fused
    :class:`~repro.nn.embedding.EmbeddingBagCollection` layout that
    :func:`~repro.checkpoint.state.hottest_rows` and the serving
    warm-start already share, so swap prefills speak the same key
    space as crash-recovery prefills.
    """
    offsets = np.concatenate(
        ([0], np.cumsum(np.asarray(cardinalities, dtype=np.int64)))
    )
    parts = [
        np.asarray(rows, dtype=np.int64) + offsets[f]
        for f, rows in sorted(touched.items())
        if np.asarray(rows).size
    ]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(parts))


@dataclass
class OnlineReport:
    """Outcome of one online-training run over a windowed stream."""

    windows: List[Dict[str, Any]] = field(default_factory=list)
    checkpoints: List[Dict[str, Any]] = field(default_factory=list)
    rollouts: List[Dict[str, Any]] = field(default_factory=list)
    num_versions: int = 0
    num_rollbacks: int = 0
    full_nbytes: int = 0  # size of the first full save (the base)
    mean_delta_nbytes: float = 0.0

    @property
    def delta_compression(self) -> float:
        """Full-save bytes over mean delta bytes (>1 = deltas win)."""
        if self.mean_delta_nbytes <= 0:
            return 0.0
        return self.full_nbytes / self.mean_delta_nbytes

    def staleness_curve(self) -> List[Dict[str, float]]:
        """Per-window (staleness, online AUC, frozen AUC) — the curve
        the ``model_freshness`` experiment plots."""
        return [
            {
                "window": w["window"],
                "staleness_windows": w["staleness_windows"],
                "frozen_staleness_windows": w["window"],
                "online_auc": w["online_auc"],
                "frozen_auc": w["frozen_auc"],
            }
            for w in self.windows
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "windows": [dict(w) for w in self.windows],
            "checkpoints": [dict(c) for c in self.checkpoints],
            "rollouts": [dict(r) for r in self.rollouts],
            "num_versions": self.num_versions,
            "num_rollbacks": self.num_rollbacks,
            "full_nbytes": self.full_nbytes,
            "mean_delta_nbytes": self.mean_delta_nbytes,
            "delta_compression": self.delta_compression,
        }


class OnlineDriver:
    """Stream windows through a trainer; emit deltas and deploy gates.

    ``model``/``trainer`` arrive freshly constructed; the driver owns
    them for the run.  ``directory`` receives the checkpoint chain
    (``v00001_full``, ``v00002_delta``, ... with periodic compaction).
    """

    def __init__(
        self,
        model: Any,
        trainer: Any,
        directory: str,
        *,
        compact_every: int = 4,
        canary_threshold: float = 0.01,
    ):
        if compact_every < 1:
            raise ValueError(
                f"compact_every must be >= 1, got {compact_every}"
            )
        if not 0.0 <= canary_threshold < 0.5:
            raise ValueError(
                f"canary_threshold must be in [0, 0.5), got "
                f"{canary_threshold} (an AUC regression tolerance)"
            )
        self.model = model
        self.trainer = trainer
        self.directory = directory
        self.compact_every = compact_every
        self.canary_threshold = canary_threshold
        self.cardinalities = [
            int(p.data.shape[0]) for p in trainer.sparse_opt.params
        ]

    # ------------------------------------------------------------------
    @staticmethod
    def _auc_by_task(result: Any) -> Dict[str, float]:
        """Per-task eval AUCs; a single-logit model is the CTR model."""
        by_task = getattr(result, "by_task", None)
        if by_task is None:
            return {TASKS[0]: float(result.auc)}
        return {name: float(r.auc) for name, r in by_task.items()}

    def _eval_window(
        self, state: Dict[str, np.ndarray], evals: Arrays
    ) -> Tuple[float, Dict[str, float]]:
        """(headline AUC, per-task AUCs) of a saved weight snapshot on
        one window's eval slice (the live candidate weights are
        restored by the caller).  Single-class canary windows yield NaN
        (a typed skip recorded in the window report) instead of
        crashing mid-stream.
        """
        self.model.load_state_dict(state)
        result = self.trainer.evaluate(*evals, single_class="nan")
        return float(result.auc), self._auc_by_task(result)

    def _ckpt_path(self, version: int, kind: str) -> str:
        return os.path.join(self.directory, f"v{version:05d}_{kind}")

    def run(self, windows: Sequence[Tuple[Arrays, Arrays]]) -> OnlineReport:
        """Consume ``windows`` (list of (train, eval) array triples);
        returns the :class:`OnlineReport` with the rollout decisions
        the :class:`RolloutPlanner` schedules."""
        if len(windows) < 2:
            raise ValueError(
                f"online training needs >= 2 stream windows, got "
                f"{len(windows)}"
            )
        report = OnlineReport()
        num_tables = len(self.cardinalities)

        # Window 0 bootstraps version 1: train, full save, deploy to
        # the whole fleet before the trace starts (both arms identical).
        (train0, eval0) = windows[0]
        loss = self.trainer.train_window(*train0)
        base = save_training_checkpoint(
            self._ckpt_path(1, "full"), self.model, self.trainer
        )
        report.full_nbytes = checkpoint_nbytes(base)
        report.checkpoints.append(
            {"path": base, "kind": "full", "nbytes": report.full_nbytes}
        )
        candidate_state = self.model.state_dict()
        deployed_state = candidate_state
        frozen_state = candidate_state
        result0 = self.trainer.evaluate(*eval0, single_class="nan")
        auc0 = float(result0.auc)
        auc0_by_task = self._auc_by_task(result0)
        report.num_versions = 1
        deployed_window = 0
        version = 1
        last_ckpt = base
        deltas_since_full = 0
        delta_bytes: List[int] = []
        report.windows.append(
            {
                "window": 0,
                "train_loss": loss,
                "staleness_windows": 0,
                "online_auc": auc0,
                "frozen_auc": auc0,
                "candidate_auc": auc0,
                "online_auc_by_task": dict(auc0_by_task),
                "candidate_auc_by_task": dict(auc0_by_task),
                "canary_skipped_tasks": sorted(
                    name
                    for name, value in auc0_by_task.items()
                    if math.isnan(value)
                ),
                "deployed_version": version,
                "rolled_out": True,
                "rolled_back": False,
            }
        )

        for w in range(1, len(windows)):
            (train_w, eval_w) = windows[w]
            # Serving quality during window w: the versions that are
            # actually live — deployed (online arm) and v1 (frozen arm).
            staleness = w - deployed_window
            online_auc, online_by_task = self._eval_window(
                deployed_state, eval_w
            )
            frozen_auc, _ = self._eval_window(frozen_state, eval_w)
            self.model.load_state_dict(candidate_state)

            # Continue training the candidate on the window's batches.
            loss = self.trainer.train_window(*train_w)
            candidate_state = self.model.state_dict()
            cand_result = self.trainer.evaluate(*eval_w, single_class="nan")
            candidate_auc = float(cand_result.auc)
            cand_by_task = self._auc_by_task(cand_result)
            touched = delta_touched_rows(train_w[1], num_tables)

            # Emit the window's checkpoint: delta, or compaction.
            deltas_since_full += 1
            compact = deltas_since_full >= self.compact_every
            kind = "full" if compact else "delta"
            path = save_training_checkpoint(
                self._ckpt_path(w + 1, kind),
                self.model,
                self.trainer,
                base=None if compact else last_ckpt,
                touched=touched,
            )
            nbytes = checkpoint_nbytes(path)
            if compact:
                deltas_since_full = 0
            else:
                delta_bytes.append(nbytes)
            last_ckpt = path
            report.checkpoints.append(
                {"path": path, "kind": kind, "nbytes": nbytes}
            )

            # Canary gate: deploy unless ANY gated task's candidate
            # regresses past the threshold vs. what is already serving.
            # A task whose canary AUC is NaN on either side (single-
            # class window, empty gated subset) cannot be gated — it is
            # recorded as a typed skip and the remaining tasks decide.
            regression_by_task: Dict[str, float] = {}
            skipped_tasks: List[str] = []
            for name, cand in cand_by_task.items():
                live = online_by_task.get(name, float("nan"))
                if math.isnan(cand) or math.isnan(live):
                    skipped_tasks.append(name)
                    continue
                regression_by_task[name] = live - cand
            rolled_out = all(
                r <= self.canary_threshold
                for r in regression_by_task.values()
            )
            rolled_back = not rolled_out
            regression = online_auc - candidate_auc
            rollout = {
                "deploy_window": w + 1,  # swaps at the w→w+1 boundary
                "version": version + 1,
                "candidate_auc": candidate_auc,
                "deployed_auc": online_auc,
                "regression": regression,
                "regression_by_task": dict(regression_by_task),
                "canary_skipped_tasks": sorted(skipped_tasks),
                "rolled_back": rolled_back,
                "checkpoint": path,
                "warm_rows": stacked_touched_ids(
                    touched, self.cardinalities
                ),
            }
            if rolled_out:
                version += 1
                deployed_state = candidate_state
                deployed_window = w
                report.num_versions += 1
            else:
                report.num_rollbacks += 1
            if w + 1 < len(windows) or rolled_back:
                # The final window's deploy boundary is past the trace
                # end — nothing to swap — but a rollback still records
                # (the canary replica briefly served the bad version).
                report.rollouts.append(rollout)

            report.windows.append(
                {
                    "window": w,
                    "train_loss": loss,
                    "staleness_windows": staleness,
                    "online_auc": online_auc,
                    "frozen_auc": frozen_auc,
                    "candidate_auc": candidate_auc,
                    "online_auc_by_task": dict(online_by_task),
                    "candidate_auc_by_task": dict(cand_by_task),
                    "canary_skipped_tasks": sorted(skipped_tasks),
                    "deployed_version": version,
                    "rolled_out": rolled_out,
                    "rolled_back": rolled_back,
                }
            )

        report.mean_delta_nbytes = (
            float(np.mean(delta_bytes)) if delta_bytes else 0.0
        )
        return report


# ----------------------------------------------------------------------
class RolloutPlanner:
    """Turn deploy/rollback decisions into a staged SwapEvent schedule.

    ``stages`` are cumulative replica counts (default 1 → half → all);
    each stage fires ``stage_gap_s`` after the previous so the canary
    soaks before the fleet follows.  A rolled-back deploy becomes two
    swaps on the canary replica: the bad version in, then the deployed
    version back — both paying the priced downtime, which is exactly
    the cost automatic rollback saves the rest of the fleet.
    """

    def __init__(
        self,
        num_replicas: int,
        num_windows: int,
        span_s: float,
        *,
        stages: Sequence[int] = (),
        swap_s: float = 0.002,
    ):
        if num_replicas < 1:
            raise ValueError(
                f"num_replicas must be >= 1, got {num_replicas}"
            )
        if num_windows < 2:
            raise ValueError(f"num_windows must be >= 2, got {num_windows}")
        if span_s <= 0:
            raise ValueError(f"span_s must be positive, got {span_s}")
        if swap_s < 0:
            raise ValueError(f"swap_s must be >= 0, got {swap_s}")
        resolved = tuple(stages) or self.default_stages(num_replicas)
        if list(resolved) != sorted(set(resolved)) or resolved[0] < 1:
            raise ValueError(
                f"stages must be strictly increasing positive replica "
                f"counts, got {resolved}"
            )
        if resolved[-1] > num_replicas:
            raise ValueError(
                f"rollout stage {resolved[-1]} exceeds the fleet's "
                f"{num_replicas} replicas"
            )
        self.num_replicas = num_replicas
        self.num_windows = num_windows
        self.span_s = span_s
        self.stages = resolved
        self.swap_s = swap_s
        self.window_span_s = span_s / num_windows
        # Stages spread over the first half of a window, so the new
        # version is fully rolled out well before the next boundary.
        self.stage_gap_s = 0.5 * self.window_span_s / max(1, len(resolved))

    @staticmethod
    def default_stages(num_replicas: int) -> Tuple[int, ...]:
        """Canary → half the fleet → the whole fleet (deduplicated for
        tiny fleets)."""
        stages = sorted(
            {1, max(1, math.ceil(num_replicas / 2)), num_replicas}
        )
        return tuple(stages)

    def plan(self, rollouts: Sequence[Dict[str, Any]]) -> List[SwapEvent]:
        """SwapEvents for the driver's rollout records (trace-relative
        times)."""
        events: List[SwapEvent] = []
        for rollout in rollouts:
            boundary = rollout["deploy_window"]
            if boundary >= self.num_windows and not rollout["rolled_back"]:
                continue  # deploys after the trace ends
            t0 = min(boundary, self.num_windows - 1) * self.window_span_s
            warm = np.asarray(rollout["warm_rows"], dtype=np.int64)
            version = int(rollout["version"])
            if rollout["rolled_back"]:
                # Canary in, canary back out: replica 0 pays both.
                events.append(
                    SwapEvent(
                        at_s=t0,
                        replica=0,
                        version=version,
                        swap_s=self.swap_s,
                        warm_rows=warm,
                    )
                )
                events.append(
                    SwapEvent(
                        at_s=t0 + self.stage_gap_s,
                        replica=0,
                        version=version - 1,
                        swap_s=self.swap_s,
                        warm_rows=warm,
                    )
                )
                continue
            done = 0
            for j, count in enumerate(self.stages):
                for replica in range(done, min(count, self.num_replicas)):
                    events.append(
                        SwapEvent(
                            at_s=t0 + j * self.stage_gap_s,
                            replica=replica,
                            version=version,
                            swap_s=self.swap_s,
                            warm_rows=warm,
                        )
                    )
                done = max(done, count)
        events.sort(key=lambda e: (e.at_s, e.replica))
        return events
