"""Closed-loop SLO autoscaling for the serving fleet.

The fleet's replica count is a provisioning knob; under diurnal swings
and flash crowds a static fleet either wastes dense hosts at trough or
blows its latency SLO at peak (the DisaggRec provisioning question,
arXiv:2212.00939).  This module supplies the control loop:

- :class:`AutoscalePolicy` — the declarative knobs: the p99 SLO being
  defended, replica bounds, the observation window, scale step,
  provisioning delay, cooldown, and the queue-depth backstop;
- :class:`SLOAutoscaler` — the controller.  At every window boundary
  it reads the window's p99 and the instantaneous per-replica queue
  depth and returns a new target replica count: scale **up** when the
  window violated the SLO (or queueing runs hot — queue depth leads
  p99, so the backstop reacts a window earlier than the latency
  signal), scale **down** when p99 sits comfortably under
  ``scale_down_margin`` of the SLO with cold queues.  A cooldown of
  ``cooldown_windows`` windows follows every action so the loop
  measures the fleet it just changed before acting again.

The controller is deliberately pure decision logic — the
fault-injecting replay (:mod:`repro.serving.faults`) owns the actual
scale-up (provisioning delay, cold cache, priced warm-start prefill)
and drain mechanics, so the loop stays unit-testable on synthetic
window metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class AutoscalePolicy:
    """Knobs of the SLO-driven replica autoscaler."""

    slo_p99_ms: float = 5.0  # the windowed p99 target being defended
    min_replicas: int = 1
    max_replicas: int = 8
    window_s: float = 0.0  # observation window; 0 = trace span / 20
    scale_step: int = 1  # replicas added/drained per action
    provision_s: float = 0.002  # scale-up lead time before serving
    cooldown_windows: int = 1  # windows to wait after an action
    queue_high: float = 16.0  # per-replica in-flight backstop
    scale_down_margin: float = 0.5  # drain below margin * SLO
    warm_rows: int = 0  # cache rows prefilled into a new replica

    def __post_init__(self) -> None:
        if not self.slo_p99_ms > 0:
            raise ValueError(
                f"slo_p99_ms must be positive, got {self.slo_p99_ms}"
            )
        if not self.min_replicas >= 1:
            raise ValueError(
                f"min_replicas must be >= 1, got {self.min_replicas}"
            )
        if not self.max_replicas >= self.min_replicas:
            raise ValueError(
                f"max_replicas ({self.max_replicas}) must be >= "
                f"min_replicas ({self.min_replicas})"
            )
        if not self.window_s >= 0:
            raise ValueError(f"window_s must be >= 0, got {self.window_s}")
        if not self.scale_step >= 1:
            raise ValueError(
                f"scale_step must be >= 1, got {self.scale_step}"
            )
        if not self.provision_s >= 0:
            raise ValueError(
                f"provision_s must be >= 0, got {self.provision_s}"
            )
        if not self.cooldown_windows >= 0:
            raise ValueError(
                f"cooldown_windows must be >= 0, got "
                f"{self.cooldown_windows}"
            )
        if not self.queue_high > 0:
            raise ValueError(
                f"queue_high must be positive, got {self.queue_high}"
            )
        if not 0.0 < self.scale_down_margin < 1.0:
            raise ValueError(
                f"scale_down_margin must be in (0, 1), got "
                f"{self.scale_down_margin}"
            )
        if not self.warm_rows >= 0:
            raise ValueError(
                f"warm_rows must be >= 0, got {self.warm_rows}"
            )


class SLOAutoscaler:
    """Windowed p99 / queue-depth controller over the replica count.

    :meth:`decide` is called once per observation window with that
    window's measured p99 (``None`` when the window served nothing),
    the instantaneous mean in-flight requests per live replica, and the
    current live replica count; it returns the new target count.  The
    decision sequence is a pure function of the metric sequence, so a
    seeded replay scales identically every run.
    """

    def __init__(self, policy: AutoscalePolicy):
        self.policy = policy
        self._cooldown = 0

    def reset(self) -> None:
        """Forget cooldown state (a new trace is starting)."""
        self._cooldown = 0

    def decide(
        self,
        p99_ms: Optional[float],
        queue_depth: float,
        current_replicas: int,
    ) -> int:
        """Target replica count for the next window."""
        p = self.policy
        if self._cooldown > 0:
            self._cooldown -= 1
            return current_replicas
        hot = (
            p99_ms is not None and p99_ms > p.slo_p99_ms
        ) or queue_depth > p.queue_high
        if hot and current_replicas < p.max_replicas:
            self._cooldown = p.cooldown_windows
            return min(p.max_replicas, current_replicas + p.scale_step)
        cold = (
            p99_ms is None or p99_ms < p.scale_down_margin * p.slo_p99_ms
        ) and queue_depth <= 0.5 * p.queue_high
        if cold and current_replicas > p.min_replicas:
            self._cooldown = p.cooldown_windows
            return max(p.min_replicas, current_replicas - p.scale_step)
        return current_replicas
