"""Fault tolerance: a self-healing fleet vs the same storm unmitigated.

The ``serving_fleet`` experiment routes a healthy fleet through a flash
crowd; this one breaks the fleet mid-storm and measures what the
robustness layers buy.  Two arms serve the identical seeded trace — a
flash crowd with replica crashes injected *inside* the burst:

- **mitigated** — client retries with capped exponential backoff,
  crash recovery priced by the MTTR model, and the closed-loop SLO
  autoscaler (windowed p99 / queue depth) growing the fleet into its
  headroom replica;
- **no-mitigation** — same crashes, same recovery, but zero retries
  and a frozen fleet size: every request caught on a dead replica is
  lost, and the flash crowd queues against the static fleet.

What the comparison shows: the mitigated arm serves every request
(lost 0%) and holds p99 within 1.5x the SLO, while the no-mitigation
arm loses >1% of traffic outright *and* visibly blows the same SLO.
A second sweep varies the checkpoint cadence under a fixed crash and
traces the MTTR curve: recovery time falls monotonically as
checkpoints tighten, with the no-checkpoint cold rebuild as the
ceiling (the serving-side analogue of the training-plane
checkpointing experiment).

Both arms replay bit-identically under a fixed seed — rerunning the
experiment reproduces every loss, retry, and scale action exactly.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.api import (
    AutoscaleSpec,
    ClusterSpec,
    FaultSpec,
    RunSpec,
    ServeSpec,
    Session,
)
from repro.experiments.registry import register
from repro.experiments.result import ExperimentResult, format_table

#: Same 8-host serving cluster as ``serving_fleet``, but 4 hosts feed
#: the fetch tier so replica count (not the shared fetch plane) bounds
#: fleet capacity — otherwise autoscaling could never help.
_CLUSTER = ClusterSpec(num_hosts=8, gpus_per_host=4, generation="A100")
_EMB_HOSTS = 4
_REPLICAS = 3  # initial fleet; the autoscaler may grow to one more
_MAX_REPLICAS = 4  # = dense hosts, so scale-up adds real capacity

#: ~47% base utilization on 3 replicas; the flash crowd's 2.5x burst
#: sits between the crashed fleet's capacity and the scaled-up
#: fleet's, so mitigation decides whether queues build.
_QPS = 4_000_000.0
_FLASH_FACTOR = 2.5
_SLO_P99_MS = 1.0

#: Checkpoint cadence sweep: 0 = no checkpoints (full cold rebuild).
_CADENCES_S = (0.0, 0.001, 0.002, 0.004, 0.008)

_FAULT_SEED = 3
_CADENCE_SEED = 11


def _serve_section(num_requests: int, flash: bool) -> ServeSpec:
    span = num_requests / _QPS
    scenario: Dict[str, Any] = (
        dict(
            scenario="flash",
            flash_start_s=0.4 * span,
            flash_duration_s=0.3 * span,
            flash_factor=_FLASH_FACTOR,
        )
        if flash
        else {}
    )
    return ServeSpec(
        kind="dlrm",
        qps=_QPS,
        num_requests=num_requests,
        placement="disaggregated",
        emb_hosts=_EMB_HOSTS,
        fleet_replicas=_REPLICAS,
        router="round_robin",
        cache_rows=16384,
        key_space=20_000,
        skew=1.2,
        **scenario,
    )


def _storm_faults(num_requests: int, crashes: int) -> Dict[str, Any]:
    """Crash schedule landing *inside* the flash window."""
    span = num_requests / _QPS
    return dict(
        seed=_FAULT_SEED,
        replica_crashes=crashes,
        start_s=0.42 * span,
        end_s=0.65 * span,
        timeout_ms=0.5,
        detection_ms=0.3,
        restore_ms=0.3,
        checkpoint_period_s=0.002,
        cold_rebuild_ms=5.0,
        warm_rows=8192,
    )


def mitigated_spec(num_requests: int, crashes: int) -> RunSpec:
    """The self-healing arm: retries + recovery + SLO autoscaling."""
    return RunSpec(
        name=f"fault-tolerance-mitigated-{num_requests}",
        cluster=_CLUSTER,
        serve=_serve_section(num_requests, flash=True),
        faults=FaultSpec(**_storm_faults(num_requests, crashes)),
        autoscale=AutoscaleSpec(
            slo_p99_ms=_SLO_P99_MS,
            min_replicas=_REPLICAS,
            max_replicas=_MAX_REPLICAS,
            provision_ms=0.3,
            cooldown_windows=1,
            warm_rows=8192,
        ),
    )


def no_mitigation_spec(num_requests: int, crashes: int) -> RunSpec:
    """The control arm: same storm, zero retries, frozen fleet.

    Deliberately trips the ``retry-budget-zero-with-faults`` speccheck
    — replica faults with no client retries silently lose traffic,
    which is exactly this arm's point — so the driver runs it with
    ``Session(spec, analyze=False)`` and it is *excluded* from
    :func:`experiment_specs`.
    """
    return RunSpec(
        name=f"fault-tolerance-none-{num_requests}",
        cluster=_CLUSTER,
        serve=_serve_section(num_requests, flash=True),
        faults=FaultSpec(
            **{**_storm_faults(num_requests, crashes), "max_retries": 0}
        ),
    )


def cadence_spec(period_s: float, num_requests: int) -> RunSpec:
    """One MTTR-vs-checkpoint-cadence arm: steady load, one crash."""
    span = num_requests / _QPS
    return RunSpec(
        name=f"fault-tolerance-cadence-{period_s:g}",
        cluster=_CLUSTER,
        serve=_serve_section(num_requests, flash=False),
        faults=FaultSpec(
            seed=_CADENCE_SEED,
            replica_crashes=1,
            start_s=0.3 * span,
            end_s=0.5 * span,
            timeout_ms=0.5,
            detection_ms=0.3,
            restore_ms=0.3,
            checkpoint_period_s=period_s,
            cold_rebuild_ms=5.0,
            warm_rows=8192,
        ),
    )


def _sizes(fast: bool) -> Dict[str, int]:
    return (
        {"storm": 150_000, "crashes": 3, "cadence": 30_000}
        if fast
        else {"storm": 300_000, "crashes": 3, "cadence": 60_000}
    )


def experiment_specs(fast: bool = True) -> Dict[str, RunSpec]:
    """Every *validating* RunSpec this experiment runs, keyed by arm.

    The no-mitigation control (see :func:`no_mitigation_spec`) is
    intentionally absent: it is a negative spec by design and runs
    with analysis gating off.
    """
    size = _sizes(fast)
    specs: Dict[str, RunSpec] = {
        "mitigated": mitigated_spec(size["storm"], size["crashes"])
    }
    for period in _CADENCES_S:
        specs[f"cadence-{period * 1e3:g}ms"] = cadence_spec(
            period, size["cadence"]
        )
    return specs


def _scale_path(windows: List[Dict[str, Any]]) -> str:
    """Compact replica trajectory: count changes over the windows."""
    path: List[int] = []
    for w in windows:
        if not path or w["replicas"] != path[-1]:
            path.append(w["replicas"])
    return " -> ".join(str(n) for n in path)


@register("fault_tolerance", "Fault injection + SLO autoscaling")
def run(fast: bool = True) -> ExperimentResult:
    size = _sizes(fast)

    mit_spec = mitigated_spec(size["storm"], size["crashes"])
    non_spec = no_mitigation_spec(size["storm"], size["crashes"])
    mit = Session(mit_spec).serve().fault_reports["disaggregated"]
    # analyze=False: this arm deliberately fails the
    # retry-budget-zero-with-faults speccheck (that is the experiment).
    non = (
        Session(non_spec, analyze=False)
        .serve()
        .fault_reports["disaggregated"]
    )

    cadence_rows = []
    cadence_data: Dict[str, Any] = {}
    for period in _CADENCES_S:
        spec = cadence_spec(period, size["cadence"])
        report = Session(spec).serve().fault_reports["disaggregated"]
        label = "none (cold rebuild)" if period == 0 else f"{period * 1e3:g} ms"
        cadence_rows.append([label, f"{report.mttr_s * 1e3:.2f}"])
        cadence_data[f"{period:g}"] = {
            "spec": spec.to_dict(),
            "report": report.to_dict(),
        }

    rows = []
    for label, report in (("mitigated", mit), ("no-mitigation", non)):
        lat = report.fleet.fleet.latency_ms
        rows.append(
            [
                label,
                f"{lat['p99']:.2f}",
                f"{lat['p99'] / _SLO_P99_MS:.2f}x",
                f"{report.lost_fraction * 100.0:.2f}%",
                str(report.num_retried),
                f"{report.slo_violation_fraction * 100.0:.0f}%",
                f"{report.mttr_s * 1e3:.2f}",
            ]
        )
    body = format_table(
        [
            "arm",
            "p99 ms",
            "vs SLO",
            "lost",
            "retried",
            "SLO viol",
            "MTTR ms",
        ],
        rows,
    )
    body += (
        f"\nscale path (mitigated): {_scale_path(mit.windows)} replicas "
        f"over {len(mit.windows)} windows at SLO {_SLO_P99_MS:g} ms p99\n"
    )
    body += format_table(["checkpoint cadence", "MTTR ms"], cadence_rows)

    # Cold rebuild first; among real cadences MTTR must rise strictly
    # with the period (a longer tail of traffic to replay), all below it.
    cold, *real = (c["report"]["mttr_s"] for c in cadence_data.values())
    mttr_monotone = (
        all(a < b for a, b in zip(real, real[1:])) and real[-1] < cold
    )

    mit_p99 = mit.fleet.fleet.latency_ms["p99"]
    non_p99 = non.fleet.fleet.latency_ms["p99"]
    body += (
        f"\n{size['crashes']} seeded crashes inside a "
        f"{_FLASH_FACTOR:g}x flash crowd: retries + autoscaling hold "
        f"p99 at {mit_p99 / _SLO_P99_MS:.2f}x SLO with "
        f"{mit.lost_fraction * 100.0:.2f}% lost; the unmitigated fleet "
        f"blows it to {non_p99 / _SLO_P99_MS:.2f}x SLO and drops "
        f"{non.lost_fraction * 100.0:.2f}% outright; tighter "
        f"checkpoints {'cut' if mttr_monotone else 'do NOT cut'} "
        f"crash MTTR monotonically "
        f"({cadence_rows[-1][1]} -> {cadence_rows[1][1]} ms, cold "
        f"rebuild {cadence_rows[0][1]} ms)"
    )

    return ExperimentResult(
        exp_id="fault_tolerance",
        title="Self-healing fleet vs an unmitigated fault storm",
        body=body,
        data={
            "slo_p99_ms": _SLO_P99_MS,
            "mitigated": {
                "spec": mit_spec.to_dict(),
                "report": mit.to_dict(),
            },
            "no_mitigation": {
                "spec": non_spec.to_dict(),
                "report": non.to_dict(),
            },
            "cadence": cadence_data,
            "mttr_monotone_in_cadence": mttr_monotone,
        },
        paper_reference=(
            "beyond-paper extension: fault injection + SLO-driven "
            "autoscaling over the disaggregated serving fleet (cf. "
            "DisaggRec 2212.00939 on provisioning, plus the training-"
            "plane checkpoint/recovery story of §4)"
        ),
    )
