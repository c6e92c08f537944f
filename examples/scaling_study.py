"""Scaling study: where does DMT win, and why?

Sweeps cluster sizes and GPU generations, printing per-scale iteration
breakdowns and speedups (a condensed Figure 10), then decomposes the
gain at one large scale into its SPTT and tower-module parts (Figure
11's question) and shows the NeuroShard negative result (§2.4).

Run:  python examples/scaling_study.py
"""

from repro.hardware import Cluster
from repro.models import criteo_table_configs
from repro.perf.iteration_model import IterationLatencyModel
from repro.perf.profiles import (
    dmt_profile_for_towers,
    paper_dlrm_profile,
    sptt_only_profile,
)
from repro.planner import balance_analysis

LOCAL_BATCH = 16384


def main() -> None:
    model = IterationLatencyModel()
    base_profile = paper_dlrm_profile()

    print("DLRM: iteration latency and DMT speedup vs scale")
    print(f"{'platform':>9} {'GPUs':>5} {'baseline ms':>12} {'DMT ms':>8} {'speedup':>8}")
    for gen in ("V100", "A100", "H100"):
        sizes = (16, 64, 128) if gen == "V100" else (16, 64, 512)
        for gpus in sizes:
            cluster = Cluster(gpus // 8, 8, gen)
            baseline = model.hybrid(base_profile, cluster, LOCAL_BATCH)
            dmt = model.dmt(
                dmt_profile_for_towers("dlrm", gpus // 8), cluster, LOCAL_BATCH
            )
            print(
                f"{gen:>9} {gpus:>5} {baseline.total_s * 1e3:>12.2f} "
                f"{dmt.total_s * 1e3:>8.2f} {dmt.speedup_over(baseline):>7.2f}x"
            )

    # Decompose the gain at 512 H100s.
    cluster = Cluster(64, 8, "H100")
    baseline = model.hybrid(base_profile, cluster, LOCAL_BATCH)
    sptt = model.dmt(sptt_only_profile(base_profile, 64), cluster, LOCAL_BATCH)
    full = model.dmt(dmt_profile_for_towers("dlrm", 64), cluster, LOCAL_BATCH)
    print("\ngain decomposition at 512xH100 (DLRM):")
    print(f"  SPTT alone:        {sptt.speedup_over(baseline):.2f}x")
    print(f"  + tower modules:   {full.speedup_over(sptt):.2f}x additional")
    print(f"  total DMT:         {full.speedup_over(baseline):.2f}x")

    # §2.4: perfect balance cannot fix the global AlltoAll.
    analysis = balance_analysis(
        criteo_table_configs(), Cluster(8, 8, "A100"), batch_size=16384
    )
    print("\nNeuroShard-style balance (§2.4 negative result):")
    print(
        f"  load imbalance: {analysis.imbalance_naive:.2f} -> "
        f"{analysis.imbalance_balanced:.2f} "
        f"({analysis.straggler_gain:.1f}x more balanced)"
    )
    print(
        f"  AlltoAll time:  {analysis.alltoall_seconds_naive * 1e3:.1f} ms -> "
        f"{analysis.alltoall_seconds_balanced * 1e3:.1f} ms "
        f"(only {analysis.alltoall_gain:.2f}x)"
    )
    print("  balance helps stragglers; it cannot reduce bytes per NIC.")


if __name__ == "__main__":
    main()
