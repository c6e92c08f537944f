"""Figure 11: speedup of tower modules over SPTT-only (DLRM)."""

from __future__ import annotations

from repro.experiments.common import LOCAL_BATCH, PAPER_FIGURE11, SCALES
from repro.experiments.registry import register
from repro.experiments.result import ExperimentResult, format_table
from repro.hardware import Cluster
from repro.perf.iteration_model import IterationLatencyModel
from repro.perf.profiles import (
    dmt_profile_for_towers,
    paper_dlrm_profile,
    sptt_only_profile,
)


@register("figure11", "Speedup of Tower Modules over SPTT (DLRM)")
def run(fast: bool = True) -> ExperimentResult:
    del fast
    model = IterationLatencyModel()
    rows, data = [], {}
    for gen, sizes in SCALES.items():
        for gpus in sizes:
            hosts = gpus // 8
            cluster = Cluster(hosts, 8, gen)
            with_tm = model.dmt(
                dmt_profile_for_towers("dlrm", hosts), cluster, LOCAL_BATCH
            )
            sptt = model.dmt(
                sptt_only_profile(paper_dlrm_profile(), hosts),
                cluster,
                LOCAL_BATCH,
            )
            speedup = with_tm.speedup_over(sptt)
            rows.append(
                [gen, gpus, f"{speedup:.2f}", f"{PAPER_FIGURE11[gen][gpus]:.1f}"]
            )
            data[f"{gen}/{gpus}"] = speedup
    return ExperimentResult(
        exp_id="figure11",
        title="Tower modules vs SPTT-only, DLRM",
        body=format_table(["platform", "GPUs", "ours", "paper"], rows),
        data=data,
        paper_reference="TM contributes up to 1.4x additional gain over SPTT",
    )
