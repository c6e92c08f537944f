"""Table 6: TP creates more meaningful partitions than naive striding.

Protocol (matching §5.2.3), expressed as two session-layer RunSpecs
that differ only in partition strategy: probe a flat model, run TP
(coherent), then train DMT models under the TP partition and under the
naive strided partition across repeated seeds; compare AUC medians with
the Mann-Whitney U test.

The tower modules use the flat bottleneck (Listing 1's p-term with a
1-dim output) so that partition quality actually gates how much
within-block signal survives compression — the paper's 16T-DLRM
configuration (p=1, c=0) scaled to our geometry.
"""

from __future__ import annotations

from typing import Dict

from repro.api import PartitionSpec, RunSpec, Session, TrainSpec, spec_auc_sweep
from repro.api.presets import (
    naive_control_spec,
    quality_data_spec,
    quality_dlrm_model,
)
from repro.experiments.common import FAST_SEEDS, FULL_SEEDS, block_purity
from repro.experiments.registry import register
from repro.experiments.result import ExperimentResult, format_table
from repro.training import mann_whitney_u

PAPER = {
    "DMT 16T-DLRM (1e-3)": {"tp": 0.7990, "naive": 0.7981, "p": 0.0006},
    "DMT 8T-DCN (2e-3)": {"tp": 0.8006, "naive": 0.8003, "p": 0.0023},
}


def experiment_specs(fast: bool = True) -> Dict[str, RunSpec]:
    """The TP arm and its naive control."""
    del fast  # fast mode only shortens the seed list
    data = quality_data_spec()
    tp = RunSpec(
        name="table6",
        data=data,
        model=quality_dlrm_model(variant="dmt", tower_dim=1, c=0, p=1),
        partition=PartitionSpec(strategy="coherent", num_towers=data.num_blocks),
        train=TrainSpec(batch_size=256, epochs=2),
    )
    return {"tp": tp, "naive": naive_control_spec(tp)}


@register("table6", "TP vs naive feature-to-tower assignment")
def run(fast: bool = True) -> ExperimentResult:
    seeds = FAST_SEEDS if fast else FULL_SEEDS
    specs = experiment_specs(fast)
    tp_spec, naive_spec = specs["tp"], specs["naive"]

    tp_session = Session(tp_spec)
    dataset = tp_session.load_data().dataset
    tp_art = tp_session.partition()
    tp_result = tp_art.tp_result
    purity = block_purity(tp_result.partition, dataset.block_of)
    naive_partition = Session(naive_spec).partition().partition
    naive_purity = block_purity(naive_partition, dataset.block_of)

    tp_med, tp_std, tp_values = spec_auc_sweep(tp_spec, seeds)
    nv_med, nv_std, nv_values = spec_auc_sweep(naive_spec, seeds)
    p_value = mann_whitney_u(tp_values, nv_values)

    rows = [
        [
            "DMT 4T-DLRM (ours)",
            f"{tp_med:.4f} ({tp_std:.4f})",
            f"{nv_med:.4f} ({nv_std:.4f})",
            f"{p_value:.4f}",
        ],
        [
            "DMT 16T-DLRM (paper)",
            "0.7990 (0.0003)",
            "0.7981 (0.0003)",
            "0.0006",
        ],
        ["DMT 8T-DCN (paper)", "0.8006 (0.0002)", "0.8003 (0.0003)", "0.0023"],
    ]
    body = format_table(["Config", "TP (std)", "Naive (std)", "p-value"], rows)
    body += (
        f"\nTP partition block purity {purity:.2f} vs naive {naive_purity:.2f} "
        f"(ground truth planted by the generator); "
        f"within-group interaction {tp_result.within_group_interaction:.3f}"
    )
    return ExperimentResult(
        exp_id="table6",
        title="TP beats naive assignment with statistical significance",
        body=body,
        data={
            "tp_auc": tp_med,
            "naive_auc": nv_med,
            "p_value": p_value,
            "tp_purity": purity,
            "naive_purity": naive_purity,
            "tp_values": tp_values,
            "naive_values": nv_values,
        },
        paper_reference=(
            "TP > naive with p = 0.0006 (16T-DLRM) and p = 0.0023 (8T-DCN)"
        ),
    )
