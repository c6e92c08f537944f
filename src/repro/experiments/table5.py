"""Table 5: AUC vs tower-module compression ratio (DMT 8T-DLRM).

The paper halves D repeatedly (64 -> 8, CR 2 -> 16) and observes a
gradual AUC decay.  Our N=16 setup sweeps the model spec's
``tower_dim`` in {8, 4, 2, 1}, the same CR ladder, each rung a
§5.2 seed sweep through the session layer.
"""

from __future__ import annotations

from typing import Dict

from repro.api import PartitionSpec, RunSpec, TrainSpec, spec_auc_sweep
from repro.api.presets import quality_data_spec, quality_dlrm_model
from repro.experiments.common import FAST_SEEDS, FULL_SEEDS
from repro.experiments.registry import register
from repro.experiments.result import ExperimentResult, format_table

PAPER = {2: 0.8045, 4: 0.8036, 8: 0.8022, 16: 0.8000}

NUM_TOWERS = 8


def experiment_specs(fast: bool = True) -> Dict[str, RunSpec]:
    """One RunSpec per compression ratio, keyed ``cr<ratio>``."""
    del fast  # fast mode only shortens the seed list
    model = quality_dlrm_model(variant="dmt")
    return {
        f"cr{cr}": RunSpec(
            name=f"table5-cr{cr}",
            data=quality_data_spec(),
            model=model.replace(tower_dim=model.embedding_dim // cr),
            partition=PartitionSpec(strategy="contiguous", num_towers=NUM_TOWERS),
            train=TrainSpec(batch_size=256, epochs=2),
        )
        for cr in PAPER
    }


@register("table5", "AUC vs compression ratio (DMT 8T-DLRM)")
def run(fast: bool = True) -> ExperimentResult:
    seeds = FAST_SEEDS[:3] if fast else FULL_SEEDS
    specs = experiment_specs(fast)
    rows, data = [], {}
    for cr in PAPER:
        spec = specs[f"cr{cr}"]
        med, std, values = spec_auc_sweep(spec, seeds)
        tower_dim = spec.model.tower_dim
        rows.append(
            [cr, tower_dim, f"{med:.4f} ({std:.4f})", f"{PAPER[cr]:.4f}"]
        )
        data[cr] = {"auc": med, "std": std, "values": values}
    body = format_table(
        ["CR", "tower D", "AUC (std), ours", "paper AUC"], rows
    )
    drop = data[2]["auc"] - data[16]["auc"]
    body += f"\nAUC decay CR2 -> CR16: {drop:.4f} (paper: 0.0045)"
    return ExperimentResult(
        exp_id="table5",
        title="Gradual AUC degradation with larger compression ratios",
        body=body,
        data=data,
        paper_reference="0.8045 -> 0.8000 as CR goes 2 -> 16",
    )
