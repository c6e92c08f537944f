"""Table 4: DMT matches baseline AUC across tower counts.

AUC columns come from real (small-scale) training driven through the
:mod:`repro.api` session layer (one §5.2 seed sweep per RunSpec in
:func:`experiment_specs`); the complexity columns (MFlops/sample,
parameters) come from the *paper-scale* model implementations via the
perf profiles, so the tower-count/flops interplay is measured, not
transcribed.
"""

from __future__ import annotations

from typing import Dict

from repro.api import PartitionSpec, RunSpec, TrainSpec, spec_auc_sweep
from repro.api.presets import (
    quality_data_spec,
    quality_dcn_model,
    quality_dlrm_model,
)
from repro.experiments.common import FAST_SEEDS, FULL_SEEDS
from repro.experiments.registry import register
from repro.experiments.result import ExperimentResult, format_table
from repro.models import criteo_table_configs
from repro.perf.profiles import (
    dmt_dcn_profile,
    dmt_dlrm_profile,
    paper_dcn_profile,
    paper_dlrm_profile,
)

PAPER_AUC = {
    "DLRM": {"base": 0.8047, 2: 0.8046, 4: 0.8045, 8: 0.8045, 16: 0.8047},
    "DCN": {"base": 0.8002, 2: 0.7998, 4: 0.8003, 8: 0.8006, 16: 0.8001},
}

#: Embedding parameters at paper scale (~22.78G) dominate the count.
EMB_PARAMS_G = sum(c.num_parameters for c in criteo_table_configs()) / 1e9


def _paper_scale_profile(kind: str, towers: "int | None"):
    if kind == "DLRM":
        return paper_dlrm_profile() if towers is None else dmt_dlrm_profile(towers)
    return paper_dcn_profile() if towers is None else dmt_dcn_profile(towers)


def _tower_counts(fast: bool) -> "tuple[int, ...]":
    return (2, 4) if fast else (2, 4, 8, 13)


def experiment_specs(fast: bool = True) -> Dict[str, RunSpec]:
    """Every RunSpec this experiment sweeps, keyed ``<family>-base`` and
    ``<family>-<T>T``."""
    specs: Dict[str, RunSpec] = {}
    # DMT-DLRM towers compress 2x, DMT-DCN towers keep the full width.
    for model, cr in ((quality_dlrm_model(), 2), (quality_dcn_model(), 1)):
        base = RunSpec(
            name=f"table4-{model.family}-base",
            data=quality_data_spec(),
            model=model,
            train=TrainSpec(batch_size=256, epochs=2),
        )
        specs[f"{model.family}-base"] = base
        for towers in _tower_counts(fast):
            specs[f"{model.family}-{towers}T"] = base.replace(
                name=f"table4-{model.family}-{towers}T",
                model=model.replace(
                    variant="dmt", tower_dim=model.embedding_dim // cr
                ),
                partition=PartitionSpec(strategy="contiguous", num_towers=towers),
            )
    return specs


@register("table4", "AUC and complexity vs tower count")
def run(fast: bool = True) -> ExperimentResult:
    seeds = FAST_SEEDS[:3] if fast else FULL_SEEDS
    specs = experiment_specs(fast)
    rows, data = [], {}
    for kind in ("DLRM", "DCN"):
        med, std, _ = spec_auc_sweep(specs[f"{kind.lower()}-base"], seeds)
        profile = _paper_scale_profile(kind, None)
        dense_params_g = profile.dense_param_bytes / 4 / 1e9
        rows.append(
            [
                f"{kind} Strong Baseline",
                f"{med:.4f} ({std:.4f})",
                f"{profile.training_mflops:.2f}",
                f"{EMB_PARAMS_G + dense_params_g:.2f}",
                f"{PAPER_AUC[kind]['base']:.4f}",
            ]
        )
        data[f"{kind}/base"] = {"auc": med, "std": std}
        for towers in _tower_counts(fast):
            med_t, std_t, _ = spec_auc_sweep(
                specs[f"{kind.lower()}-{towers}T"], seeds
            )
            # Paper-scale complexity for the nearest defined config.
            prof_towers = towers if towers in (2, 4, 8, 16) else 8
            dprof = _paper_scale_profile(kind, prof_towers)
            dmt_params_g = (
                dprof.dense_param_bytes + dprof.tower_param_bytes
            ) / 4 / 1e9
            paper_auc = PAPER_AUC[kind].get(towers, "-")
            rows.append(
                [
                    f"DMT {towers}T-{kind}",
                    f"{med_t:.4f} ({std_t:.4f})",
                    f"{dprof.training_mflops:.2f}",
                    f"{EMB_PARAMS_G + dmt_params_g:.2f}",
                    f"{paper_auc:.4f}" if paper_auc != "-" else "-",
                ]
            )
            data[f"{kind}/{towers}T"] = {"auc": med_t, "std": std_t}
    body = format_table(
        [
            "Model",
            "AUC (std), ours",
            "MFlops/sample*",
            "Params (G)*",
            "paper AUC",
        ],
        rows,
    )
    body += (
        "\n* complexity columns measured from the paper-scale module "
        "implementations (fwd+bwd flops); AUC from the small-scale "
        "quality setup."
    )
    return ExperimentResult(
        exp_id="table4",
        title="DMT vs baselines: AUC parity across tower counts",
        body=body,
        data=data,
        paper_reference=(
            "all DMT configurations within one std of baseline AUC; "
            "DMT-DLRM 8.95 vs 14.74 MFlops"
        ),
    )
