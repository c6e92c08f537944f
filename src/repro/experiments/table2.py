"""Table 2: the Strong Baseline (big batch + Adam + tuned schedule).

Two claims reproduce:

1. **Quality**: large-batch Adam with warmup matches or beats
   small-batch default training in evaluation AUC (the paper improves
   on stock TorchRec by 0.17%/0.39%).  The two recipes are two
   TrainSpecs (``RECIPES``), each a §5.2 seed sweep per family.
2. **Epoch time**: at the paper's scale (one epoch = 4B Criteo
   samples), large batches collapse epoch time from hours to minutes —
   modeled with the iteration latency model on 8xA100.
"""

from __future__ import annotations

from typing import Dict

from repro.api import RunSpec, TrainSpec, spec_auc_sweep
from repro.api.presets import (
    quality_data_spec,
    quality_dcn_model,
    quality_dlrm_model,
)
from repro.experiments.common import FAST_SEEDS, FULL_SEEDS
from repro.experiments.registry import register
from repro.experiments.result import ExperimentResult, format_table
from repro.hardware import Cluster
from repro.perf.iteration_model import IterationLatencyModel
from repro.perf.profiles import paper_dcn_profile, paper_dlrm_profile

PAPER_ROWS = {
    "Baseline (DLRM)": (2048, 0.8030, "6.5hrs"),
    "Strong Baseline (DLRM)": (131072, 0.8047, "29mins"),
    "Baseline (DCN)": (131072, 0.7963, "58mins"),
    "Strong Baseline (DCN)": (131072, 0.8002, "27mins"),
}

#: Paper-scale epoch definition: Criteo at 4B samples (§5.2).
EPOCH_SAMPLES = 4_000_000_000

#: The two recipes: default (small batch, SGD, no schedule) and
#: strong (larger batch, Adam, warmup schedule).
RECIPES = {
    "weak": TrainSpec(
        batch_size=64, epochs=1, dense_optimizer="sgd", dense_lr=0.05, sparse_lr=0.01
    ),
    "strong": TrainSpec(batch_size=512, epochs=2, warmup_steps=8),
}


def experiment_specs(fast: bool = True) -> Dict[str, RunSpec]:
    """Every RunSpec this experiment sweeps, keyed ``<family>-<recipe>``."""
    del fast  # fast mode only shortens the seed list
    return {
        f"{model.family}-{recipe}": RunSpec(
            name=f"table2-{model.family}-{recipe}",
            data=quality_data_spec(),
            model=model,
            train=train,
        )
        for model in (quality_dlrm_model(), quality_dcn_model())
        for recipe, train in RECIPES.items()
    }


def _epoch_minutes(profile, global_batch: int) -> float:
    """Modeled paper-scale epoch time on 8xA100."""
    cluster = Cluster(num_hosts=1, gpus_per_host=8, generation="A100")
    local_batch = max(global_batch // cluster.world_size, 1)
    model = IterationLatencyModel()
    iter_s = model.hybrid(profile, cluster, local_batch).total_s
    return EPOCH_SAMPLES / global_batch * iter_s / 60.0


@register("table2", "Strong Baseline: quality and epoch time")
def run(fast: bool = True) -> ExperimentResult:
    seeds = FAST_SEEDS[:3] if fast else FULL_SEEDS
    specs = experiment_specs(fast)
    rows, data = [], {}
    for name, profile in (("DLRM", paper_dlrm_profile()), ("DCN", paper_dcn_profile())):
        auc = {
            recipe: spec_auc_sweep(specs[f"{name.lower()}-{recipe}"], seeds)[0]
            for recipe in RECIPES
        }
        minutes = {
            "weak": _epoch_minutes(profile, 2048),
            "strong": _epoch_minutes(profile, 131072),
        }
        for recipe, label in (("weak", "Baseline"), ("strong", "Strong Baseline")):
            paper = PAPER_ROWS[f"{label} ({name})"]
            rows.append(
                [
                    f"{label} ({name})",
                    f"{auc[recipe]:.4f}",
                    f"{minutes[recipe]:.0f} min",
                    f"{paper[1]:.4f} / {paper[2]}",
                ]
            )
        data[name] = {
            "weak_auc": auc["weak"],
            "strong_auc": auc["strong"],
            "weak_epoch_min": minutes["weak"],
            "strong_epoch_min": minutes["strong"],
        }
    body = format_table(
        ["Config", "AUC (ours)", "Epoch time (modeled)", "paper AUC / time"],
        rows,
    )
    return ExperimentResult(
        exp_id="table2",
        title="Strong Baseline vs default recipe",
        body=body,
        data=data,
        paper_reference=(
            "Strong Baseline beats stock TorchRec AUC by 0.17%/0.39% and "
            "cuts epoch time from 6.5h to 29min (DLRM)"
        ),
    )
