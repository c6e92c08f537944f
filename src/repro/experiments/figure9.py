"""Figure 9: TP similarity matrix and learned 2D feature embedding.

Renders the interaction (similarity) matrix as an ASCII heatmap and
the MDS-learned 2D coordinates with tower assignments — the textual
equivalent of the paper's color-coded scatter.  The TP result is the
session layer's partition stage on the quality setup (probe -> TP,
coherent strategy, one tower per planted block).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.api import PartitionSpec, RunSpec, Session
from repro.api.presets import quality_data_spec, quality_dlrm_model
from repro.experiments.common import block_purity
from repro.experiments.registry import register
from repro.experiments.result import ExperimentResult

_SHADES = " .:-=+*#%@"


def ascii_heatmap(matrix: np.ndarray) -> str:
    """Render a [0, 1] matrix with one glyph per cell."""
    m = np.asarray(matrix, dtype=np.float64)
    lo, hi = m.min(), m.max()
    scaled = (m - lo) / (hi - lo) if hi > lo else np.zeros_like(m)
    idx = np.minimum(
        (scaled * len(_SHADES)).astype(int), len(_SHADES) - 1
    )
    return "\n".join("".join(_SHADES[i] for i in row) for row in idx)


def ascii_scatter(
    coords: np.ndarray, labels: np.ndarray, width: int = 48, height: int = 18
) -> str:
    """Plot 2D points labeled by tower id on a character grid."""
    x, y = coords[:, 0], coords[:, 1]
    grid = [[" "] * width for _ in range(height)]
    spanx = max(x.max() - x.min(), 1e-9)
    spany = max(y.max() - y.min(), 1e-9)
    for (px, py), lab in zip(coords, labels):
        col = int((px - x.min()) / spanx * (width - 1))
        row = int((py - y.min()) / spany * (height - 1))
        grid[height - 1 - row][col] = str(int(lab) % 10)
    return "\n".join("".join(r) for r in grid)


def experiment_specs(fast: bool = True) -> Dict[str, RunSpec]:
    """The one probe -> TP run this figure renders."""
    del fast
    data = quality_data_spec()
    tp = PartitionSpec(strategy="coherent", num_towers=data.num_blocks)
    return {
        "tp": RunSpec(
            name="figure9", data=data, model=quality_dlrm_model(), partition=tp
        )
    }


@register("figure9", "TP similarity matrix and 2D feature embedding")
def run(fast: bool = True) -> ExperimentResult:
    session = Session(experiment_specs(fast)["tp"])
    dataset = session.load_data().dataset
    result = session.partition().tp_result
    labels = np.empty(result.interaction.shape[0], dtype=int)
    for t, group in enumerate(result.partition.groups):
        labels[list(group)] = t
    purity = block_purity(result.partition, dataset.block_of)
    body = "similarity matrix (features x features, darker = stronger):\n"
    body += ascii_heatmap(result.interaction)
    body += "\n\nlearned 2D feature embedding (digit = assigned tower):\n"
    body += ascii_scatter(result.coordinates, labels)
    body += (
        f"\n\ntowers: {result.partition.groups}"
        f"\nground-truth block purity: {purity:.2f} "
        f"(1.0 = perfect recovery of planted blocks)"
        f"\nMDS stress: {result.embedding.stress:.4f}"
    )
    return ExperimentResult(
        exp_id="figure9",
        title="Coherent-strategy TP output (cf. paper Figure 9)",
        body=body,
        data={
            "purity": purity,
            "groups": [list(g) for g in result.partition.groups],
            "stress": result.embedding.stress,
        },
        paper_reference=(
            "similarity matrix + 2D embedding partitioned into 8 "
            "color-coded towers (coherent strategy)"
        ),
    )
