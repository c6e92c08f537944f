"""Shared constants and helpers for the experiment suite: transcribed
paper values, the §5.2 repeat counts, and the block-purity score."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.partition import FeaturePartition

#: §5.2 protocol: 9 repeats full, 5 fast.
FULL_SEEDS = tuple(range(9))
FAST_SEEDS = tuple(range(5))


def block_purity(partition: FeaturePartition, block_of: np.ndarray) -> float:
    """Fraction of same-group pairs that share a ground-truth block."""
    correct = sum(
        1
        for g in partition.groups
        for a in g
        for b in g
        if block_of[a] == block_of[b]
    )
    total = sum(len(g) ** 2 for g in partition.groups)
    return correct / total


#: Figure 10, transcribed: speedup of DMT over the Strong Baseline.
#: (The paper's V100 cluster supports at most 16 hosts, hence 4 points.)
PAPER_FIGURE10_DLRM: Dict[str, Dict[int, float]] = {
    "V100": {16: 1.1, 32: 1.2, 64: 1.9, 128: 1.9},
    "A100": {16: 0.9, 32: 1.1, 64: 1.9, 128: 1.5, 256: 1.6, 512: 1.7},
    "H100": {16: 0.9, 32: 0.9, 64: 1.8, 128: 1.8, 256: 1.6, 512: 1.7},
}
PAPER_FIGURE10_DCN: Dict[str, Dict[int, float]] = {
    "V100": {16: 1.9, 32: 1.8, 64: 1.7, 128: 1.2},
    "A100": {16: 1.4, 32: 1.4, 64: 1.8, 128: 1.3, 256: 1.2, 512: 1.3},
    "H100": {16: 1.1, 32: 1.1, 64: 1.6, 128: 1.2, 256: 1.3, 512: 1.4},
}

#: Figure 11, transcribed: TM-over-SPTT speedup on DLRM.
PAPER_FIGURE11: Dict[str, Dict[int, float]] = {
    "V100": {16: 1.4, 32: 1.3, 64: 1.3, 128: 1.4},
    "A100": {16: 1.3, 32: 1.2, 64: 1.2, 128: 1.3, 256: 1.2, 512: 1.2},
    "H100": {16: 1.2, 32: 1.2, 64: 1.2, 128: 1.2, 256: 1.2, 512: 1.2},
}

#: Figure 12, transcribed: compression-ratio speedup on DMT 8T-DLRM.
PAPER_FIGURE12: Dict[str, Dict[int, float]] = {
    "V100": {2: 1.3, 4: 1.7, 8: 1.9, 16: 2.0},
    "A100": {2: 1.2, 4: 1.4, 8: 1.6, 16: 1.7},
    "H100": {2: 1.2, 4: 1.4, 8: 1.5, 16: 1.6},
}

#: Figure 13, transcribed (ms, DCN vs DMT-DCN on 64xH100).
PAPER_FIGURE13 = {
    "baseline_compute_ms": 29.4,
    "baseline_emb_ms": 11.5,
    "dmt_compute_ms": 21.8,
    "dmt_emb_ms": 2.5,
    "others_ms": 1.2,
}

#: The local batch every throughput experiment uses (§5.3.1).
LOCAL_BATCH = 16384

#: GPU counts per generation (paper: 16-512, V100 capped at 128).
SCALES = {
    "V100": (16, 32, 64, 128),
    "A100": (16, 32, 64, 128, 256, 512),
    "H100": (16, 32, 64, 128, 256, 512),
}
