"""Shared harness for the quality experiments (Tables 2-6, Figure 9).

All quality experiments run on a shrunken but structurally faithful
setup (`presets.quality_data_spec`): the 26-feature synthetic Criteo
dataset with 4 planted interaction blocks, N=16 embeddings, and the
tiny DLRM/DCN arches.  Absolute AUCs land near 0.92 instead of the
paper's 0.80 — what reproduces is the *relative* structure: SPTT
neutrality, tower-count stability, compression-ratio decay, and the
TP-vs-naive gap.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from repro.api import PartitionSpec, RunSpec, Session
from repro.api.presets import quality_data_spec, quality_dlrm_model
from repro.core.partition import FeaturePartition
from repro.models import DCN, DLRM, DMTDCN, DMTDLRM, tiny_table_configs
from repro.models.configs import DenseArch
from repro.training import TrainConfig, Trainer

#: Quality-experiment geometry.
NUM_SPARSE = 26
NUM_BLOCKS = 4
CARDINALITY = 48
EMB_DIM = 16
NUM_DENSE = 13

#: §5.2 protocol: 9 repeats full, 5 fast.
FULL_SEEDS = tuple(range(9))
FAST_SEEDS = tuple(range(5))


def quality_arch() -> DenseArch:
    return DenseArch(embedding_dim=EMB_DIM, bottom_mlp=(32,), top_mlp=(64, 32))


def quality_dcn_arch() -> DenseArch:
    return DenseArch(
        embedding_dim=EMB_DIM, bottom_mlp=(32,), top_mlp=(32,), cross_layers=2
    )


def quality_tables():
    return tiny_table_configs(NUM_SPARSE, CARDINALITY, EMB_DIM)


def quality_data(n_total: int = 12000):
    """Dataset split (train, eval) for the standard config.

    Thin wrapper over the :mod:`repro.api` session layer's data stage,
    whose cross-session caches (cleared by
    :func:`repro.api.session.clear_caches`) make repeat calls cheap.
    """
    session = Session(
        RunSpec(name="quality-data", data=quality_data_spec(n_total))
    )
    art = session.load_data()
    return art.dataset, art.train, art.eval


def train_and_eval_auc(
    model_factory: Callable[[np.random.Generator], object],
    seed: int,
    epochs: int = 2,
    n_total: int = 12000,
) -> float:
    """Train one seeded model per the standard protocol; return AUC."""
    _, (td, ti, tl), (ed, ei, el) = quality_data(n_total)
    model = model_factory(np.random.default_rng(100 + seed))
    trainer = Trainer(
        model, TrainConfig(batch_size=256, epochs=epochs, seed=seed)
    )
    trainer.fit(td, ti, tl)
    return trainer.evaluate(ed, ei, el).auc


def auc_sweep(
    model_factory: Callable[[np.random.Generator], object],
    seeds: Tuple[int, ...],
    epochs: int = 2,
) -> "tuple[float, float, list[float]]":
    """(median, std, values) of AUC across seeds — the §5.2 statistic."""
    values = [train_and_eval_auc(model_factory, s, epochs=epochs) for s in seeds]
    return float(np.median(values)), float(np.std(values, ddof=1)), values


# ----------------------------------------------------------------------
# Model factories
# ----------------------------------------------------------------------
def dlrm_factory(rng: np.random.Generator) -> DLRM:
    return DLRM(NUM_DENSE, quality_tables(), quality_arch(), rng=rng)


def dcn_factory(rng: np.random.Generator) -> DCN:
    return DCN(NUM_DENSE, quality_tables(), quality_dcn_arch(), rng=rng)


def dmt_dlrm_factory(
    partition: FeaturePartition,
    tower_dim: int = EMB_DIM // 2,
    c: int = 1,
    p: int = 0,
    pass_through: bool = False,
) -> Callable[[np.random.Generator], DMTDLRM]:
    def make(rng: np.random.Generator) -> DMTDLRM:
        return DMTDLRM(
            NUM_DENSE,
            quality_tables(),
            partition,
            quality_arch(),
            tower_dim=tower_dim,
            c=c,
            p=p,
            pass_through=pass_through,
            rng=rng,
        )

    return make


def dmt_dcn_factory(
    partition: FeaturePartition,
    tower_dim: int = EMB_DIM,
    pass_through: bool = False,
) -> Callable[[np.random.Generator], DMTDCN]:
    def make(rng: np.random.Generator) -> DMTDCN:
        return DMTDCN(
            NUM_DENSE,
            quality_tables(),
            partition,
            quality_dcn_arch(),
            tower_dim=tower_dim,
            pass_through=pass_through,
            rng=rng,
        )

    return make


# ----------------------------------------------------------------------
# Learned partitions
# ----------------------------------------------------------------------
def learned_tp_partition(
    num_towers: int,
    strategy: str = "coherent",
    probe_epochs: int = 2,
):
    """Run the full TP pipeline on a freshly probed model.

    Returns the TPResult (partition + artifacts for Figure 9).  Thin
    wrapper over the session layer's partition stage; probe runs are
    cached across the suite.
    """
    session = Session(
        RunSpec(
            name="quality-tp",
            data=quality_data_spec(),
            model=quality_dlrm_model(),
            partition=PartitionSpec(
                strategy=strategy,
                num_towers=num_towers,
                probe_epochs=probe_epochs,
            ),
        )
    )
    return session.partition().tp_result


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
