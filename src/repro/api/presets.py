"""Canonical RunSpecs: the workflows the examples and experiments run.

Each preset is a plain :class:`RunSpec` value — tweak any knob with
``spec.replace(...)`` / ``dataclasses.replace`` on its sections.
"""

from __future__ import annotations

from repro.api.spec import (
    ClusterSpec,
    DataSpec,
    ModelSpec,
    PartitionSpec,
    PerfSpec,
    RunSpec,
    SpecError,
    TrainSpec,
)

__all__ = [
    "quality_data_spec",
    "quality_dlrm_model",
    "quality_dcn_model",
    "quickstart_spec",
    "train_dmt_criteo_spec",
    "distributed_training_spec",
    "naive_control_spec",
]


def quality_data_spec(num_samples: int = 12000) -> DataSpec:
    """The §5.2 quality-experiment click logs: 26 features, 4 planted
    blocks, strong block correlation.  Every quality driver (Tables 2-6,
    Figure 9, XLRM, e2e) trains on this data section."""
    return DataSpec(
        num_sparse=26,
        num_blocks=4,
        cardinality=48,
        rho=0.9,
        noise=0.5,
        cross_strength=0.0,
        num_samples=num_samples,
    )


def quality_dlrm_model(**overrides) -> ModelSpec:
    """The tiny trainable DLRM sizing used by the quality drivers."""
    base = ModelSpec(
        family="dlrm",
        variant="flat",
        embedding_dim=16,
        bottom_mlp=(32,),
        top_mlp=(64, 32),
    )
    return base.replace(**overrides) if overrides else base


def quality_dcn_model(**overrides) -> ModelSpec:
    """The tiny trainable DCN sizing used by the quality drivers."""
    base = ModelSpec(
        family="dcn",
        variant="flat",
        embedding_dim=16,
        bottom_mlp=(32,),
        top_mlp=(32,),
        cross_layers=2,
    )
    return base.replace(**overrides) if overrides else base


def quickstart_spec() -> RunSpec:
    """Price one iteration on the paper's 64xH100 cluster (Figure 13)."""
    return RunSpec(
        name="quickstart",
        cluster=ClusterSpec(num_hosts=8, gpus_per_host=8, generation="H100"),
        perf=PerfSpec(kind="dcn", num_towers=8, local_batch=16384),
    )


def train_dmt_criteo_spec() -> RunSpec:
    """The full §3.3 quality workflow: probe -> TP -> DMT training.

    Matches ``examples/train_dmt_criteo.py``'s hand-wired pipeline: a
    coherent learned partition over 4 towers and the flat-bottleneck
    (p=1, c=0, 1-dim) tower modules whose quality actually depends on
    partition coherence.
    """
    return RunSpec(
        name="train-dmt-criteo",
        cluster=ClusterSpec(num_hosts=4, gpus_per_host=2, generation="A100"),
        data=quality_data_spec(),
        model=quality_dlrm_model(
            variant="dmt", tower_dim=1, c=0, p=1, seed=11
        ),
        partition=PartitionSpec(strategy="coherent", num_towers=4),
        train=TrainSpec(batch_size=256, epochs=2, seed=11),
    )


def distributed_training_spec() -> RunSpec:
    """Simulated 2x2 cluster running real multi-rank DMT training: one
    epoch of 8 steps of 128 over the 1024-sample train split.  Its
    ``mode='single'`` twin reaches the same losses, eval AUC and
    parameters bit for bit."""
    return RunSpec(
        name="distributed-training",
        cluster=ClusterSpec(num_hosts=2, gpus_per_host=2, generation="A100"),
        data=DataSpec(
            num_sparse=8,
            num_blocks=2,
            cardinality=32,
            num_samples=1536,
        ),
        model=ModelSpec(
            family="dlrm",
            variant="dmt",
            embedding_dim=16,
            bottom_mlp=(32,),
            top_mlp=(32,),
            tower_dim=8,
            seed=42,
        ),
        partition=PartitionSpec(strategy="contiguous", num_towers=2),
        train=TrainSpec(
            mode="simulated", batch_size=128, epochs=1, dense_lr=0.01
        ),
    )


def naive_control_spec(spec: RunSpec) -> RunSpec:
    """Table 6's control arm: the same run, naive strided partition."""
    if spec.partition is None:
        raise SpecError("naive control needs a spec with a partition section")
    return spec.replace(
        name=f"{spec.name}-naive",
        partition=PartitionSpec(
            strategy="naive", num_towers=spec.partition.num_towers
        ),
    )
