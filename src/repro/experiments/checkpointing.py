"""Checkpoint/restore driver: crash-resume fidelity + elastic restore.

Trains a small flat DLRM run, kills it mid-epoch, resumes from the
periodic checkpoint, and verifies the resumed run is **bit-identical**
to one that never crashed (loss history, weights, eval AUC).  Then
prices an elastic restore of the same model onto a cluster twice the
size — the tables whose owner rank changes, moved as one AlltoAll
through the collective cost model — and warm-starts a serving cache
from the checkpoint's hottest rows.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np

from repro.api import (
    CheckpointSpec,
    ClusterSpec,
    DataSpec,
    ModelSpec,
    RunSpec,
    ServeSpec,
    Session,
    TrainSpec,
)
from repro.experiments.registry import register
from repro.experiments.result import ExperimentResult, format_table


class _Crash(Exception):
    """Simulated mid-training failure."""


def _base_spec(tmp: str, num_samples: int) -> RunSpec:
    return RunSpec(
        name="checkpointing",
        cluster=ClusterSpec(num_hosts=2, gpus_per_host=2),
        data=DataSpec(
            num_sparse=8,
            cardinality=32,
            num_blocks=2,
            num_samples=num_samples,
        ),
        model=ModelSpec(
            family="dlrm",
            variant="flat",
            embedding_dim=8,
            bottom_mlp=(16,),
            top_mlp=(16,),
        ),
        train=TrainSpec(mode="single", batch_size=64, epochs=2),
        checkpoint=CheckpointSpec(directory=tmp, save_every_steps=5),
    )


def _serve_section(fast: bool) -> ServeSpec:
    return ServeSpec(
        qps=50_000.0,
        num_requests=400 if fast else 4000,
        key_space=200,
        cache_rows=64,
        placement="colocated",
    )


def experiment_specs(fast: bool = True) -> "dict[str, RunSpec]":
    """The statically constructible RunSpecs this experiment runs.

    Public so the analysis property tests can validate them.  The
    resume/warm-start arms depend on a checkpoint path that only
    exists mid-run; they are derived from these via ``replace`` and
    covered by the runtime drivers instead.
    """
    spec = _base_spec("checkpoints", num_samples=1500 if fast else 6000)
    return {
        "base": spec,
        "cold-serve": spec.replace(
            train=None, serve=_serve_section(fast), checkpoint=None
        ),
    }


@register(
    "checkpointing",
    "Fault tolerance: bit-identical resume + elastic resharding",
)
def run(fast: bool = True) -> ExperimentResult:
    from repro.checkpoint import CheckpointManager, checkpoint_step

    tmp = tempfile.mkdtemp(prefix="dmt-ckpt-")
    try:
        spec = _base_spec(tmp, num_samples=1500 if fast else 6000)

        # Arm 1: the uninterrupted reference run.
        reference = Session(spec).train()

        # Arm 2: same run, crashed mid-epoch at a periodic checkpoint,
        # then resumed in a *fresh* session (fresh model + trainer).
        crash_session = Session(spec)
        data = crash_session.load_data()
        model = crash_session.build_model()
        train = spec.train
        trainer = crash_session.build_trainer(model, train.trainer_config())
        manager = CheckpointManager(
            os.path.join(tmp, "crash"),
            every_steps=spec.checkpoint.save_every_steps,
            keep_last=2,
        )
        total_steps = (
            len(data.train[2]) // train.batch_size
        ) * train.epochs
        crash_at = max(
            spec.checkpoint.save_every_steps, (total_steps * 2) // 3
        )
        crash_at -= crash_at % spec.checkpoint.save_every_steps

        def crash_hook(tr):
            manager.maybe_save(model, tr, spec=spec)
            if tr.global_step >= crash_at:
                raise _Crash

        try:
            trainer.fit(*data.train, on_step_end=crash_hook)
            crashed = False
        except _Crash:
            crashed = True
        latest = manager.latest()

        resumed = Session(
            spec.replace(
                checkpoint=spec.checkpoint.replace(resume_from=latest)
            )
        ).resume()

        identical_losses = (
            resumed.trainer.loss_history == reference.trainer.loss_history
        )
        max_drift = max(
            float(np.abs(p1.data - p2.data).max())
            for p1, p2 in zip(
                reference.model.parameters(), resumed.model.parameters()
            )
        )
        identical_auc = (
            resumed.eval_result.auc == reference.eval_result.auc
        )

        # Arm 3: elastic restore onto a 2x cluster.
        elastic_session = Session(
            spec.replace(
                cluster=ClusterSpec(num_hosts=4, gpus_per_host=2),
                checkpoint=spec.checkpoint.replace(resume_from=latest),
            )
        )
        elastic = elastic_session.elastic_plan()

        # Arm 4: serving warm-start from the saved hottest rows.
        serve_section = _serve_section(fast)
        cold = Session(
            spec.replace(train=None, serve=serve_section, checkpoint=None)
        ).serve()
        warm = Session(
            spec.replace(
                train=None,
                serve=serve_section,
                checkpoint=spec.checkpoint.replace(
                    save_every_steps=0, resume_from=latest
                ),
            )
        ).serve()
        cold_hit = cold.reports["colocated"].cache_hit_rate
        warm_hit = warm.reports["colocated"].cache_hit_rate

        es = elastic.summary()
        rows = [
            ["crashed mid-epoch @ step", str(checkpoint_step(latest))],
            ["resume loss history bit-identical", str(identical_losses)],
            ["resume max weight drift", f"{max_drift:.1e}"],
            ["resume eval AUC bit-identical", str(identical_auc)],
            [
                "elastic re-placement",
                f"{es['source_world']} -> {es['target_world']} ranks, "
                + (
                    f"{es['num_towers']} towers"
                    if es["num_towers"]
                    else "flat model"
                ),
            ],
            [
                "migration payload / price",
                f"{es['moved_mb']:.3f} MB ({es['moved_fraction'] * 100:.0f}%)"
                f" / {es['migration_ms']:.3f} ms",
            ],
            [
                "serve cache hit rate cold -> warm",
                f"{cold_hit * 100:.1f}% -> {warm_hit * 100:.1f}%",
            ],
        ]
        body = format_table(["Check", "Result"], rows)
        return ExperimentResult(
            exp_id="checkpointing",
            title="Checkpoint/restore: bit-identical resume, elastic reshard",
            body=body,
            data={
                "crashed": crashed,
                "resume_step": checkpoint_step(latest),
                "identical_losses": identical_losses,
                "max_drift": max_drift,
                "identical_auc": identical_auc,
                "elastic": es,
                "cold_hit_rate": cold_hit,
                "warm_hit_rate": warm_hit,
            },
            paper_reference=(
                "Long-lived disaggregated jobs (DisaggRec, FlexEMR): "
                "state must survive failures and re-place when the "
                "cluster shape changes"
            ),
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
