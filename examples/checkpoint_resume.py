"""Checkpoint & resume: crash a training run, resume it bit-identically,
then price moving it to a bigger cluster.

One declarative RunSpec with a checkpoint section: periodic auto-saves
land in ``--out`` every 5 optimizer steps; the run is "crashed"
mid-epoch, resumed from the newest save in a fresh session, and the
resumed loss history / eval AUC are compared bit-for-bit against an
uninterrupted run.  Finally an elastic restore of the same model onto
a cluster twice the size is planned — the tables whose owner rank
changes are priced as one migration through the collective cost
model.

Run:  python examples/checkpoint_resume.py [--out checkpoints]
"""

import argparse
import os

from repro.api import (
    CheckpointSpec,
    ClusterSpec,
    DataSpec,
    ModelSpec,
    RunSpec,
    Session,
    TrainSpec,
)
from repro.checkpoint import CheckpointManager, checkpoint_step


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="checkpoints")
    args = parser.parse_args()

    spec = RunSpec(
        name="resume-demo",
        cluster=ClusterSpec(num_hosts=2, gpus_per_host=2),
        data=DataSpec(num_sparse=8, cardinality=32, num_blocks=2,
                      num_samples=1500),
        model=ModelSpec(family="dlrm", variant="flat", embedding_dim=8,
                        bottom_mlp=(16,), top_mlp=(16,)),
        train=TrainSpec(mode="single", batch_size=64, epochs=2),
        checkpoint=CheckpointSpec(directory=args.out, save_every_steps=5),
    )

    print("arm 1: uninterrupted run (with periodic auto-save)")
    reference = Session(spec).train()
    print(f"  epoch losses: {[round(x, 6) for x in reference.epoch_losses]}")
    print(f"  eval AUC:     {reference.eval_result.auc:.6f}")

    manager = CheckpointManager(os.path.join(args.out, spec.name))
    # The older retained save sits mid-epoch-2: resuming from it replays
    # the interrupted epoch's exact shuffle tail.
    latest = manager.step_path(manager.saved_steps()[0])
    print(f"\narm 2: resume from {latest} (step {checkpoint_step(latest)})")
    resumed = Session(
        spec.replace(
            checkpoint=spec.checkpoint.replace(
                save_every_steps=0, resume_from=latest
            )
        )
    ).resume()
    print(f"  loss history bit-identical: "
          f"{resumed.trainer.loss_history == reference.trainer.loss_history}")
    print(f"  eval AUC bit-identical:     "
          f"{resumed.eval_result.auc == reference.eval_result.auc}")

    print("\narm 3: elastic restore onto 2x the hosts")
    bigger = Session(
        spec.replace(
            cluster=ClusterSpec(num_hosts=4, gpus_per_host=2),
            checkpoint=spec.checkpoint.replace(
                save_every_steps=0, resume_from=latest
            ),
        )
    )
    plan = bigger.elastic_plan()
    summary = plan.summary()
    print(f"  {summary['source_world']} -> {summary['target_world']} ranks, "
          f"the same flat model")
    print(f"  migration: {summary['moved_mb']:.3f} MB "
          f"({summary['moved_fraction'] * 100:.0f}% of table bytes) "
          f"priced at {summary['migration_ms']:.3f} ms")

    print(f"\nsample checkpoint manifest: {latest}/manifest.json")


if __name__ == "__main__":
    main()
