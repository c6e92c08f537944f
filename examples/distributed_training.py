"""Distributed DMT training on a simulated cluster, checked exactly.

One RunSpec with ``train.mode='simulated'`` runs real multi-rank
training — model-parallel embedding tables, SPTT exchange, per-host
tower modules with a priced intra-host gradient sync, and a
data-parallel overarch — on a simulated 2-host x 2-GPU cluster.  Its
``mode='single'`` twin trains the same model in one process: same
data, same recipe, same batches.  ``mode`` picks only the step
executor, and the executor runs every module once over the global
batch, so the two reach the same epoch losses, the same eval AUC and
the same parameters bit for bit; the script asserts all three, then
prints the priced communication timeline.

Run:  python examples/distributed_training.py
"""

import numpy as np

from repro.api import Session
from repro.api.presets import distributed_training_spec


def main() -> None:
    spec = distributed_training_spec()
    session = Session(spec)
    print(f"simulated cluster: {session.build_cluster()}")

    art = session.train()
    twin = Session(spec.replace(train=spec.train.replace(mode="single"))).train()

    print(f"\n{'epoch':>5} {'distributed':>12} {'single-proc':>12} {'|delta|':>10}")
    for epoch, (dist_loss, single_loss) in enumerate(
        zip(art.epoch_losses, twin.epoch_losses)
    ):
        print(
            f"{epoch:>5} {dist_loss:>12.6f} {single_loss:>12.6f} "
            f"{abs(dist_loss - single_loss):>10.2e}"
        )
    print(
        f"\neval AUC: distributed {art.eval_result.auc:.6f}, "
        f"single-process {twin.eval_result.auc:.6f}"
    )
    drift = max(
        float(np.abs(p.data - q.data).max())
        for p, q in zip(art.model.parameters(), twin.model.parameters())
    )
    steps = len(art.trainer.loss_history)
    print(f"max parameter drift after {steps} steps: {drift:.2e}")
    assert art.epoch_losses == twin.epoch_losses
    assert art.eval_result.auc == twin.eval_result.auc
    assert drift == 0

    print("\npriced timeline of the run (per phase):")
    print(art.timeline)


if __name__ == "__main__":
    main()
