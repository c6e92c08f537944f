"""Golden end-to-end numeric fingerprint.

One canonical seeded quickstart-sized training run, pinned.  Any
refactor that silently changes numerics — a reordered reduction, a
different accumulator, an off-by-one in the shuffle — drifts past the
tolerance and fails tier-1 immediately instead of going unnoticed.

Two layers of protection:

- the run's loss history + eval AUC are compared against the
  checked-in ``GOLDEN`` values with a 1e-9 absolute tolerance —
  strict enough to catch any real numeric change (real changes move
  losses by orders of magnitude more), loose enough to survive
  BLAS-kernel summation differences across platforms without hash
  flakes on rounding boundaries;
- ``GOLDEN_SHA256`` hashes the golden constants themselves, so the
  reference cannot be nudged without visibly updating the hash in the
  same commit.

If you changed training numerics *intentionally*, regenerate
``GOLDEN`` (print ``trainer.loss_history`` + AUC at 12 decimals) and
``GOLDEN_SHA256`` together, and say why in the commit message.
"""

import hashlib

import numpy as np

from repro.data import SyntheticCriteoConfig, SyntheticCriteoDataset
from repro.models import DLRM, tiny_table_configs
from repro.models.configs import DenseArch
from repro.training import TrainConfig, Trainer

#: 28 batch losses (2 epochs x 14 batches) followed by the eval AUC.
GOLDEN = [
    0.833487765415, 0.816192011561, 0.836835499290,
    0.795245772127, 0.764402675645, 0.791043800673,
    0.742818192763, 0.760873794374, 0.728420682061,
    0.740130415946, 0.730276214031, 0.732686566712,
    0.723492325546, 0.731058475262, 0.696444351760,
    0.687265607352, 0.672676812281, 0.662603425871,
    0.686103886227, 0.658400380837, 0.670174889528,
    0.664023519289, 0.659491879114, 0.640669475800,
    0.655251459501, 0.668424023222, 0.636917609390,
    0.650226857887, 0.642532534600,
]
GOLDEN_SHA256 = (
    "65f9c25ed237fa6098999da6efc08a8850e41eff7d8e0b19217a609a58dc2e3a"
)
TOLERANCE = 1e-9


def _canonical_run(sparse_grad_mode: str = "rowwise"):
    cfg = SyntheticCriteoConfig(num_dense=4, num_sparse=8, cardinality=32)
    dense, ids, labels = SyntheticCriteoDataset(cfg, seed=0).sample(
        1200, seed=1
    )
    model = DLRM(
        4,
        tiny_table_configs(8, 32, 8),
        DenseArch(embedding_dim=8, bottom_mlp=(16,), top_mlp=(16,)),
        rng=np.random.default_rng(7),
    )
    trainer = Trainer(
        model,
        TrainConfig(
            batch_size=64, epochs=2, seed=11, sparse_grad_mode=sparse_grad_mode
        ),
    )
    trainer.fit(dense[:900], ids[:900], labels[:900])
    evaluation = trainer.evaluate(dense[900:], ids[900:], labels[900:])
    return list(trainer.loss_history) + [evaluation.auc]


class TestGoldenFingerprint:
    def test_golden_constants_are_untampered(self):
        text = "|".join(f"{x:.12f}" for x in GOLDEN)
        assert (
            hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256
        ), "GOLDEN was edited without updating GOLDEN_SHA256"

    def test_loss_history_matches_golden(self):
        observed = _canonical_run()
        assert len(observed) == len(GOLDEN)
        np.testing.assert_allclose(
            observed, GOLDEN, atol=TOLERANCE, rtol=0
        )

    def test_both_sparse_grad_modes_share_the_fingerprint(self):
        """The rowwise fast path is bit-identical to the dense
        reference, so one golden sequence pins both."""
        observed = _canonical_run(sparse_grad_mode="dense")
        np.testing.assert_allclose(
            observed, GOLDEN, atol=TOLERANCE, rtol=0
        )
