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
from tests.util import with_dense_adagrad

#: 28 batch losses (2 epochs x 14 batches) followed by the eval AUC.
GOLDEN = [
    0.833487771453, 0.816192043005, 0.836835522697,
    0.795245792252, 0.764402692881, 0.791043823211,
    0.742818195847, 0.760873811126, 0.728420692061,
    0.740130424129, 0.730276223850, 0.732686587428,
    0.723492342620, 0.731058486821, 0.696444366074,
    0.687265618307, 0.672676827591, 0.662603435873,
    0.686103894062, 0.658400388249, 0.670174897031,
    0.664023534486, 0.659491886329, 0.640669478548,
    0.655251468329, 0.668424033708, 0.636917627044,
    0.650226855454, 0.642532534600,
]
GOLDEN_SHA256 = (
    "94ac5c290c7bf5743daae8b7f648da49086d4d2688c3a23172dd54603c13f360"
)
TOLERANCE = 1e-9


def _canonical_run(dense_reference: bool = False):
    """Loss history + eval AUC; ``dense_reference`` trains the tables
    with the dense Adagrad reference instead of ``RowwiseAdagrad``."""
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
    trainer = Trainer(model, TrainConfig(batch_size=64, epochs=2, seed=11))
    if dense_reference:
        with_dense_adagrad(trainer)
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

    def test_dense_reference_shares_the_fingerprint(self):
        """The row-wise table optimizer is bit-identical to the dense
        reference, so one golden sequence pins both."""
        observed = _canonical_run(dense_reference=True)
        np.testing.assert_allclose(
            observed, GOLDEN, atol=TOLERANCE, rtol=0
        )
