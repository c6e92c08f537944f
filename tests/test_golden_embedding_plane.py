"""Pinned digests of the row-wise embedding step.

Two seeded 20-step ``Trainer`` runs over duplicate-heavy batches — a
DMT-DLRM with c=1 / p=0 tower modules (single-hot) and a flat DLRM with
pooling 3 (multi-hot) — pinned as the ``repr`` of every batch loss plus
a SHA-256 over every parameter and every Adagrad accumulator after the
last step.  The lookup → ordered segment-sum → ``RowwiseAdagrad`` chain
promises *bit*-identity with the dense scatter-add reference
(``docs/invariants.md``), so unlike ``test_golden_fingerprint.py`` there
is no tolerance here: a reordered per-row addition, a ``-0.0`` that
should have been ``+0.0`` or an accumulator touched twice moves a digest.

The digests were pinned on the code *before* the segment-sum was
rewritten (same pattern as the serving / spec / SPTT fixtures).  If you
change training numerics intentionally, re-pin ``GOLDEN`` from
``observed(name)`` and say why in the commit message.  The dense layers
go through BLAS, so a different BLAS build can move the digests too;
what must hold on every host is that the trainer's ``RowwiseAdagrad``
and the dense Adagrad reference (``tests.util.Adagrad``, swapped in as
the ``dense`` case) still share one digest.
"""

import hashlib

import numpy as np
import pytest

from repro.core.partition import FeaturePartition
from repro.data import random_batch
from repro.models import DLRM, DMTDLRM, tiny_table_configs
from repro.models.configs import tiny_dlrm_arch
from repro.training import TrainConfig, Trainer
from tests.util import with_dense_adagrad

DENSE, F, N, ROWS, BATCH, STEPS = 4, 6, 8, 24, 48, 20


def _dmt_towers(rng):
    return DMTDLRM(
        DENSE,
        tiny_table_configs(F, ROWS, N),
        FeaturePartition.from_groups([[4, 0], [2, 5, 1], [3]]),
        tiny_dlrm_arch(N),
        tower_dim=4,
        c=1,
        p=0,
        rng=rng,
    )


def _multihot_dlrm(rng):
    return DLRM(
        DENSE, tiny_table_configs(F, ROWS, N, pooling=3), tiny_dlrm_arch(N),
        rng=rng,
    )


#: name -> (model builder, pooling of the ids it trains on)
RUNS = {
    "dmt_towers_c1_p0": (_dmt_towers, 1),
    "dlrm_multihot_p3": (_multihot_dlrm, 3),
}


def trained(name: str, optimizer: str = "rowwise") -> Trainer:
    """The named model after ``STEPS`` seeded ``train_batch`` calls,
    its tables trained by ``RowwiseAdagrad`` or, for ``"dense"``, by
    the dense Adagrad reference."""
    build, pooling = RUNS[name]
    trainer = Trainer(
        build(np.random.default_rng(23)), TrainConfig(batch_size=BATCH)
    )
    if optimizer == "dense":
        with_dense_adagrad(trainer)
    data = np.random.default_rng(5)
    for _ in range(STEPS):
        # 24-row tables under 48 x pooling ids: every batch repeats rows.
        trainer.train_batch(
            *random_batch(BATCH, DENSE, F, ROWS, pooling=pooling, rng=data)
        )
    return trainer


def state_arrays(trainer: Trainer):
    """Every parameter, then every sparse accumulator, in a fixed order."""
    accum = trainer.sparse_opt._accum
    return [p.data for _, p in trainer.model.named_parameters()] + [
        accum[i] for i in sorted(accum)
    ]


def observed(name: str, optimizer: str = "rowwise"):
    trainer = trained(name, optimizer)
    sha = hashlib.sha256()
    for arr in state_arrays(trainer):
        sha.update(np.ascontiguousarray(arr).tobytes())
    return [repr(float(x)) for x in trainer.loss_history], sha.hexdigest()


GOLDEN = {
    "dlrm_multihot_p3": (
        [
            "0.6970543311811487", "0.7105738020333695", "0.686844637910678",
            "0.7051856027049155", "0.6922118761189422", "0.6932769099973287",
            "0.6973821536151572", "0.6897652411281899", "0.6844632193805098",
            "0.6754939068405609", "0.7128022458214979", "0.7074581927341924",
            "0.6940088461574468", "0.7116524343534852", "0.6974579972137751",
            "0.6925123684769857", "0.7020902789356717", "0.6890818538828821",
            "0.6944676708994123", "0.6881846702929142",
        ],
        "22d30f759c7152ca92f52d25ed5522ef3cd0e096e9fdb6e91f5b92f64b79a042",
    ),
    "dmt_towers_c1_p0": (
        [
            "0.6909522725890097", "0.6939958466809714", "0.691418019270941",
            "0.6982681535940426", "0.6892842360014798", "0.6916440389099394",
            "0.6937518426383896", "0.6918610407006053", "0.6963797614055626",
            "0.6966949121196763", "0.6941335018507248", "0.6977254901328293",
            "0.6894323415235024", "0.6919933907449941", "0.6953170936895847",
            "0.6935124136700684", "0.6899309139915388", "0.6973707681850412",
            "0.6954970975318471", "0.6923479674683662",
        ],
        "3d1f5c459d4dd0b10c4f76eae43aad1b78038a0999512be3f00242c1b2c0b001",
    ),
}


@pytest.mark.parametrize("optimizer", ["rowwise", "dense"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_losses_and_state_digest_match_golden(name, optimizer):
    losses, digest = observed(name, optimizer)
    want_losses, want_digest = GOLDEN[name]
    assert losses == want_losses
    assert digest == want_digest
