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
what must hold on every host is that the two ``sparse_grad_mode``s
still share one digest.
"""

import hashlib

import numpy as np
import pytest

from repro.core.partition import FeaturePartition
from repro.data import random_batch
from repro.models import DLRM, DMTDLRM, tiny_table_configs
from repro.models.configs import tiny_dlrm_arch
from repro.training import TrainConfig, Trainer

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


def trained(name: str, sparse_grad_mode: str = "rowwise") -> Trainer:
    """The named model after ``STEPS`` seeded ``train_batch`` calls."""
    build, pooling = RUNS[name]
    trainer = Trainer(
        build(np.random.default_rng(23)),
        TrainConfig(batch_size=BATCH, sparse_grad_mode=sparse_grad_mode),
    )
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


def observed(name: str, sparse_grad_mode: str = "rowwise"):
    trainer = trained(name, sparse_grad_mode)
    sha = hashlib.sha256()
    for arr in state_arrays(trainer):
        sha.update(np.ascontiguousarray(arr).tobytes())
    return [repr(float(x)) for x in trainer.loss_history], sha.hexdigest()


GOLDEN = {
    "dlrm_multihot_p3": (
        [
            "0.6970543326468769", "0.7105738009204753", "0.6868446390569242",
            "0.7051856035603352", "0.6922118697125584", "0.6932769116939199",
            "0.6973821537150316", "0.6897652436142178", "0.6844632200138389",
            "0.6754939073303677", "0.7128022490856957", "0.7074581902430822",
            "0.6940088476623144", "0.7116524354700072", "0.6974579988692499",
            "0.692512367343249", "0.7020902815868896", "0.6890818530038233",
            "0.6944676711060026", "0.6881846696337046",
        ],
        "85f94eb194ea3166bc59b145d906adfb9debb0b3e051d9779cc7dc08471a3f1a",
    ),
    "dmt_towers_c1_p0": (
        [
            "0.6909522723018293", "0.6939958454784753", "0.6914180175265164",
            "0.6982681545084105", "0.689284234237329", "0.6916440385983744",
            "0.6937518419480057", "0.6918610404201798", "0.6963797613516949",
            "0.6966949119187115", "0.6941335021398677", "0.6977254908712002",
            "0.6894323380695284", "0.691993389262254", "0.6953170938287986",
            "0.6935124122374815", "0.6899309137788129", "0.6973707712892977",
            "0.6954970973190807", "0.6923479667368575",
        ],
        "fe8f309127edd18cb1629015be2a98cf0c74a1f2da9ae2ffd183227a4fd28241",
    ),
}


@pytest.mark.parametrize("mode", ["rowwise", "dense"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_losses_and_state_digest_match_golden(name, mode):
    losses, digest = observed(name, mode)
    want_losses, want_digest = GOLDEN[name]
    assert losses == want_losses
    assert digest == want_digest
