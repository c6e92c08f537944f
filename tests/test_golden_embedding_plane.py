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
            "0.6970543322080668", "0.7105738001889413", "0.6868446391179969",
            "0.7051856033191365", "0.6922118701204781", "0.6932769109641184",
            "0.6973821528482418", "0.6897652446713375", "0.6844632182114131",
            "0.6754939073643488", "0.7128022483692845", "0.7074581896077955",
            "0.6940088478766238", "0.7116524343479181", "0.697457999719027",
            "0.6925123681644267", "0.7020902818371583", "0.6890818507767892",
            "0.6944676721912649", "0.6881846707038394",
        ],
        "ea82fcc9f9c66771cdceea7cf2f6f336d6ea7ac25d7c72b3ed9e8478e86c2ae5",
    ),
    "dmt_towers_c1_p0": (
        [
            "0.6909522723629596", "0.6939958455344346", "0.6914180175147809",
            "0.6982681544089965", "0.6892842342608949", "0.691644038785427",
            "0.6937518419636692", "0.6918610403136333", "0.6963797612560075",
            "0.6966949115039268", "0.6941335022565452", "0.6977254905145337",
            "0.6894323380828956", "0.6919933891011447", "0.6953170936740906",
            "0.693512411984174", "0.6899309136308505", "0.6973707711065352",
            "0.6954970973628951", "0.6923479666340757",
        ],
        "377dbd0ce1f93ca9480dc680a5479173a9ee223c2281b2690c7958ab2d84e597",
    ),
}


@pytest.mark.parametrize("mode", ["rowwise", "dense"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_losses_and_state_digest_match_golden(name, mode):
    losses, digest = observed(name, mode)
    want_losses, want_digest = GOLDEN[name]
    assert losses == want_losses
    assert digest == want_digest
