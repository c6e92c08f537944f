"""Generator (and checker) for ``tests/golden/sptt_steps.json``.

The fixture pins three optimizer steps of both distributed trainers on
small seeded models — ``DistributedDMTTrainer`` on a 2x2 and a 4x2
``SimCluster`` with {DMT-DLRM, DMT-DCN} x {pass-through, projecting
towers} over a scrambled partition, ``DistributedHybridTrainer`` with
{DLRM, DCN}, plus two 2x2 partitions the round-robin owner plan does not
divide evenly (a 3-feature tower; a 1-feature tower whose second rank
owns no table) — so the losses, the trained parameters and the priced
timeline survive any rewrite of the step behind them::

    PYTHONPATH=src python tests/golden/gen_sptt_steps.py          # rewrite
    PYTHONPATH=src python tests/golden/gen_sptt_steps.py --check  # diff

Each case stores the three losses, a ``[name, sum, abs-sum]`` digest of
every parameter after the last step, and every ``sim.timeline`` event
``[phase, label, seconds, bytes, world]`` in order.  ``--check`` prints
one line per differing leaf and exits 1; ints, labels and event order
compare exactly, floats at ``rel_tol=1e-12``.

The ``single/`` cases pin the one-process step the distributed ones are
held to: three ``Trainer.train_batch`` steps of DMT-DLRM (c=1/p=0,
c=1/p=1, c=0/p=1) and DMT-DCN (pass-through, projecting) over the
scrambled and both uneven partitions, single-hot and multi-hot (P=3).
They store every float as its ``repr`` plus a SHA-256 of every
parameter's bytes, so they compare bit for bit.

The ``multitask/`` cases pin the same three steps of a two-task
(``ctr``, ``cvr``) ``MultiTaskModel`` in ``shared_bottom`` and
``dbmtl`` mode over the flat DLRM and DCN and over projecting DMT-DLRM
and DMT-DCN on the scrambled partition, single-hot and multi-hot, with
the same ``repr`` floats and SHA-256 digests.

``session/distributed_training`` pins ``Session(distributed_training_spec())
.train()`` end to end: the step losses and the eval AUC as ``repr``
strings, the parameters' SHA-256 and every timeline event.
``session/distributed_training/ctr+cvr`` pins the same run of the
preset with ``model.tasks=("ctr", "cvr")``, with each task's eval AUC.
(Their ``mode='single'`` twins are held equal to them in
``tests/test_api.py``.)

``session/data/ctr`` and ``session/data/ctr+cvr`` pin the SHA-256 of
the six train/eval arrays ``Session.load_data()`` returns for a
single-task and a two-task spec.  ``session/online/ctr`` pins a 3-window
single-task ``Session.online()`` run of ``model_freshness``'s spec: each
window's ``train_loss``, ``online_auc``, ``frozen_auc`` and
``candidate_auc`` as ``repr`` strings and each rollout's
``rolled_back`` flag (checkpoint paths differ run to run and are left
out).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy as np

from repro.api import Session
from repro.api.presets import distributed_training_spec
from repro.experiments.model_freshness import freshness_spec
from repro.core import (
    DistributedDMTTrainer,
    DistributedHybridTrainer,
    FeaturePartition,
)
from repro.hardware import Cluster
from repro.models import DCN, DLRM, DMTDCN, DMTDLRM, tiny_table_configs
from repro.models.configs import tiny_dlrm_arch
from repro.models.multitask import HEAD_MODES, MultiTaskModel
from repro.nn import Adam
from repro.sim import SimCluster
from repro.training import TrainConfig, Trainer

ROOT = Path(__file__).resolve().parents[2]
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))

from tests.golden.gen_serving_reports import diff_reports  # noqa: E402
from tests.util import tiny_dcn_arch  # noqa: E402

FIXTURE = Path(__file__).with_name("sptt_steps.json")

F, N, DENSE, ROWS, B_LOCAL, STEPS = 8, 8, 4, 16, 3, 3
# Scrambled on purpose: tower order != feature order != exchange order.
GROUPS = {
    2: [[5, 0, 3, 6], [1, 7, 2, 4]],
    4: [[5, 0], [3, 6], [1, 7], [2, 4]],
}
# Group sizes the L = 2 round-robin owner plan does not divide: F = 7
# with a 3-feature tower, and a 1-feature tower (rank 1 owns no table).
UNEVEN_GROUPS = {
    "uneven_f7": [[5, 0, 3], [1, 6, 2, 4]],
    "idle_rank": [[6], [5, 0, 3, 1, 7, 2, 4]],
}
# Single-process cases: a batch with repeated rows in every table.
B_SINGLE, ROWS_SINGLE = 48, 64
SINGLE_MODELS = {
    "dlrm/c1p0": ("dlrm", {"c": 1, "p": 0}),
    "dlrm/c1p1": ("dlrm", {"c": 1, "p": 1}),
    "dlrm/c0p1": ("dlrm", {"c": 0, "p": 1}),
    "dcn/pass_through": ("dcn", {"pass_through": True}),
    "dcn/projecting": ("dcn", {}),
}
SINGLE_PARTITIONS = {"scrambled": GROUPS[4], **UNEVEN_GROUPS}
MULTITASK_BASES = ("dlrm", "dcn", "dmt-dlrm", "dmt-dcn")


def _sim(hosts: int) -> SimCluster:
    return SimCluster(
        Cluster(num_hosts=hosts, gpus_per_host=2, generation="A100")
    )


def _events(sim: SimCluster) -> List[List[Any]]:
    return [
        [e.phase.value, e.label, e.seconds, e.nbytes, e.world_size]
        for e in sim.timeline.events
    ]


def params_sha256(model) -> str:
    return hashlib.sha256(
        b"".join(p.data.tobytes() for p in model.parameters())
    ).hexdigest()


def _steps(sim: SimCluster, model, step: Callable) -> Dict[str, Any]:
    """Three seeded global batches through ``step``; the pinned record."""
    opt = Adam(model.parameters(), lr=0.01)
    total = sim.world_size * B_LOCAL
    num_features = model.embeddings.num_features
    losses = []
    for i in range(STEPS):
        rng = np.random.default_rng(100 + i)
        dense = rng.standard_normal((total, DENSE))
        ids = rng.integers(0, ROWS, size=(total, num_features))
        labels = rng.integers(0, 2, size=total).astype(float)
        losses.append(float(step(dense, ids, labels, opt)))
    return {
        "losses": losses,
        "params": [
            [name, float(p.data.sum()), float(np.abs(p.data).sum())]
            for name, p in model.named_parameters()
        ],
        "timeline": _events(sim),
    }


def _dmt(
    hosts: int, family: str, pass_through: bool, groups=None
) -> Dict[str, Any]:
    sim = _sim(hosts)
    partition = FeaturePartition.from_groups(groups or GROUPS[hosts])
    tables = tiny_table_configs(partition.num_features, ROWS, N)
    rng = np.random.default_rng(17)
    if family == "dlrm":
        model = DMTDLRM(
            DENSE, tables, partition, tiny_dlrm_arch(N), tower_dim=4,
            pass_through=pass_through, rng=rng,
        )
    else:
        model = DMTDCN(
            DENSE, tables, partition, tiny_dcn_arch(N), tower_dim=4,
            pass_through=pass_through, rng=rng,
        )
    trainer = DistributedDMTTrainer(sim, model)
    return _steps(
        sim,
        model,
        lambda dense, ids, labels, opt: trainer.fit_step(
            dense, ids, labels, [opt]
        ),
    )


def _hybrid(hosts: int, family: str) -> Dict[str, Any]:
    sim = _sim(hosts)
    tables = tiny_table_configs(F, ROWS, N)
    rng = np.random.default_rng(17)
    if family == "dlrm":
        model = DLRM(DENSE, tables, tiny_dlrm_arch(N), rng=rng)
    else:
        model = DCN(DENSE, tables, tiny_dcn_arch(N), rng=rng)
    trainer = DistributedHybridTrainer(sim, model)

    def step(dense, ids, labels, opt):
        opt.zero_grad()
        loss = trainer.train_step(dense, ids, labels)
        opt.step()
        return loss

    return _steps(sim, model, step)


def _single(kind: str, groups, pooling: int) -> Dict[str, Any]:
    """Three ``Trainer.train_batch`` steps of a DMT model in one
    process; every float stored as its ``repr``."""
    family, knobs = SINGLE_MODELS[kind]
    partition = FeaturePartition.from_groups(groups)
    tables = tiny_table_configs(partition.num_features, ROWS_SINGLE, N, pooling)
    cls, arch = (
        (DMTDLRM, tiny_dlrm_arch(N))
        if family == "dlrm"
        else (DMTDCN, tiny_dcn_arch(N))
    )
    model = cls(
        DENSE, tables, partition, arch, tower_dim=4,
        rng=np.random.default_rng(17), **knobs,
    )
    return _single_steps(model, pooling, tasks=1)


def _multitask(base: str, head: str, pooling: int) -> Dict[str, Any]:
    """Three ``Trainer.train_batch`` steps of a two-task model; the
    cvr labels are gated on the ctr ones, like the dataset's."""
    tables = tiny_table_configs(F, ROWS_SINGLE, N, pooling)
    rng = np.random.default_rng(17)
    if base == "dlrm":
        model = DLRM(DENSE, tables, tiny_dlrm_arch(N), rng=rng)
    elif base == "dcn":
        model = DCN(DENSE, tables, tiny_dcn_arch(N), rng=rng)
    else:
        cls, arch = (
            (DMTDLRM, tiny_dlrm_arch(N))
            if base == "dmt-dlrm"
            else (DMTDCN, tiny_dcn_arch(N))
        )
        model = cls(
            DENSE, tables, FeaturePartition.from_groups(GROUPS[4]), arch,
            tower_dim=4, rng=rng,
        )
    return _single_steps(
        MultiTaskModel(model, ("ctr", "cvr"), head=head, rng=rng),
        pooling,
        tasks=2,
    )


def _single_steps(model, pooling: int, tasks: int) -> Dict[str, Any]:
    trainer = Trainer(model, TrainConfig())
    shape = (B_SINGLE, model.num_sparse, pooling)
    losses = []
    for i in range(STEPS):
        rng = np.random.default_rng(200 + i)
        dense = rng.standard_normal((B_SINGLE, DENSE))
        ids = rng.integers(0, ROWS_SINGLE, size=shape)
        labels = rng.integers(0, 2, size=(B_SINGLE, tasks)).astype(float)
        if tasks == 1:
            labels = labels[:, 0]
        else:
            labels[:, 1] *= labels[:, 0]
        losses.append(repr(float(trainer.train_batch(dense, ids, labels))))
    return {
        "losses": losses,
        "params": [
            [name, repr(float(p.data.sum())), repr(float(abs(p.data).sum()))]
            for name, p in model.named_parameters()
        ],
        "params_sha256": params_sha256(model),
    }


def _session(tasks=("ctr",)) -> Dict[str, Any]:
    """The distributed-training preset through ``Session.train()``."""
    spec = distributed_training_spec()
    art = Session(spec.replace(model=spec.model.replace(tasks=tasks))).train()
    record = {
        "losses": [repr(float(x)) for x in art.trainer.loss_history],
        "auc": repr(float(art.eval_result.auc)),
        "params_sha256": params_sha256(art.model),
        "timeline": _events(art.trainer.step.sim),
    }
    if len(tasks) > 1:
        record["auc_by_task"] = {
            name: repr(float(result.auc))
            for name, result in art.eval_result.by_task.items()
        }
    return record


def _session_data(tasks) -> Dict[str, str]:
    """SHA-256 of every array ``Session.load_data()`` returns."""
    spec = freshness_spec()
    art = Session(spec.replace(model=spec.model.replace(tasks=tasks))).load_data()
    return {
        f"{split}/{name}": hashlib.sha256(array.tobytes()).hexdigest()
        for split, arrays in (("train", art.train), ("eval", art.eval))
        for name, array in zip(("dense", "ids", "labels"), arrays)
    }


def _session_online() -> Dict[str, Any]:
    """A 3-window single-task ``Session.online()`` run."""
    with tempfile.TemporaryDirectory() as tmp:
        spec = freshness_spec(directory=tmp)
        report = (
            Session(spec.replace(online=spec.online.replace(windows=3)))
            .online()
            .report
        )
    keys = ("train_loss", "online_auc", "frozen_auc", "candidate_auc")
    return {
        "windows": [
            {k: repr(float(w[k])) for k in keys} for w in report.windows
        ],
        "rolled_back": [bool(r["rolled_back"]) for r in report.rollouts],
    }


CASES: Dict[str, Callable[[], Dict[str, Any]]] = {
    **{
        f"dmt/{hosts}x2/{family}/{'pass_through' if pt else 'projecting'}": (
            partial(_dmt, hosts, family, pt)
        )
        for hosts in (2, 4)
        for family in ("dlrm", "dcn")
        for pt in (True, False)
    },
    "dmt/2x2/dlrm/projecting/uneven_f7": partial(
        _dmt, 2, "dlrm", False, UNEVEN_GROUPS["uneven_f7"]
    ),
    "dmt/2x2/dcn/projecting/idle_rank": partial(
        _dmt, 2, "dcn", False, UNEVEN_GROUPS["idle_rank"]
    ),
    **{
        f"hybrid/{hosts}x2/{family}": partial(_hybrid, hosts, family)
        for hosts in (2, 4)
        for family in ("dlrm", "dcn")
    },
    **{
        f"single/{model}/{part}/P{pooling}": partial(
            _single, model, groups, pooling
        )
        for model in SINGLE_MODELS
        for part, groups in SINGLE_PARTITIONS.items()
        for pooling in (1, 3)
    },
    **{
        f"multitask/{base}/{head}/P{pooling}": partial(
            _multitask, base, head, pooling
        )
        for base in MULTITASK_BASES
        for head in HEAD_MODES
        for pooling in (1, 3)
    },
    "session/distributed_training": _session,
    "session/distributed_training/ctr+cvr": partial(_session, ("ctr", "cvr")),
    "session/data/ctr": partial(_session_data, ("ctr",)),
    "session/data/ctr+cvr": partial(_session_data, ("ctr", "cvr")),
    "session/online/ctr": _session_online,
}


def stepped(name: str) -> Dict[str, Any]:
    """One pinned case, freshly run — through JSON, so ints vs floats
    are what the fixture stores (and NaN is refused)."""
    return json.loads(json.dumps(CASES[name](), allow_nan=False))


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare fresh steps against the fixture instead of "
        "rewriting it",
    )
    args = parser.parse_args(argv)
    fresh = {name: stepped(name) for name in CASES}
    if not args.check:
        FIXTURE.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        print(f"wrote {FIXTURE} ({len(fresh)} cases)")
        return 0
    diffs = diff_reports(json.loads(FIXTURE.read_text()), fresh)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} differing values in {len(fresh)} pinned cases")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
