"""Generator (and checker) for ``tests/golden/partitions.json``.

The fixture pins what the Tower Partitioner (§3.3) decides — the
``partition.groups`` of ``TowerPartitioner(...).partition_from_interaction``
plus the ``n_iter_`` and ``repr(inertia_)`` of its constrained K-Means —
over a grid of planted-block interaction matrices (features x towers x
strategy x balance ratio x seed), one duplicate-heavy matrix whose rows
tie exactly, and the probe matrix of perfbench's ``train_dmt`` set-up,
so the partitions survive any rewrite of the assignment step behind
them::

    PYTHONPATH=src python tests/golden/gen_partitions.py          # rewrite
    PYTHONPATH=src python tests/golden/gen_partitions.py --check  # diff

``--check`` prints one line per differing value (``case/key: expected
X, got Y``) and exits 1.  Everything compares exactly: the groups as
lists, ``n_iter_`` as an int and the inertia as its ``repr``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy as np

from repro.partitioner import ConstrainedKMeans, TowerPartitioner, tower_partitioner

FIXTURE = Path(__file__).with_name("partitions.json")


class _Recorded(ConstrainedKMeans):
    """The partitioner's K-Means, remembered so its fit can be read."""

    fitted: List[ConstrainedKMeans] = []

    def fit(self, x, rng=None):
        _Recorded.fitted.append(self)
        return super().fit(x, rng=rng)


def _partitioned(interaction: np.ndarray, seed: int, **kwargs) -> Dict[str, Any]:
    original = tower_partitioner.ConstrainedKMeans
    tower_partitioner.ConstrainedKMeans = _Recorded
    try:
        result = TowerPartitioner(**kwargs).partition_from_interaction(
            interaction, rng=np.random.default_rng(seed)
        )
    finally:
        tower_partitioner.ConstrainedKMeans = original
    km = _Recorded.fitted.pop()
    return {
        "groups": [list(g) for g in result.partition.groups],
        "n_iter": km.n_iter_,
        "inertia": repr(km.inertia_),
    }


def planted(num_features: int, seed: int) -> np.ndarray:
    """A noisy interaction matrix over ``num_features // 4`` (at least
    two) planted blocks of uneven size."""
    rng = np.random.default_rng(seed)
    block = rng.integers(0, max(2, num_features // 4), num_features)
    same = block[:, None] == block[None, :]
    interaction = np.where(same, 0.8, 0.1) + 0.1 * rng.random(
        (num_features, num_features)
    )
    interaction = (interaction + interaction.T) / 2.0
    np.fill_diagonal(interaction, 1.0)
    return interaction


def _planted_case(
    num_features: int, towers: int, strategy: str, ratio: float, seed: int
) -> Dict[str, Any]:
    return _partitioned(
        planted(num_features, seed),
        seed,
        num_towers=towers,
        strategy=strategy,
        balance_ratio=ratio,
    )


def duplicates() -> np.ndarray:
    """Three blocks of four features with exactly equal rows: 12 points
    that tie pairwise in every distance the partitioner computes."""
    interaction = np.kron(np.eye(3), np.full((4, 4), 0.75)) + 0.05
    np.fill_diagonal(interaction, 1.0)
    return interaction


def train_dmt_probe() -> np.ndarray:
    """The interaction matrix perfbench's ``train_dmt`` set-up learns
    its 8 towers from at ``--seed 7``: a flat DLRM over 26 tables of
    20 000 rows at dim 64, probed on its first 1024-sample batch."""
    from repro.data import random_batch
    from repro.models import DLRM, paper_dlrm_arch, tiny_table_configs
    from repro.partitioner import feature_interaction_matrix

    seed, rows, dim = 7, 20_000, 64
    tables = tiny_table_configs(26, rows, dim)
    arch = dataclasses.replace(
        paper_dlrm_arch(), embedding_dim=dim, bottom_mlp=(128,), top_mlp=(256, 128)
    )
    dense, ids, _ = random_batch(
        1024, 13, 26, rows, rng=np.random.default_rng(seed)
    )
    probe = DLRM(13, tables, arch, rng=np.random.default_rng(seed))
    return feature_interaction_matrix(probe, dense, ids, center=True)


CASES: Dict[str, Callable[[], Dict[str, Any]]] = {
    **{
        f"planted/F{f}/T{t}/{strategy}/R{ratio}/seed{seed}": functools.partial(
            _planted_case, f, t, strategy, ratio, seed
        )
        for f in (6, 8, 12, 26, 40)
        for t in (2, 3, 4, 8)
        if t <= f
        for strategy in ("coherent", "diverse")
        for ratio in (1, 1.5)
        for seed in range(3)
    },
    "duplicates/F12/T4": lambda: _partitioned(duplicates(), 0, num_towers=4),
    "train_dmt/F26/T8": lambda: _partitioned(
        train_dmt_probe(), 7, num_towers=8
    ),
}


def diff_cases(
    expected: Dict[str, Dict[str, Any]], got: Dict[str, Dict[str, Any]]
) -> List[str]:
    """One line per case that is missing, unexpected, or differs."""
    lines = []
    for name in sorted(set(expected) | set(got)):
        if name not in got:
            lines.append(f"{name}: missing")
        elif name not in expected:
            lines.append(f"{name}: not in the fixture")
        else:
            for key in sorted(set(expected[name]) | set(got[name])):
                want, have = expected[name].get(key), got[name].get(key)
                if want != have:
                    lines.append(f"{name}/{key}: expected {want!r}, got {have!r}")
    return lines


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare fresh partitions against the fixture instead of "
        "rewriting it",
    )
    args = parser.parse_args(argv)
    fresh = {name: case() for name, case in CASES.items()}
    if not args.check:
        FIXTURE.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        print(f"wrote {FIXTURE} ({len(fresh)} partitions)")
        return 0
    diffs = diff_cases(json.loads(FIXTURE.read_text()), fresh)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} differing values in {len(fresh)} pinned partitions")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
