"""Pinned digests of the synthetic Criteo generator's output.

Two seeded datasets — the default Criteo schema (13 dense, 26 sparse x
64 ids, 4 blocks) through ``sample`` and a wide-vocabulary multi-task
one (8 sparse x 1 000 ids, 2 blocks, ``rho=0.6``) through
``sample_tasks`` — 4 096 rows each, pinned as SHA-256 digests of the
bytes of the dense features, the sparse ids and the labels.  Nothing
else pins the dataset's bytes directly; loss histories downstream only
move when enough ids move.

The ids quantize the feature latents through the standard normal CDF,
so the second half holds ``scipy.special.ndtr`` to
``scipy.stats.norm.cdf`` bit for bit (``view(int64)``): on three
streams of 2M seeded normals and on the values where a CDF
implementation could plausibly differ (signed zero, the far tails,
infinities, a subnormal, NaN).

The digests were pinned on the code *before* the generator stopped
importing ``scipy.stats`` (same pattern as the serving / spec / SPTT /
embedding / request-trace fixtures); every later commit leaves them
green.  If you change the generator's output intentionally, re-pin
``GOLDEN`` from ``observed(name)`` and say why in the commit message.
"""

import hashlib

import numpy as np
import pytest

from repro.data import SyntheticCriteoConfig, SyntheticCriteoDataset

ROWS = 4096

CASES = {
    "criteo_default": (SyntheticCriteoConfig(), 0, 7, None),
    "multitask_wide": (
        SyntheticCriteoConfig(
            num_sparse=8, num_blocks=2, cardinality=1000, rho=0.6,
            cvr_correlation=0.5,
        ),
        3, 11, ("ctr", "cvr"),
    ),
}

GOLDEN = {
    "criteo_default": {
        "shapes": [[4096, 13], [4096, 26], [4096]],
        "dense": (
            "369d4e535643302a6c9858cde88d694a"
            "7b245fff74a420ce3ce10b1c7522ed82"
        ),
        "ids": (
            "07d0aad086934a487c78125d7cf38ad9"
            "afc22c591f22a502a146a42726263592"
        ),
        "labels": (
            "6d8eca3377d8a5dfd476ab01f23616f9"
            "6e28ee885960c0bed6f4abc6fc8d51fa"
        ),
    },
    "multitask_wide": {
        "shapes": [[4096, 13], [4096, 8], [4096, 2]],
        "dense": (
            "975056b8538d302b7ee0edaaa8483942"
            "3fba3eaac49a45e5b51d11c92cf4e7d6"
        ),
        "ids": (
            "f3a498bc372085f214356c61d74e4ff7"
            "f96b22c707933d76404f5985b4067c20"
        ),
        "labels": (
            "8bd650e884b30735076be75039988dcd"
            "5a95c2096709a8759c314ca96aaf3d24"
        ),
    },
}


def observed(name: str) -> dict:
    """Shapes and digests of the named sample, array by array."""
    config, structure_seed, sample_seed, tasks = CASES[name]
    ds = SyntheticCriteoDataset(config, seed=structure_seed)
    arrays = (
        ds.sample(ROWS, seed=sample_seed)
        if tasks is None
        else ds.sample_tasks(ROWS, tasks=tasks, seed=sample_seed)
    )
    out = {"shapes": [list(a.shape) for a in arrays]}
    for field, arr in zip(("dense", "ids", "labels"), arrays):
        out[field] = hashlib.sha256(
            np.ascontiguousarray(arr).tobytes()
        ).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_dataset_digest(name):
    assert observed(name) == GOLDEN[name]


EDGES = np.array([0.0, -0.0, 40.0, -40.0, np.inf, -np.inf, 1e-320, np.nan])


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_ndtr_is_norm_cdf_bit_for_bit(seed):
    from scipy.special import ndtr
    from scipy.stats import norm

    u = (
        EDGES
        if seed is None
        else np.random.default_rng(seed).standard_normal(2_000_000)
    )
    np.testing.assert_array_equal(
        ndtr(u).view(np.int64), norm.cdf(u).view(np.int64)
    )
