"""The import contract: nothing heavier than numpy at module scope.

One child interpreter imports ``repro`` and ``repro.api``, statically
analyzes the quickstart spec and serves 500 requests through a
serve-only ``Session`` — the path every replica process, ``dmt-repro``
verb and perfbench round starts with — and must come out of it with no
``scipy`` module loaded (docs/invariants.md).  The same child then
partitions features into towers, which must not load scipy either, and
calls two of the three places that do need scipy (``Session.ab`` is the
third), which import it on first use.
The check is a module count, not a wall-clock: exact on every host.
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = r"""
import sys


def loaded():
    return sorted(
        m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
    )


import repro
import repro.api
from repro.analysis import analyze_spec
from repro.api import ClusterSpec, RunSpec, ServeSpec, Session
from repro.api.presets import quickstart_spec

assert not loaded(), ("import repro.api", loaded()[:5])
assert analyze_spec(quickstart_spec()) == []
spec = RunSpec(
    name="serve-only",
    cluster=ClusterSpec(num_hosts=2, gpus_per_host=2),
    serve=ServeSpec(kind="dlrm", qps=50_000.0, num_requests=500),
)
reports = Session(spec).serve().reports
assert reports and all(r.num_requests == 500 for r in reports.values())
assert not loaded(), ("Session.serve", loaded()[:5])

import numpy as np

from repro.data import SyntheticCriteoConfig, SyntheticCriteoDataset
from repro.partitioner import TowerPartitioner
from repro.training.stats import mann_whitney_u

rng = np.random.default_rng(0)
blocks = np.kron(np.eye(2), np.ones((4, 4)))
interaction = np.clip(0.8 * blocks + 0.1 * rng.random((8, 8)), 0.0, 1.0)
interaction = (interaction + interaction.T) / 2.0
result = TowerPartitioner(num_towers=2).partition_from_interaction(interaction)
assert sorted(len(g) for g in result.partition.groups) == [4, 4]
assert not loaded(), ("TowerPartitioner", loaded()[:5])

assert mann_whitney_u([0.8, 0.9, 1.0], [0.1, 0.2, 0.3]) < 0.1

ds = SyntheticCriteoDataset(
    SyntheticCriteoConfig(num_sparse=8, num_blocks=2, cardinality=32), seed=0
)
dense, ids, labels = ds.sample(64, seed=1)
assert ids.shape == (64, 8) and 0 <= ids.min() and ids.max() < 32
assert np.all(np.isfinite(ds.decoded_value(0, ids[:, 0])))
print("contract holds")
"""


def test_no_scipy_until_a_caller_needs_it():
    src = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "contract holds"
