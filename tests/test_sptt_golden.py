"""Pinned distributed steps: the oracle that outlives the trainers.

``tests/golden/sptt_steps.json`` holds three optimizer steps of
``DistributedDMTTrainer`` and ``DistributedHybridTrainer`` on small
seeded models (see the generator beside it): losses, a per-parameter
digest and every priced timeline event.  Ints, labels and event order
must match exactly, floats at ``rel_tol=1e-12`` — any change to the
exchanges, the tower stage, the dense plane or the order the step
prices them in shows up here as a named leaf.  The ``single/`` cases pin
the one-process ``Trainer.train_batch`` of the DMT pair as ``repr``
strings and a parameter SHA-256, so they hold bit for bit; the
``multitask/`` cases pin a two-task ``MultiTaskModel`` over each of the
four families the same way.
"""

import json

import pytest

from tests.golden.gen_serving_reports import diff_reports
from tests.golden.gen_sptt_steps import CASES, FIXTURE, stepped

GOLDEN = json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_steps_match_golden(name):
    assert diff_reports(GOLDEN[name], stepped(name), name) == []
