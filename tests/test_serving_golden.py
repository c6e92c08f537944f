"""Pinned serving reports: the oracle that outlives the replay loops.

``tests/golden/serving_reports.json`` holds the full ``to_dict()`` of
every serving front door on small seeded traces (see the generator
beside it).  Ints and strings must match exactly, floats at
``rel_tol=1e-12`` — any change to routing, batching, cache probing,
pricing, fault handling or report assembly shows up here as a named
leaf, whichever implementation sits behind the front doors.
"""

import json

import pytest

from tests.golden.gen_serving_reports import (
    CASES,
    FIXTURE,
    diff_reports,
    replayed,
)

GOLDEN = json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    assert diff_reports(GOLDEN[name], replayed(name), name) == []


def test_diff_reports_names_the_leaf():
    expected = {"a": {"b": [1, 2.0]}, "s": "x"}
    assert diff_reports(expected, {"a": {"b": [1, 2.0]}, "s": "x"}) == []
    # floats: inside the tolerance passes, outside is named
    assert diff_reports(expected, {"a": {"b": [1, 2.0 + 1e-15]}, "s": "x"}) == []
    assert diff_reports(expected, {"a": {"b": [1, 2.1]}, "s": "x"}) == [
        "a/b[1]: expected 2.0, got 2.1"
    ]
    # ints are exact, and an int is not a float
    assert diff_reports(expected, {"a": {"b": [1.0, 2.0]}, "s": "x"}) == [
        "a/b[0]: expected 1, got 1.0"
    ]
    assert diff_reports(expected, {"a": {"b": [1, 2.0]}}) == [
        "s: missing, expected 'x'"
    ]
