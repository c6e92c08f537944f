"""The exact-metric gate picks the right reference (the perfbench round
itself is CI's step, not tier-1's; ``diff_reports`` naming the leaf is
pinned in ``test_serving_golden.py``)."""

import json

from tests.golden.check_perfbench_exact import ROOT, reference


def line(pr, **workloads):
    return json.dumps({"pr": pr, "workloads": workloads})


def test_reference_is_the_newest_line_with_an_exact_block():
    history = "\n".join(
        [
            line(1, serve_chaos={"exact": {"serving.router.calls": 9113.2}}),
            line(2, serve_chaos={"exact": {"serving.router.calls": 5.8}}),
            line(3, serve_chaos={"items_per_s": 1.0}, train_dmt={"exact": {}}),
            "",
        ]
    )
    assert reference(history, "serve_chaos") == {"serving.router.calls": 5.8}
    assert reference(history, "train_dmt") == {}
    assert reference(history, "serve_steady") is None


def test_committed_history_has_a_reference_for_both_serve_workloads():
    history = (ROOT / "BENCH_history.jsonl").read_text()
    for workload in ("serve_steady", "serve_chaos"):
        exact = reference(history, workload)
        assert exact and "serving.router.calls" in exact


def test_committed_history_has_a_reference_for_both_train_workloads():
    """CI gates all four workloads; the train blocks date from PR 17."""
    history = (ROOT / "BENCH_history.jsonl").read_text()
    for workload in ("train_dmt", "train_sptt_sim"):
        exact = reference(history, workload)
        assert exact and "nn.embedding.calls" in exact
