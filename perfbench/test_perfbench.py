"""Smoke test of the benchmark itself (collected by tier-1).

Runs every workload for three operations in this process, traced and
untraced, and checks that what the code emits is what
``BENCHMARK.json`` declares and that ``compare.py`` accepts a results
file against itself.  Values are not judged here: three cold
operations of a shrunken geometry say nothing about speed.
"""

import json
import math
import re

import pytest

from perfbench import compare, layers, run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture(scope="module")
def spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "results.json"
    assert run.main(["--smoke", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_benchmark_json_names_what_the_code_emits(spec):
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    ] == run.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == [row[:3] for row in layers.PER_LAYER]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert spec["paths"] == ["perfbench"]


def test_every_metric_is_present_and_finite(spec, results):
    assert list(results["workloads"]) == list(run.WORKLOADS)
    for name, found in results["workloads"].items():
        assert found["failed"] == 0, found["errors"]
        assert found["samples"] == run.SMOKE_OPS
        unreliable = layers.missing_metrics(found["trace_missing"])
        for kind in ("end_to_end", "per_layer"):
            assert list(found[kind]) == [m["name"] for m in spec[kind]]
            for metric, value in found[kind].items():
                if metric in unreliable:
                    assert value is None, (name, metric)
                else:
                    assert math.isfinite(value), (name, metric, value)
        assert all(v > 0 for v in found["end_to_end"].values())


def test_layers_run_where_the_readme_says_they_do(results):
    by_name = {n: w["per_layer"] for n, w in results["workloads"].items()}
    assert by_name["train_dmt"]["core.sptt.calls"] == 0
    assert by_name["train_dmt"]["nn.embedding.calls"] == 1
    assert by_name["train_sptt_sim"]["core.sptt.calls"] == 4
    assert by_name["train_sptt_sim"]["models.dmt.self_ms"] == 0
    for metric, value in by_name["serve_steady"].items():
        if metric.startswith(("serving.faults.", "serving.autoscale.")):
            assert value == 0, metric
    assert by_name["serve_chaos"]["serving.faults.retries"] > 0
    assert by_name["serve_chaos"]["serving.tiers.chain_ms"] > 0


def test_contract_line_carries_exactly_the_declared_metrics(spec, results):
    found = results["workloads"]["serve_steady"]
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        line = json.loads(run.contract_line(found, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m["name"] for m in spec[kind]]
        for metric in spec[kind]:
            entry = line["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert math.isfinite(entry["value"])


def test_compare_accepts_a_file_against_itself(spec, results):
    lines = compare.compare(results, results, spec)
    assert not [ln for ln in lines if ln.startswith(("WORSE", "BEHAVIOUR"))]
    slower = json.loads(json.dumps(results))
    slower["workloads"]["train_dmt"]["end_to_end"]["op_ms_p50"] *= 1.5
    slower["workloads"]["train_dmt"]["per_layer"]["core.sptt.calls"] = 1
    lines = compare.compare(results, slower, spec)
    assert sum(ln.startswith("WORSE") for ln in lines) == 1
    assert sum(ln.startswith("BEHAVIOUR") for ln in lines) == 1


def test_a_vanished_target_is_reported_not_fatal():
    from perfbench.trace import Tracer

    tracer = Tracer()
    tracer.install(
        [
            ("repro.no_such_module", "f", "x", None),
            ("repro.serving.cache", "LRUEmbeddingCache.no_such", "x", None),
        ]
    )
    tracer.uninstall()
    assert tracer.missing == [
        "repro.no_such_module:f",
        "repro.serving.cache:LRUEmbeddingCache.no_such",
    ]
    gone = layers.missing_metrics(["repro.nn.optim:Adam.step"])
    assert gone == ["nn.optim.dense_ms"]
