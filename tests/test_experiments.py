"""Smoke tests for the experiment framework and the light experiments.

Heavy training experiments (tables 2-6) run in the benchmark suite;
here we cover the registry/CLI machinery and the model-driven
experiments end to end.
"""

import functools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.experiments import get_experiment, list_experiments
from repro.experiments.result import ExperimentResult, format_table
from repro.experiments.runner import main as cli_main

ALL_IDS = {
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "figure1",
    "figure5",
    "figure6",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "xlrm",
    "quantization",
    "e2e",
    "scaling",
    "serving",
    "serving_fleet",
    "tiered_serving",
    "checkpointing",
    "fault_tolerance",
    "model_freshness",
    "multi_task_ab",
}


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = {exp_id for exp_id, _ in list_experiments()}
        assert len(ids) == 25
        assert ids == ALL_IDS

    def test_registry_lazy_imports_drivers(self):
        """Direct registry consumers see every driver without importing
        repro.experiments first (regression: the registry used to list
        only what the caller had already imported)."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "from repro.experiments.registry import "
            "get_experiment, list_experiments\n"
            f"assert len(list_experiments()) == {len(ALL_IDS)}\n"
            "try:\n"
            "    get_experiment('nope')\n"
            "except KeyError as exc:\n"
            "    assert 'e2e' in str(exc) and 'table4' in str(exc)\n"
            "else:\n"
            "    raise AssertionError('expected KeyError for unknown id')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run(
            [sys.executable, "-c", code], check=True, env=env, timeout=120
        )

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("table99")

    def test_double_registration_rejected(self):
        from repro.experiments.registry import register

        with pytest.raises(ValueError, match="twice"):
            register("table1", "dup")(lambda fast=True: None)


class TestResultFormatting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1  # rectangular

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_render_and_save(self, tmp_path):
        result = ExperimentResult(
            exp_id="demo", title="T", body="B", paper_reference="P"
        )
        text = result.render()
        assert "demo" in text and "[paper] P" in text
        path = result.save(str(tmp_path))
        assert open(path).read().startswith("== demo")

    def test_save_writes_json_twin(self, tmp_path):
        result = ExperimentResult(
            exp_id="demo",
            title="T",
            body="B",
            data={"x": np.float64(1.5), "arr": np.arange(3)},
            paper_reference="P",
        )
        result.save(str(tmp_path))
        payload = json.loads((tmp_path / "demo.json").read_text())
        assert payload["data"] == {"x": 1.5, "arr": [0, 1, 2]}

    def test_json_round_trip(self):
        result = ExperimentResult(
            exp_id="demo",
            title="T",
            body="B",
            data={"speedup": np.float64(1.9), "values": (1, 2)},
            paper_reference="P",
        )
        back = ExperimentResult.from_json(result.to_json())
        assert back.exp_id == "demo"
        assert back.data == {"speedup": 1.9, "values": [1, 2]}
        assert back.render() == result.render()


@functools.lru_cache(maxsize=None)
def light_result(exp_id):
    """One fast run of ``exp_id`` per test session, shared by every
    test below that only reads it."""
    return get_experiment(exp_id)(fast=True)


class TestLightExperiments:
    @pytest.mark.parametrize(
        "exp_id",
        [
            "table1",
            "figure1",
            "figure5",
            "figure6",
            "figure10",
            "figure11",
            "figure12",
            "figure13",
            "quantization",
            "scaling",
            "e2e",
            "serving",
            "serving_fleet",
            "multi_task_ab",
            "tiered_serving",
            "fault_tolerance",
            "model_freshness",
            "checkpointing",
        ],
    )
    def test_runs_and_produces_body(self, exp_id):
        result = light_result(exp_id)
        assert result.exp_id == exp_id
        assert len(result.body) > 40
        assert result.paper_reference

    def test_serving_headline(self):
        """Acceptance: past saturation the disaggregated tier wins p99."""
        result = light_result("serving")
        assert result.data["high_qps"]["p99_speedup_disaggregated"] > 1.5
        coloc = result.data["high_qps"]["placements"]["colocated"]
        assert 0.0 < coloc["cache"]["hit_rate"] < 1.0
        assert "embedding_comm" in coloc["breakdown_ms"]

    def test_serving_fleet_headline(self):
        """Hash routing's affinity concentrates the flash crowd on the
        hot replica; depth-aware p2c spreads it like round-robin."""
        result = light_result("serving_fleet")
        static = result.data["static"]

        def p99(router):
            return static[router]["placements"]["disaggregated"][
                "latency_ms"
            ]["p99"]

        assert p99("hash") > 1.2 * p99("round_robin")
        assert p99("p2c") < 1.1 * p99("round_robin")
        imb = static["hash"]["fleet"]["disaggregated"]["load_imbalance"]
        assert imb > 1.5
        # churn makes every fleet's caches re-learn the hot set
        hit = lambda arm: result.data[arm]["round_robin"]["placements"][
            "disaggregated"
        ]["cache"]["hit_rate"]
        assert hit("churn") < hit("static")

    def test_multi_task_ab_headline(self):
        """Acceptance: the DBMTL CVR AUC delta's CI excludes zero at
        the driver's default seeds, while CTR stays matched."""
        result = light_result("multi_task_ab")
        cvr = result.data["cvr_auc_delta"]
        assert cvr["excludes_zero"] is True
        assert cvr["mean_delta"] > 0
        assert result.data["ctr_auc_delta"]["excludes_zero"] is False
        assert result.data["ab"]["label_b"] == "dbmtl"

    def test_tiered_serving_headline(self):
        """Acceptance: the tiered chain holds the p99 SLO at a fraction
        of the all-HBM cost, and the saving widens with pressure."""
        data = light_result("tiered_serving").data
        assert data["slo_held"] is True
        assert data["worst_p99_ratio"] <= data["slo_factor"]
        points = [data["points"][f"{r}x"] for r in (4, 16, 64)]
        costs = [p["tiered"]["dollars"] / p["naive"]["dollars"] for p in points]
        assert costs == sorted(costs, reverse=True)
        assert data["best_cost_ratio"] == min(costs) < 0.5

    def test_fault_tolerance_headline(self):
        """Acceptance: MTTR rises with checkpoint period below the cold
        rebuild; mitigation holds the SLO the bare fleet blows."""
        data = light_result("fault_tolerance").data
        assert data["mttr_monotone_in_cadence"] is True
        mit = data["mitigated"]["report"]
        non = data["no_mitigation"]["report"]
        p99 = [r["fleet"]["fleet"]["latency_ms"]["p99"] for r in (mit, non)]
        assert p99[0] <= data["slo_p99_ms"] < p99[1]
        assert mit["lost_fraction"] < non["lost_fraction"]

    def test_model_freshness_headline_and_determinism(self):
        """Acceptance: the hot-swapped arm strictly dominates, deltas
        compress, and the record carries no per-run scratch path."""
        first = light_result("model_freshness")
        assert first.data["online"]["freshness_dominates"] is True
        assert first.data["online"]["delta_compression"] > 1
        run = get_experiment("model_freshness")
        assert run(fast=True).to_json() == first.to_json()

    def test_figure10_headline(self):
        result = light_result("figure10")
        assert result.data["max_speedup"] > 1.5

    def test_figure13_anchors(self):
        result = light_result("figure13")
        assert result.data["baseline_compute_ms"] == pytest.approx(29.4, rel=0.2)


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table4" in out and "figure10" in out

    def test_run_single(self, capsys, tmp_path):
        assert cli_main(["run", "table1", "--save", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Recent generational upgrades" in out
        assert (tmp_path / "table1.txt").exists()
        assert (tmp_path / "table1.json").exists()

    def test_run_json_output(self, capsys):
        assert cli_main(["run", "table1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exp_id"] == "table1"
        assert payload["body"]

    def test_run_unknown_experiment(self):
        with pytest.raises(KeyError):
            cli_main(["run", "nope"])
