"""repro-lint engine + rule fixtures.

Each rule gets a positive snippet (must fire), a negative snippet
(must stay silent), and a suppression snippet (justified inline
disable swallows the finding).  The suppression meta-rules
(``unjustified-suppression`` / ``unused-suppression``) and the
Diagnostic JSON contract are covered alongside, and the final test
asserts the repository's own ``src`` tree lints clean — the
ISSUE-level acceptance bar.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import (
    Diagnostic,
    count_by_severity,
    diagnostics_from_json,
    diagnostics_to_json,
    lint_paths,
    lint_source,
    registered_rules,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def codes(diagnostics):
    return [d.code for d in diagnostics]


# ----------------------------------------------------------------------
class TestDiagnostic:
    def test_format_carries_location_code_and_hint(self):
        diag = Diagnostic(
            severity="error",
            code="unseeded-rng",
            message="np.random.rand() bypasses the seeded Generator",
            path="src/foo.py",
            line=12,
            hint="thread a np.random.default_rng(seed) through",
        )
        text = diag.format()
        assert "src/foo.py:12" in text
        assert "error[unseeded-rng]" in text
        assert "hint:" in text

    def test_rejects_unknown_severity(self):
        with pytest.raises(ValueError, match="severity"):
            Diagnostic(severity="fatal", code="x", message="m")

    def test_json_round_trip(self):
        diags = [
            Diagnostic(
                severity="warning",
                code="probe-samples-truncated",
                message="m",
                path="partition.probe_samples",
                source="spec",
            ),
            Diagnostic(
                severity="error", code="bare-except", message="m",
                path="a.py", line=3,
            ),
        ]
        assert diagnostics_from_json(diagnostics_to_json(diags)) == diags

    def test_to_dict_drops_empty_fields(self):
        out = Diagnostic(severity="info", code="c", message="m").to_dict()
        assert "line" not in out and "hint" not in out and "data" not in out

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            Diagnostic.from_dict(
                {"severity": "error", "code": "c", "message": "m",
                 "column": 4}
            )

    def test_count_by_severity(self):
        diags = [
            Diagnostic(severity="error", code="a", message="m"),
            Diagnostic(severity="error", code="b", message="m"),
            Diagnostic(severity="warning", code="c", message="m"),
        ]
        assert count_by_severity(diags) == {
            "error": 2, "warning": 1, "info": 0,
        }


# ----------------------------------------------------------------------
class TestRuleRegistry:
    def test_the_eight_repo_rules_are_registered(self):
        expected = {
            "unseeded-rng",
            "wallclock-in-sim",
            "float-equality",
            "mutable-default",
            "spec-knob-drift",
            "dict-order-hazard",
            "missing-all-export",
            "bare-except",
        }
        assert expected <= set(registered_rules())

    def test_every_rule_documents_itself(self):
        for code, cls in registered_rules().items():
            assert cls.summary, code
            assert cls.hint, code


# ----------------------------------------------------------------------
class TestUnseededRng:
    def test_flags_np_random_module_calls(self):
        diags = lint_source("import numpy as np\nx = np.random.rand(3)\n")
        assert codes(diags) == ["unseeded-rng"]
        assert diags[0].line == 2

    def test_flags_stdlib_random_import(self):
        assert codes(lint_source("import random\n")) == ["unseeded-rng"]
        assert codes(lint_source("from random import shuffle\n")) == [
            "unseeded-rng"
        ]

    def test_accepts_seeded_generator(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n"
            "x = rng.standard_normal(3)\n"
        )
        assert lint_source(src) == []

    def test_suppression_with_reason_is_honored(self):
        src = (
            "import numpy as np\n"
            "x = np.random.rand()  "
            "# repro-lint: disable=unseeded-rng -- fixture exercising "
            "the unseeded path\n"
        )
        assert lint_source(src) == []


class TestWallclockInSim:
    def test_flags_time_time(self):
        src = "import time\nstart = time.time()\n"
        assert codes(lint_source(src)) == ["wallclock-in-sim"]

    def test_flags_perf_counter_and_datetime_now(self):
        assert codes(
            lint_source("import time\nt = time.perf_counter()\n")
        ) == ["wallclock-in-sim"]
        assert codes(
            lint_source(
                "import datetime\nnow = datetime.datetime.now()\n"
            )
        ) == ["wallclock-in-sim"]

    def test_flags_names_bound_via_from_import(self):
        src = "from time import monotonic\nt = monotonic()\n"
        assert codes(lint_source(src)) == ["wallclock-in-sim"]

    def test_accepts_simulated_timeline(self):
        src = (
            "def price(sim):\n"
            "    return sim.timeline.total_time_s()\n"
        )
        assert lint_source(src) == []


class TestFloatEquality:
    def test_flags_float_literal_comparison(self):
        assert codes(lint_source("ok = x == 0.3\n")) == ["float-equality"]
        assert codes(lint_source("bad = 1.5 != y\n")) == ["float-equality"]

    def test_accepts_int_comparison_and_tolerance(self):
        assert lint_source("ok = n == 3\n") == []
        assert lint_source("ok = abs(x - 0.3) < 1e-9\n") == []


class TestMutableDefault:
    def test_flags_function_list_default(self):
        src = "def f(acc=[]):\n    return acc\n"
        assert codes(lint_source(src)) == ["mutable-default"]

    def test_flags_dataclass_field_call_default(self):
        src = (
            "from dataclasses import dataclass\n"
            "from collections import defaultdict\n"
            "@dataclass\n"
            "class C:\n"
            "    counts: dict = defaultdict(int)\n"
        )
        assert codes(lint_source(src)) == ["mutable-default"]

    def test_accepts_field_default_factory_and_class_constants(self):
        src = (
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class C:\n"
            "    _TABLE = {'a': 1}\n"  # class constant, not a field
            "    items: list = field(default_factory=list)\n"
        )
        assert lint_source(src) == []

    def test_accepts_classvar_annotation(self):
        src = (
            "from dataclasses import dataclass\n"
            "from typing import ClassVar, Dict\n"
            "@dataclass\n"
            "class C:\n"
            "    registry: ClassVar[Dict[str, int]] = {}\n"
        )
        assert lint_source(src) == []


class TestSpecKnobDrift:
    def _mods(self, spec_src, consumer_src):
        from repro.analysis.lint import ModuleUnderLint, lint_modules
        import ast

        mods = []
        for name, src in (
            ("api/spec.py", spec_src),
            ("api/session.py", consumer_src),
        ):
            mods.append(
                ModuleUnderLint(
                    path=name,
                    display_path=name,
                    text=src,
                    tree=ast.parse(src),
                    lines=src.splitlines(),
                    suppressions=[],
                )
            )
        return lint_modules(mods, select={"spec-knob-drift"})

    def test_flags_field_no_one_reads(self):
        spec_src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class TrainSpec:\n"
            "    batch_size: int = 256\n"
            "    dead_knob: int = 0\n"
        )
        consumer = "def go(spec):\n    return spec.batch_size\n"
        diags = self._mods(spec_src, consumer)
        assert codes(diags) == ["spec-knob-drift"]
        assert "dead_knob" in diags[0].message

    def test_reads_via_keyword_and_string_count(self):
        spec_src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class ServeSpec:\n"
            "    qps: float = 1.0\n"
            "    router: str = 'round_robin'\n"
        )
        consumer = (
            "def go(spec, make):\n"
            "    return make(qps=spec.qps), getattr(spec, 'router')\n"
        )
        assert self._mods(spec_src, consumer) == []

    def test_renamed_projection_counts_but_validation_read_does_not(self):
        spec_src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class FaultSpec:\n"
            "    backoff_jitter: float = 0.5\n"
            "    dead_knob: int = 0\n"
            "    def _validate(self):\n"
            "        assert self.dead_knob >= 0\n"
            "    def retry_policy(self):\n"
            "        return self.build(\n"
            "            RetryPolicy, jitter=_From('backoff_jitter'))\n"
        )
        diags = self._mods(spec_src, "def go(policy):\n    return policy.jitter\n")
        assert [d.message.split()[0] for d in diags] == ["FaultSpec.dead_knob"]

    def test_repo_spec_has_no_dead_knobs(self):
        diags, _ = lint_paths([SRC], select={"spec-knob-drift"})
        assert diags == []


class TestDictOrderHazard:
    def test_flags_iteration_over_set_literal(self):
        src = "for item in {3, 1, 2}:\n    print(item)\n"
        assert codes(lint_source(src)) == ["dict-order-hazard"]

    def test_flags_comprehension_over_set_call(self):
        src = "out = [k for k in set(names)]\n"
        assert codes(lint_source(src)) == ["dict-order-hazard"]

    def test_accepts_sorted_wrapping(self):
        src = "for item in sorted({3, 1, 2}):\n    print(item)\n"
        assert lint_source(src) == []

    def test_accepts_order_free_reductions(self):
        assert lint_source("total = sum(x for x in {1, 2})\n") == []
        assert lint_source("s = {x * 2 for x in set(names)}\n") == []


class TestMissingAllExport:
    def test_flags_stale_all_entry(self):
        src = "__all__ = ['gone']\n"
        assert codes(lint_source(src)) == ["missing-all-export"]

    def test_getattr_lazy_exports_are_allowed(self):
        src = (
            "__all__ = ['Lazy']\n"
            "def __getattr__(name):\n"
            "    raise AttributeError(name)\n"
        )
        assert lint_source(src) == []

    def test_init_must_list_public_bindings(self):
        src = "from os import path\n__all__ = []\n"
        diags = lint_source(src, filename="pkg/__init__.py")
        assert codes(diags) == ["missing-all-export"]
        assert "path" in diags[0].message

    def test_non_init_modules_may_keep_private_surface(self):
        src = "from os import path\n__all__ = []\n"
        assert lint_source(src, filename="pkg/helpers.py") == []


class TestBareExcept:
    def test_flags_bare_except(self):
        src = "try:\n    x = 1\nexcept:\n    pass\n"
        assert codes(lint_source(src)) == ["bare-except"]

    def test_accepts_typed_except(self):
        src = "try:\n    x = 1\nexcept ValueError:\n    pass\n"
        assert lint_source(src) == []


# ----------------------------------------------------------------------
class TestSuppressionDiscipline:
    def test_unjustified_suppression_is_itself_an_error(self):
        src = (
            "import time\n"
            "t = time.time()  # repro-lint: disable=wallclock-in-sim\n"
        )
        got = codes(lint_source(src))
        assert got == ["unjustified-suppression"]

    def test_unused_suppression_is_itself_an_error(self):
        src = "x = 1  # repro-lint: disable=bare-except -- stale\n"
        assert codes(lint_source(src)) == ["unused-suppression"]

    def test_comment_line_marker_governs_next_line(self):
        src = (
            "import time\n"
            "# repro-lint: disable=wallclock-in-sim -- fixture\n"
            "t = time.time()\n"
        )
        assert lint_source(src) == []

    def test_suppressing_one_code_leaves_others(self):
        src = (
            "import time\n"
            "t = time.time() if x == 0.5 else 0  "
            "# repro-lint: disable=wallclock-in-sim -- fixture\n"
        )
        assert codes(lint_source(src)) == ["float-equality"]


# ----------------------------------------------------------------------
class TestEngine:
    def test_select_restricts_rules(self):
        src = "import random\nt = __import__('time').time()\n"
        only = lint_source(src, select={"unseeded-rng"})
        assert codes(only) == ["unseeded-rng"]

    def test_parse_error_becomes_diagnostic(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        ok = tmp_path / "ok.py"
        ok.write_text("x = 1\n")
        diags, checked = lint_paths([str(tmp_path)])
        assert checked == 2
        assert codes(diags) == ["parse-error"]

    def test_diagnostics_sorted_by_location(self):
        src = (
            "import random\n"
            "try:\n"
            "    pass\n"
            "except:\n"
            "    pass\n"
        )
        diags = lint_source(src)
        assert [d.line for d in diags] == sorted(d.line for d in diags)


# ----------------------------------------------------------------------
class TestCli:
    def _run(self, *args):
        env = dict(os.environ, PYTHONPATH=SRC)
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )

    def test_json_format_and_exit_codes(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        proc = self._run(str(dirty), "--format", "json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload[0]["code"] == "unseeded-rng"

        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert self._run(str(clean)).returncode == 0

    def test_out_writes_artifact(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        out = tmp_path / "diags.json"
        proc = self._run(str(clean), "--out", str(out))
        assert proc.returncode == 0
        assert json.loads(out.read_text()) == []

    def test_list_rules(self):
        proc = self._run("--list-rules")
        assert proc.returncode == 0
        assert "unseeded-rng" in proc.stdout


# ----------------------------------------------------------------------
class TestRepositoryIsClean:
    def test_src_tree_lints_clean(self):
        """The ISSUE acceptance bar: zero non-suppressed violations and
        zero unexplained suppressions over the real codebase."""
        diags, checked = lint_paths([SRC])
        assert checked > 50
        assert diags == [], "\n".join(d.format() for d in diags)
