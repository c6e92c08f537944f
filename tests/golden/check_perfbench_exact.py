"""Gate on perfbench's exact metrics against ``BENCH_history.jsonl``.

The † counts and ``sim.*`` values of a traced ``perfbench/run.py`` round
are a pure function of the seed — host-independent, unlike its
wall-clock — so CI can hold them to the last recorded line::

    python tests/golden/check_perfbench_exact.py serve_chaos serve_steady

For each workload it runs ``perfbench/run.py --workload W --seed 7
--seconds 4 --trace 1``, takes the metrics of the last-line JSON and
diffs them against the ``exact`` block of the newest history line that
has one for ``W`` (ints ``==``, floats ``rel_tol=1e-12``), printing one
``workload/metric: expected X, got Y`` line per difference.  Exits 1 on
any difference, 2 when a workload has no reference or its run failed.
``--history FILE`` reads another history file (a planted count must
exit 1).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))

from tests.golden.gen_serving_reports import diff_reports  # noqa: E402

SEED = 7  # the seed every history line's exact block was taken on


def reference(history: str, workload: str) -> Optional[Dict[str, Any]]:
    """The ``exact`` block of the newest history line carrying one for
    ``workload`` (lines are appended, so the last match wins)."""
    found = None
    for line in history.splitlines():
        if line.strip():
            block = json.loads(line).get("workloads", {}).get(workload, {})
            found = block.get("exact", found)
    return found


def measured(workload: str) -> Optional[Dict[str, Any]]:
    """Per-layer metric values of one short traced round, or ``None``
    when the round failed."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "4", "--trace", "1"],
        capture_output=True,
        text=True,
    )
    if run.returncode != 0:
        print(run.stdout[-2000:], run.stderr[-2000:], file=sys.stderr)
        return None
    result = json.loads(run.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument(
        "--history", type=Path, default=ROOT / "BENCH_history.jsonl"
    )
    args = parser.parse_args(argv)
    history = args.history.read_text()
    status = 0
    for workload in args.workloads:
        expected = reference(history, workload)
        got = measured(workload) if expected is not None else None
        if got is None:
            print(f"{workload}: no exact reference, or the run failed")
            status = 2
            continue
        diffs = diff_reports(
            expected, {name: got.get(name) for name in expected}, workload
        )
        for line in diffs:
            print(line)
        print(f"{workload}: {len(diffs)} of {len(expected)} exact values differ")
        status = status or (1 if diffs else 0)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
