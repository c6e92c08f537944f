"""Compare two results files written by ``perfbench/run.py``.

    python3 perfbench/compare.py BASE.json NEW.json

Per workload and end-to-end metric it prints base, new, the ratio
new / base and a verdict against the bound ``BENCHMARK.json`` fixes:
``better``, ``worse`` (worsened by more than the bound) or ``within
bound``.  Any exact per-layer value (a count or a simulated-clock
value, see ``perfbench.layers.EXACT``) or fingerprint that differs is
reported as ``behaviour changed``: that is a change in what the
program does, not in how fast it does it.  Exits 1 if any metric is
worse, 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[0] = str(ROOT)

from perfbench.layers import EXACT  # noqa: E402


def verdict(base: float, new: float, better: str, bound: float) -> str:
    """How ``new`` stands against ``base`` for a metric whose good
    direction is ``better`` and whose regression bound is ``bound``."""
    change = (new - base) / base
    worsening = change if better == "lower" else -change
    if worsening > bound:
        return "worse"
    if worsening < 0:
        return "better"
    return "within bound"


def compare(
    base: Dict[str, Any], new: Dict[str, Any], spec: Dict[str, Any]
) -> List[str]:
    """Report lines for two results documents; a line that starts with
    ``WORSE`` or ``BEHAVIOUR`` is a finding."""
    lines: List[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        a = base["workloads"].get(workload)
        b = new["workloads"].get(workload)
        if a is None or b is None:
            lines.append(f"BEHAVIOUR {workload}: missing from one file")
            continue
        lines.append(f"== {workload}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old, now = a["end_to_end"][name], b["end_to_end"][name]
            found = verdict(old, now, metric["better"], metric["bound"])
            tag = "WORSE " if found == "worse" else "      "
            lines.append(
                f"{tag}{name:<14}{old:>14.6g}{now:>14.6g} {metric['unit']:<4}"
                f" x{now / old:.3f}  {found} (bound {metric['bound']:.0%})"
            )
        if a["fingerprint"] != b["fingerprint"]:
            lines.append(
                f"BEHAVIOUR {workload}: behaviour changed: fingerprint "
                f"{a['fingerprint']} -> {b['fingerprint']}"
            )
        for name in sorted(EXACT):
            old = a.get("per_layer", {}).get(name)
            now = b.get("per_layer", {}).get(name)
            if old != now:
                lines.append(
                    f"BEHAVIOUR {workload}: behaviour changed: "
                    f"{name} {old} -> {now}"
                )
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = compare(base, new, spec)
    print("\n".join(lines))
    return 1 if any(line.startswith("WORSE") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
