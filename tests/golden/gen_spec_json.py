"""Generator (and checker) for ``tests/golden/spec_json.json``.

The fixture pins ``RunSpec.to_json()`` — every section's field list,
order and defaults — for each preset in :mod:`repro.api.presets` and
each spec the experiments' public ``experiment_specs()`` return (fast
and full), so the stored form of a run survives any rewrite of the
spec layer::

    PYTHONPATH=src python tests/golden/gen_spec_json.py          # rewrite
    PYTHONPATH=src python tests/golden/gen_spec_json.py --check  # diff

``--check`` prints the name of every spec whose JSON text differs from
the pinned one (exact string equality) and exits 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path
from typing import Dict, List

from repro.api import presets
from repro.experiments import fault_tolerance
from repro.experiments.registry import DRIVER_MODULES

FIXTURE = Path(__file__).with_name("spec_json.json")

#: Every registered driver that publishes its RunSpecs.
EXPERIMENTS = tuple(
    module
    for module in (
        importlib.import_module(f"repro.experiments.{name}")
        for name in DRIVER_MODULES
    )
    if hasattr(module, "experiment_specs")
)


def spec_jsons() -> Dict[str, str]:
    """``{name: RunSpec.to_json()}`` for every pinned spec."""
    specs = {
        "preset/quickstart": presets.quickstart_spec(),
        "preset/train_dmt_criteo": presets.train_dmt_criteo_spec(),
        "preset/distributed_training": presets.distributed_training_spec(),
        "preset/naive_control": presets.naive_control_spec(
            presets.train_dmt_criteo_spec()
        ),
        # The deliberately pathological control arm is excluded from
        # experiment_specs() but is a public spec-builder all the same.
        "fault_tolerance/no_mitigation": fault_tolerance.no_mitigation_spec(
            150_000, 3
        ),
    }
    for mod in EXPERIMENTS:
        short = mod.__name__.rsplit(".", 1)[-1]
        for mode, fast in (("fast", True), ("full", False)):
            for arm, spec in mod.experiment_specs(fast=fast).items():
                specs[f"{short}/{mode}/{arm}"] = spec
    return {name: spec.to_json() for name, spec in specs.items()}


def diff_specs(expected: Dict[str, str], got: Dict[str, str]) -> List[str]:
    """One line per spec that is missing, unexpected, or differs."""
    lines = []
    for name in sorted(set(expected) | set(got)):
        if name not in got:
            lines.append(f"{name}: missing")
        elif name not in expected:
            lines.append(f"{name}: not in the fixture")
        elif expected[name] != got[name]:
            lines.append(f"{name}: JSON differs from the pinned text")
    return lines


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare fresh spec JSON against the fixture instead of "
        "rewriting it",
    )
    args = parser.parse_args(argv)
    fresh = spec_jsons()
    if not args.check:
        FIXTURE.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        print(f"wrote {FIXTURE} ({len(fresh)} specs)")
        return 0
    diffs = diff_specs(json.loads(FIXTURE.read_text()), fresh)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} differing specs of {len(fresh)} pinned")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
