"""Generator (and checker) for ``tests/golden/serving_reports.json``.

The fixture pins the full ``to_dict()`` of every serving front door —
``InferenceService``, ``ServingFleet`` and ``ResilientFleet``, each
also over a tiered storage — on small seeded traces, so the reports
survive any rewrite of the replay behind them, the ``summary()`` of
``Session.tier_plan()`` over a grid of tiered specs (generation x
below-HBM levels x backing x HBM rows), and the ``summary()`` of
``Session.plan()`` with the ``analyze_spec`` error codes, over a grid of
pricing-only DLRM specs (generation x cluster) and every pinned
``spec_json.json`` spec with a model or perf section::

    PYTHONPATH=src python tests/golden/gen_serving_reports.py          # rewrite
    PYTHONPATH=src python tests/golden/gen_serving_reports.py --check  # diff

``--check`` prints one line per differing leaf (``case/path: expected
X, got Y``) and exits 1, which is how CI tells a numpy/Python
difference in a pinned report from a behaviour change deep in a test.
Ints, strings, bools and ``None`` compare exactly; floats at
``rel_tol=1e-12``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy as np

from repro.analysis.speccheck import analyze_spec
from repro.api import (
    ClusterSpec,
    DataSpec,
    ModelSpec,
    PerfSpec,
    RunSpec,
    ServeSpec,
    Session,
    TierSpec,
)
from repro.hardware import Cluster
from repro.serving import (
    AutoscalePolicy,
    FaultConfig,
    FaultEvent,
    InferenceService,
    LRUEmbeddingCache,
    MicroBatcher,
    Placement,
    RecoveryModel,
    RequestStream,
    ResilientFleet,
    RetryPolicy,
    SLOAutoscaler,
    ServingFleet,
    ServingModel,
    SwapEvent,
    TieredPlacementEngine,
    WorkloadConfig,
    build_storage,
)
from repro.sim import SimCluster

FIXTURE = Path(__file__).with_name("serving_reports.json")
SPEC_FIXTURE = Path(__file__).with_name("spec_json.json")
REL_TOL = 1e-12

MODEL = ServingModel(
    name="tiny", num_lookups=4, embedding_dim=16, dense_mflops=1.0
)


def _trace(n: int = 1500, qps: float = 60_000.0, seed: int = 3):
    return RequestStream(
        WorkloadConfig(
            qps=qps, num_requests=n, num_lookups=4, key_space=2000, seed=seed
        )
    ).generate()


def _sim() -> SimCluster:
    return SimCluster(Cluster(num_hosts=4, gpus_per_host=2, generation="A100"))


def _batcher() -> MicroBatcher:
    return MicroBatcher(16, 0.001)


def _service(strategy: str) -> Dict[str, Any]:
    service = InferenceService(
        _sim(),
        MODEL,
        Placement(strategy, emb_hosts=1),
        _batcher(),
        LRUEmbeddingCache(256),
    )
    return service.serve(_trace()).to_dict()


def _fleet(router: str) -> Dict[str, Any]:
    fleet = ServingFleet(
        _sim(),
        MODEL,
        Placement("disaggregated", emb_hosts=1),
        _batcher(),
        router=router,
        num_replicas=4,
        cache_rows=128,
        router_seed=7,
    )
    return fleet.serve(_trace()).to_dict()


def _storage():
    return build_storage(
        "A100", 64, levels=("dram",), cache_rows=(512,), backing="remote"
    )


def _tiered_service() -> Dict[str, Any]:
    sim, storage = _sim(), _storage()
    placement = Placement("disaggregated", emb_hosts=1)
    service = InferenceService(
        sim,
        MODEL,
        placement,
        _batcher(),
        storage.make_chain(),
        TieredPlacementEngine(sim, MODEL, placement, storage),
    )
    return service.serve(_trace()).to_dict()


def _tiered_fleet() -> Dict[str, Any]:
    sim, storage = _sim(), _storage()
    placement = Placement("colocated")
    fleet = ServingFleet(
        sim,
        MODEL,
        placement,
        _batcher(),
        router="hash",
        num_replicas=3,
        cache_factory=storage.make_chain,
        engine=TieredPlacementEngine(sim, MODEL, placement, storage),
    )
    return fleet.serve(_trace()).to_dict()


def _resilient_healthy(router: str) -> Dict[str, Any]:
    fleet = ResilientFleet(
        _sim(),
        MODEL,
        Placement("disaggregated", emb_hosts=1),
        _batcher(),
        router=router,
        num_replicas=4,
        cache_rows=128,
        router_seed=7,
    )
    return fleet.serve(_trace()).to_dict()


def _resilient_storm(degraded_mode: bool) -> Dict[str, Any]:
    """Every control path at once: seeded crash / hang / brownout /
    outage plus one hand-placed crash, priced recovery, the
    autoscaler, one timed and one zero-downtime swap."""
    requests = _trace(n=3000, qps=150_000.0, seed=11)
    span = requests[-1].arrival_s - requests[0].arrival_s
    fleet = ResilientFleet(
        _sim(),
        MODEL,
        Placement("disaggregated", emb_hosts=1),
        _batcher(),
        router="hash",
        num_replicas=3,
        cache_rows=128,
        faults=FaultConfig(
            seed=5,
            replica_crashes=1,
            replica_hangs=1,
            hang_duration_s=0.15 * span,
            fetch_degrades=1,
            degrade_duration_s=0.2 * span,
            degrade_factor=3.0,
            fetch_outages=1,
            outage_duration_s=0.1 * span,
            events=(
                FaultEvent("replica_crash", at_s=0.3 * span, replica=1),
            ),
        ),
        retry=RetryPolicy(timeout_ms=0.4, max_retries=2, retry_budget=0.012),
        recovery=RecoveryModel(
            detection_s=0.0005,
            restore_s=0.001,
            checkpoint_period_s=0.002,
            warm_rows=64,
        ),
        autoscaler=SLOAutoscaler(
            AutoscalePolicy(
                slo_p99_ms=1.5,
                min_replicas=2,
                max_replicas=5,
                provision_s=0.0008,
                warm_rows=32,
            )
        ),
        degraded_mode=degraded_mode,
        swaps=(
            SwapEvent(
                at_s=0.55 * span,
                replica=0,
                version=1,
                swap_s=0.001,
                warm_rows=np.arange(40, dtype=np.int64),
            ),
            SwapEvent(
                at_s=0.7 * span,
                replica=2,
                version=1,
                swap_s=0.0,
                warm_rows=16,
            ),
        ),
    )
    return fleet.serve(requests).to_dict()


def _resilient_chaos() -> Dict[str, Any]:
    """The shape of perfbench's ``serve_chaos``, which the storm lacks:
    a flash crowd over a churning hot set, a DRAM tier under a small
    HBM cache, seeded crashes with priced recovery, one fetch brownout
    and the autoscaler, behind the consistent-hash router."""
    n, qps = 2000, 400_000.0
    span = n / qps
    requests = RequestStream(
        WorkloadConfig(
            qps=qps,
            num_requests=n,
            num_lookups=4,
            key_space=4096,
            seed=7,
            scenario="flash",
            flash_start_s=0.35 * span,
            flash_duration_s=0.3 * span,
            flash_factor=2.5,
            churn_keys_per_s=400_000.0,
        )
    ).generate()
    sim = _sim()
    placement = Placement("disaggregated", emb_hosts=1)
    storage = build_storage(
        "A100", 128, levels=("dram",), cache_rows=(1024,), backing="remote"
    )
    fleet = ResilientFleet(
        sim,
        MODEL,
        placement,
        _batcher(),
        router="hash",
        num_replicas=3,
        cache_factory=storage.make_chain,
        engine=TieredPlacementEngine(sim, MODEL, placement, storage),
        faults=FaultConfig(
            seed=5,  # two different replicas, the second inside the burst
            replica_crashes=2,
            fetch_degrades=1,
            degrade_duration_s=0.1 * span,
        ),
        retry=RetryPolicy(timeout_ms=0.25),
        recovery=RecoveryModel(
            detection_s=0.0002,
            restore_s=0.0004,
            checkpoint_period_s=0.0008,
            warm_rows=64,
        ),
        autoscaler=SLOAutoscaler(
            AutoscalePolicy(
                slo_p99_ms=1.0,
                min_replicas=3,
                max_replicas=5,
                provision_s=0.0005,
                warm_rows=32,
            )
        ),
    )
    return fleet.serve(requests).to_dict()


#: Below-HBM level sets of the pinned tier plans, sized so every level
#: is wider than the one above it and the chain stays under the key
#: space (the remote backing still serves misses).
_PLAN_LEVELS = {
    "none": ((), ()),
    "dram": (("dram",), (4096,)),
    "ssd": (("ssd",), (16_384,)),
    "dram+ssd": (("dram", "ssd"), (4096, 16_384)),
}


def _tier_plan(
    generation: str,
    levels: str,
    backing: str,
    hbm_rows: int,
    model: bool = False,
) -> Dict[str, Any]:
    """``Session.tier_plan()`` of one tiered spec: the profile's
    128-wide rows, or with ``model`` the model section's
    ``embedding_dim``."""
    names, rows = _PLAN_LEVELS[levels]
    spec = RunSpec(
        cluster=ClusterSpec(4, 2, generation),
        serve=ServeSpec(
            placement="disaggregated",
            emb_hosts=1,
            key_space=65_536,
            skew=1.05,
            cache_rows=hbm_rows,
        ),
        tiers=TierSpec(levels=names, cache_rows=rows, backing=backing),
    )
    if model:
        spec = spec.replace(
            data=DataSpec(num_samples=64),
            model=ModelSpec(variant="flat", embedding_dim=8),
        )
    return Session(spec).tier_plan().summary()


def _plan(spec: RunSpec) -> Dict[str, Any]:
    """``Session.plan()`` of one spec, with the error codes of its
    static analysis (``shard-capacity-overflow`` reads the same
    placement)."""
    errors = sorted(
        d.code for d in analyze_spec(spec) if d.severity == "error"
    )
    return {"summary": Session(spec).plan().summary(), "errors": errors}


def _perf_plan(generation: str, hosts: int, gpus: int) -> Dict[str, Any]:
    """A pricing-only spec plans the paper-scale Criteo tables."""
    return _plan(
        RunSpec(
            cluster=ClusterSpec(hosts, gpus, generation),
            perf=PerfSpec(kind="dlrm"),
        )
    )


def _planned_specs() -> Dict[str, RunSpec]:
    """The pinned ``spec_json.json`` specs that plan tables: those with
    a model or a perf section."""
    specs = {
        name: RunSpec.from_json(text)
        for name, text in json.loads(SPEC_FIXTURE.read_text()).items()
    }
    return {
        name: spec
        for name, spec in specs.items()
        if spec.model is not None or spec.perf is not None
    }


CASES: Dict[str, Callable[[], Dict[str, Any]]] = {
    "service/colocated": lambda: _service("colocated"),
    "service/disaggregated": lambda: _service("disaggregated"),
    "fleet/round_robin": lambda: _fleet("round_robin"),
    "fleet/hash": lambda: _fleet("hash"),
    "fleet/p2c": lambda: _fleet("p2c"),
    "tiered/service": _tiered_service,
    "tiered/fleet": _tiered_fleet,
    "resilient/healthy/round_robin": lambda: _resilient_healthy(
        "round_robin"
    ),
    "resilient/healthy/hash": lambda: _resilient_healthy("hash"),
    "resilient/healthy/p2c": lambda: _resilient_healthy("p2c"),
    "resilient/storm": lambda: _resilient_storm(True),
    "resilient/storm_no_degraded_mode": lambda: _resilient_storm(False),
    "resilient/chaos": _resilient_chaos,
    **{
        f"tier_plan/{gen}/{levels}/{backing}/{rows}": functools.partial(
            _tier_plan, gen, levels, backing, rows
        )
        for gen in ("V100", "H100")
        for levels in _PLAN_LEVELS
        for backing in ("remote", "hbm")
        for rows in (0, 1024)
    },
    "tier_plan/A100/dram/remote/1024/model": functools.partial(
        _tier_plan, "A100", "dram", "remote", 1024, model=True
    ),
    **{
        f"plan/{gen}/{hosts}x{gpus}": functools.partial(
            _perf_plan, gen, hosts, gpus
        )
        for gen in ("V100", "A100", "H100")
        for hosts, gpus in (
            (1, 1), (1, 2), (2, 2), (2, 4), (4, 4), (3, 6), (4, 8), (8, 8),
            (64, 8),
        )
    },
    **{
        f"plan/{name}": functools.partial(_plan, spec)
        for name, spec in _planned_specs().items()
    },
}


def replayed(name: str) -> Dict[str, Any]:
    """One pinned report, freshly replayed — through JSON, so ints vs
    floats are what the fixture stores (and NaN is refused)."""
    return json.loads(json.dumps(CASES[name](), allow_nan=False))


def diff_reports(expected: Any, got: Any, path: str = "") -> List[str]:
    """Named leaf-level differences between two report trees."""
    if isinstance(expected, dict) and isinstance(got, dict):
        out: List[str] = []
        for key in sorted(set(expected) | set(got)):
            where = f"{path}/{key}" if path else str(key)
            if key not in expected:
                out.append(f"{where}: unexpected, got {got[key]!r}")
            elif key not in got:
                out.append(f"{where}: missing, expected {expected[key]!r}")
            else:
                out.extend(diff_reports(expected[key], got[key], where))
        return out
    if isinstance(expected, list) and isinstance(got, list):
        if len(expected) != len(got):
            return [f"{path}: expected {len(expected)} items, got {len(got)}"]
        out = []
        for i, (a, b) in enumerate(zip(expected, got)):
            out.extend(diff_reports(a, b, f"{path}[{i}]"))
        return out
    is_float = isinstance(expected, float) and isinstance(got, float)
    same = (
        math.isclose(expected, got, rel_tol=REL_TOL, abs_tol=0.0)
        if is_float
        else type(expected) is type(got) and expected == got
    )
    return [] if same else [f"{path}: expected {expected!r}, got {got!r}"]


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare a fresh replay against the fixture instead of "
        "rewriting it",
    )
    args = parser.parse_args(argv)
    fresh = {name: replayed(name) for name in CASES}
    if not args.check:
        FIXTURE.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        print(f"wrote {FIXTURE} ({len(fresh)} reports)")
        return 0
    diffs = diff_reports(json.loads(FIXTURE.read_text()), fresh)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} differing values in {len(fresh)} pinned reports")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
